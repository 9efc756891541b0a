"""Catalog of the simple real Jordan algebras.

Seventeen families cover the finite-dimensional simple algebras over R:
the reals, quadratic (spin) factors, full matrix algebras over R, C and
H, symmetric and twisted-hermitian matrix families over R, C and H,
skew families realized on antisymmetric matrices and skew-hermitian
quaternionic matrices, the 3x3 octonionic hermitian algebras (division
and split entries), and the complexifications of the split families
viewed as real algebras.

Every builder returns a :class:`~jordanaff.jordan.JordanAlgebra` whose
meta records the family name and parameters, and each family declares
its dimension and degree as laws of its parameters.  The generic norm
comes from the algebra itself, not from its family.  The degree r is
the largest degree of the minimal polynomials of seeded elements, read
from their Krylov stacks [e, u, u^2, ...].  The power sums
p_k = (r / n) tr L_{u^k} are the generic traces of the powers of u, and
Newton's identities turn them into N(u) = e_r (Faraut and Koranyi,
Analysis on Symmetric Cones, ch. II; Jacobson, Structure and
Representations of Jordan Algebras, on generic minimum polynomials).
:func:`verify_det_formula` ties the norm to the engine by the identity
det P_u = N(u)^(2 n / r) of every simple Jordan algebra, on any algebra:
a catalog instance, an isotope, a file, or a direct sum, which it
checks ideal by ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import functools
import inspect
import math
import numbers
import random
from typing import Callable

import numpy as np

from . import exactla as la
from .composition_algebras import (COMPLEXES, OCTONIONS, QUATERNIONS, REALS,
                                   SPLIT_OCTONIONS, cd_unit, mul_table_tensor)
# The catalog calls no cd_mul; the name stays because certbench/spans.py
# counts its calls by patching catalog.cd_mul, and fails where it is gone.
from .composition_algebras import cd_mul  # noqa: F401
from .jordan import JordanAlgebra
from .reports import CheckResult


class UnknownFamilyError(KeyError):
    pass


class BadParameterError(ValueError):
    pass


# --------------------------------------------------------------------------
# canonical bases for the matrix shapes

def _slots(kind, m, sig):
    d = sig.dim
    out = []
    if kind == "herm":
        for i in range(m):
            out.append(("d", i, i, 0))
        for i in range(m):
            for j in range(i + 1, m):
                for u in range(d):
                    out.append(("s", i, j, u))
    elif kind == "skewherm":
        for i in range(m):
            for u in range(1, d):
                out.append(("d", i, i, u))
        for i in range(m):
            for j in range(i + 1, m):
                for u in range(d):
                    out.append(("k", i, j, u))
    elif kind == "full":
        for i in range(m):
            for j in range(m):
                for u in range(d):
                    out.append(("f", i, j, u))
    elif kind == "skew":
        for i in range(m):
            for j in range(i + 1, m):
                out.append(("k", i, j, 0))
    else:
        raise ValueError(f"unknown matrix shape {kind!r}")
    return out


def _slot_label(slot, sig):
    t, i, j, u = slot
    unit = "" if u == 0 else f".e{u}"
    if t == "d":
        return f"E{i}{i}{unit}"
    return f"E{i}{j}{unit}"


@functools.lru_cache(maxsize=None)
def _basis_stack(kind, m, sig):
    """Integer stack E of shape (n, m, m, sig.dim): E[p] is basis element
    p.  Cached and read-only."""
    slots = _slots(kind, m, sig)
    e = np.zeros((len(slots), m, m, sig.dim), dtype=np.int64)
    for p, (t, i, j, u) in enumerate(slots):
        e[p, i, j, u] = 1
        if t in "sk":  # the mirrored entry, conjugated or negated
            e[p, j, i, u] = 1 if (t == "s") == (u == 0) else -1
    e.flags.writeable = False
    return e


def _structure_tensor(kind, m, sig, factor=None):
    """Structure constants of the given matrix shape under the product
    X o Y = (X G Y + Y G X) / 2, where G is ``factor``, an integer
    (m, m, sig.dim) array, or the identity when it is None.  They come
    back as the kernel pair (2 X o Y coordinates, 2), with the labels.

    Raises if any basis product falls outside the span of the shape,
    which would mean the product does not close on the subspace.
    """
    slots = _slots(kind, m, sig)
    table = mul_table_tensor(sig)
    e = _basis_stack(kind, m, sig)
    eg = e if factor is None else la.einsum("piku,kjv,uvw->pijw",
                                            e, factor, table)
    x = la.einsum("piku,qkjv,uvw->pqijw", eg, e, table)
    twice = x + x.transpose(1, 0, 2, 3, 4)
    _, rows, cols, units = zip(*slots)
    coords = twice[:, :, rows, cols, units]
    back = la.einsum("pqs,sijw->pqijw", coords, e)
    leaks = np.argwhere((back != twice).any(axis=(2, 3, 4)))
    if len(leaks):
        p, q = leaks[0]
        raise BadParameterError(
            f"product of basis elements {p}, {q} leaves the "
            f"{kind} matrix space")
    return (coords, 2), [_slot_label(s, sig) for s in slots]


def _diagonal(sig, entries):
    """Integer (m, m, sig.dim) matrix with the given entries on its
    diagonal."""
    g = np.zeros((len(entries), len(entries), sig.dim), dtype=np.int64)
    for i, entry in enumerate(entries):
        g[i, i] = entry
    return g


def _signs(gammas, m=None):
    gammas = tuple(int(g) for g in gammas)
    if any(g not in (-1, 1) for g in gammas):
        raise BadParameterError("twist entries must be +1 or -1")
    if m is not None and len(gammas) != m:
        raise BadParameterError(f"twist needs exactly {m} entries")
    return gammas


def _symplectic(m):
    j = np.zeros((2 * m, 2 * m), dtype=np.int64)
    j[range(m), range(m, 2 * m)] = 1
    j[range(m, 2 * m), range(m)] = -1
    return j


# --------------------------------------------------------------------------
# family registry

@dataclass(frozen=True)
class Family:
    """One family: builder, declared degree and dimension laws, desk
    parameters."""

    name: str
    build: Callable
    degree: Callable        # (params) -> int
    expected_dim: Callable  # (params) -> int
    desk: tuple             # parameter sets for the standard instance batch


CATALOG: dict[str, Family] = {}


def _register(fam):
    CATALOG[fam.name] = fam
    return fam


def family_names():
    return tuple(CATALOG)


def _is_int(x):
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def build(name, **params):
    """Build the family's instance; an unknown or missing parameter name,
    or a value of the wrong type, raises BadParameterError.

    ``m`` is an integer; ``signs`` and ``gammas`` are lists or tuples of
    integers.  The builders check the ranges (m >= 1, entries +-1).
    """
    if name not in CATALOG:
        raise UnknownFamilyError(
            f"unknown family {name!r}; known: {', '.join(CATALOG)}")
    try:
        inspect.signature(CATALOG[name].build).bind(**params)
    except TypeError as err:
        raise BadParameterError(f"{name}: {err}") from None
    for key, value in params.items():
        ok = (_is_int(value) if key == "m" else
              isinstance(value, (list, tuple)) and all(map(_is_int, value)))
        if not ok:
            want = "an integer" if key == "m" else "a list of integers"
            raise BadParameterError(
                f"{name}: {key} must be {want}, got {value!r}")
    j = CATALOG[name].build(**params)
    expected = CATALOG[name].expected_dim(params)
    if j.dim != expected:
        raise AssertionError(
            f"{name}: built dimension {j.dim} != expected {expected}")
    return j


def _instance_name(name, params):
    if not params:
        return name
    inner = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{name}({inner})"


def _make_matrix_algebra(family, kind, m, sig, factor, params,
                         inverse=None):
    """The algebra of X o Y = (X G Y + Y G X) / 2 on the matrix shape,
    G = ``factor``.  Its unit is G^{-1} (X o G^{-1} = X), ``inverse``;
    by default G itself, which is its own inverse for G = I and for the
    diagonal +-1 twists.  Each slot (t, i, j, u) reads its coordinate
    of the unit hint off entry (i, j, u) of G^{-1}, as
    :func:`_structure_tensor` reads products."""
    kernel, labels = _structure_tensor(kind, m, sig, factor)
    if inverse is None:
        inverse = (factor if factor is not None
                   else _diagonal(sig, [cd_unit(sig, 0)] * m))
    _, rows, cols, units = zip(*_slots(kind, m, sig))
    return JordanAlgebra(
        kernel=kernel, name=_instance_name(family, params), labels=labels,
        meta={"family": family, "params": dict(params),
              "entry_signature": sig.gammas, "matrix_size": m},
        unit=(inverse[rows, cols, units], 1))


def _complexify_tensor(ci):
    """The tensor of the complexification J + iJ, viewed as real, from
    the kernel array of J."""
    n = len(ci)
    out = np.zeros((2 * n,) * 3, dtype=ci.dtype)
    out[:n, :n, :n] = ci
    out[:n, n:, n:] = ci
    out[n:, :n, n:] = ci
    out[n:, n:, :n] = -ci
    return out


def _complexified(name, base_name, base_params_of, desk):
    base = CATALOG[base_name]

    def _build(**params):
        bj = base.build(**base_params_of(**params))
        ci, den = bj._int_tensor()
        labels = list(bj.labels) + [f"i*{lab}" for lab in bj.labels]
        # the unit of J + iJ is the unit of J, with no imaginary part
        e, de = bj._known_unit()
        return JordanAlgebra(
            kernel=(_complexify_tensor(ci), den),
            name=_instance_name(name, params), labels=labels,
            meta={"family": name, "params": dict(params),
                  "base_family": base_name},
            unit=(np.concatenate([e, np.zeros_like(e)]), de))
    # the family's parameters are those of base_params_of
    _build.__signature__ = inspect.signature(base_params_of)

    fam = Family(
        name=name, build=_build,
        degree=lambda p: 2 * base.degree(base_params_of(**p)),
        expected_dim=lambda p: 2 * base.expected_dim(base_params_of(**p)),
        desk=desk)
    _register(fam)
    return fam


# -- reals ------------------------------------------------------------------

def _build_reals():
    return JordanAlgebra(kernel=(np.ones((1, 1, 1), dtype=np.int64), 1),
                         name="reals", labels=("1",),
                         meta={"family": "reals", "params": {}},
                         unit=(np.ones(1, dtype=np.int64), 1))


_register(Family(
    name="reals", build=_build_reals,
    degree=lambda p: 1, expected_dim=lambda p: 1, desk=({},)))


# -- quadratic (spin) factors -------------------------------------------

def _build_quadratic(signs):
    signs = _signs(signs)
    if len(signs) < 2:
        raise BadParameterError(
            "a simple quadratic factor needs at least two square terms")
    n = len(signs) + 1
    ci, a = np.zeros((n, n, n), dtype=np.int64), np.arange(n)
    ci[0, a, a] = ci[a, 0, a] = 1
    ci[a[1:], a[1:], 0] = signs
    labels = ("1",) + tuple(f"x{a}" for a in range(1, n))
    return JordanAlgebra(
        kernel=(ci, 1), name=_instance_name("quadratic", {"signs": signs}),
        labels=labels, meta={"family": "quadratic",
                             "params": {"signs": signs}},
        unit=(np.eye(n, dtype=np.int64)[0], 1))


_register(Family(
    name="quadratic", build=_build_quadratic,
    degree=lambda p: 2, expected_dim=lambda p: len(p["signs"]) + 1,
    desk=({"signs": (1, 1)}, {"signs": (1, -1, 1)},
          {"signs": (-1, -1, -1, 1)})))


# -- full matrix families ------------------------------------------------

def _build_full_factory(family, sig):
    def _build(m):
        if m < 1:
            raise BadParameterError("matrix size must be positive")
        return _make_matrix_algebra(family, "full", m, sig, None, {"m": m})
    return _build


_register(Family(
    name="full_real", build=_build_full_factory("full_real", REALS),
    degree=lambda p: p["m"], expected_dim=lambda p: p["m"] ** 2,
    desk=({"m": 2}, {"m": 3})))
_register(Family(
    name="full_complex", build=_build_full_factory("full_complex",
                                                   COMPLEXES),
    degree=lambda p: 2 * p["m"], expected_dim=lambda p: 2 * p["m"] ** 2,
    desk=({"m": 2},)))
_register(Family(
    name="full_quaternion",
    build=_build_full_factory("full_quaternion", QUATERNIONS),
    degree=lambda p: 2 * p["m"], expected_dim=lambda p: 4 * p["m"] ** 2,
    desk=({"m": 2},)))


# -- symmetric / hermitian families with a diagonal twist ------------------

def _gamma_factor(sig, gammas):
    return _diagonal(sig, [cd_unit(sig, 0, g) for g in gammas])


def _herm_builder(family, sig):
    def _build(m, gammas=None):
        if m < 1:
            raise BadParameterError("matrix size must be positive")
        gammas = _signs(gammas if gammas is not None else (1,) * m, m)
        return _make_matrix_algebra(
            family, "herm", m, sig, _gamma_factor(sig, gammas),
            {"m": m, "gammas": gammas})
    return _build


_register(Family(
    name="symmetric_real", build=_herm_builder("symmetric_real", REALS),
    degree=lambda p: p["m"],
    expected_dim=lambda p: p["m"] * (p["m"] + 1) // 2,
    desk=({"m": 2, "gammas": (1, 1)}, {"m": 3, "gammas": (1, 1, -1)},
          {"m": 3, "gammas": (1, 1, 1)})))
_register(Family(
    name="hermitian_complex",
    build=_herm_builder("hermitian_complex", COMPLEXES),
    degree=lambda p: p["m"], expected_dim=lambda p: p["m"] ** 2,
    desk=({"m": 2, "gammas": (1, -1)}, {"m": 3, "gammas": (1, 1, 1)})))
_register(Family(
    name="hermitian_quaternion",
    build=_herm_builder("hermitian_quaternion", QUATERNIONS),
    degree=lambda p: p["m"],
    expected_dim=lambda p: p["m"] * (2 * p["m"] - 1),
    desk=({"m": 2, "gammas": (1, 1)}, {"m": 3, "gammas": (1, 1, -1)})))


# -- skew families ---------------------------------------------------------

def _build_skew_hamiltonian(m):
    if m < 1:
        raise BadParameterError("matrix size must be positive")
    jm = _symplectic(m)[..., None]
    return _make_matrix_algebra("skew_hamiltonian", "skew", 2 * m, REALS,
                                jm, {"m": m}, -jm)


_register(Family(
    name="skew_hamiltonian", build=_build_skew_hamiltonian,
    degree=lambda p: p["m"],
    expected_dim=lambda p: p["m"] * (2 * p["m"] - 1),
    desk=({"m": 2}, {"m": 3})))


def _build_skew_hermitian_quaternion(m):
    if m < 1:
        raise BadParameterError("matrix size must be positive")
    sig = QUATERNIONS
    minus_i = _diagonal(sig, [cd_unit(sig, 1, -1)] * m)
    return _make_matrix_algebra(
        "skew_hermitian_quaternion", "skewherm", m, sig, minus_i, {"m": m},
        -minus_i)


_register(Family(
    name="skew_hermitian_quaternion",
    build=_build_skew_hermitian_quaternion,
    degree=lambda p: 2 * p["m"],
    expected_dim=lambda p: p["m"] * (2 * p["m"] + 1),
    desk=({"m": 2}, {"m": 3})))


# -- octonionic 3x3 hermitian families -------------------------------------

def _build_octonion_hermitian(gammas=(1, 1, 1)):
    gammas = _signs(gammas, 3)
    sig = OCTONIONS
    return _make_matrix_algebra(
        "octonion_hermitian", "herm", 3, sig, _gamma_factor(sig, gammas),
        {"gammas": gammas})


_register(Family(
    name="octonion_hermitian", build=_build_octonion_hermitian,
    degree=lambda p: 3, expected_dim=lambda p: 27,
    desk=({"gammas": (1, 1, 1)}, {"gammas": (1, 1, -1)})))


def _build_split_octonion_hermitian():
    sig = SPLIT_OCTONIONS
    return _make_matrix_algebra(
        "split_octonion_hermitian", "herm", 3, sig, None, {})


_register(Family(
    name="split_octonion_hermitian",
    build=_build_split_octonion_hermitian,
    degree=lambda p: 3, expected_dim=lambda p: 27, desk=({},)))


# -- complexified families --------------------------------------------------

_complexified("complex_field", "reals", lambda: {}, ({},))
_complexified("complex_quadratic", "quadratic",
              lambda m: {"signs": (1,) * (m - 1)},
              ({"m": 3},))
_complexified("symmetric_complex", "symmetric_real",
              lambda m: {"m": m, "gammas": (1,) * m},
              ({"m": 3},))
_complexified("skew_complex", "skew_hamiltonian",
              lambda m: {"m": m}, ({"m": 2},))
_complexified("complex_octonion_hermitian", "split_octonion_hermitian",
              lambda: {}, ({},))


# --------------------------------------------------------------------------

def desk_catalog():
    """The standard batch of instances exercising every family."""
    out = []
    for name, fam in CATALOG.items():
        for params in fam.desk:
            out.append((name, dict(params)))
    return out


# seeded draws whose minimal polynomials give the degree, beside the
# rows a caller asks about
_DEGREE_DRAWS, _DEGREE_SEED = 2, 1


def _newton_norms(j, x, dx, exact=False):
    """(r, norms): r, the largest degree of the minimal polynomials of
    the seeded draws and of the rows u of x / dx (dx one int per row),
    and the generic norms N(u) of those rows, as Fractions.

    One stack holds the powers of every row, u^(k+1) = T_u u^k.  The
    Krylov stack [e, u, ..., u^k] of a row stops growing in rank at the
    degree of u, so the ranks are read at k = 2, 4, 8, ... until every
    stack is dependent, and their largest is r.  They are read modulo a
    prime, which can only underestimate them, or, with ``exact``, by
    :func:`exactla.int_rank`.  The power sums p_k = (r / n) tr L_{u^k}
    give N(u) = e_r by Newton's identities,
    k e_k = sum_{i <= k} (-1)^(i - 1) e_{k - i} p_i, run on integers: with
    q = den * dx, tr L_{u^k} = t_k / q^k and E_k = k! n^k q^k e_k,
    E_k = sum_i (-1)^(i - 1) (k - 1)! / (k - i)! E_{k - i} r n^(i - 1) t_i.
    """
    n = j.dim
    e, _ = j._unit_int()
    _, st, den = j._operands()
    tau = la.asint(j._basis_traces()[0])
    draws = j._int_elements(random.Random(_DEGREE_SEED), _DEGREE_DRAWS, 5)
    x = np.concatenate([draws, x])
    tu = la.einsum("si,ikj->skj", x, st)
    powers = [np.broadcast_to(e, x.shape), x]
    while True:
        # u^(k + 1), ..., u^(2 k), then one rank reading of the stacks
        for _ in range(len(powers) - 1):
            powers.append(la.einsum("skj,sj->sk", tu, powers[-1]))
        stack = np.stack(powers, axis=1)
        ranks = ([la.int_rank(m) for m in stack] if exact
                 else la.rank_bounds(stack).tolist())
        if max(ranks) < len(powers):
            break
    r = max(ranks)
    # t_k for k = 1..r, one row per k and one column per caller's row
    t = la.einsum("ab,b->a", np.concatenate(powers[1:r + 1]), tau).reshape(
        r, -1)[:, len(draws):].astype(object)
    big = [1]
    for k in range(1, r + 1):
        big.append(sum((-1) ** (i - 1) * math.perm(k - 1, i - 1) * r
                       * n ** (i - 1) * big[k - i] * t[i - 1]
                       for i in range(1, k + 1)))
    norms = [Fraction(a, math.factorial(r) * (n * den * d) ** r)
             for a, d in zip(big[r].tolist(), dx)]
    return r, norms


def degree(j):
    """The generic degree r of j: the largest degree of the minimal
    polynomials of seeded draws, certified by :func:`exactla.int_rank`.
    It is the family's declared degree on every desk instance."""
    return _newton_norms(j, np.empty((0, j.dim), np.int64), [], True)[0]


def generic_norm(j, u):
    """The generic norm N(u) of an element of a simple algebra, an exact
    Fraction: e_r of the power sums p_k = (r / n) tr L_{u^k}, with r the
    degree of j."""
    x, dx = j._elem(u)
    return _newton_norms(j, x[None], [dx], True)[1][0]


def verify_det_formula(j, n_samples=5, seed=0):
    """det P_u = N(u)^(2 n / r) and N(e) = 1, with N the generic norm and
    r the degree (:func:`_newton_norms`), at the unit and at ``n_samples``
    seeded integer elements: a theorem of every simple Jordan algebra
    (Faraut and Koranyi, Analysis on Symmetric Cones, Prop. III.4.2).

    An algebra whose center is not one-dimensional is split into its
    simple ideals (:meth:`JordanAlgebra.decompose`), each checked in its
    own coordinates; the details then list one entry per ideal.  N(e) = 1
    holds by construction, since p_k(e) = (r / n) tr L_e = r.  Where r
    does not divide 2 n, as on no simple Jordan algebra, det P_u^r is
    compared with N(u)^(2 n).  The degree's ranks are read modulo a prime
    and certified only when the identity fails, so a FAIL never comes
    from an underestimated degree.  The check keeps the name
    ``det_closed_form`` that JSON reports are keyed by.
    """
    parts = ([j] if len(j.center(seed)) == 1 else
             [sub for sub, _ in j.decompose(seed)])
    out = [_det_check(sub, n_samples, seed) for sub in parts]
    worst = max(w for w, _ in out)
    keys = ("degree", "exponent", "unit_norm_residual")
    details = (out[0][1] if len(out) == 1 else
               {k: [d[k] for _, d in out] for k in keys})
    return CheckResult(
        name="det_closed_form", passed=worst == 0, max_residual=worst,
        samples=len(parts) * (1 + n_samples), seed=seed, details=details)


def _det_check(j, n_samples, seed):
    """(worst residual, details) of :func:`verify_det_formula` on one
    algebra: one det P stack for the samples, and their norms with the
    unit's from one :func:`_newton_norms` stack."""
    e, de = j._unit_int()
    x = j._int_elements(random.Random(seed), n_samples, 5)
    dets = j._dets(x)
    two_n = 2 * j.dim
    for exact in (False, True):
        r, (ne, *norms) = _newton_norms(j, np.concatenate([e[None], x]),
                                        [de] + [1] * n_samples, exact)
        expo, rem = divmod(two_n, r)
        # det P_u^r = N(u)^(2 n) where r does not divide 2 n
        a, b = (r, two_n) if rem else (1, expo)
        worst = max([abs(ne - 1)] + [abs(lhs ** a - norm ** b)
                                     for lhs, norm in zip(dets, norms)])
        if worst == 0:
            break
    return worst, {"degree": r,
                   "exponent": Fraction(two_n, r) if rem else expo,
                   "unit_norm_residual": ne - 1}
