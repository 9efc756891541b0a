"""Catalog of the simple real Jordan algebras.

Seventeen families cover the finite-dimensional simple algebras over R:
the reals, quadratic (spin) factors, full matrix algebras over R, C and
H, symmetric and twisted-hermitian matrix families over R, C and H,
skew families realized on antisymmetric matrices and skew-hermitian
quaternionic matrices, the 3x3 octonionic hermitian algebras (division
and split entries), and the complexifications of the split families
viewed as real algebras.

Every builder returns a :class:`~jordanaff.jordan.JordanAlgebra` whose
meta records the family name and parameters.  Each family carries
a closed-form generic norm of degree d; the norm is tied to the engine
by the exact identity det P_u = N(u)^(2 dim / d), which
:func:`verify_det_formula` tests on random rational elements.

The norms run on stacks of integer coordinate rows in the exact kernel.
A matrix entry over the composition algebra ``sig`` is an integer array
(sig.dim, k), with k = 1 for real and k = 2 for complex scalars, and
:func:`~jordanaff.composition_algebras.cd_mul` is the one entry product.
The families whose entries are real or complex, and the quaternionic
ones through their complex image chi, take one stacked
:func:`exactla.det`; the Moore determinant of a hermitian quaternionic
matrix is the Pfaffian Pf(J chi(A)) (J = diag([[0, 1], [-1, 0]], ...)),
and the octonionic ones run the Freudenthal cubic.  A complexified
family evaluates its base family's norm at complex coordinates and
returns |N|^2.
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
                                   SPLIT_OCTONIONS, cd_conj, cd_mul, cd_norm,
                                   cd_real, cd_unit, mul_table_tensor)
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


def _matrices(kind, m, sig, z):
    """The matrix stack (s, m, m, sig.dim, k) of the coordinate rows z, an
    integer array (s, n, k): one einsum with the basis stack."""
    return la.einsum("spc,piju->sijuc", z, (_basis_stack(kind, m, sig), 1))


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


# --------------------------------------------------------------------------
# norm primitives on stacks: scalar values are integer arrays (..., k)

def _mul(x, y):
    """Products of real (k = 1) or complex (k = 2) scalars (..., k)."""
    return cd_mul(REALS, x[..., None, :], y[..., None, :])[..., 0, :]


def _real(v):
    """Complex values v (s, 2) that must be real, as (s, 1)."""
    if v[:, 1].any():
        raise ArithmeticError("complex determinant came out non-real")
    return v[:, :1]


def _det_stack(mats):
    """Determinants of a stack of real or complex matrices (s, m, m, ...)
    whose trailing axes hold one coefficient (real) or two (re, im) per
    entry, as an (s, 1) or (s, 2) integer array: one :func:`exactla.det`.
    """
    f = mats.reshape(mats.shape[:3] + (-1,))
    w = f.shape[-1]
    return la.asint(la.det(*np.moveaxis(f, -1, 0))).reshape(len(f), w)


# chi's 2x2 complex block of each quaternion unit, entries as (re, im):
# chi(1) = I, chi(i) = diag(i, -i), chi(j) = [[0, 1], [-1, 0]] and
# chi(k) = [[0, i], [i, 0]]
_CHI = np.array([[[(1, 0), (0, 0)], [(0, 0), (1, 0)]],
                 [[(0, 1), (0, 0)], [(0, 0), (0, -1)]],
                 [[(0, 0), (1, 0)], [(-1, 0), (0, 0)]],
                 [[(0, 0), (0, 1)], [(0, 1), (0, 0)]]], dtype=np.int64)
# the block of J chi(a), J = diag([[0, 1], [-1, 0]], ...)
_JCHI = np.einsum("ab,ubcw->uacw", [[0, 1], [-1, 0]], _CHI)


def _chi(mats, table=_CHI):
    """Complex images (s, 2m, 2m, 2) of a stack of quaternionic matrices
    (s, m, m, 4, 1), block by block through ``table``."""
    s, m = mats.shape[:2]
    out = la.einsum("siju,urcw->sirjcw", mats[..., 0], (table, 1))
    return out.reshape(s, 2 * m, 2 * m, 2)


@functools.lru_cache(maxsize=8)
def _matchings(n):
    """The perfect matchings of range(n), n even, as index arrays
    (M, n // 2) of their rows and columns and their signs (M,), so that
    Pf A = sum sign * prod A[rows, cols] (expansion along the first row).
    """
    def expand(rest):
        if not rest:
            yield (), 1
            return
        first, others = rest[0], rest[1:]
        for t, col in enumerate(others):
            for pairs, sign in expand(others[:t] + others[t + 1:]):
                yield ((first, col),) + pairs, sign if t % 2 == 0 else -sign
    pairs, signs = zip(*expand(tuple(range(n))))
    idx = np.array(pairs, dtype=np.int8).reshape(len(pairs), n // 2, 2)
    out = idx[..., 0], idx[..., 1], np.array(signs, dtype=np.int64)
    for arr in out:
        arr.flags.writeable = False
    return out


# matchings per block of a stacked Pfaffian, which bounds its memory
_MATCH_BLOCK = 2 ** 12


def _pfaffian(a):
    """Pfaffians of a stack a (s, n, n, k) of skew-symmetric real (k = 1)
    or complex (k = 2) integer matrices, as an (s, k) array: one signed
    sum over the cached perfect matchings, block by block."""
    rows, cols, signs = _matchings(a.shape[1])
    total = None
    for b in range(0, len(signs), _MATCH_BLOCK):
        f = a[:, rows[b:b + _MATCH_BLOCK], cols[b:b + _MATCH_BLOCK]]
        acc = f[:, :, 0]
        for t in range(1, f.shape[2]):
            acc = _mul(acc, f[:, :, t])
        part = la.einsum("smk,m->sk", acc, signs[b:b + _MATCH_BLOCK])
        total = part if total is None else la.lincomb((1, total), (1, part))
    return total


def _freudenthal(sig, mats):
    """Cubic norms of a stack of 3x3 hermitian matrices over a
    composition algebra (s, 3, 3, sig.dim, k)."""
    diag = mats[:, [0, 1, 2], [0, 1, 2], 0]          # a, b, c
    off = mats[:, [1, 0, 0], [2, 2, 1]]              # z, y, x
    z, y, x = off[:, 0], off[:, 1], off[:, 2]
    cross = cd_real(cd_mul(sig, cd_mul(sig, x, z), cd_conj(sig, y)))
    # a N(z), b N(y), c N(x)
    terms = _mul(diag, cd_norm(sig, off))
    abc = _mul(_mul(diag[:, 0], diag[:, 1]), diag[:, 2])
    return la.lincomb((1, abc), (2, cross),
                      *((-1, terms[:, t]) for t in range(3)))


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
    """One family: builder, closed-form norm, degree and size laws."""

    name: str
    build: Callable
    norm_eval: Callable     # (params, z (s, n, k)) -> norms (s, k)
    degree: Callable        # (params) -> int
    expected_dim: Callable  # (params) -> int
    desk: tuple             # parameter sets for the standard instance batch
    base: str | None = None  # set on complexified families
    base_params_of: Callable | None = None  # (**params) -> base params


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


def _family(j):
    """The catalog family j's meta names; BadParameterError when there is
    none, as for an algebra loaded from a file without catalog meta, or
    for an isotope, whose meta names its base's family, not its own."""
    name, base = j.meta.get("family"), j.meta.get("isotope_of")
    if base is not None or not isinstance(name, str) or name not in CATALOG:
        what = (f"marks an isotope of {base}" if base is not None else
                "names no catalog family" if name is None else
                f"names the unknown family {name!r}")
        raise BadParameterError(
            f"{j.name}: its meta {what}, and the closed-form norm and "
            "degree come from a catalog family")
    return CATALOG[name]


def degree(j):
    return _family(j).degree(j.meta.get("params", {}))


def generic_norm(j, u):
    """Closed-form generic norm of an element, an exact Fraction.  It
    is homogeneous of degree d, so N(x / dx) = N(x) / dx^d runs on the
    integer coordinates x."""
    x, dx = j._elem(u)
    return Fraction(_closed_form(j, x[None])[0], dx ** degree(j))


def _base_coordinates(j, x):
    """(family, params, z): the family whose norm and matrices take the
    coordinate rows x (s, dim) of j, and x as its scalar coordinates z
    (s, n, k).  On a complexified family that is the base family at
    complex coordinates, k = 2 (the first half of x the real parts, the
    second the imaginary ones); otherwise j's family and k = 1."""
    fam = _family(j)
    params = j.meta.get("params", {})
    k = 1 if fam.base is None else 2
    z = x.reshape(len(x), k, -1).transpose(0, 2, 1)
    if fam.base is None:
        return fam, params, z
    return CATALOG[fam.base], fam.base_params_of(**params), z


def _closed_form(j, x):
    """The family's closed-form norms at the rows of the integer array x
    (s, dim), as a list of ints; a complexified family returns |N|^2 of
    its base family's complex norm N."""
    fam, params, z = _base_coordinates(j, x)
    vals = fam.norm_eval(params, z)
    if z.shape[-1] == 1:
        return vals[:, 0].tolist()
    return la.einsum("sk,sk->s", vals, vals).tolist()


def _instance_name(name, params):
    if not params:
        return name
    inner = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{name}({inner})"


def _make_matrix_algebra(family, kind, m, sig, factor, params):
    kernel, labels = _structure_tensor(kind, m, sig, factor)
    return JordanAlgebra(
        kernel=kernel, name=_instance_name(family, params), labels=labels,
        meta={"family": family, "params": dict(params),
              "entry_signature": sig.gammas, "matrix_size": m})


def matrix_form(j, u):
    """Element coordinates -> matrix over the family's entry algebra.

    Returns (sig, matrix) for matrix families, the matrix as nested
    tuples of Fractions: entry [r][c] holds its sig.dim coefficients,
    and on a complexified family each coefficient is an (re, im) pair.
    Tensor families raise.
    """
    x, dx = j._elem(u)
    fam, params, z = _base_coordinates(j, x[None])
    shape = _FAMILY_SHAPES.get(fam.name)
    if shape is None:
        raise BadParameterError(
            f"{fam.name} elements have no matrix representation")
    kind, m_of, sig_of = shape
    sig = sig_of(params)
    mats = _matrices(kind, m_of(params), sig, z)[0]
    return sig, j._out(mats if z.shape[-1] == 2 else mats[..., 0], dx)


# kind, matrix size, entry signature per matrix family
_FAMILY_SHAPES = {}


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
        return JordanAlgebra(
            kernel=(_complexify_tensor(ci), den),
            name=_instance_name(name, params), labels=labels,
            meta={"family": name, "params": dict(params),
                  "base_family": base_name})
    # the family's parameters are those of base_params_of
    _build.__signature__ = inspect.signature(base_params_of)

    fam = Family(
        name=name, build=_build, norm_eval=base.norm_eval,
        degree=lambda p: 2 * base.degree(base_params_of(**p)),
        expected_dim=lambda p: 2 * base.expected_dim(base_params_of(**p)),
        desk=desk, base=base_name, base_params_of=base_params_of)
    _register(fam)
    return fam


# -- reals ------------------------------------------------------------------

def _build_reals():
    return JordanAlgebra(kernel=(np.ones((1, 1, 1), dtype=np.int64), 1),
                         name="reals", labels=("1",),
                         meta={"family": "reals", "params": {}})


_register(Family(
    name="reals", build=_build_reals,
    norm_eval=lambda params, z: z[:, 0],
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
                             "params": {"signs": signs}})


def _quadratic_norm(params, z):
    coeffs = la.asint([1] + [-s for s in params["signs"]])
    return la.einsum("snk,n->sk", _mul(z, z), coeffs)


_register(Family(
    name="quadratic", build=_build_quadratic, norm_eval=_quadratic_norm,
    degree=lambda p: 2, expected_dim=lambda p: len(p["signs"]) + 1,
    desk=({"signs": (1, 1)}, {"signs": (1, -1, 1)},
          {"signs": (-1, -1, -1, 1)})))


# -- full matrix families ------------------------------------------------

def _full_norm_factory(sig):
    def _norm(params, z):
        mats = _matrices("full", params["m"], sig, z)
        if sig is QUATERNIONS:
            return _real(_det_stack(_chi(mats)))
        dets = _det_stack(mats)
        if sig is COMPLEXES:  # |det_C|^2
            return la.einsum("sk,sk->s", dets, dets)[:, None]
        return dets
    return _norm


def _build_full_factory(family, sig):
    def _build(m):
        if m < 1:
            raise BadParameterError("matrix size must be positive")
        return _make_matrix_algebra(family, "full", m, sig, None, {"m": m})
    return _build


_register(Family(
    name="full_real", build=_build_full_factory("full_real", REALS),
    norm_eval=_full_norm_factory(REALS),
    degree=lambda p: p["m"], expected_dim=lambda p: p["m"] ** 2,
    desk=({"m": 2}, {"m": 3})))
_FAMILY_SHAPES["full_real"] = ("full", lambda p: p["m"], lambda p: REALS)

_register(Family(
    name="full_complex", build=_build_full_factory("full_complex",
                                                   COMPLEXES),
    norm_eval=_full_norm_factory(COMPLEXES),
    degree=lambda p: 2 * p["m"], expected_dim=lambda p: 2 * p["m"] ** 2,
    desk=({"m": 2},)))
_FAMILY_SHAPES["full_complex"] = ("full", lambda p: p["m"],
                                  lambda p: COMPLEXES)

_register(Family(
    name="full_quaternion",
    build=_build_full_factory("full_quaternion", QUATERNIONS),
    norm_eval=_full_norm_factory(QUATERNIONS),
    degree=lambda p: 2 * p["m"], expected_dim=lambda p: 4 * p["m"] ** 2,
    desk=({"m": 2},)))
_FAMILY_SHAPES["full_quaternion"] = ("full", lambda p: p["m"],
                                     lambda p: QUATERNIONS)


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


def _herm_norm_factory(sig):
    def _norm(params, z):
        mats = _matrices("herm", params["m"], sig, z)
        if sig is QUATERNIONS:  # the Moore determinant
            vals = _pfaffian(_chi(mats, _JCHI))
        else:
            vals = _det_stack(mats)
        if sig.dim > 1:
            vals = _real(vals)
        return la.lincomb((math.prod(params["gammas"]), vals))
    return _norm


_register(Family(
    name="symmetric_real", build=_herm_builder("symmetric_real", REALS),
    norm_eval=_herm_norm_factory(REALS),
    degree=lambda p: p["m"],
    expected_dim=lambda p: p["m"] * (p["m"] + 1) // 2,
    desk=({"m": 2, "gammas": (1, 1)}, {"m": 3, "gammas": (1, 1, -1)},
          {"m": 3, "gammas": (1, 1, 1)})))
_FAMILY_SHAPES["symmetric_real"] = ("herm", lambda p: p["m"],
                                    lambda p: REALS)

_register(Family(
    name="hermitian_complex",
    build=_herm_builder("hermitian_complex", COMPLEXES),
    norm_eval=_herm_norm_factory(COMPLEXES),
    degree=lambda p: p["m"], expected_dim=lambda p: p["m"] ** 2,
    desk=({"m": 2, "gammas": (1, -1)}, {"m": 3, "gammas": (1, 1, 1)})))
_FAMILY_SHAPES["hermitian_complex"] = ("herm", lambda p: p["m"],
                                       lambda p: COMPLEXES)

_register(Family(
    name="hermitian_quaternion",
    build=_herm_builder("hermitian_quaternion", QUATERNIONS),
    norm_eval=_herm_norm_factory(QUATERNIONS),
    degree=lambda p: p["m"],
    expected_dim=lambda p: p["m"] * (2 * p["m"] - 1),
    desk=({"m": 2, "gammas": (1, 1)}, {"m": 3, "gammas": (1, 1, -1)})))
_FAMILY_SHAPES["hermitian_quaternion"] = ("herm", lambda p: p["m"],
                                          lambda p: QUATERNIONS)


# -- skew families ---------------------------------------------------------

def _build_skew_hamiltonian(m):
    if m < 1:
        raise BadParameterError("matrix size must be positive")
    return _make_matrix_algebra(
        "skew_hamiltonian", "skew", 2 * m, REALS, _symplectic(m)[..., None],
        {"m": m})


def _skew_hamiltonian_norm(params, z):
    m = params["m"]
    # Pf(-J) is +1 or -1, so dividing by it is multiplying by it
    sign = _pfaffian(-_symplectic(m)[None, ..., None])[0, 0]
    mats = _matrices("skew", 2 * m, REALS, z)
    return la.lincomb((sign, _pfaffian(mats[..., 0, :])))


_register(Family(
    name="skew_hamiltonian", build=_build_skew_hamiltonian,
    norm_eval=_skew_hamiltonian_norm,
    degree=lambda p: p["m"],
    expected_dim=lambda p: p["m"] * (2 * p["m"] - 1),
    desk=({"m": 2}, {"m": 3})))
_FAMILY_SHAPES["skew_hamiltonian"] = ("skew", lambda p: 2 * p["m"],
                                      lambda p: REALS)


def _build_skew_hermitian_quaternion(m):
    if m < 1:
        raise BadParameterError("matrix size must be positive")
    sig = QUATERNIONS
    minus_i = _diagonal(sig, [cd_unit(sig, 1, -1)] * m)
    return _make_matrix_algebra(
        "skew_hermitian_quaternion", "skewherm", m, sig, minus_i, {"m": m})


def _skew_hermitian_quaternion_norm(params, z):
    mats = _matrices("skewherm", params["m"], QUATERNIONS, z)
    return _real(_det_stack(_chi(mats)))


_register(Family(
    name="skew_hermitian_quaternion",
    build=_build_skew_hermitian_quaternion,
    norm_eval=_skew_hermitian_quaternion_norm,
    degree=lambda p: 2 * p["m"],
    expected_dim=lambda p: p["m"] * (2 * p["m"] + 1),
    desk=({"m": 2}, {"m": 3})))
_FAMILY_SHAPES["skew_hermitian_quaternion"] = (
    "skewherm", lambda p: p["m"], lambda p: QUATERNIONS)


# -- octonionic 3x3 hermitian families -------------------------------------

def _build_octonion_hermitian(gammas=(1, 1, 1)):
    gammas = _signs(gammas, 3)
    sig = OCTONIONS
    return _make_matrix_algebra(
        "octonion_hermitian", "herm", 3, sig, _gamma_factor(sig, gammas),
        {"gammas": gammas})


def _oct_norm_factory(sig):
    def _norm(params, z):
        gammas = params.get("gammas", (1, 1, 1))
        return la.lincomb((math.prod(gammas),
                           _freudenthal(sig, _matrices("herm", 3, sig, z))))
    return _norm


_register(Family(
    name="octonion_hermitian", build=_build_octonion_hermitian,
    norm_eval=_oct_norm_factory(OCTONIONS),
    degree=lambda p: 3, expected_dim=lambda p: 27,
    desk=({"gammas": (1, 1, 1)}, {"gammas": (1, 1, -1)})))
_FAMILY_SHAPES["octonion_hermitian"] = ("herm", lambda p: 3,
                                        lambda p: OCTONIONS)


def _build_split_octonion_hermitian():
    sig = SPLIT_OCTONIONS
    return _make_matrix_algebra(
        "split_octonion_hermitian", "herm", 3, sig, None, {})


_register(Family(
    name="split_octonion_hermitian",
    build=_build_split_octonion_hermitian,
    norm_eval=_oct_norm_factory(SPLIT_OCTONIONS),
    degree=lambda p: 3, expected_dim=lambda p: 27, desk=({},)))
_FAMILY_SHAPES["split_octonion_hermitian"] = ("herm", lambda p: 3,
                                              lambda p: SPLIT_OCTONIONS)


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


def verify_det_formula(j, n_samples=5, seed=0):
    """det P_u = N(u)^(2 dim / degree) on random rational elements."""
    fam = _family(j)
    params = j.meta.get("params", {})
    d = fam.degree(params)
    if (2 * j.dim) % d:
        raise AssertionError(
            f"{j.name}: 2*dim = {2 * j.dim} not divisible by degree {d}")
    expo = 2 * j.dim // d
    # the samples as one stack: their P_u and det P_u in one call each,
    # and their norms with the unit's numerator e in one more
    e, de = j._elem(j.unity())
    x = j._int_elements(random.Random(seed), n_samples, 5)
    norm_e, *norms = _closed_form(j, np.concatenate([e[None], x]))
    ne = Fraction(norm_e, de ** d)
    worst = max([abs(ne - 1)] + [
        abs(lhs - norm ** expo) for lhs, norm in zip(j._dets(x), norms)])
    return CheckResult(
        name="det_closed_form", passed=worst == 0, max_residual=worst,
        samples=1 + n_samples, seed=seed,
        details={"degree": d, "exponent": expo,
                 "unit_norm_residual": ne - 1})
