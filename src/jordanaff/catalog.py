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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import inspect
from itertools import permutations
import math
import numbers
import random
from typing import Callable

import numpy as np

from . import exactla as la
from .composition_algebras import (COMPLEXES, OCTONIONS, QUATERNIONS, REALS,
                                   SPLIT_OCTONIONS, cd_conj, cd_mul, cd_norm,
                                   cd_real, cd_unit, mul_table_tensor)
from .exactla import QI
from .jordan import JordanAlgebra
from .reports import CheckResult


class UnknownFamilyError(KeyError):
    pass


class BadParameterError(ValueError):
    pass


# --------------------------------------------------------------------------
# matrices over a composition algebra
#
# The norms see a matrix as a list of lists of coefficient tuples (length
# sig.dim), generic over Fraction and QI scalars.  The builders see it as
# an integer ndarray of shape (m, m, sig.dim).

def _mat_zero(m, d, like):
    z = like - like
    return [[[z] * d for _ in range(m)] for _ in range(m)]


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


def _to_matrix(kind, m, sig, slots, coords):
    mat = _mat_zero(m, sig.dim, next(iter(coords), None))
    for (t, i, j, u), x in zip(slots, coords):
        if t == "f":
            mat[i][j][u] = mat[i][j][u] + x
        elif t == "d":
            mat[i][i][u] = mat[i][i][u] + x
        elif t == "s":
            mat[i][j][u] = mat[i][j][u] + x
            mat[j][i][u] = mat[j][i][u] + (x if u == 0 else -x)
        elif t == "k":
            mat[i][j][u] = mat[i][j][u] + x
            mat[j][i][u] = mat[j][i][u] + (-x if u == 0 else x)
    return mat


def _basis_stack(kind, m, sig, slots):
    """Integer stack E of shape (n, m, m, d): E[p] is basis element p."""
    # the coordinates are the rows of the identity, so each matrix entry
    # comes out as the vector of its values over the whole basis
    units = np.eye(len(slots), dtype=np.int64)
    return np.moveaxis(np.array(_to_matrix(kind, m, sig, slots, units)),
                       -1, 0)


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
    e = _basis_stack(kind, m, sig, slots)
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
# norm primitives (generic over int / QI scalars)

def _pfaffian(rows):
    n = len(rows)
    if n == 0:
        return 1
    zero = rows[0][0] - rows[0][0]
    if n % 2:
        return zero
    if n == 2:
        return rows[0][1]
    acc = None
    others = list(range(1, n))
    for t, j in enumerate(others):
        a = rows[0][j]
        if not a:
            continue
        rest = [r for r in others if r != j]
        sub = [[rows[p][q] for q in rest] for p in rest]
        term = a * _pfaffian(sub)
        if t % 2:
            term = -term
        acc = term if acc is None else acc + term
    return zero if acc is None else acc


def _moore_det(sig, mat):
    """Determinant of a hermitian matrix over an associative algebra.

    Permutation-cycle expansion: each cycle is written with its smallest
    index first and the per-cycle entry products are multiplied in
    increasing order of that leading index.  For hermitian input the
    result is a real scalar.
    """
    m = len(mat)
    total = None
    for perm in permutations(range(m)):
        seen = [False] * m
        cycles = []
        for s in range(m):
            if seen[s]:
                continue
            cyc = [s]
            seen[s] = True
            t = perm[s]
            while t != s:
                cyc.append(t)
                seen[t] = True
                t = perm[t]
            cycles.append(cyc)
        sign = 1 if (m - len(cycles)) % 2 == 0 else -1
        prod = None
        for cyc in cycles:
            part = None
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                e = mat[a][b]
                part = e if part is None else cd_mul(sig, part, e)
            prod = part if prod is None else cd_mul(sig, prod, part)
        term = cd_real(prod)
        if sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def _freudenthal_det(sig, mat):
    """Cubic norm of a 3x3 hermitian matrix over a composition algebra."""
    a = mat[0][0][0]
    b = mat[1][1][0]
    c = mat[2][2][0]
    x = mat[0][1]
    y = mat[0][2]
    z = mat[1][2]
    cross = cd_real(cd_mul(sig, cd_mul(sig, x, z), cd_conj(sig, y)))
    return (a * b * c + 2 * cross - a * cd_norm(sig, z)
            - b * cd_norm(sig, y) - c * cd_norm(sig, x))


def _field_rows(mat):
    """A matrix with real or complex entries as :func:`exactla.field_det`
    rows: the scalar of a real entry, the QI of a complex one."""
    return [[QI(*e) if len(e) == 2 else e[0] for e in row] for row in mat]


def _real_det(rows):
    """field_det of a complex matrix whose determinant is real."""
    val = la.field_det(rows)
    if val.im:
        raise ArithmeticError("complex determinant came out non-real")
    return val.re


def _hermitian_field_det(sig, mat):
    """det of a hermitian matrix with entries in R or C, as a field det."""
    rows = _field_rows(mat)
    return la.field_det(rows) if sig.dim == 1 else _real_det(rows)


def _chi(mat):
    """Complex 2m x 2m image of a quaternionic matrix (a QI matrix)."""
    m = len(mat)
    out = [[None] * (2 * m) for _ in range(2 * m)]
    for i in range(m):
        for j in range(m):
            a0, a1, a2, a3 = mat[i][j]
            out[2 * i][2 * j] = QI(a0, a1)
            out[2 * i][2 * j + 1] = QI(a2, a3)
            out[2 * i + 1][2 * j] = QI(-a2, a3)
            out[2 * i + 1][2 * j + 1] = QI(a0, -a1)
    return out


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
    norm_eval: Callable     # (params, coords) -> scalar, generic in scalar
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


def degree(j):
    fam = CATALOG[j.meta["family"]]
    return fam.degree(j.meta.get("params", {}))


def generic_norm(j, u):
    """Closed-form generic norm of an element, an exact Fraction.  It
    is homogeneous of degree d, so N(x / dx) = N(x) / dx^d runs on the
    integer coordinates x."""
    x, dx = j._elem(u)
    return Fraction(_closed_form(j, x.tolist()), dx ** degree(j))


def _closed_form(j, x):
    """The family's closed-form norm at the coordinates x, a list of
    ints or Fractions; a complexified family pairs them into QI."""
    fam = CATALOG[j.meta["family"]]
    params = j.meta.get("params", {})
    if fam.base is not None:
        n = j.dim // 2
        zc = [QI(a, b) for a, b in zip(x[:n], x[n:])]
        return CATALOG[fam.base].norm_eval(fam.base_params_of(**params),
                                           zc).norm()
    val = fam.norm_eval(params, x)
    if isinstance(val, QI):
        raise ArithmeticError("real family norm came out complex")
    return val


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

    Returns (sig, matrix) for matrix families; tensor families raise.
    """
    fam = CATALOG[j.meta["family"]]
    params = j.meta.get("params", {})
    u = j.coerce(u)
    if fam.base is not None:
        n = j.dim // 2
        zc = tuple(QI(u[k], u[n + k]) for k in range(n))
        return _matrix_form_eval(CATALOG[fam.base],
                                 fam.base_params_of(**params), zc)
    return _matrix_form_eval(fam, params, u)


def _matrix_form_eval(fam, params, coords):
    shape = _FAMILY_SHAPES.get(fam.name)
    if shape is None:
        raise BadParameterError(
            f"{fam.name} elements have no matrix representation")
    kind, m_of, sig_of = shape
    m = m_of(params)
    sig = sig_of(params)
    slots = _slots(kind, m, sig)
    return sig, _to_matrix(kind, m, sig, slots, coords)


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
    # complexified norms reuse the base shape with QI scalars
    if base_name in _FAMILY_SHAPES:
        _FAMILY_SHAPES[name] = _FAMILY_SHAPES[base_name]
    _register(fam)
    return fam


# -- reals ------------------------------------------------------------------

def _build_reals():
    return JordanAlgebra(kernel=(np.ones((1, 1, 1), dtype=np.int64), 1),
                         name="reals", labels=("1",),
                         meta={"family": "reals", "params": {}})


_register(Family(
    name="reals", build=_build_reals,
    norm_eval=lambda params, u: u[0],
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


def _quadratic_norm(params, u):
    signs = params["signs"]
    t = u[0]
    acc = t * t
    for s, x in zip(signs, u[1:]):
        acc = acc - s * (x * x)
    return acc


_register(Family(
    name="quadratic", build=_build_quadratic, norm_eval=_quadratic_norm,
    degree=lambda p: 2, expected_dim=lambda p: len(p["signs"]) + 1,
    desk=({"signs": (1, 1)}, {"signs": (1, -1, 1)},
          {"signs": (-1, -1, -1, 1)})))


# -- full matrix families ------------------------------------------------

def _full_norm_factory(sig):
    def _norm(params, u):
        m = params["m"]
        slots = _slots("full", m, sig)
        mat = _to_matrix("full", m, sig, slots, u)
        if sig.dim > 2:
            return _real_det(_chi(mat))
        val = la.field_det(_field_rows(mat))
        return val.norm() if sig is COMPLEXES else val
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


def _herm_norm_factory(sig, det_fn):
    def _norm(params, u):
        m = params["m"]
        gammas = params["gammas"]
        slots = _slots("herm", m, sig)
        mat = _to_matrix("herm", m, sig, slots, u)
        return math.prod(gammas) * det_fn(sig, mat)
    return _norm


_register(Family(
    name="symmetric_real", build=_herm_builder("symmetric_real", REALS),
    norm_eval=_herm_norm_factory(REALS, _hermitian_field_det),
    degree=lambda p: p["m"],
    expected_dim=lambda p: p["m"] * (p["m"] + 1) // 2,
    desk=({"m": 2, "gammas": (1, 1)}, {"m": 3, "gammas": (1, 1, -1)},
          {"m": 3, "gammas": (1, 1, 1)})))
_FAMILY_SHAPES["symmetric_real"] = ("herm", lambda p: p["m"],
                                    lambda p: REALS)

_register(Family(
    name="hermitian_complex",
    build=_herm_builder("hermitian_complex", COMPLEXES),
    norm_eval=_herm_norm_factory(COMPLEXES, _hermitian_field_det),
    degree=lambda p: p["m"], expected_dim=lambda p: p["m"] ** 2,
    desk=({"m": 2, "gammas": (1, -1)}, {"m": 3, "gammas": (1, 1, 1)})))
_FAMILY_SHAPES["hermitian_complex"] = ("herm", lambda p: p["m"],
                                       lambda p: COMPLEXES)

_register(Family(
    name="hermitian_quaternion",
    build=_herm_builder("hermitian_quaternion", QUATERNIONS),
    norm_eval=_herm_norm_factory(QUATERNIONS,
                                 lambda sig, mat: _moore_det(sig, mat)),
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


def _skew_hamiltonian_norm(params, u):
    m = params["m"]
    slots = _slots("skew", 2 * m, REALS)
    mat = _to_matrix("skew", 2 * m, REALS, slots, u)
    rows = [[e[0] for e in row] for row in mat]
    # Pf(-J) is +1 or -1, so dividing by it is multiplying by it
    return _pfaffian(rows) * _pfaffian((-_symplectic(m)).tolist())


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


def _skew_hermitian_quaternion_norm(params, u):
    m = params["m"]
    slots = _slots("skewherm", m, QUATERNIONS)
    mat = _to_matrix("skewherm", m, QUATERNIONS, slots, u)
    return _real_det(_chi(mat))


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
    def _norm(params, u):
        gammas = params.get("gammas", (1, 1, 1))
        slots = _slots("herm", 3, sig)
        mat = _to_matrix("herm", 3, sig, slots, u)
        return math.prod(gammas) * _freudenthal_det(sig, mat)
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
    fam = CATALOG[j.meta["family"]]
    params = j.meta.get("params", {})
    d = fam.degree(params)
    if (2 * j.dim) % d:
        raise AssertionError(
            f"{j.name}: 2*dim = {2 * j.dim} not divisible by degree {d}")
    expo = 2 * j.dim // d
    ne = generic_norm(j, j.unity())
    # the samples as one stack: their P_u and det P_u in one call each
    x = j._int_elements(random.Random(seed), n_samples, 5)
    worst = max([abs(ne - 1)] + [
        abs(lhs - _closed_form(j, u) ** expo)
        for lhs, u in zip(j._dets(x), x.tolist())])
    return CheckResult(
        name="det_closed_form", passed=worst == 0, max_residual=worst,
        samples=1 + n_samples, seed=seed,
        details={"degree": d, "exponent": expo,
                 "unit_norm_residual": ne - 1})
