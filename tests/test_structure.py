"""Restricted structure algebra and its symmetric decomposition."""

import dataclasses

import numpy as np
import pytest

from jordanaff import catalog, exactla, structure
from jordanaff.jordan import direct_sum
from jordanaff.structure import PairError, restricted_pair, check_pair

# (family, params) -> (dim k, dim p); p excludes the unit direction, so
# dim p = dim V - 1 and k is the derivation-type part
EXPECTED_DIMS = {
    ("reals", ()): (0, 0),
    ("quadratic", (("signs", (1, 1)),)): (1, 2),
    ("quadratic", (("signs", (1, -1, 1)),)): (3, 3),
    ("quadratic", (("signs", (-1, -1, -1, 1)),)): (6, 4),
    ("full_real", (("m", 2),)): (3, 3),
    ("full_real", (("m", 3),)): (8, 8),
    ("symmetric_real", (("gammas", (1, 1, -1)), ("m", 3))): (3, 5),
    ("symmetric_real", (("gammas", (1, 1, 1)), ("m", 3))): (3, 5),
    ("hermitian_complex", (("gammas", (1, 1, 1)), ("m", 3))): (8, 8),
    ("hermitian_quaternion", (("gammas", (1, 1, -1)), ("m", 3))): (21, 14),
    ("octonion_hermitian", (("gammas", (1, 1, 1)),)): (52, 26),
    ("complex_field", ()): (0, 1),
}


def test_pair_dimensions(get_pair):
    for (name, params), (dk, dp) in EXPECTED_DIMS.items():
        pair = get_pair(name, **dict(params))
        assert (len(pair.k_ops), len(pair.p_ops)) == (dk, dp), name


def test_pair_checks_small_families(get_pair, get_algebra, big_isotopes):
    pairs = [get_pair(name, **params) for name, params in [
        ("quadratic", {"signs": (1, -1, 1)}),
        ("full_real", {"m": 2}),
        ("symmetric_real", {"m": 3, "gammas": (1, 1, -1)}),
        ("complex_field", {}),
        ("skew_hamiltonian", {"m": 2}),
        ("hermitian_complex", {"m": 2, "gammas": (1, -1)})]]
    pairs += [restricted_pair(j) for j in big_isotopes.values()]
    # R (+) R (+) R is associative: k = 0 while p has two generators
    pairs.append(restricted_pair(direct_sum([get_algebra("reals")] * 3)))
    for pair in pairs:
        name = pair.algebra.name
        rep = check_pair(pair, n_samples=3, seed=0)
        assert rep.passed, (name, rep.to_jsonable())
        names = {c.name for c in rep.checks}
        assert {"kp_in_p", "kk_in_k", "k_p_direct_sum", "pp_spans_k",
                "derivation_identity", "k_kills_unity", "effective",
                "k_skew_for_trace_form"} <= names


def test_p_ops_are_traceless_multiplications(get_pair, get_algebra):
    j = get_algebra("full_real", m=2)
    pair = get_pair("full_real", m=2)
    # every p generator is T_v for a trace-zero v, so it is G-self-adjoint
    g = np.array([[float(x) for x in row] for row in j.gram()])
    for op in pair.p_ops:
        m = np.array(op, dtype=float) / pair.p_den
        gm = g @ m
        assert np.allclose(gm, gm.T)


def test_k_ops_kill_unity_and_are_skew(get_pair, get_algebra):
    j = get_algebra("quadratic", signs=(1, 1))
    pair = get_pair("quadratic", signs=(1, 1))
    e = np.array([float(x) for x in j.unity()])
    g = np.array([[float(x) for x in row] for row in j.gram()])
    for op in pair.k_ops:
        m = np.array(op, dtype=float) / pair.k_den
        assert np.allclose(m @ e, 0.0)
        gm = g @ m
        assert np.allclose(gm, -gm.T)


def test_float_mode_rejected(get_algebra):
    j = get_algebra("reals").to_float()
    with pytest.raises(PairError):
        restricted_pair(j)


def test_quadratic_pair_dims_scale():
    # spin factor on n ambient dims: k = so(n-1), p = n-1
    for n in (2, 3, 4, 5):
        j = catalog.build("quadratic", signs=tuple([1] * n))
        pair = restricted_pair(j)
        assert len(pair.p_ops) == n
        assert len(pair.k_ops) == n * (n - 1) // 2


def test_corrupted_span_witness_fails(get_pair):
    """pp_spans_k checks the stored coordinates, so changing one of them
    by 1 must fail it, while the rank of [k; [p, p]] stays dim k; the
    vacuous witness (0, 0) must fail too."""
    pair = get_pair("quadratic", signs=(1, -1, 1))
    y, d = pair.pp_coords
    y = y.copy()
    y[-1, 0] += 1
    for coords in [(y, d), (0 * y, 0)]:
        bad = dataclasses.replace(pair, pp_coords=coords)
        checks = {c.name: c for c in check_pair(bad).checks}
        assert not checks["pp_spans_k"].passed
        assert checks["pp_spans_k"].max_residual == 0
        assert all(c.passed for name, c in checks.items()
                   if name != "pp_spans_k")


def test_pair_rank_count(monkeypatch):
    """restricted_pair + check_pair on octonion_hermitian make at most six
    modular eliminations: the unit's solve, the rank of the commutators
    and its span witness, the ranks of k (+) p and of u -> T_u, and the
    kk_in_k solve.  pp_spans_k runs none on a passing pair."""
    j = catalog.build("octonion_hermitian", gammas=(1, 1, 1))
    calls = []
    eliminate = exactla._eliminate

    def counted(m, n, p):
        calls.append(m.shape)
        return eliminate(m, n, p)

    monkeypatch.setattr(exactla, "_eliminate", counted)
    assert check_pair(restricted_pair(j)).passed
    assert len(calls) <= 6, calls


def test_pair_runs_on_the_float64_rung(monkeypatch):
    """On octonion_hermitian the span products of restricted_pair and
    check_pair and the derivation-identity bracket have small bounds and
    large loops, so they run in float64; every array the kernel returns
    to them is still integer: int64, or Python ints where a bound (the
    kk_in_k solve's) passes 2**63."""
    j = catalog.build("octonion_hermitian", gammas=(1, 1, 1))
    ran, returned = [], []
    np_einsum, np_matmul = np.einsum, np.matmul

    def einsum(spec, *ops, **kwargs):
        ran.append((spec, tuple((op.dtype, op.shape) for op in ops)))
        return np_einsum(spec, *ops, **kwargs)

    def matmul(x, y):
        ran.append(("matmul", ((x.dtype, x.shape), (y.dtype, y.shape))))
        return np_matmul(x, y)

    def returning(f):
        def wrapped(*args):
            out = f(*args)
            returned.append(out.dtype == np.int64 or out.dtype == object
                            and all(isinstance(v, int) for v in out.flat))
            return out
        return wrapped

    monkeypatch.setattr(np, "einsum", einsum)
    monkeypatch.setattr(np, "matmul", matmul)
    for name in ("einsum", "bracket", "lincomb"):
        monkeypatch.setattr(exactla, name, returning(getattr(exactla, name)))
    assert check_pair(restricted_pair(j)).passed
    n, dim_k, npairs = 27, 52, 26 * 25 // 2
    f8 = np.dtype(np.float64)
    # the span witness, checked in independent_rows and in pp_spans_k
    span = ((f8, (npairs, dim_k)), (f8, (dim_k, n * n)))
    assert ("ab,bc->ac", span) in ran
    assert ("gk,kc->gc", span) in ran
    # the derivation identity [Phi_k, T_{b_i}] - T_{Phi_k(b_i)}, over
    # blocks of k rows that cover k
    brackets = [ops[0] for name, ops in ran
                if name == "matmul" and ops[1] == (f8, (1, n, n, n))]
    contractions = [ops[0] for name, ops in ran if name == "kji,jac->kiac"]
    for blocks in (brackets, contractions):
        assert all(dt == f8 for dt, _ in blocks)
        assert sum(shape[0] for _, shape in blocks) == dim_k
    assert returned and all(returned)
