"""Restricted structure algebra and its symmetric decomposition."""

import dataclasses
import math
from fractions import Fraction

import numpy as np

from jordanaff import catalog, exactla, structure
from jordanaff.jordan import direct_sum
from jordanaff.structure import restricted_pair, check_pair

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
    """restricted_pair + check_pair on octonion_hermitian make at most
    three modular eliminations: the unit's solve, the one elimination of
    the commutators that picks k and gives their span witness, and the
    kk_in_k solve on k's minor.  The T_X e are in echelon form, so their
    rank takes none, and pp_spans_k and k_p_direct_sum run no other on a
    passing pair."""
    j = catalog.build("octonion_hermitian", gammas=(1, 1, 1))
    calls = []
    eliminate = exactla._eliminate

    def counted(m, n, p):
        calls.append(m.shape)
        return eliminate(m, n, p)

    monkeypatch.setattr(exactla, "_eliminate", counted)
    assert check_pair(restricted_pair(j)).passed
    assert len(calls) <= 3, calls


def _rungs(monkeypatch):
    """Record, per exactla.residual call, its specs and the rung that
    answered it; and whether every array einsum, bracket and lincomb
    returned was integer (int64, or Python ints where a bound passes
    2**63)."""
    ran, returned = [], []
    sparse, dense = exactla._sparse_residual, exactla._dense_residual

    def on_sparse(terms, plans):
        out = sparse(terms, plans)
        if out is not None:
            ran.append((tuple(spec for _, spec, _ in terms), "sparse"))
        return out

    def on_dense(terms):
        ran.append((tuple(spec for _, spec, _ in terms), "dense"))
        return dense(terms)

    def returning(f):
        def wrapped(*args):
            out = f(*args)
            returned.append(out.dtype == np.int64 or out.dtype == object
                            and all(isinstance(v, int) for v in out.flat))
            return out
        return wrapped

    monkeypatch.setattr(exactla, "_sparse_residual", on_sparse)
    monkeypatch.setattr(exactla, "_dense_residual", on_dense)
    for name in ("einsum", "bracket", "lincomb"):
        monkeypatch.setattr(exactla, name, returning(getattr(exactla, name)))
    return ran, returned


DERIVATION = ("kab,ibc->kiac", "iab,kbc->kiac", "kji,jac->kiac")


def test_pair_picks_its_rung_by_density(monkeypatch):
    """On octonion_hermitian (2.6% of its structure constants nonzero)
    the span witness of restricted_pair, pp_spans_k and the derivation
    identity run on the kernel's sparse rung.  On a dense isotope of it
    (28% nonzero) the same identities have the same loops but run on the
    dense rung.  Every array the kernel returns is integer."""
    j = catalog.build("octonion_hermitian", gammas=(1, 1, 1))
    e = j.unity()
    iso = j.isotope(tuple(x + Fraction(d, 3)
                          for x, d in zip(e, [1, 0, -1] * 9)))
    for alg, rung in ((j, "sparse"), (iso, "dense")):
        ran, returned = _rungs(monkeypatch)
        assert check_pair(restricted_pair(alg)).passed
        assert returned and all(returned)
        runs = dict(ran)
        for specs in [("ab,bc->ac", None), ("gk,kc->gc", None), DERIVATION]:
            assert runs[specs] == rung, (alg.name, specs)
        monkeypatch.undo()


def test_mutants_fail_alike_on_both_rungs(monkeypatch):
    """The unit-keeping mutants fail derivation_identity, and with one
    span coordinate moved by 1 they fail pp_spans_k, with the same
    residuals whether the kernel answers on the sparse rung or the
    dense one."""
    from test_catalog import MUTANT_DET_RESIDUALS, _unit_keeping_mutant
    for name, params in MUTANT_DET_RESIDUALS:
        pair = restricted_pair(_unit_keeping_mutant(
            catalog.build(name, **dict(params))))
        y, d = pair.pp_coords
        y = y.copy()
        y[-1, 0] += 1
        bad = dataclasses.replace(pair, pp_coords=(y, d))
        seen = {}
        for loop, density in ((0, 1.0), (math.inf, 0.0)):
            monkeypatch.setattr(exactla, "_SPARSE_LOOP", loop)
            monkeypatch.setattr(exactla, "_SPARSE_DENSITY", density)
            ran, _ = _rungs(monkeypatch)
            checks = {c.name: c for c in check_pair(pair).checks}
            spans = {c.name: c for c in check_pair(bad).checks}
            rung = dict(ran)[DERIVATION]
            seen[rung] = (checks["derivation_identity"].max_residual,
                          spans["pp_spans_k"].max_residual)
            assert not checks["derivation_identity"].passed, name
            assert checks["pp_spans_k"].passed, name
            assert not spans["pp_spans_k"].passed, name
            monkeypatch.undo()
        assert seen["sparse"] == seen["dense"], name


def _kk_in_k(pair):
    checks = {c.name: c for c in check_pair(pair, n_samples=3).checks}
    assert checks["kk_in_k"].samples == 3
    return checks["kk_in_k"].passed


def test_kk_in_k_on_a_minor_singular_modulo_the_first_prime():
    """k with its first element scaled by the first prime spans the same
    space, but its stored minor vanishes modulo that prime: the minor's
    system is still solved exactly and kk_in_k passes.  A k element
    moved off the minor's entries takes the brackets out of span k, and
    only the check on every entry sees it."""
    pair = restricted_pair(catalog.build("octonion_hermitian",
                                         gammas=(1, 1, 1)))
    k = pair.k_ops.astype(object)
    k[0] *= exactla.PRIMES_30BIT[0]
    assert _kk_in_k(dataclasses.replace(pair, k_ops=exactla.asint(k)))
    n = pair.algebra.dim
    off = sorted(set(range(n * n)) - set(pair.k_cols))
    k = pair.k_ops.copy().reshape(len(k), n * n)
    k[:, off[0]] += 1
    assert not _kk_in_k(dataclasses.replace(pair, k_ops=k.reshape(-1, n, n)))


def test_corrupted_k_fails_kk_in_k():
    """One k basis entry moved by 1 takes the k-k brackets out of span k:
    kk_in_k fails, with coordinates solved on k's stored minor."""
    pair = restricted_pair(catalog.build("quadratic", signs=(1, -1, 1)))
    k = pair.k_ops.copy()
    k[0, 1, 2] += 1
    bad = dataclasses.replace(pair, k_ops=k)
    checks = {c.name: c for c in check_pair(bad, n_samples=3).checks}
    assert checks["kk_in_k"].samples == 3
    assert not checks["kk_in_k"].passed
    assert {c.name: c.passed for c in check_pair(pair).checks}["kk_in_k"]


def test_direct_sum_falls_back_to_the_full_rank(monkeypatch):
    """k_p_direct_sum is certified from k e = 0, the rank of the T_X e
    and k's minor; when a premise fails it ranks the whole k (+) p stack.
    With p_ops[0] replaced by k_ops[0] the T_X e lose rank and the stack
    has rank dim k + dim p - 1: FAIL with max_residual 1.  With k_cols
    naming a singular minor kk_in_k fails, and the full rank still
    certifies the sum."""
    pair = restricted_pair(catalog.build("quadratic", signs=(1, -1, 1)))
    p = pair.p_ops.copy()
    p[0] = pair.k_ops[0]
    ranks = []
    int_rank = exactla.int_rank

    def counted(m):
        ranks.append(np.shape(m))
        return int_rank(m)

    monkeypatch.setattr(exactla, "int_rank", counted)
    checks = {c.name: c for c in
              check_pair(dataclasses.replace(pair, p_ops=p)).checks}
    assert not checks["k_p_direct_sum"].passed
    assert checks["k_p_direct_sum"].max_residual == 1
    n = pair.algebra.dim
    assert (pair.dim_k + pair.dim_p, n * n) in ranks
    ranks.clear()
    singular = dataclasses.replace(pair,
                                   k_cols=(pair.k_cols[0],) * pair.dim_k)
    checks = {c.name: c for c in check_pair(singular, n_samples=3).checks}
    assert not checks["kk_in_k"].passed
    assert checks["k_p_direct_sum"].passed
    assert checks["k_p_direct_sum"].max_residual == 0
    assert (pair.dim_k + pair.dim_p, n * n) in ranks
