"""Core engine behavior on hand-built and catalog algebras."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanaff import catalog
from jordanaff import exactla as la
from jordanaff import jordan
from jordanaff.jordan import (
    DimensionMismatchError,
    JordanAlgebra,
    JordanError,
    NotInvertibleError,
    NotUnitalError,
    direct_sum,
)

F = Fraction


def dual_numbers():
    """R[t]/(t^2): unital, commutative, associative, not semisimple."""
    c = [[[F(1), F(0)], [F(0), F(1)]],
         [[F(0), F(1)], [F(0), F(0)]]]
    return JordanAlgebra(c, name="dual_numbers")


def broken_tensor():
    # commutative but fails the Jordan identity
    c = [[[F(0), F(0)], [F(-1), F(0)]],
         [[F(-1), F(0)], [F(1), F(0)]]]
    return JordanAlgebra(c, name="broken")


def asymmetric_tensor():
    c = [[[F(1), F(0)], [F(0), F(1)]],
         [[F(1), F(1)], [F(0), F(0)]]]
    return JordanAlgebra(c, name="asymmetric")


def test_axioms_pass_on_matrix_algebra(get_algebra):
    j = get_algebra("full_real", m=3)
    res = j.check_jordan(n_samples=5, seed=1)
    assert res.passed
    assert res.max_residual == 0


def test_axioms_fail_with_witness():
    res = asymmetric_tensor().check_jordan()
    assert not res.passed
    assert res.details["commutativity_witness"] == (0, 1)
    res = broken_tensor().check_jordan()
    assert not res.passed
    assert res.details["jordan_identity_residual"] > 0


def test_unity_and_inverse(get_algebra):
    j = get_algebra("full_real", m=2)
    e = j.unity()
    rng = random.Random(3)
    u = j.random_element(rng, bound=5)
    assert j.product(e, u) == u
    w = j.invert(u)
    assert j.product(u, w) == e
    # P_u u^{-1} = u
    pu = j.p_operator(u)
    assert tuple(sum(a * b for a, b in zip(row, w)) for row in pu) == u


def test_invert_singular_raises(get_algebra):
    j = get_algebra("full_real", m=2)
    # the idempotent E_11 has det 0
    u = [F(1), F(0), F(0), F(0)]
    with pytest.raises(NotInvertibleError):
        j.invert(u)


def test_not_unital():
    # 1-dim algebra with x o x = 0 has no unit
    j = JordanAlgebra([[[F(0)]]], name="nilpotent_line")
    with pytest.raises(NotUnitalError):
        j.unity()


def _count_solves(monkeypatch):
    solves, solve = [], la.solve

    def counted(*args):
        solves.append(args[0].shape)
        return solve(*args)
    monkeypatch.setattr(la, "solve", counted)
    return solves


def test_catalog_unit_hints_need_no_solve(desk_instances, monkeypatch):
    """Every desk family hands its unit to the algebra it builds (G^{-1}
    of its twist, b_0, or the base unit padded with zeros), and the
    first find_unity accepts it with its T_e == I test alone; the unit
    is the one the tall solve finds without the hint."""
    solves = _count_solves(monkeypatch)
    built = [catalog.build(n, **p) for n, p in desk_instances]
    units = [j.find_unity() for j in built]
    assert solves == []
    monkeypatch.undo()
    for j, e in zip(built, units):
        assert JordanAlgebra(kernel=j._int_tensor()).find_unity() == e, \
            j.name


def test_wrong_unit_hint_is_not_trusted(get_algebra):
    """A hint that fails T_e == I leaves the unit to the solve: a wrong
    hint still gives the true unit, in either form of the hint, and a
    hint on an algebra without a unit gives None."""
    j = get_algebra("full_real", m=2)
    for wrong in (JordanAlgebra(j.c, unit=["1", 0, 0, "1/2"]),
                  JordanAlgebra(kernel=j._int_tensor(),
                                unit=(np.array([1, 0, 0, 0]), 1))):
        assert wrong.find_unity() == j.unity()
        assert wrong._unit_int()[1] == 1
    assert JordanAlgebra([[[0]]], unit=[1]).find_unity() is None
    # the hint is checked on first use, not when the algebra is built
    hinted = JordanAlgebra([[[0]]], unit=[1])
    assert "unity" not in hinted._cache


def test_direct_sum_hands_down_its_factors_units(get_algebra,
                                                 monkeypatch):
    """The units of unital factors, side by side, are the direct sum's
    unit without a solve, over one denominator in lowest terms; a
    factor without a unit leaves the sum to the solve, which finds
    none."""
    iso = get_algebra("full_real", m=2).isotope((F(2), 0, 0, F(3)))
    factors = [get_algebra("reals"), catalog.build("quadratic",
                                                   signs=(1, -1, 1)), iso]
    iso.unity()  # a known unit, as much as a hint
    solves = _count_solves(monkeypatch)
    total = direct_sum(factors)
    e = total.find_unity()
    assert solves == []
    assert e == tuple(x for f in factors for x in f.unity())
    assert total._unit_int()[1] == 6
    nil = JordanAlgebra([[[0]]], name="nil")
    assert direct_sum([get_algebra("reals"), nil]).find_unity() is None
    assert solves


def test_isotope_hands_down_the_inverse_of_gamma(get_algebra, monkeypatch):
    """The unit of J^(g) is g^{-1}: the dim-15 isotope of
    hermitian_quaternion(m=3) gets it from one square solve, runs no
    tall solve for its unit, and has the unit the tall solve finds;
    a singular g hands down no hint."""
    j = get_algebra("hermitian_quaternion", m=3, gammas=(1, 1, -1))
    g = tuple(x + F(d, 5) for x, d in zip(j.unity(), [1, 0, -1] * 5))
    solves = _count_solves(monkeypatch)
    iso = j.isotope(g)
    e = iso.unity()
    assert solves and all(a[-2] == a[-1] for a in solves), solves
    monkeypatch.undo()
    assert JordanAlgebra(kernel=iso._int_tensor()).unity() == e
    assert iso._unit is not None
    assert j.isotope(j.basis_element(1))._unit is None


def test_dimension_mismatch(get_algebra):
    j = get_algebra("reals")
    with pytest.raises(DimensionMismatchError):
        j.product([F(1), F(2)], [F(1)])


def test_element_trace_and_det(get_algebra):
    j = get_algebra("full_real", m=2)
    e = j.unity()
    assert j.element_trace(e) == j.dim
    assert j.element_det(e) == 1
    rng = random.Random(9)
    u = j.random_element(rng, bound=4)
    # det P_u is multiplicative under P-composition with itself
    assert j.element_det(u) >= 0 or j.element_det(u) < 0  # defined
    # trace is linear
    v = j.random_element(rng, bound=4)
    s = tuple(a + b for a, b in zip(u, v))
    assert j.element_trace(s) == j.element_trace(u) + j.element_trace(v)


def test_trace_form_associative(get_algebra):
    j = get_algebra("hermitian_complex", m=3, gammas=(1, 1, 1))
    rng = random.Random(17)
    for _ in range(5):
        u, v, w = (j.random_element(rng, bound=4) for _ in range(3))
        lhs = j.trace_form(j.product(u, v), w)
        rhs = j.trace_form(u, j.product(v, w))
        assert lhs == rhs


def test_semisimple_and_degenerate(get_algebra):
    j = get_algebra("skew_hamiltonian", m=2)
    ok, inertia = j.is_semisimple()
    assert ok
    assert inertia[2] == 0
    assert j.is_nondegenerate()

    d = dual_numbers()
    ok, inertia = d.is_semisimple()
    assert not ok
    assert inertia[2] == 1
    assert d.unity() == (F(1), F(0))


def test_fundamental_formula(get_algebra):
    for name, params in [("full_quaternion", {"m": 2}),
                         ("quadratic", {"signs": (1, -1, 1)})]:
        res = get_algebra(name, **params).check_fundamental(
            n_samples=6, seed=2)
        assert res.passed and res.max_residual == 0


def test_triple_identities(get_algebra, big_isotopes):
    algebras = [get_algebra("full_real", m=3),
                get_algebra("skew_hermitian_quaternion", m=2)]
    for j in algebras + list(big_isotopes.values()):
        res = j.check_triple(n_samples=25, seed=4)
        assert res.passed, (j.name, res.details)
        assert res.max_residual == 0
        assert "commutation_rule" in res.details


def test_self_adjoint_and_inverse_identities(get_algebra, big_isotopes):
    algebras = [get_algebra("symmetric_real", m=3, gammas=(1, 1, -1))]
    for j in algebras + list(big_isotopes.values()):
        assert j.check_self_adjoint(n_samples=30, seed=5).passed, j.name
        res = j.check_inverse_identities(n_samples=15, seed=6)
        assert res.passed and res.samples == 15, j.name


def test_isotope_is_jordan(get_algebra, big_isotopes):
    j = get_algebra("full_real", m=2)
    gamma = (F(1), F(0), F(0), F(-2))  # invertible diag(1, -2)
    iso = j.isotope(gamma)
    assert iso.check_jordan(n_samples=4, seed=7).passed
    e = iso.unity()
    assert iso.product(e, iso.basis_element(1)) == iso.basis_element(1)
    # u o_G v = u o (v o G) + v o (u o G) - (u o v) o G, also when G
    # has denominators
    gamma = (F(1, 2), F(0), F(1, 3), F(-2))
    iso = j.isotope(gamma)
    for a in range(j.dim):
        for b in range(j.dim):
            u, v = j.basis_element(a), j.basis_element(b)
            want = [x + y - z for x, y, z in zip(
                j.product(u, j.product(v, gamma)),
                j.product(v, j.product(u, gamma)),
                j.product(j.product(u, v), gamma))]
            assert list(iso.c[a][b]) == want, (a, b)
    for label, big in big_isotopes.items():
        assert big.check_jordan(n_samples=4, seed=7).passed, label


def test_direct_sum_blocks(get_algebra):
    a = get_algebra("reals")
    b = get_algebra("quadratic", signs=(1, 1))
    s = direct_sum([a, b])
    assert s.dim == 4
    assert s.check_jordan(n_samples=4, seed=8).passed
    # cross products vanish
    x = s.product(s.basis_element(0), s.basis_element(2))
    assert all(v == 0 for v in x)
    ok, _ = s.is_semisimple()
    assert ok


def test_stored_kernel_is_in_lowest_terms(desk_instances, get_algebra,
                                          big_isotopes):
    """An algebra stores one kernel pair (ci, den) in lowest terms, and
    building it from the nested ``c`` or from a scaled kernel pair gives
    the same pair back."""
    cases = [get_algebra(n, **p) for n, p in desk_instances]
    cases += big_isotopes.values()
    cases.append(direct_sum([get_algebra("reals"),
                             get_algebra("quadratic", signs=(1, -1, 1)),
                             big_isotopes["full_real(m=3)^(q=31)"]]))
    for j in cases:
        ci, den = j._int_tensor()
        assert math.gcd(den, *ci.ravel().tolist()) == 1, j.name
        scaled = (la.lincomb((7, ci)), 7 * den)
        for again in (JordanAlgebra(j.c), JordanAlgebra(kernel=scaled)):
            ai, ad = again._int_tensor()
            assert ad == den and np.array_equal(ai, ci), j.name


def test_constructor_parses_each_distinct_entry_once(monkeypatch,
                                                     get_algebra):
    """Nested input is parsed once per distinct entry, and a float is
    refused wherever it sits, finite or not."""
    j = get_algebra("full_real", m=3)
    nested = [[[str(x) for x in row] for row in sl] for sl in j.c]
    seen = []
    parse = la.as_fraction
    monkeypatch.setattr(la, "as_fraction",
                        lambda x: seen.append(x) or parse(x))
    again = JordanAlgebra(nested)
    monkeypatch.undo()
    assert sorted(seen) == sorted({x for sl in nested for row in sl
                                   for x in row})
    ci, den = again._int_tensor()
    assert den == j._int_tensor()[1]
    assert np.array_equal(ci, j._int_tensor()[0])
    for row in ([1, 1.0], [1.0, 1]):
        with pytest.raises(TypeError):
            JordanAlgebra([[row, row], [row, row]])
    for bad in (None, 0.5, float("inf"), float("nan")):
        with pytest.raises(TypeError):
            JordanAlgebra([[[bad]]])


def test_checks_make_no_fractions(monkeypatch):
    """The sampled checks, the inertia of the trace form and of the model
    metric, and the center run on kernel arrays: none of them parses a
    Fraction."""
    from jordanaff.hypersurface import build_model
    j = catalog.build("hermitian_complex", m=3)
    model = build_model(j, -1)
    seen = []
    parse = la.as_fraction
    monkeypatch.setattr(la, "as_fraction",
                        lambda x: seen.append(x) or parse(x))
    assert j.check_jordan(n_samples=3, seed=1).passed
    assert j.check_fundamental(n_samples=2, seed=2).passed
    assert j.check_self_adjoint(n_samples=3, seed=3).passed
    assert j.check_triple(n_samples=3, seed=4).passed
    assert j.is_semisimple()[0]
    assert len(j.center()) == 1
    assert model.metric_signature()[2] == 0
    monkeypatch.undo()
    assert seen == []


def test_decompose_direct_sums(get_algebra):
    pieces = [("full_real", {"m": 2}),
              ("quadratic", {"signs": (1, -1, 1)}),
              ("reals", {})]
    s = direct_sum([catalog.build(n, **p) for n, p in pieces])
    parts = s.decompose(seed=0)
    dims = sorted(p.dim for p, _ in parts)
    assert dims == [1, 4, 4]
    for part, _ in parts:
        assert part.check_jordan(n_samples=3, seed=1).passed
        ok, _ = part.is_semisimple()
        assert ok


def test_simple_catalog_algebra_is_simple(get_algebra):
    j = get_algebra("hermitian_quaternion", m=2, gammas=(1, 1))
    parts = j.decompose(seed=0)
    assert len(parts) == 1
    assert parts[0][0].dim == j.dim


def test_center_dimension(get_algebra, big_isotopes):
    assert len(get_algebra("full_real", m=3).center()) == 1
    # complexified algebras have a 2-dimensional center over R
    assert len(get_algebra("complex_quadratic", m=3).center()) == 2
    # isotopes of simple algebras are simple: the center is the line of
    # the unit (the q = 31 isotope's kernel basis mixes denominators)
    for label, j in big_isotopes.items():
        e = j.unity()
        (z,) = j.center()
        assert all(a * e[-1] == b * z[-1] for a, b in zip(z, e)), label
        assert len(j.decompose(seed=0)) == 1, label


def matrix_algebra():
    """M_2(R) under the associative product E_ab E_cd = delta_bc E_ad:
    not commutative, so its right multiplications are not its T
    operators; its trace form 2 tr(uv) is nondegenerate and its center
    is the scalars."""
    idx = [(0, 0), (0, 1), (1, 0), (1, 1)]
    c = [[[int(b == b2 and (a, d) == k) for k in idx] for b2, d in idx]
         for a, b in idx]
    return JordanAlgebra(c, name="M_2(R)")


def _center_by_definition(j):
    """The center as the kernel of v -> ([T_v, T_{b_j}])_j."""
    _, (st, _), _ = j._operands()
    k, d = la.null_space(la.bracket(st[:, None], st).reshape(j.dim, -1).T)
    return list(j._out(k, d))


def _center_cases(get_algebra, big_isotopes):
    for name, params in catalog.desk_catalog():
        j = get_algebra(name, **params)
        if j.dim <= 21:
            yield j.name, j
    yield from big_isotopes.items()
    for pieces in ((("full_real", {"m": 2}),
                    ("quadratic", {"signs": (1, -1, 1)}), ("reals", {})),
                   (("complex_field", {}), ("full_real", {"m": 2})),
                   (("quadratic", {"signs": (1, 1)}),) * 2):
        s = direct_sum([get_algebra(n, **p) for n, p in pieces])
        yield s.name, s
    yield "M_2(R) (+) R", direct_sum([matrix_algebra(),
                                      catalog.build("reals")])


def _count_null_spaces(monkeypatch):
    calls = []
    null_space = la.null_space
    monkeypatch.setattr(la, "null_space",
                        lambda a: calls.append(a.shape) or null_space(a))
    return calls


def test_center_matches_definition(get_algebra, big_isotopes, monkeypatch):
    """center() is the kernel of the whole bracket map, and the center
    coordinates of its own basis are the unit vectors, while a
    non-central vector has none.  On M_2(R) (+) R the two (z, x) pairs
    alone cut out the center, with no second null space: that needs
    v o (z o x) - z o (v o x) with the right multiplications, since
    T_{z o x} - T_z T_x vanishes on an associative algebra."""
    calls = _count_null_spaces(monkeypatch)
    for label, j in _center_cases(get_algebra, big_isotopes):
        del calls[:]
        got, count = j.center(), len(calls)
        assert got == _center_by_definition(j), label
        zk, dc, free = j._cache["center_int"]
        y, dy = j._center_coords(zk, dc)
        assert dy == 1 and np.array_equal(y, np.eye(len(zk))), label
        outside = [i for i in range(j.dim) if i not in free]
        if outside:
            vec = np.zeros((1, j.dim), dtype=np.int64)
            vec[0, outside[0]] = 1
            assert j._center_coords(vec, 1) is None, label
    # the last case, M_2(R) (+) R: one null space for its center
    assert j.is_semisimple()[0] and len(got) == 2 and count == 1


@pytest.mark.parametrize("pieces", [
    (("full_real", {"m": 3}),), (("complex_quadratic", {"m": 3}),),
    (("full_real", {"m": 2}), ("quadratic", {"signs": (1, -1, 1)}),
     ("reals", {}))])
def test_center_restricts_a_kernel_past_the_center(pieces, monkeypatch):
    """Drawn as z = x = e, the pairs give B = 0 and a kernel of the
    whole space; the stacked bracket then cuts it to the exact center,
    and decompose splits as it does from drawn pairs."""
    def build():
        return direct_sum([catalog.build(n, **p) for n, p in pieces])
    j = build()
    e, _ = j._unit_int()
    expected = _center_by_definition(j)
    monkeypatch.setattr(j, "_int_elements",
                        lambda rng, count, bound: np.tile(e, (count, 1)))
    calls = _count_null_spaces(monkeypatch)
    assert j.center() == expected
    assert calls[0] == (2 * j.dim, j.dim) and len(calls) == 2
    assert ([basis for _, basis in j.decompose(seed=0)]
            == [basis for _, basis in build().decompose(seed=0)])


def test_decompose_rejects_real_quadratic_center():
    """b0 is the unit and b1 o b1 = 2 b0: R[x]/(x^2 - 2), which is
    R (+) R over R although x^2 - 2 is irreducible over Q, so its ideals
    are not defined over Q; decompose names the factor and returns no
    uncertified ideals."""
    c = [[[F(1), F(0)], [F(0), F(1)]],
         [[F(0), F(1)], [F(2), F(0)]]]
    with pytest.raises(JordanError, match=r"factor x\^2 - 2"):
        JordanAlgebra(c, name="sqrt2").decompose(seed=0)


def _sympy_factor_list(f):
    """sympy's factor_list of the monic f (Fractions, leading first), as
    primitive integer coefficients in sympy's order."""
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in f], x)
    return [[int(v) for v in g.all_coeffs()]
            for g, _ in sympy.factor_list(poly)[1]]


def _rel(f):
    """rel with f = x^m - sum_k rel_k x^k."""
    return [-c for c in reversed(f[1:])]


def _product(roots, pairs):
    """prod (x - r) * prod ((x - b)^2 + q), coefficients leading first."""
    f = [F(1)]
    for r in roots:
        f = list(np.polymul(f, [F(1), -r]))
    for b, q in pairs:
        f = list(np.polymul(f, [F(1), -2 * b, b * b + q]))
    return f


_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@settings(max_examples=100, deadline=None)
@given(st.lists(_rationals, max_size=4, unique=True),
       st.lists(st.tuples(_rationals, st.fractions(
           min_value=F(1, 9), max_value=50, max_denominator=9)),
           max_size=3, unique_by=lambda bq: bq[0]))
def test_min_poly_factors_match_sympy(roots, pairs):
    """Products of distinct rational linear factors and quadratics
    (x - b)^2 + q, q > 0 (distinct centers b, so distinct factors)
    factor into sympy's factors in sympy's order.  The float roots
    either give exactly those or nothing (clustered roots of a high
    degree can round wrong), and then sympy gives them."""
    f = _product(roots, pairs)
    if len(f) < 3:
        return
    expected = _sympy_factor_list(f)
    assert jordan._factors_from_roots(f) in (None, expected)
    assert jordan._min_poly_factors(_rel(f), "t") == expected


def test_min_poly_factors_from_roots_alone():
    """On 100 seeded products of up to three linear factors and two
    quadratics, roots in [-9, 9] of denominator at most 6, the float
    roots give sympy's factors every time, with no fallback."""
    rng = random.Random(5)

    def rational():
        d = rng.randint(1, 6)
        return F(rng.randint(-9 * d, 9 * d), d)

    for _ in range(100):
        roots = {rational() for _ in range(rng.randint(0, 3))}
        pairs = {rational(): F(rng.randint(1, 90), rng.randint(1, 9))
                 for _ in range(rng.randint(1, 2))}
        f = _product(sorted(roots), pairs.items())
        assert jordan._factors_from_roots(f) == _sympy_factor_list(f), f


def test_min_poly_factors_fall_back_to_sympy():
    """What the float roots cannot certify goes to sympy: two rational
    roots 1e-20 apart, which one float cannot tell apart; a repeated
    root; and x^2 - 2, irreducible over Q but split over R."""
    f = _product([F(1, 3), F(1, 3) + F(1, 10 ** 20)], [(F(0), F(1))])
    assert jordan._factors_from_roots(f) is None
    assert jordan._min_poly_factors(_rel(f), "t") == _sympy_factor_list(f)
    twice = _product([F(1), F(1), F(-2)], [])
    assert jordan._factors_from_roots(twice) is None
    assert jordan._min_poly_factors(_rel(twice), "t") is None
    sqrt2 = _product([F(-5)], [(F(0), F(-2))])
    assert jordan._factors_from_roots(sqrt2) is None
    with pytest.raises(JordanError, match=r"t: .* the factor x\^2 - 2 "):
        jordan._min_poly_factors(_rel(sqrt2), "t")


def test_identities_have_one_implementation():
    """One arithmetic: the algebra, the kernel and the pair name no float
    mode, no float copy of an algebra and no ``.mode``, and the kernel
    has no float64 branch; no check has a ``_float`` twin."""
    src = Path(__file__).resolve().parents[1] / "src" / "jordanaff"
    offenders = []
    for name in ("jordan.py", "exactla.py", "structure.py"):
        text = (src / name).read_text()
        offenders += [f"{name}: {word}" for word in
                      ("FLOAT", "to_float", ".mode", 'dtype.kind == "f"')
                      if word in text]
        offenders += [f"{name}: {fn.name}"
                      for fn in ast.walk(ast.parse(text))
                      if isinstance(fn, ast.FunctionDef)
                      and fn.name.endswith("_float")]
    assert offenders == []
