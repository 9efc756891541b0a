"""Acceptance battery: one test per delivery criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Exact checks assert residual 0; floating point
checks pin their tolerances here rather than in the library.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from jordanaff import calabi, catalog, exactla as la, structure
from jordanaff.hypersurface import (
    ModelError,
    _float_operators,
    adapted_constants,
    build_model,
    reconstruct_algebra,
)
from jordanaff.jordan import direct_sum

F = Fraction

LEVEL_TOL = 1e-8          # |log(det P_p / C^(2(n+1)))| on sampled points
ORDER_FLOOR = 0.99        # finite-difference convergence order
FD_METRIC_TOL = 1e-5      # second fundamental form vs model metric
L1_GRID = (F(-1), F(1), F(2))
AXIOM_BUDGET_S = 300.0

# det P_u = N(u)^k with N the family generic norm and k = 2 dim/degree
EXPECTED_DET_EXPONENTS = {
    ("reals", ()): 2,
    ("quadratic", (("signs", (1, 1)),)): 3,
    ("quadratic", (("signs", (1, -1, 1)),)): 4,
    ("quadratic", (("signs", (-1, -1, -1, 1)),)): 5,
    ("full_real", (("m", 2),)): 4,
    ("full_real", (("m", 3),)): 6,
    ("full_complex", (("m", 2),)): 4,
    ("full_quaternion", (("m", 2),)): 8,
    ("symmetric_real", (("gammas", (1, 1)), ("m", 2))): 3,
    ("symmetric_real", (("gammas", (1, 1, -1)), ("m", 3))): 4,
    ("symmetric_real", (("gammas", (1, 1, 1)), ("m", 3))): 4,
    ("hermitian_complex", (("gammas", (1, -1)), ("m", 2))): 4,
    ("hermitian_complex", (("gammas", (1, 1, 1)), ("m", 3))): 6,
    ("hermitian_quaternion", (("gammas", (1, 1)), ("m", 2))): 6,
    ("hermitian_quaternion", (("gammas", (1, 1, -1)), ("m", 3))): 10,
    ("skew_hamiltonian", (("m", 2),)): 6,
    ("skew_hamiltonian", (("m", 3),)): 10,
    ("skew_hermitian_quaternion", (("m", 2),)): 5,
    ("skew_hermitian_quaternion", (("m", 3),)): 7,
    ("octonion_hermitian", (("gammas", (1, 1, 1)),)): 18,
    ("octonion_hermitian", (("gammas", (1, 1, -1)),)): 18,
    ("split_octonion_hermitian", ()): 18,
    ("complex_field", ()): 2,
    ("complex_quadratic", (("m", 3),)): 3,
    ("symmetric_complex", (("m", 3),)): 4,
    ("skew_complex", (("m", 2),)): 6,
    ("complex_octonion_hermitian", ()): 18,
}

COMPLEXIFIED = {"complex_field", "complex_quadratic", "symmetric_complex",
                "skew_complex", "complex_octonion_hermitian"}


def _key(name, params):
    return (name, tuple(sorted(params.items())))


def _models(get_model, desk_instances, l1_values=L1_GRID):
    for name, params in desk_instances:
        for l1 in l1_values:
            yield get_model(name, l1=l1, **params)


# -- criterion 1: Jordan axioms hold exactly across the catalog ---------

def test_criterion_01_jordan_axioms(desk_instances, get_algebra):
    t0 = time.monotonic()
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        res = j.check_jordan(n_samples=5, seed=11)
        assert res.passed and res.max_residual == 0, j.name
    assert time.monotonic() - t0 < AXIOM_BUDGET_S


# -- criterion 2: closed-form determinant with exponent/sign audit ------

def test_criterion_02_determinant_formula(desk_instances, get_algebra):
    complex_det_exponents = {}
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        res = catalog.verify_det_formula(j, n_samples=3, seed=7)
        assert res.passed and res.max_residual == 0, j.name
        expo = res.details["exponent"]
        assert expo == EXPECTED_DET_EXPONENTS[_key(name, params)], j.name
        rng = random.Random(13)
        u = j.random_element(rng, bound=4)
        det = j.element_det(u)
        nu = catalog.generic_norm(j, u)
        # sign audit: the formula carries no extra sign, so odd
        # exponents transfer the sign of the norm to det P_u
        assert det == nu ** expo, j.name
        if name in COMPLEXIFIED:
            # realified complex operators have square determinants
            assert det >= 0 and nu >= 0, j.name
            complex_det_exponents[name] = 2 * expo

    # exponent audit in terms of the underlying complex determinant:
    # N is |det_C|^2 there, so det P_u = |det_C u|^(2 expo)
    assert complex_det_exponents == {
        "complex_field": 4,
        "complex_quadratic": 6,
        "symmetric_complex": 8,
        "skew_complex": 12,
        "complex_octonion_hermitian": 36,
    }

    # For complex symmetric matrices the exponent is 2(m+1) = 8, not
    # the odd 2m+1 = 7 that continuing the real-family pattern (m+1,
    # doubled for the two real dimensions) would suggest: only even
    # powers of |det_C| can arise as a real determinant.  A witness
    # with |det_C| != 1 separates the two candidates.
    j = get_algebra("symmetric_complex", m=3)
    rng = random.Random(29)
    u = j.random_element(rng, bound=3)
    nu = catalog.generic_norm(j, u)  # |det_C u|^2
    assert nu not in (0, 1)
    det = j.element_det(u)
    assert det ** 2 == nu ** 8      # |det_C|^16, exponent 8 twice
    assert det ** 2 != nu ** 7      # odd candidate 2m+1 fails


# -- criterion 3: trace-form identities behind the affine metric --------

def _fd_second_fundamental_form(model, h=1e-4):
    """Central-difference II at the base point of a graph model.

    Works for algebras whose unity is a coordinate vector and whose
    trace-zero basis avoids that coordinate, so the surface is locally
    the graph of the level condition over span(V0).
    """
    j = model.algebra
    e = j.unity()
    axis = [i for i, x in enumerate(e) if x != 0]
    assert len(axis) == 1
    axis = axis[0]
    for v in model.v0:
        assert v[axis] == 0
    level = float(model.c_squared)  # N = C^2 on the surface near o
    dirs = [np.array([float(x) for x in v]) for v in model.v0]
    sign = 1.0 if model.c_float > 0 else -1.0

    def norm(probe):
        # the exact norm of the float probe, each float a dyadic rational
        return float(catalog.generic_norm(j, [F(x) for x in probe]))

    def height(coeffs):
        y = sum(c * d for c, d in zip(coeffs, dirs))
        probe = [float(x) for x in y]
        # solve N(w e_axis + y) = level for w, N quadratic in w
        probe[axis] = 0.0
        n0 = norm(probe)
        probe[axis] = 1.0
        n1 = norm(probe)
        probe[axis] = 2.0
        n2 = norm(probe)
        a = (n2 - 2 * n1 + n0) / 2.0
        b = n1 - n0 - a
        disc = b * b - 4 * a * (n0 - level)
        return (-b + sign * math.sqrt(disc)) / (2 * a)

    k = len(dirs)
    hess = np.zeros((k, k))
    w0 = height([0.0] * k)
    for a in range(k):
        for b in range(a, k):
            ca = [0.0] * k
            ca[a] += h
            ca[b] += h
            wpp = height(ca)
            ca = [0.0] * k
            ca[a] += h
            ca[b] -= h
            wpm = height(ca)
            ca = [0.0] * k
            ca[a] -= h
            ca[b] += h
            wmp = height(ca)
            ca = [0.0] * k
            ca[a] -= h
            ca[b] -= h
            wmm = height(ca)
            hess[a, b] = hess[b, a] = (wpp - wpm - wmp + wmm) / (4 * h * h)
    # D^2 p = Hess(w) e_axis; xi = -L1 x(o) = -L1 c e
    return hess / (-float(model.l1) * model.c_float * float(e[axis]))


def test_criterion_03_trace_identities(desk_instances, get_algebra,
                                       get_model):
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        e = j.unity()
        n1 = j.dim  # = n + 1
        assert j.trace_form(e, e) == n1, j.name
        g = j.gram()
        base = get_model(name, l1=F(-1), **params)
        for v in base.v0:
            assert j.trace_form(la.fvec(v), e) == 0, j.name
        # <X, Y> over the trace-zero basis, computed once per algebra
        pairings = []
        for va in base.v0:
            gx = [sum(p * q for p, q in zip(row, va)) for row in g]
            pairings.append([sum(p * q for p, q in zip(gx, la.fvec(vb)))
                             for vb in base.v0])
        for l1 in L1_GRID:
            m = get_model(name, l1=l1, **params)
            assert m.n + 1 == n1
            assert m.v0 == base.v0
            # <X, Y> = -(n+1) L1 g(X, Y)
            for a in range(m.n):
                for b in range(m.n):
                    assert pairings[a][b] == -n1 * l1 * m.g_v0[a][b], \
                        j.name

    # independent geometric oracle: the second fundamental form of the
    # explicit graph over span(V0) must match g scaled by C^2
    for name, params, l1 in [("quadratic", {"signs": (1, 1)}, F(-1)),
                             ("quadratic", {"signs": (1, 1)}, F(2)),
                             ("quadratic", {"signs": (1, -1, 1)}, F(-1))]:
        m = get_model(name, l1=l1, **params)
        ii = _fd_second_fundamental_form(m)
        g_scaled = np.array([[float(x) for x in row] for row in m.g_v0])
        g_scaled /= float(m.c_squared)
        scale = max(1.0, float(np.max(np.abs(g_scaled))))
        assert np.max(np.abs(ii - g_scaled)) < FD_METRIC_TOL * scale, \
            (name, l1)


# -- criterion 4: operator identities, 100 seeded samples each ----------

def _derivation_battery(j, pair, n_samples=100, seed=0):
    """[Phi, T_u] = T_{Phi u} and Phi(x o y) = Phi x o y + x o Phi y.

    Phi ranges over random integer combinations of the curvature part
    basis; exact integer arithmetic, returns the worst residual.
    """
    if len(pair.k_ops) == 0:
        return 0, n_samples  # no curvature part, identity set is empty
    rng = np.random.default_rng(seed)
    n = j.dim
    k_arr = np.asarray(pair.k_ops, dtype=np.int64)
    ci, cden = j._int_tensor()
    c_arr = np.asarray(ci, dtype=np.int64)
    kmax = int(np.max(np.abs(k_arr)))
    cmax = max(int(np.max(np.abs(c_arr))), 1)
    bound = (len(pair.k_ops) * 2 * kmax) ** 2 * n * n * cmax * 27
    assert bound < 2 ** 62, "sample bound too wide for int64"
    worst = 0
    for _ in range(n_samples):
        coef = rng.integers(-2, 3, size=len(pair.k_ops))
        phi = np.tensordot(coef, k_arr, axes=1)
        u = rng.integers(-3, 4, size=n)
        tu = np.einsum("i,ikj->kj", u, c_arr.transpose(0, 2, 1))
        comm = phi @ tu - tu @ phi
        phiu = phi @ u
        t_phiu = np.einsum("i,ikj->kj", phiu,
                           c_arr.transpose(0, 2, 1))
        worst = max(worst, int(np.max(np.abs(comm - t_phiu))))
        x = rng.integers(-3, 4, size=n)
        y = rng.integers(-3, 4, size=n)
        xy = np.einsum("i,j,ijk->k", x, y, c_arr)
        lhs = phi @ xy
        rhs = np.einsum("i,j,ijk->k", phi @ x, y, c_arr) \
            + np.einsum("i,j,ijk->k", x, phi @ y, c_arr)
        worst = max(worst, int(np.max(np.abs(lhs - rhs))))
    return worst, n_samples


def test_criterion_04_structure_identities(desk_instances, get_algebra,
                                           get_pair):
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        res = j.check_self_adjoint(n_samples=100, seed=3)
        assert res.passed and res.max_residual == 0, j.name
        assert res.samples >= 100

        res = j.check_fundamental(n_samples=100, seed=5)
        assert res.passed and res.max_residual == 0, j.name
        assert res.samples >= 100

        # covers outer symmetry, the operator split, both commutation
        # identities and the trace-form transpose rule
        res = j.check_triple(n_samples=100, seed=7)
        assert res.passed and res.max_residual == 0, j.name
        assert res.samples >= 100

        res = j.check_inverse_identities(n_samples=100, seed=9)
        assert res.passed and res.max_residual == 0, j.name
        assert res.samples >= 100

        pair = get_pair(name, **params)
        worst, samples = _derivation_battery(j, pair, n_samples=100,
                                             seed=13)
        assert worst == 0 and samples >= 100, j.name


# -- criterion 5: symmetric pair structure ------------------------------

def test_criterion_05_symmetric_pairs(desk_instances, get_pair):
    required = {"kp_in_p", "kk_in_k", "pp_spans_k", "k_p_direct_sum",
                "derivation_identity", "k_kills_unity", "effective",
                "k_skew_for_trace_form"}
    for name, params in desk_instances:
        pair = get_pair(name, **params)
        rep = structure.check_pair(pair, n_samples=3, seed=0)
        names = {c.name for c in rep.checks}
        assert required <= names, name
        for c in rep.checks:
            assert c.passed, (name, c.name)
            assert c.max_residual == 0, (name, c.name)
        assert len(pair.p_ops) == pair.algebra.dim - 1, name


# -- criterion 6: Gauss equation on all basis pairs ---------------------

def test_criterion_06_gauss_equation(desk_instances, get_model):
    for m in _models(get_model, desk_instances):
        res = m.check_gauss()
        assert res.passed and res.max_residual == 0, \
            (m.algebra.name, m.l1)


# -- criterion 7: apolarity and total symmetry of the cubic form --------

def test_criterion_07_cubic_form(desk_instances, get_model):
    for m in _models(get_model, desk_instances):
        res = m.check_difference_tensor()
        assert res.passed and res.max_residual == 0, \
            (m.algebra.name, m.l1)
        assert res.details.get("apolarity_residual", 0) == 0
        res = m.check_cubic_form()
        assert res.passed and res.max_residual == 0, \
            (m.algebra.name, m.l1)


# -- criterion 8: algebra recovered from its model ----------------------

def test_criterion_08_reconstruction(desk_instances, get_model):
    for name, params in desk_instances:
        m = get_model(name, l1=F(-1), **params)
        rebuilt = reconstruct_algebra(m)
        assert rebuilt.c == adapted_constants(m), name
        assert m.check_reconstruction().passed, name

    pool = [("reals", {}), ("quadratic", {"signs": (1, 1)}),
            ("full_real", {"m": 2}), ("complex_field", {}),
            ("symmetric_real", {"m": 2, "gammas": (1, 1)}),
            ("hermitian_complex", {"m": 2, "gammas": (1, -1)})]
    rng = random.Random(41)
    for trial, l1 in enumerate(L1_GRID):
        picks = rng.sample(pool, k=2 + trial % 2)
        s = direct_sum([catalog.build(n, **p) for n, p in picks])
        m = build_model(s, l1)
        rebuilt = reconstruct_algebra(m)
        assert rebuilt.c == adapted_constants(m), picks
        assert m.check_reconstruction().passed, picks


# -- criterion 9: sampled points stay on the level set ------------------

def test_criterion_09_level_samples(desk_instances, get_model):
    for idx, m in enumerate(_models(get_model, desk_instances)):
        res = m.check_level(count=200, seed=idx)
        assert res.passed, (m.algebra.name, m.l1)
        assert res.max_residual <= LEVEL_TOL, (m.algebra.name, m.l1)
        assert res.details["positive_branch"]
        normal = m.affine_normal()
        assert normal["coefficient_times_c"] == -m.l1
        # L1 in the grid is a power of two, so this holds bitwise
        assert np.array_equal(normal["vector_float"],
                              -float(m.l1) * m.base_point())


# -- criterion 10: composition of models --------------------------------

def test_criterion_10_composition(get_model):
    line = get_model("reals", l1=F(-1))
    comp = calabi.compose([line, line], l1=F(-1))
    assert comp.model.c_squared == F(1, 4)
    pts = comp.model.sample_points(count=20, seed=2)
    for p in pts:
        assert abs(p[0] * p[1] - 0.25) < 1e-10

    factors = [get_model("quadratic", l1=F(1), signs=(1, 1)),
               get_model("full_real", l1=F(-1), m=2),
               line]
    comp = calabi.compose(factors, l1=F(2))
    direct = build_model(
        direct_sum([f.algebra for f in factors]), F(2))
    assert comp.model.algebra.c == direct.algebra.c
    assert comp.model.c_squared == direct.c_squared
    assert comp.model.level_value == direct.level_value
    rep = calabi.check_composition(comp, n_samples=6, seed=3)
    assert rep.passed, rep.to_jsonable()
    assert any(c.name == "composed_level_samples" for c in rep.checks)

    with pytest.raises(ModelError):
        calabi.compose_point(
            comp, [f.sample_points(count=1, seed=4)[0] for f in factors],
            t=(0.2, 0.1, 0.0))
    t = calabi.project_exponents(comp.weights, (0.2, 0.1, 0.0))
    p = calabi.compose_point(
        comp, [f.sample_points(count=1, seed=4)[0] for f in factors],
        t=t)
    _, (px,) = _float_operators(comp.model.algebra, p[None])
    _, logdet = np.linalg.slogdet(px)
    assert abs(logdet - comp.model.log_level_value()) < LEVEL_TOL


# -- criterion 11: first-order tangency with observed order -------------

def test_criterion_11_tangent_order(desk_instances, get_algebra,
                                    get_model):
    hs = (F(1, 100), F(1, 1000), F(1, 10000))
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        if j.dim == 1:
            continue  # no nonzero traceless directions
        m = get_model(name, l1=F(-1), **params)
        rng = random.Random(17)
        e = j.unity()
        checked = 0
        while checked < 3:
            coeffs = [rng.randint(-3, 3) for _ in m.v0]
            x = [Fraction(0)] * j.dim
            for cf, v in zip(coeffs, m.v0):
                for i, entry in enumerate(v):
                    x[i] += cf * entry
            if not any(x):
                continue
            tx = j.t_operator(x)
            norms = []
            for h in hs:
                u = tuple(a + h * b for a, b in zip(e, x))
                p = j.p_operator(u)
                worst = F(0)
                for r in range(j.dim):
                    for c in range(j.dim):
                        ident = F(1) if r == c else F(0)
                        d = (p[r][c] - ident) / h - 2 * tx[r][c]
                        worst = max(worst, abs(d))
                norms.append(worst)
            if norms[0] == 0:
                continue  # second-order term vanished for this draw
            checked += 1
            for i in range(len(hs) - 1):
                order = (math.log(float(norms[i] / norms[i + 1]))
                         / math.log(float(hs[i] / hs[i + 1])))
                assert order >= ORDER_FLOOR, (j.name, order)
