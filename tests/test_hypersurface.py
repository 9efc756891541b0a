"""Hypersurface models: scale constants, metric, Gauss data, levels."""

import math
from fractions import Fraction

import numpy as np
import pytest

from jordanaff import catalog, hypersurface as hs
from jordanaff.hypersurface import (
    ModelError,
    adapted_constants,
    build_model,
    reconstruct_algebra,
    scale_constant,
    verify_model,
)
from jordanaff.jordan import JordanAlgebra, direct_sum

F = Fraction


def test_scale_constant_frozen():
    # n = 0: C^2 = 1/|L1|^2
    assert scale_constant(0, F(-1))[0] == 1
    assert scale_constant(0, F(2))[0] == F(1, 4)
    # the sign tracks the branch: opposite to L1
    assert scale_constant(0, F(2))[2] == -1
    assert scale_constant(0, F(-1))[2] == 1
    # n = 1 hyperbola: C^2 = 1/4 at L1 = -1
    assert scale_constant(1, F(-1))[0] == F(1, 4)
    with pytest.raises(ModelError):
        scale_constant(2, F(0))


def test_expm_matches_eigh():
    """_expm of random symmetric stacks, 1-norms from 0 to about 40 (up
    to seven squarings), equals V diag(exp(w)) V^T from eigh."""
    rng = np.random.default_rng(7)
    for n, scale in ((1, 0.1), (3, 1.0), (6, 4.0), (9, 0.01), (12, 3.0)):
        a = rng.normal(scale=scale, size=(5, n, n))
        a = (a + a.transpose(0, 2, 1)) / 2
        w, v = np.linalg.eigh(a)
        ref = np.einsum("sij,sj,skj->sik", v, np.exp(w), v)
        got = hs._expm(a)
        assert got.shape == a.shape
        err = np.abs(got - ref).max(axis=(1, 2))
        assert np.all(err <= 1e-13 * np.abs(ref).max(axis=(1, 2))), n
    assert hs._expm(np.zeros((0, 4, 4))).shape == (0, 4, 4)
    assert np.array_equal(hs._expm(np.zeros((2, 3, 3))),
                          np.broadcast_to(np.eye(3), (2, 3, 3)))


def test_expm_inverse():
    """exp(A) exp(-A) = I on random stacks of general matrices."""
    rng = np.random.default_rng(11)
    for n in (2, 5, 8):
        a = rng.normal(size=(6, n, n))
        prod = hs._expm(a) @ hs._expm(-a)
        assert np.allclose(prod, np.eye(n), rtol=0, atol=1e-12), n


def test_sample_points_without_steps(get_algebra):
    """steps=0 leaves every sample at the base point C e, count=0 gives
    an empty stack."""
    m = build_model(get_algebra("full_real", m=2), F(-1))
    assert np.array_equal(m.sample_points(count=3, steps=0),
                          np.tile(m.base_point(), (3, 1)))
    assert m.sample_points(count=0).shape == (0, 4)


def test_hyperbola_model(get_algebra):
    rr = direct_sum([get_algebra("reals"), get_algebra("reals")])
    m = build_model(rr, l1=F(-1))
    assert m.n == 1
    assert m.c_squared == F(1, 4)
    assert m.level_value == F(1, 16)
    # points on x*y = 1/4, positive branch
    pts = m.sample_points(count=12, seed=0)
    for p in pts:
        assert math.isclose(p[0] * p[1], 0.25, rel_tol=1e-12)
        assert p[0] > 0 and p[1] > 0
    normal = m.affine_normal()
    assert np.allclose(normal["vector_float"], [0.5, 0.5])


def test_level_and_signature_frozen(get_model):
    m = get_model("quadratic", signs=(1, 1))
    assert m.c_squared == F(1, 27)
    assert m.level_value == F(1, 27) ** 3
    assert m.metric_signature() == (2, 0, 0)

    m = get_model("quadratic", signs=(1, -1, 1))
    assert m.metric_signature() == (2, 1, 0)

    m = get_model("octonion_hermitian", gammas=(1, 1, 1))
    assert m.metric_signature() == (26, 0, 0)


def test_verify_model_spread(get_algebra, big_isotopes):
    cases = [("reals", {}, F(1)), ("reals", {}, F(-1)),
             ("quadratic", {"signs": (1, 1)}, F(-1)),
             ("quadratic", {"signs": (1, -1, 1)}, F(2)),
             ("full_real", {"m": 2}, F(-1)),
             ("complex_field", {}, F(-1)),
             ("hermitian_complex", {"m": 2, "gammas": (1, -1)}, F(1)),
             ("skew_hamiltonian", {"m": 2}, F(-1))]
    cases = [(get_algebra(name, **params), l1) for name, params, l1 in cases]
    cases += [(j, F(-1)) for j in big_isotopes.values()]
    for j, l1 in cases:
        name = j.name
        model, rep = verify_model(j, l1, n_float_samples=4, seed=0)
        assert rep.passed, (name, l1, rep.to_jsonable())
        assert model.c_squared > 0


def test_gauss_and_cubic_exact(get_model):
    for name, params in [("quadratic", {"signs": (1, -1, 1)}),
                         ("full_real", {"m": 2}),
                         ("hermitian_quaternion", {"m": 2,
                                                   "gammas": (1, 1)})]:
        m = get_model(name, **params)
        assert m.check_gauss().max_residual == 0, name
        assert m.check_cubic_form().max_residual == 0, name
        assert m.check_difference_tensor().max_residual == 0, name
        assert m.check_metric().max_residual == 0, name


def _gauss_reference(m):
    """check_gauss's residual as the pair loop it replaced computed it:
    for every pair a < b of V0 basis vectors, the object-dtype matrix
    -ft [T_a, T_b] + fg (X g(Y, .) - Y g(X, .)) + fa [A_a, A_b] applied
    to every V0 basis vector, over the common den d."""
    s = m._stacks()
    t, a, g, v0 = (s[k].astype(object) for k in ("t_ops", "a_ops", "g",
                                                  "v0"))
    den_t, den_a, den_g = (s["t_den"] ** 2, s["a_den"] ** 2,
                           s["g_den"] * m.algebra.dim)
    d = math.lcm(den_t, den_a, den_g)
    w = v0 @ g.T
    worst = 0
    for i in range(m.n):
        for j in range(i + 1, m.n):
            res = (-(d // den_t) * (t[i] @ t[j] - t[j] @ t[i])
                   + (d // den_g) * (np.outer(v0[i], w[j])
                                     - np.outer(v0[j], w[i]))
                   + (d // den_a) * (a[i] @ a[j] - a[j] @ a[i]))
            worst = max(worst, max(abs(x) for x in (res @ v0.T).flat))
    return F(worst, d)


def test_gauss_fails_on_a_corrupted_difference_tensor():
    """check_gauss equals the pair-loop reference, on a model and on a
    copy whose A stack has one entry moved by 1, which must FAIL."""
    for name, params in [("full_real", {"m": 2}),
                         ("hermitian_complex", {"m": 3})]:
        m = build_model(catalog.build(name, **params), F(-1))
        assert m.check_gauss().max_residual == _gauss_reference(m) == 0
        s = m._stacks()
        a_ops = s["a_ops"].copy()
        a_ops[1, 0, 2] += 1
        s.update(a_ops=a_ops, a_max=max(s["a_max"], int(abs(a_ops).max())))
        res = m.check_gauss()
        assert not res.passed, name
        assert res.max_residual == _gauss_reference(m) > 0, name


def test_level_samples(get_model):
    m = get_model("full_real", m=2)
    res = m.check_level(count=10, seed=1)
    assert res.passed
    assert res.max_residual <= 1e-9


def test_quadratic_expansion_exact(get_model):
    m = get_model("quadratic", signs=(1, 1))
    res = m.check_quadratic_expansion()
    assert res.passed
    assert res.max_residual == 0
    assert res.details["first_order_trace"] == 0


def test_reconstruction_roundtrip(get_model, get_algebra):
    models = [get_model(name, **params) for name, params in [
        ("full_real", {"m": 2}),
        ("quadratic", {"signs": (1, -1, 1)}),
        ("complex_field", {})]]
    # an isotope whose unit (1/2, 0, 0, 1/3) is not integral
    iso = get_algebra("full_real", m=2).isotope((F(2), 0, 0, F(3)))
    models.append(build_model(iso, F(-1)))
    for m in models:
        name = m.algebra.name
        rebuilt = reconstruct_algebra(m)
        assert rebuilt.c == adapted_constants(m), name
        assert m.check_reconstruction().passed


def test_model_rejects_bad_inputs(get_algebra):
    # a non-semisimple algebra has no nondegenerate model
    dual = JordanAlgebra([[[F(1), F(0)], [F(0), F(1)]],
                          [[F(0), F(1)], [F(0), F(0)]]], name="dual")
    with pytest.raises(ModelError):
        build_model(dual, l1=F(-1))
    with pytest.raises(ModelError):
        build_model(get_algebra("reals"), l1=F(0))
    # a single perturbed constant whose cubic form leaves the int64 range
    # gets a FAIL verdict, not a refusal
    j = get_algebra("full_complex", m=2)
    for delta in (F(1, 101), F(-1, 101)):
        c = [[list(cij) for cij in ci] for ci in j.c]
        c[7][7][7] += delta
        model, rep = verify_model(JordanAlgebra(c, name="mutant"), F(-1))
        assert not rep.passed
        cubic = next(r for r in rep.checks
                     if r.name == "cubic_form_symmetric")
        s = model._stacks()
        assert not cubic.passed
        assert cubic.max_residual * s["a_den"] * s["g_den"] == 3329932832


def test_log_level_matches_exact(get_model):
    m = get_model("hermitian_complex", m=3, gammas=(1, 1, 1))
    assert math.isclose(m.log_level_value(),
                        math.log(float(m.c_squared)) * (m.n + 1),
                        rel_tol=1e-12)
