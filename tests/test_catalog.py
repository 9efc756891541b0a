"""Catalog families: frozen dimensions, axioms, determinant formula."""

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest

from jordanaff import catalog, exactla as la, serialization
from jordanaff.composition_algebras import REALS
from jordanaff.jordan import JordanAlgebra, direct_sum

# (family, params) -> (dim, degree), checked against the classification
EXPECTED = {
    ("reals", ()): (1, 1),
    ("quadratic", (("signs", (1, 1)),)): (3, 2),
    ("quadratic", (("signs", (1, -1, 1)),)): (4, 2),
    ("quadratic", (("signs", (-1, -1, -1, 1)),)): (5, 2),
    ("full_real", (("m", 2),)): (4, 2),
    ("full_real", (("m", 3),)): (9, 3),
    ("full_complex", (("m", 2),)): (8, 4),
    ("full_quaternion", (("m", 2),)): (16, 4),
    ("symmetric_real", (("gammas", (1, 1)), ("m", 2))): (3, 2),
    ("symmetric_real", (("gammas", (1, 1, -1)), ("m", 3))): (6, 3),
    ("symmetric_real", (("gammas", (1, 1, 1)), ("m", 3))): (6, 3),
    ("hermitian_complex", (("gammas", (1, -1)), ("m", 2))): (4, 2),
    ("hermitian_complex", (("gammas", (1, 1, 1)), ("m", 3))): (9, 3),
    ("hermitian_quaternion", (("gammas", (1, 1)), ("m", 2))): (6, 2),
    ("hermitian_quaternion", (("gammas", (1, 1, -1)), ("m", 3))): (15, 3),
    ("skew_hamiltonian", (("m", 2),)): (6, 2),
    ("skew_hamiltonian", (("m", 3),)): (15, 3),
    ("skew_hermitian_quaternion", (("m", 2),)): (10, 4),
    ("skew_hermitian_quaternion", (("m", 3),)): (21, 6),
    ("octonion_hermitian", (("gammas", (1, 1, 1)),)): (27, 3),
    ("octonion_hermitian", (("gammas", (1, 1, -1)),)): (27, 3),
    ("split_octonion_hermitian", ()): (27, 3),
    ("complex_field", ()): (2, 2),
    ("complex_quadratic", (("m", 3),)): (6, 4),
    ("symmetric_complex", (("m", 3),)): (12, 6),
    ("skew_complex", (("m", 2),)): (12, 4),
    ("complex_octonion_hermitian", ()): (54, 6),
}

# sha256 of serialization.dumps per desk instance, recorded from the
# Fraction cd_mul builder that the integer einsum builder replaced
DESK_SHA256 = {
    "reals":
        "2661424c834008f235277202c377a3ebb0a648a8ff5cb0b6e715ca4cdfe71909",
    "quadratic(signs=(1, 1))":
        "20afae7a6c9e27351a9abdce26f233fb338f7c851affab796a055031ef46dee4",
    "quadratic(signs=(1, -1, 1))":
        "dfd8f4fe4531ba2851af23be5d35c164f6fd19fdc6a9e704d7379baf8d7fbadd",
    "quadratic(signs=(-1, -1, -1, 1))":
        "0f7388a75c0e95c5084eeb54a258945cf40cc2b9e9c757a3764e560080a7ef62",
    "full_real(m=2)":
        "bd6f8d7dc7645039749f7829d528c9246d58fff1a6fa6e2de0863d54afdae210",
    "full_real(m=3)":
        "13a7063912464796178c8cc98bd05415e0b11af8e65d6850b2dbc7121a01a1aa",
    "full_complex(m=2)":
        "e86d51efe74a2372e74cba8843558f59fa7587ece1785af39811b0ad923bd9d6",
    "full_quaternion(m=2)":
        "0649009995c84d9204555a89139edce10e6f43b466f307d35822cdacd4e82a85",
    "symmetric_real(gammas=(1, 1), m=2)":
        "5d4dfa4e3110e9c2b22409c7035925d3ded48f2e187518e9d1b5e338be8a5ef3",
    "symmetric_real(gammas=(1, 1, -1), m=3)":
        "06284acf2eaf710ecda6323e53f26d9ef14c38f794f234d84153009375c7fbb6",
    "symmetric_real(gammas=(1, 1, 1), m=3)":
        "9c33ef606e0de905370d0879dc8cf4bc2181dddb7d94dc32de808294400521c4",
    "hermitian_complex(gammas=(1, -1), m=2)":
        "7956b05b5b851d76f5256f29b32b7d5617d3368ac0381c683825607d927d8ff4",
    "hermitian_complex(gammas=(1, 1, 1), m=3)":
        "125e8b021271c11f88894a4123b3fa8fd04abdca6635e272ce0cf5f8c8eb253f",
    "hermitian_quaternion(gammas=(1, 1), m=2)":
        "fa9c143fb576ec11da20d67861a471ff284b67b9268e0ffbc1a1fe18bc0fb92f",
    "hermitian_quaternion(gammas=(1, 1, -1), m=3)":
        "2caafd4e9be6c769b546d390789b1ed7a53b324a8e9af8bc7db5ed15380487e5",
    "skew_hamiltonian(m=2)":
        "1a9c6aae63b4a5234806da081336224640f7ad71f6b313a8dd5d485200e11ae5",
    "skew_hamiltonian(m=3)":
        "dd60413c458018269db5046910a43d19aafa12967ceae2c7f0d65b66cdd70d43",
    "skew_hermitian_quaternion(m=2)":
        "c4c5693e6228b2b1db64c9a32f9aed871fdce804d25ab60825abef27abc0a07b",
    "skew_hermitian_quaternion(m=3)":
        "dde7ce6d4cdbb941513156e93d0f3c1f3d07cf2649de0a37f792f41f9b177c08",
    "octonion_hermitian(gammas=(1, 1, 1))":
        "f0a7e0d3208a548088f7de0f2e332fd48584730389d1d6604afd3d14832b6da5",
    "octonion_hermitian(gammas=(1, 1, -1))":
        "de536681893991ec4df5a52b88f86012c954db5d457371a7687af99bcb37bd6b",
    "split_octonion_hermitian":
        "4585fe06de71c61e70150f5c7b2a9289c8c251c5b2c520c5f4c6c6c52b72adb9",
    "complex_field":
        "c273580b850d2d63f8b4f137cc724b7ee046d4cb16c1f140b3194e6c0c1f8be2",
    "complex_quadratic(m=3)":
        "b1375a9c471347b02c0a2c1d36795feb52332c14f130b9aaf2748f54fc3abb53",
    "symmetric_complex(m=3)":
        "13f31293d2bc02689bfc85537a1abed2312ae2fb6f8d28936524644d89e48ae8",
    "skew_complex(m=2)":
        "fc26034385d7723c08c6b79159e48dc796bbd30aba006dee17ff3c59fcc7c758",
    "complex_octonion_hermitian":
        "673ee7c59739282ed8b83f4b34a113b14357d84764d9e3ee2c13fde4e3de3652",
}


def test_desk_catalog_covers_all_families(desk_instances):
    assert len(desk_instances) == len(EXPECTED)
    families = {name for name, _ in desk_instances}
    assert len(families) == 17


def test_dimensions_and_degrees(desk_instances, get_algebra):
    for name, params in desk_instances:
        key = (name, tuple(sorted(params.items())))
        assert key in EXPECTED, key
        j = get_algebra(name, **params)
        dim, degree = EXPECTED[key]
        assert (j.dim, catalog.degree(j)) == (dim, degree), name


def test_axioms_all_families(desk_instances, get_algebra):
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        res = j.check_jordan(n_samples=3, seed=0)
        assert res.passed and res.max_residual == 0, name


def test_unity_norm_and_trace(desk_instances, get_algebra):
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        e = j.unity()
        assert catalog.generic_norm(j, e) == 1, name
        assert j.element_trace(e) == j.dim, name


def test_det_formula(get_algebra):
    # det P_u = (generic norm)^(2 dim / degree), spot-checked exactly
    for name, params in [("reals", {}),
                         ("quadratic", {"signs": (1, -1, 1)}),
                         ("full_real", {"m": 3}),
                         ("hermitian_quaternion", {"m": 2, "gammas": (1, 1)}),
                         ("complex_field", {}),
                         ("skew_hamiltonian", {"m": 3})]:
        j = get_algebra(name, **params)
        res = catalog.verify_det_formula(j, n_samples=4, seed=3)
        assert res.passed and res.max_residual == 0, name
        d = catalog.degree(j)
        assert res.details["exponent"] == Fraction(2 * j.dim, d)


# (seed, n_samples) at which verify_det_formula is pinned
DET_FORMULA_SEEDS = ((0, 5), (7, 3), (11, 8))


def test_det_formula_reports_pinned(desk_instances, get_algebra):
    """verify_det_formula on every desk instance, dim 27 and 54 included,
    reports what it reported before its samples ran as one stack: a zero
    residual, the unit plus every sample, and degree, exponent and a zero
    unit-norm residual in its details."""
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        dim, deg = EXPECTED[(name, tuple(sorted(params.items())))]
        for seed, count in DET_FORMULA_SEEDS:
            res = catalog.verify_det_formula(j, n_samples=count, seed=seed)
            assert (res.passed, res.max_residual, res.samples, res.seed) == \
                (True, 0, count + 1, seed), (j.name, seed)
            assert res.details == {"degree": deg, "exponent": 2 * dim // deg,
                                   "unit_norm_residual": 0}, j.name


# (degree, first 16 hex digits of the sha256 of str(max_residual)) of the
# det formula on unit-keeping mutants at seed 5 with 3 samples, recorded
# from the Newton norm; a degree that does not divide 2 dim compares
# det P_u^r with N(u)^(2 dim), whose residuals run to 1,272 digits
MUTANT_DET_RESIDUALS = {
    ("full_real", (("m", 3),)): (6, "43876f8ff1d8687a"),
    ("full_complex", (("m", 2),)): (6, "080b895801e82c2a"),
    ("full_quaternion", (("m", 2),)): (10, "dc21588b1277f8e4"),
    ("symmetric_real", (("gammas", (1, 1, -1)), ("m", 3))):
        (6, "73c2023edeec96fa"),
    ("hermitian_complex", (("gammas", (1, 1, 1)), ("m", 3))):
        (6, "20e45516d7644e6a"),
    ("hermitian_quaternion", (("gammas", (1, 1)), ("m", 2))):
        (3, "40675ccafabd7a97"),
    ("skew_hamiltonian", (("m", 2),)): (3, "19d6bed65d0e07f9"),
    ("skew_hermitian_quaternion", (("m", 2),)): (10, "39be83aeb696206b"),
    ("octonion_hermitian", (("gammas", (1, 1, 1)),)): (6, "54c2b8ff59d663d8"),
    ("complex_quadratic", (("m", 3),)): (4, "bcff20118e98fada"),
    ("symmetric_complex", (("m", 3),)): (12, "62b7a90714ace533"),
    ("skew_complex", (("m", 2),)): (6, "c5fb50856d9cb7e9"),
}


def _unit_keeping_mutant(j):
    """j with c[a][b][0] and c[b][a][0] moved by 1/101, a and b the first
    two coordinates at which the unit vanishes, so the unit survives; the
    family meta is kept, and the det formula does not read it."""
    a, b = [i for i, x in enumerate(j.unity()) if x == 0][:2]
    ci, den = j._int_tensor()
    c = ci.astype(object) * 101
    c[a, b, 0] += den
    c[b, a, 0] += den
    return JordanAlgebra(kernel=(c, 101 * den), name=f"{j.name}*",
                         meta=j.meta)


def test_det_formula_fails_on_corrupted_algebras(get_algebra):
    """A commutative mutant that keeps its unit and its family fails the
    det formula, with the degree and residual recorded for it."""
    for (name, params), want in MUTANT_DET_RESIDUALS.items():
        mutant = _unit_keeping_mutant(get_algebra(name, **dict(params)))
        assert mutant.unity() is not None
        res = catalog.verify_det_formula(mutant, n_samples=3, seed=5)
        assert not res.passed, name
        digest = hashlib.sha256(str(res.max_residual).encode()).hexdigest()
        assert (res.details["degree"], digest[:16]) == want, name
        assert res.details["unit_norm_residual"] == 0, name


def test_det_formula_runs_on_each_simple_ideal(get_algebra):
    """quadratic(1, 1, 1, 1) (+) reals has ideals of unequal n_i / r_i,
    so (r / n) tr L is not its generic trace and the identity fails on
    the whole algebra; split into its ideals, each passes, and the
    details list one entry per ideal."""
    s = direct_sum([get_algebra("quadratic", signs=(1, 1, 1, 1)),
                    get_algebra("reals")])
    whole, _ = catalog._det_check(s, 5, 0)
    assert whole != 0
    res = catalog.verify_det_formula(s)
    assert (res.passed, res.max_residual, res.samples) == (True, 0, 12)
    assert sorted(zip(res.details["degree"], res.details["exponent"])) == \
        [(1, 2), (2, 5)]
    assert res.details["unit_norm_residual"] == [0, 0]


def _basis_changed(j, steps, seed):
    """j in the basis B b, B the product of ``steps`` seeded unimodular
    elementary steps (row a += k row b), without meta or unit hint."""
    rng = random.Random(seed)
    n = j.dim
    b, binv = np.eye(n, dtype=object), np.eye(n, dtype=object)
    for _ in range(steps):
        a, c = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        b[a] += k * b[c]
        binv[:, c] -= k * binv[:, a]
    assert (b.dot(binv) == np.eye(n, dtype=object)).all()
    ci, den = j._int_tensor()
    c = np.einsum("ia,jb,abk,kl->ijl", b, b, ci.astype(object), binv)
    return JordanAlgebra(kernel=(la.asint(c), den), name=f"{j.name}'")


def test_det_formula_in_another_basis(get_algebra):
    """A desk instance after elementary basis steps passes with the same
    degree and exponent: the norm reads nothing but the tensor."""
    for name, params in [("hermitian_complex", {"m": 3, "gammas": (1, 1, 1)}),
                         ("skew_hermitian_quaternion", {"m": 2}),
                         ("complex_quadratic", {"m": 3})]:
        j = get_algebra(name, **params)
        moved = _basis_changed(j, 12, 3)
        assert moved.c != j.c
        res = catalog.verify_det_formula(moved)
        assert res.passed and res.max_residual == 0, name
        want = catalog.verify_det_formula(j).details
        assert res.details == want, name


def test_det_formula_fails_only_on_a_certified_degree(get_algebra,
                                                     monkeypatch):
    """Ranks read modulo a prime can only fall short; when they do, the
    identity fails at the short degree and is rerun on ranks that
    int_rank certifies, so the valid algebra passes at its degree and a
    mutant fails at its own."""
    bounds, ranks = la.rank_bounds, []

    def short(m):
        return np.maximum(bounds(m) - 1, 1)

    def counted(m):
        ranks.append(m.shape)
        return rank(m)
    rank = la.int_rank
    monkeypatch.setattr(la, "rank_bounds", short)
    monkeypatch.setattr(la, "int_rank", counted)
    res = catalog.verify_det_formula(get_algebra("full_real", m=3))
    assert res.passed and res.details["degree"] == 3
    assert ranks
    key = ("full_real", (("m", 3),))
    mutant = _unit_keeping_mutant(get_algebra("full_real", m=3))
    res = catalog.verify_det_formula(mutant, n_samples=3, seed=5)
    assert not res.passed
    assert res.details["degree"] == MUTANT_DET_RESIDUALS[key][0]


def test_semisimple_nondegenerate_simple(get_algebra):
    for name, params in [("full_complex", {"m": 2}),
                         ("symmetric_complex", {"m": 3}),
                         ("split_octonion_hermitian", {})]:
        j = get_algebra(name, **params)
        ok, inertia = j.is_semisimple()
        assert ok and inertia[2] == 0, name
        assert j.is_nondegenerate(), name
        assert len(j.decompose(seed=0)) == 1, name


def test_center_matches_base_field(get_algebra):
    # real-simple families have 1-dim center, complexified ones 2-dim
    assert len(get_algebra("octonion_hermitian",
                           gammas=(1, 1, 1)).center()) == 1
    assert len(get_algebra("complex_field").center()) == 2
    assert len(get_algebra("skew_complex", m=2).center()) == 2


def test_quadratic_norm_is_quadratic(get_algebra):
    j = get_algebra("quadratic", signs=(-1, -1, -1, 1))
    rng = random.Random(5)
    u = j.random_element(rng, bound=6)
    n1 = catalog.generic_norm(j, u)
    n2 = catalog.generic_norm(j, [2 * x for x in u])
    assert n2 == 4 * n1


def test_unknown_family_rejected():
    with pytest.raises(catalog.UnknownFamilyError):
        catalog.build("full_sedenion", m=2)
    with pytest.raises(catalog.BadParameterError):
        catalog.build("full_real", m=0)
    with pytest.raises(catalog.BadParameterError):
        catalog.build("quadratic", signs=(1, 0))


def test_desk_tensors_match_recorded_digests(desk_instances, get_algebra):
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        text = serialization.dumps(j)
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == DESK_SHA256[j.name], j.name


def test_structure_tensor_rejects_product_leaving_shape():
    # the plain symmetric product of antisymmetric matrices is symmetric
    with pytest.raises(catalog.BadParameterError, match="skew"):
        catalog._structure_tensor("skew", 4, REALS)


def test_builds_never_call_cd_mul(desk_instances, monkeypatch):
    calls = []
    real = catalog.cd_mul

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(catalog, "cd_mul", counting)
    for name, params in desk_instances:
        catalog.build(name, **params)
    assert not calls


# sha256 (first 16 hex digits) of the generic norms, joined by commas, at
# seeded coordinates just below 2**e in magnitude for each e in
# LARGE_NORM_EXPONENTS, recorded from the per-sample Fraction/QI norms
LARGE_NORM_EXPONENTS = (19, 20, 21, 31, 40)
LARGE_NORM_DIGESTS = {
    "reals": "84588cf1a096e051",
    "quadratic(signs=(1, 1))": "50e97624bea2d51c",
    "quadratic(signs=(1, -1, 1))": "b8e28d21139b6d9f",
    "quadratic(signs=(-1, -1, -1, 1))": "2408b3c86b0ff843",
    "full_real(m=2)": "c2795b4b0b6038df",
    "full_real(m=3)": "1452bc314d8446f4",
    "full_complex(m=2)": "94d1460859697c0e",
    "full_quaternion(m=2)": "4b2a0a3fc2a8266a",
    "symmetric_real(gammas=(1, 1), m=2)": "4f11262f135d68c2",
    "symmetric_real(gammas=(1, 1, -1), m=3)": "c680c0f1d32c4ce1",
    "symmetric_real(gammas=(1, 1, 1), m=3)": "1688a64c3a064e1b",
    "hermitian_complex(gammas=(1, -1), m=2)": "795f3076c2439dff",
    "hermitian_complex(gammas=(1, 1, 1), m=3)": "65320430560442da",
    "hermitian_quaternion(gammas=(1, 1), m=2)": "03f195273d54828a",
    "hermitian_quaternion(gammas=(1, 1, -1), m=3)": "2123103c74bdaa62",
    "skew_hamiltonian(m=2)": "d891a07d3b659bd8",
    "skew_hamiltonian(m=3)": "f45704c7e9939dbd",
    "skew_hermitian_quaternion(m=2)": "3e5de9673229ec4c",
    "skew_hermitian_quaternion(m=3)": "130cdd7ef5134a3c",
    "octonion_hermitian(gammas=(1, 1, 1))": "74d7701fc66ca90a",
    "octonion_hermitian(gammas=(1, 1, -1))": "b77d52e764df4975",
    "split_octonion_hermitian": "89c045b6bd42c1b7",
    "complex_field": "7d382682724ea3bd",
    "complex_quadratic(m=3)": "3fe355e78c4497b5",
    "symmetric_complex(m=3)": "8fb69db6625064bb",
    "skew_complex(m=2)": "2cb557c940e887f4",
    "complex_octonion_hermitian": "d7b461a4cb0058f0",
}


def _large_coordinates(dim, e):
    rng = random.Random(e)
    return [rng.choice((-1, 1)) * (2 ** e - rng.randrange(2 ** (e - 8)))
            for _ in range(dim)]


def test_generic_norm_at_large_coordinates(desk_instances, get_algebra):
    """The closed-form norms stay exact where their products and sums
    leave int64: every desk instance at coordinates of magnitude 2**19
    up to 2**40 gives the norms recorded before they were stacked."""
    for name, params in desk_instances:
        j = get_algebra(name, **params)
        text = ",".join(str(catalog.generic_norm(j, _large_coordinates(
            j.dim, e))) for e in LARGE_NORM_EXPONENTS)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        assert digest == LARGE_NORM_DIGESTS[j.name], j.name
