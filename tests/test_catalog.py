"""Catalog families: frozen dimensions, axioms, determinant formula."""

import hashlib
import random
from fractions import Fraction

import pytest

from jordanaff import catalog, exactla as la, serialization
from jordanaff.composition_algebras import REALS

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


def test_matrix_form_of_unity(get_algebra):
    j = get_algebra("full_real", m=3)
    _, mat = catalog.matrix_form(j, j.unity())
    flat = [[entry[0] for entry in row] for row in mat]
    assert flat == [list(row) for row in la.identity(3)]


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
    catalog.generic_norm(catalog.build("octonion_hermitian"), [1] * 27)
    assert calls  # the counter sees the closed-form norms
