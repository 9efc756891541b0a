"""Cayley-Dickson arithmetic: composition law, alternativity, conjugation.

The composition law n(xy) = n(x) n(y) is the load-bearing property: it
is what makes the norm forms of the matrix algebras multiplicative.
Elements are integer coefficient arrays (sig.dim, k), k = 1 for real and
k = 2 for complex coefficients, and ``cd_mul`` multiplies stacks of them.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanaff import composition_algebras as ca

SIGS = [ca.REALS, ca.COMPLEXES, ca.QUATERNIONS, ca.SPLIT_QUATERNIONS,
        ca.OCTONIONS, ca.SPLIT_OCTONIONS]


def _elt(sig, ints):
    return np.array(ints[:sig.dim], dtype=np.int64)[:, None]


def _units(sig):
    return np.eye(sig.dim, dtype=np.int64)[..., None]


def _eq(a, b):
    return a.shape == b.shape and (a == b).all()


coords = st.lists(st.integers(-7, 7), min_size=8, max_size=8)


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
@given(xs=coords, ys=coords)
@settings(max_examples=40, deadline=None)
def test_composition_law(sig, xs, ys):
    x, y = _elt(sig, xs), _elt(sig, ys)
    assert ca.cd_norm(sig, ca.cd_mul(sig, x, y)) == \
        ca.cd_norm(sig, x) * ca.cd_norm(sig, y)


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
@given(xs=coords, ys=coords)
@settings(max_examples=30, deadline=None)
def test_alternative_laws(sig, xs, ys):
    x, y = _elt(sig, xs), _elt(sig, ys)
    xx = ca.cd_mul(sig, x, x)
    assert _eq(ca.cd_mul(sig, xx, y), ca.cd_mul(sig, x, ca.cd_mul(sig, x, y)))
    yy = ca.cd_mul(sig, y, y)
    assert _eq(ca.cd_mul(sig, x, yy), ca.cd_mul(sig, ca.cd_mul(sig, x, y), y))


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
@given(xs=coords, ys=coords)
@settings(max_examples=30, deadline=None)
def test_conjugation_antiautomorphism(sig, xs, ys):
    x, y = _elt(sig, xs), _elt(sig, ys)
    lhs = ca.cd_conj(sig, ca.cd_mul(sig, x, y))
    rhs = ca.cd_mul(sig, ca.cd_conj(sig, y), ca.cd_conj(sig, x))
    assert _eq(lhs, rhs)


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
def test_unit_and_norm_of_units(sig):
    one = _units(sig)[0]
    x = _elt(sig, list(range(1, 9)))
    assert _eq(ca.cd_mul(sig, one, x), x)
    assert _eq(ca.cd_mul(sig, x, one), x)
    assert ca.cd_norm(sig, one) == 1
    # x conj(x) = n(x) 1
    prod = ca.cd_mul(sig, x, ca.cd_conj(sig, x))
    assert prod[0] == ca.cd_norm(sig, x)
    assert not prod[1:].any()


def test_quaternions_associative_octonions_not():
    q = ca.QUATERNIONS
    a = _elt(q, [1, 2, -1, 3])
    b = _elt(q, [0, 1, 1, -2])
    c = _elt(q, [2, 0, 3, 1])
    assert _eq(ca.cd_mul(q, ca.cd_mul(q, a, b), c),
               ca.cd_mul(q, a, ca.cd_mul(q, b, c)))

    o = ca.OCTONIONS
    # basis units e1 (e2 e4) vs (e1 e2) e4 differ in sign
    e = _units(o)
    lhs = ca.cd_mul(o, e[1], ca.cd_mul(o, e[2], e[4]))
    rhs = ca.cd_mul(o, ca.cd_mul(o, e[1], e[2]), e[4])
    assert not _eq(lhs, rhs)


def test_octonion_norm_signature():
    # positive definite for the division octonions, split (4, 4) otherwise
    o, s = ca.OCTONIONS, ca.SPLIT_OCTONIONS
    assert ca.cd_norm(o, _units(o))[:, 0].tolist() == [1] * 8
    split_signs = sorted(ca.cd_norm(s, _units(s))[:, 0].tolist())
    assert split_signs == [-1] * 4 + [1] * 4


def test_split_quaternion_matrix_iso():
    # a -> [[a0 - a3, a2 - a1], [a1 + a2, a0 + a3]] is an algebra
    # isomorphism onto real 2x2 matrices that takes the norm to the
    # determinant
    def mat(a):
        a0, a1, a2, a3 = a[:, 0].tolist()
        return np.array([[a0 - a3, a2 - a1], [a1 + a2, a0 + a3]])

    sq = ca.SPLIT_QUATERNIONS
    a = _elt(sq, [1, -2, 3, 5])
    b = _elt(sq, [-1, 4, 0, 2])
    assert _eq(mat(ca.cd_mul(sq, a, b)), mat(a) @ mat(b))
    (p, q), (r, t) = mat(a).tolist()
    assert ca.cd_norm(sq, a) == p * t - q * r


def _reference_mul(sig, a, b):
    """Entry product from the unit table on Python ints; a coefficient
    is an (re, im) pair."""
    table = ca.unit_table(sig)
    out = [[0, 0] for _ in range(sig.dim)]
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            k, s = table[i][j]
            out[k][0] += s * (ar * br - ai * bi)
            out[k][1] += s * (ar * bi + ai * br)
    return out


@pytest.mark.parametrize("sig", SIGS, ids=lambda s: s.name)
@pytest.mark.parametrize("e", [4, 31, 40])
def test_stacked_complex_products_are_exact(sig, e):
    """A stack of entries with complex coefficients up to 2**e multiplies
    as the unit table says, exactly, and the complex norm stays
    multiplicative; past int64 the kernel runs on Python ints."""
    rng = random.Random(e)
    a, b = (np.array([[[rng.randint(-2 ** e, 2 ** e) for _ in range(2)]
                       for _ in range(sig.dim)] for _ in range(4)],
                     dtype=np.int64) for _ in range(2))
    got = ca.cd_mul(sig, a, b)
    assert got.tolist() == [_reference_mul(sig, x, y)
                            for x, y in zip(a.tolist(), b.tolist())]

    def times(x, y):
        return ca.cd_mul(ca.REALS, x[..., None, :], y[..., None, :])
    assert _eq(times(ca.cd_norm(sig, a), ca.cd_norm(sig, b)),
               ca.cd_norm(sig, got)[..., None, :])


def test_signature_mismatch_rejected():
    with pytest.raises(ca.SignatureMismatchError):
        ca.cd_mul(ca.QUATERNIONS, _elt(ca.OCTONIONS, [1] * 8),
                  _elt(ca.OCTONIONS, [1] * 8))
