"""Exact linear algebra against independent oracles.

Determinants are cross-checked with sympy's Matrix.det on the same
integer data, solutions and kernels against sympy's LUsolve, inv,
gauss_jordan_solve and nullspace, ranks against sympy's rank, and
inertia counts against numpy's eigenvalue signs on integer symmetric
matrices and against the Fraction elimination it replaced.
"""

import ast
import inspect
import math
import random
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanaff import exactla as la
from jordanaff.hypersurface import build_model, reconstruct_algebra
from jordanaff.jordan import JordanAlgebra, NotInvertibleError


def _rand_imat(rng, n, bound=36):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]


def _sympy_det(rows):
    return sympy.Matrix(rows).det()


def _rationals(arr, den):
    return sympy.Matrix(arr.tolist()) / den


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_det_matches_sympy(n):
    rng = random.Random(100 + n)
    for _ in range(6):
        a = _rand_imat(rng, n)
        got = la.det(a)
        assert isinstance(got, int)
        assert got == _sympy_det(a)


def test_det_singular():
    assert la.det([[1, 2], [2, 4]]) == 0


# entry sizes: small, at the int64 edge (products overflow int64), and
# past int64 (the stack starts on Python ints)
_DET_BOUNDS = (9, 2 ** 62, 10 ** 20)


@st.composite
def _det_stacks(draw):
    """A stack of n x n integer matrices, each plain, with zeros on top
    of its first column (so the pivot needs a row swap), or singular."""
    n = draw(st.integers(1, 5))
    hi = draw(st.sampled_from(_DET_BOUNDS))
    entry = st.one_of(st.just(0), st.integers(-hi, hi))
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        m = [[draw(entry) for _ in range(n)] for _ in range(n)]
        kind = draw(st.sampled_from(("plain", "swap", "singular")))
        if kind == "swap":
            for r in range(draw(st.integers(0, n - 1))):
                m[r][0] = 0
        elif kind == "singular" and n > 1:
            m[-1] = [2 * x for x in m[0]]
        mats.append(m)
    return mats


@given(_det_stacks())
@settings(max_examples=80, deadline=None)
def test_stacked_det_matches_sympy(mats):
    """One det call on a mixed stack gives every member's determinant,
    and a 2-D call is a stack of one."""
    want = [int(_sympy_det(m)) for m in mats]
    got = la.det(la.asint(mats))
    assert got == want
    assert all(isinstance(v, int) for v in got)
    assert [la.det(m) for m in mats] == want


@given(st.integers(1, 4), st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_gaussian_det_matches_sympy(n, s, data):
    """det(re, im) is the determinant of re + i im over Z[i]."""
    ints = st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                    min_size=n, max_size=n)
    re = [data.draw(ints) for _ in range(s)]
    im = [data.draw(ints) for _ in range(s)]
    want = []
    for r, i in zip(re, im):
        z = sympy.expand((sympy.Matrix(r) + sympy.I * sympy.Matrix(i)).det())
        want.append((int(sympy.re(z)), int(sympy.im(z))))
    assert la.det(la.asint(re), la.asint(im)) == want
    assert la.det(re[0], im[0]) == want[0]


def test_det_leaves_its_input_unchanged():
    a = np.array([[[0, 1], [1, 0]], [[0, 0], [3, 4]]])
    before = a.copy()
    assert la.det(a) == [-1, 0]
    assert (a == before).all()


@given(st.lists(st.lists(st.integers(-50, 50), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_det_multiplicative_3x3(rows):
    a = la.asint(rows)
    b = la.asint([[1, 6, 0], [-2, 1, 5], [0, 1, -3]])
    ab = la.einsum("ab,bc->ac", a, b)
    assert la.det(ab) == la.det(a) * la.det(b)


def test_solve_and_inverse():
    rng = random.Random(7)
    for n in (2, 3, 5):
        a = _rand_imat(rng, n)
        while la.det(a) == 0:
            a = _rand_imat(rng, n)
        b = [rng.randint(-9, 9) for _ in range(n)]
        x, d = la.solve(a, b)
        assert x.shape == (n,)
        assert _rationals(x, d) == sympy.Matrix(a).LUsolve(sympy.Matrix(b))
        inv, d = la.solve(a, np.eye(n, dtype=np.int64))
        assert _rationals(inv, d) == sympy.Matrix(a).inv()
        prod = la.einsum("ab,bc->ac", la.asint(a), inv)
        assert (prod == d * np.eye(n, dtype=np.int64)).all()


def test_solve_singular_returns_none():
    a = [[1, 1], [1, 1]]
    assert la.solve(a, [1, 0]) is None   # inconsistent
    assert la.solve(a, [1, 1]) is None   # consistent, not unique


def test_null_space_annihilates():
    rng = random.Random(11)
    a = [[rng.randint(-36, 36) for _ in range(4)] for _ in range(4)]
    a[3] = [x + y for x, y in zip(a[0], a[1])]  # force a relation
    ns, d = la.null_space(a)
    assert len(ns) >= 1
    assert not la.einsum("ab,cb->ac", la.asint(a), ns).any()
    assert [list(_rationals(v, d)) for v in ns] == \
        [list(v) for v in sympy.Matrix(a).nullspace()]


def _sympy_rank(m):
    return sympy.Matrix(m).rank()


def test_int_rank_matches_sympy():
    rng = random.Random(23)
    for rows, cols in [(3, 5), (6, 4), (8, 8)]:
        m = [[rng.randint(-20, 20) for _ in range(cols)]
             for _ in range(rows)]
        if rows >= 3:
            m[-1] = [2 * a - b for a, b in zip(m[0], m[1])]
        assert la.int_rank(m) == _sympy_rank(m)


def test_int_rank_of_rows_in_echelon_form(monkeypatch):
    """Nonzero rows whose last nonzero entries sit in distinct columns
    are independent without an elimination; rows that share one, or a
    zero row, still go through the certified one."""
    calls = []
    eliminate = la._eliminate

    def counted(a, n, p):
        calls.append(a.shape)
        return eliminate(a, n, p)

    monkeypatch.setattr(la, "_eliminate", counted)
    for m, eliminated in [([[1, 0, 0], [5, 3, 0], [0, 0, 7]], False),
                          ([[0, 2 ** 70, 1, 0], [9, 0, 0, -4]], False),
                          ([[1, 2, 0], [2, 4, 0]], True),
                          ([[2 ** 70, 1], [2 ** 71, 2]], True),
                          ([[1, 0, 0], [0, 0, 0]], True)]:
        calls.clear()
        assert la.int_rank(m) == _sympy_rank(m), m
        assert bool(calls) == eliminated, m


def _assert_spans(m, rows, witness):
    """The witness identity Y @ M[rows] == d * M, in Python ints."""
    y, d = witness
    m = np.array(m, dtype=object).reshape(len(m), -1)
    assert d > 0
    assert (y.astype(object) @ m[rows] == d * m).all()


def test_independent_rows_certified():
    m = [[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 0], [5, -3, 0]]
    idx, _, witness = la.independent_rows(m)
    assert idx == [0, 1]
    _assert_spans(m, idx, witness)
    assert witness[0].tolist() == [[1, 0], [0, 1], [1, 1], [0, 0], [5, -3]]
    assert la.int_rank([m[i] for i in idx]) == 2


def test_rank_below_the_first_prime_draws_another(monkeypatch):
    """The 2x2 minor [[1, 0], [0, p]] vanishes modulo the first prime p,
    so that prime reports rank 1; the span identity fails, and the next
    prime must find the true rank 2."""
    p = la.PRIMES_30BIT[0]
    m = [[1, 0, 1], [0, p, p], [1, p, p + 1]]
    primes = []
    eliminate = la._eliminate

    def counted(a, n, q):
        primes.append(q)
        return eliminate(a, n, q)

    monkeypatch.setattr(la, "_eliminate", counted)
    assert la.int_rank(m) == 2
    assert la.PRIMES_30BIT[1] in primes
    idx, _, witness = la.independent_rows(m)
    assert len(idx) == 2
    _assert_spans(m, idx, witness)


def test_span_coordinates_beyond_one_prime():
    """Span coordinates near the first prime p are beyond what rational
    reconstruction rebuilds from p alone; the witness solve lifts them."""
    p = la.PRIMES_30BIT[0]
    for m in ([[-1], [-(p - 2)]], [[0], [1], [2 * p - 3], [0]],
              [[1, 2], [p - 2, 2 * p - 4], [3, 6]]):
        idx, _, witness = la.independent_rows(m)
        assert len(idx) == _sympy_rank(m) == la.int_rank(m)
        _assert_spans(m, idx, witness)


@st.composite
def _low_rank_products(draw):
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    inner = draw(st.integers(0, min(rows, cols) - 1))
    entry = st.integers(-2 ** 40, 2 ** 40)
    b = draw(st.lists(st.lists(entry, min_size=inner, max_size=inner),
                      min_size=rows, max_size=rows))
    c = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                      min_size=inner, max_size=inner))
    return (sympy.Matrix(rows, inner, sum(b, []))
            * sympy.Matrix(inner, cols, sum(c, []))).tolist()


@given(_low_rank_products())
@settings(max_examples=40, deadline=None)
def test_rank_witness_matches_sympy(m):
    """Rank-deficient products B C with entries up to 2**40: the rank
    agrees with sympy, the independent rows are the pivots of sympy's
    reduced M^T (the lexicographically first independent rows), the
    returned identity holds exactly, and the kernel is sympy's reduced
    basis."""
    want = _sympy_rank(m)
    assert la.int_rank(m) == want
    idx, _, witness = la.independent_rows(m)
    assert idx == list(sympy.Matrix(m).T.rref()[1])
    _assert_spans(m, idx, witness)
    ns, d = la.null_space(m)
    assert [list(_rationals(v, d)) for v in ns] == \
        [list(v) for v in sympy.Matrix(m).nullspace()]


def test_inertia_matches_eigenvalues():
    rng = random.Random(31)
    for n in (2, 4, 6):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                m[i][j] = m[j][i] = rng.randint(-6, 6)
        pos, neg, zero = la.inertia(m)
        w = np.linalg.eigvalsh(np.array(m, dtype=float))
        tol = 1e-9 * max(1.0, float(np.max(np.abs(w))))
        assert pos == int(np.sum(w > tol))
        assert neg == int(np.sum(w < -tol))
        assert zero == int(np.sum(np.abs(w) <= tol))


def _inertia_fraction(G):
    """Reference signature: the Fraction elimination that exactla.inertia
    ran before it became fraction-free."""
    n = len(G)
    A = [list(map(la.as_fraction, row)) for row in G]
    active = list(range(n))
    pos = neg = 0
    while active:
        k = next((i for i in active if A[i][i] != 0), None)
        if k is None:
            pair = None
            for ii, i in enumerate(active):
                for j in active[ii + 1:]:
                    if A[i][j] != 0:
                        pair = (i, j)
                        break
                if pair:
                    break
            if pair is None:
                break
            i, j = pair
            for c in range(n):
                A[i][c] += A[j][c]
            for r in range(n):
                A[r][i] += A[r][j]
            k = i
        d = A[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        for i in active:
            if A[i][k] != 0:
                f = A[i][k] / d
                for j in active:
                    A[i][j] -= f * A[k][j]
        for i in active:
            A[i][k] = Fraction(0)
            A[k][i] = Fraction(0)
    return pos, neg, n - pos - neg


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_inertia_matches_fraction_reference(data):
    """Symmetric integer matrices B^T D B up to 8x8: rank-deficient when
    B has fewer rows than columns, with entries up to 2**40, and with the
    diagonal zeroed on request so the congruence step runs."""
    n = data.draw(st.integers(0, 8))
    r = data.draw(st.integers(0, n))
    e = data.draw(st.integers(0, 20))
    b = np.array(data.draw(st.lists(st.integers(-2 ** e, 2 ** e),
                                    min_size=r * n, max_size=r * n)),
                 dtype=object).reshape(r, n)
    d = np.diag(np.array(data.draw(st.lists(
        st.integers(-3, 3), min_size=r, max_size=r)), dtype=object))
    m = b.T @ d @ b if r else np.zeros((n, n), dtype=object)
    if data.draw(st.booleans()):
        np.fill_diagonal(m, 0)
    if data.draw(st.booleans()):
        m = np.array(data.draw(st.lists(st.integers(-2 ** 40, 2 ** 40),
                                        min_size=n * n, max_size=n * n)),
                     dtype=object).reshape(n, n)
        m = m + m.T
    assert la.inertia(m) == _inertia_fraction(m.tolist())
    assert la.inertia(m.tolist()) == la.inertia(la.asint(m))


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, Fraction(2), 2.0])
def test_inertia_refuses_non_integers(bad):
    with pytest.raises(TypeError):
        la.inertia([[1, 0], [0, bad]])


def test_metric_signature_matches_reference(desk_instances, get_algebra,
                                            get_model):
    """The model metric g = -<X, Y> / ((n+1) L1) has the signature of the
    Fraction elimination on g_v0, for both signs of L1."""
    count = 0
    for name, params in desk_instances:
        if get_algebra(name, **params).dim > 27:
            continue
        for l1 in (Fraction(-1), Fraction(2, 3), Fraction(-7, 5)):
            model = get_model(name, l1=l1, **params)
            assert model.metric_signature() == \
                _inertia_fraction(model.g_v0), (name, l1)
            count += 1
    assert count == 78


def test_int_matmul_big_entries_exact():
    big = 2 ** 40
    a = [[big, 1], [0, big]]
    b = [[big, 0], [1, big]]
    out = la.einsum("ab,bc->ac", la.asint(a), la.asint(b))
    assert out[0][0] == big * big + 1
    assert out[1][1] == big * big


def test_int_mat_vec_overflow_path():
    a = [[2 ** 45, 1], [1, 2 ** 45]]
    v = [2 ** 45, -1]
    out = la.einsum("ab,b->a", la.asint(a), la.asint(v))
    assert out[0] == 2 ** 90 - 1


# Contraction specs the library runs through the kernel: every spec that
# src passes to einsum or as a residual term
# (test_kernel_specs_cover_the_library), and a few more.
KERNEL_SPECS = (
    "i,ijk->jk", "j,jk->k", "i,ikj->kj", "ab,bc->ac", "ab,b->a",
    "ab,bc,cd->ad", "ijj->i", "ijk,k->ij", "si,sj,ijk->sk",
    "skl,si,lim->skm", "sab,sb->sa", "sm,mq,sq->s", "ab,ibc->iac",
    "b,ic->ibc", "iab,jb->ija", "ija,ab,kb->ijk", "iaa->i",
    "kab,ib,a->ki", "ijk,ai,bj->abk", "abk,tk->abt", "ai,ij,bj,k->abk",
    "kji,jac->kiac", "vi,ikj->vkj", "ab,cb->ac", "ai,ij,bj->ab",
    "ti,aij,bj->abt", "wi,ikj->wkj", "ab,bi->ai", "a,ai->i",
    "i,wj,ijk->wk", "v,vi->i", "i,ir->r", "ui,vj,ijk->uvk",
    # batch axes: an index kept by both operands
    "sab,sbc->sac", "smn,snk->smk", "sij,sjk->sik", "sab,sbc,scd->sad",
    "skj,sj->sk", "sk,sk->s", "sx,sy,xyz->sz",
    # one operand against a tensor, stacked
    "si,ikj->skj", "si,ikl->skl", "sj,kjl->skl", "ab,sbc->sac",
    "ab,kbc->kac", "smk,m->sk", "snk,n->sk", "kab,b->ka", "pab,b->pa",
    "ab,ib->ia", "aij,bj->abi", "bkm,lm->bkl", "ikj,j->ik",
    "iab,jb,a->ij", "ijk,j,bk->ib", "ika,ja->ijk", "ka,ija->ijk",
    "ab,k->abk",
    # the catalog's structure tensors and entry products
    "piku,qkjv,uvw->pqijw", "piku,kjv,uvw->pijw", "pqs,sijw->pqijw",
    "spc,piju->sijuc", "siju,urcw->sirjcw",
    # residual terms: the span witnesses, the derivation identity and
    # the Gauss equation
    "ks,kc->sc", "gk,kc->gc", "kab,ibc->kiac", "iab,kbc->kiac",
    "aik,bkl->aibl", "bik,akl->aibl", "ai,bl->aibl", "bi,al->aibl",
)


def test_kernel_specs_cover_the_library():
    """Every spec string src passes to exactla.einsum, or as a residual
    term, is in KERNEL_SPECS, so the properties below draw it."""
    src = Path(__file__).resolve().parents[1] / "src" / "jordanaff"
    seen = set()
    for path in sorted(src.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(
                f, "id", None)
            kernel = (isinstance(f, ast.Attribute)
                      and getattr(f.value, "id", None) == "la"
                      or isinstance(f, ast.Name)
                      and path.name == "exactla.py")
            if not kernel:
                continue
            if name == "einsum":
                assert isinstance(call.args[0], ast.Constant), path
                seen.add(call.args[0].value)
            elif name == "residual":
                seen.update(term.elts[1].value for term in call.args
                            if isinstance(term, ast.Tuple)
                            and len(term.elts) == 4)
    assert len(seen) > 50
    assert seen <= set(KERNEL_SPECS), sorted(seen - set(KERNEL_SPECS))


def _draw_array(data, shape):
    """Object array with entries up to 2**e in size, e drawn up to 40."""
    e = data.draw(st.integers(0, 40))
    n = int(np.prod(shape))
    vals = data.draw(st.lists(st.integers(-2 ** e, 2 ** e),
                              min_size=n, max_size=n))
    return np.array(vals, dtype=object).reshape(shape)


def _ref_max(arr):
    return max((abs(x) for x in arr.flat), default=0)


def _draw_large(data, shape, e):
    """Object array of the given shape whose max-abs is exactly 2**e,
    from a generator seeded by hypothesis."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    arr = rng.integers(-2 ** e, 2 ** e, size=shape, endpoint=True)
    arr.flat[data.draw(st.integers(0, arr.size - 1))] = \
        data.draw(st.sampled_from([-1, 1])) * 2 ** e
    return arr.astype(object)


def _draw_exponents(data):
    """Two exponents, each at most 62, whose sum is near 53 or 63, so that
    kernel bounds straddle the float64 and the int64 rung."""
    total = data.draw(st.integers(44, 66))
    e = data.draw(st.integers(max(0, total - 62), min(total, 62)))
    return e, total - e


def _split_exponent(data, total, count):
    """``count`` exponents from 0 to 62 that add up to ``total`` when it
    is at most 62 * count; a negative total gives zeros."""
    out = []
    for k in range(count - 1, 0, -1):
        e = data.draw(st.integers(max(0, total - 62 * k),
                                  max(0, min(total, 62))))
        out.append(e)
        total -= e
    return out + [max(0, min(total, 62))]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_einsum_matches_object_reference(data):
    """exactla.einsum equals object np.einsum on every kernel spec, at
    sizes of 1-3, with one axis of size 0, and at sizes grown until the
    loop reaches _PATH_MIN with max-abs values whose bound lies near
    2**53 or 2**63.  The result is int64 exactly when the bound fits, and
    the float64 rung, a chain of matmuls, runs exactly when the bound is
    below 2**53 and the loop at least _PATH_MIN."""
    spec = data.draw(st.sampled_from(KERNEL_SPECS))
    subs, out = spec.split("->")
    names = sorted(set(subs) - {","})
    sizes = {c: data.draw(st.integers(1, 3)) for c in names}
    kind = data.draw(st.sampled_from(["small", "empty", "large"]))
    if kind == "empty":
        sizes[data.draw(st.sampled_from(names))] = 0
    if kind == "large":
        # grow every index alike until the loop reaches _PATH_MIN
        while math.prod(sizes.values()) < la._PATH_MIN:
            sizes = {c: v + 1 for c, v in sizes.items()}
    summed = math.prod(v for c, v in sizes.items() if c not in out)
    shapes = [tuple(sizes[c] for c in sub) for sub in subs.split(",")]
    if kind == "large":
        target = data.draw(st.sampled_from([53, 63])) + data.draw(
            st.integers(-2, 1))
        es = _split_exponent(data, target - summed.bit_length() + 1,
                             len(shapes))
        ops = [_draw_large(data, shape, e) for shape, e in zip(shapes, es)]
    else:
        ops = [_draw_array(data, shape) for shape in shapes]
    with mock.patch.object(la, "_contract", wraps=la._contract) as lowered:
        got = la.einsum(spec, *(la.asint(op) for op in ops))
    assert (got == np.einsum(spec, *ops)).all()
    bound = summed
    for op in ops:
        bound *= max(_ref_max(op), 1)
    assert (got.dtype == np.int64) == (bound < 2 ** 63)
    loop = math.prod(sizes.values())
    assert lowered.called == (bound < 2 ** 53 and loop >= la._PATH_MIN)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_contract_matches_einsum(data):
    """The lowering of every kernel spec to batched matmuls gives
    np.einsum's result, in int64, at sizes from 0 to 3."""
    spec = data.draw(st.sampled_from(KERNEL_SPECS))
    subs, out = spec.split("->")
    sizes = {c: data.draw(st.integers(0, 3))
             for c in sorted(set(subs) - {","})}
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    ops = [rng.integers(-9, 9, size=tuple(sizes[c] for c in sub))
           for sub in subs.split(",")]
    got = la._contract(la._plan(spec), ops)
    assert got.shape == tuple(sizes[c] for c in out)
    assert (got == np.einsum(spec, *ops)).all()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_lincomb_matches_object_reference(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1,
                                     max_size=3)))
    terms = [(data.draw(st.integers(-2 ** 40, 2 ** 40)),
              _draw_array(data, shape))
             for _ in range(data.draw(st.integers(1, 4)))]
    got = la.lincomb(*((c, la.asint(arr)) for c, arr in terms))
    want = sum(c * arr for c, arr in terms)
    assert (got == want).all()
    bound = sum(abs(c) * _ref_max(arr) for c, arr in terms)
    assert (got.dtype == np.int64) == (bound < 2 ** 63)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_bracket_matches_object_reference(data):
    n = data.draw(st.integers(1, 3))
    k = data.draw(st.integers(1, 3))
    # the broadcast shapes the library brackets
    sx, sy = data.draw(st.sampled_from([
        ((n, n), (n, n)), ((n, n), (k, n, n)), ((k, n, n), (n, n)),
        ((k, n, n), (k, n, n)), ((k, 1, n, n), (1, 2, n, n))]))
    x, y = _draw_array(data, sx), _draw_array(data, sy)
    got = la.bracket(la.asint(x), la.asint(y))
    assert (got == x @ y - y @ x).all()
    bound = 2 * n * _ref_max(x) * _ref_max(y)
    assert (got.dtype == np.int64) == (bound < 2 ** 63)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_large_einsum_matches_object_reference(data):
    """Loops of at least 2**16 reach the float64 rung when the bound is
    below 2**53; the result must still be exact and integer."""
    spec = data.draw(st.sampled_from(["ab,bc->ac", "kji,jac->kiac"]))
    subs, out = spec.split("->")
    names = sorted(set(subs) - {","})
    sizes = {c: data.draw(st.integers(2, 10)) for c in names}
    if spec == "ab,bc->ac":
        sizes["b"] = data.draw(st.integers(1, 64))
    # grow the first output index until the loop reaches 2**16
    rest = int(np.prod([v for c, v in sizes.items() if c != out[0]]))
    sizes[out[0]] = max(sizes[out[0]], -(-2 ** 16 // rest))
    e = _draw_exponents(data)
    ops = [_draw_large(data, tuple(sizes[c] for c in sub), ek)
           for sub, ek in zip(subs.split(","), e)]
    got = la.einsum(spec, *(la.asint(op) for op in ops))
    assert (got == np.einsum(spec, *ops)).all()
    bound = 2 ** sum(e) * int(np.prod([v for c, v in sizes.items()
                                       if c not in out]))
    assert (got.dtype == np.int64) == (bound < 2 ** 63)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_large_bracket_matches_object_reference(data):
    """Stacked commutators whose loop reaches 2**16, as in
    test_large_einsum_matches_object_reference."""
    n = data.draw(st.integers(4, 24))
    # k products of n x n matrices make a loop of at least 2**16
    k = -(-2 ** 16 // n ** 3)
    sx, sy = data.draw(st.sampled_from([
        ((k, n, n), (k, n, n)), ((n, n), (k, n, n)),
        ((k, 1, n, n), (1, 2, n, n))]))
    ex, ey = _draw_exponents(data)
    x, y = _draw_large(data, sx, ex), _draw_large(data, sy, ey)
    got = la.bracket(la.asint(x), la.asint(y))
    assert (got == x @ y - y @ x).all()
    bound = 2 * n * 2 ** (ex + ey)
    assert (got.dtype == np.int64) == (bound < 2 ** 63)


def test_kernel_dtype_at_the_int64_edge(monkeypatch):
    # bound (2**31 - 1) * 2**31 * 2 fits; 2**31 * 2**31 * 2 = 2**63 does not
    b = la.asint([[2 ** 31], [2 ** 31]])
    fits = la.einsum("ab,bc->ac", la.asint([[2 ** 31 - 1] * 2]), b)
    assert fits.dtype == np.int64 and fits[0, 0] == 2 ** 63 - 2 ** 32
    wide = la.einsum("ab,bc->ac", la.asint([[2 ** 31] * 2]), b)
    assert wide.dtype == object and wide[0, 0] == 2 ** 63
    top = la.lincomb((1, la.asint([2 ** 62])), (1, la.asint([2 ** 62 - 1])))
    assert top.dtype == np.int64 and top[0] == 2 ** 63 - 1
    over = la.lincomb((1, la.asint([2 ** 62])), (1, la.asint([2 ** 62])))
    assert over.dtype == object and over[0] == 2 ** 63
    # -2**63 fits int64, but its absolute value does not
    assert la.asint([-2 ** 63]).dtype == object
    assert la.max_abs(la.asint([[-2 ** 63, 1]])) == 2 ** 63
    # loops of at least 2**16 whose entry m * b equals the bound: at
    # 2**53 - 1 they run in float64, exactly, as a matmul; at 2**53 + 1 in
    # int64, on einsum, where float64 would round the entry to 2**53
    ran = []

    def spy(call):
        def spied(*args, **kwargs):
            ran.append(next(a for a in args
                            if isinstance(a, np.ndarray)).dtype)
            return call(*args, **kwargs)
        return spied

    for name in ("einsum", "matmul"):
        monkeypatch.setattr(np, name, spy(getattr(np, name)))
    for top, b, n, rung in ((2 ** 53 - 1, 6361, 4, np.float64),
                            (2 ** 53 + 1, 3, 148, np.int64)):
        x = la.asint(np.full((n, b), top // b))
        out = la.einsum("ab,bc->ac", x, la.asint(np.ones((b, n), int)))
        assert ran.pop() == rung
        assert out.dtype == np.int64 and (out == top).all()


def _residual_rungs(*terms):
    """exactla.residual of ``terms`` three ways: with every loop and
    density let onto the sparse rung, the value the sparse rung itself
    gave (None when its bound sent the call to the dense rung, or when it
    was never asked), and with the dense rung forced."""
    asked = []
    sparse = la._sparse_residual

    def spy(ts, plans):
        asked.append(sparse(ts, plans))
        return asked[-1]

    with mock.patch.multiple(la, _SPARSE_LOOP=0, _SPARSE_DENSITY=1.0,
                             _sparse_residual=spy):
        value = la.residual(*terms)
    with mock.patch.object(la, "_SPARSE_LOOP", math.inf):
        dense = la.residual(*terms)
    return value, asked[0] if asked else None, dense


def _draw_sparse(data, shape):
    """int64 array with entries up to 2**e, e one of 0, 5, 20, 31 and 40,
    about a quarter of them zero; its first row may be an all-zero
    block."""
    e = data.draw(st.sampled_from([0, 5, 20, 31, 40]))
    n = int(np.prod(shape))
    vals = data.draw(st.lists(st.integers(1, 2 ** e), min_size=n,
                              max_size=n))
    signs = data.draw(st.lists(st.sampled_from([1, -1, 1, 0]), min_size=n,
                               max_size=n))
    arr = np.array([v * k for v, k in zip(vals, signs)],
                   dtype=np.int64).reshape(shape)
    if shape[0] and data.draw(st.booleans()):
        arr[0] = 0
    return arr


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_residual_rungs_match_object_reference(data):
    """The sparse and dense rungs of exactla.residual give the max-abs of
    the object-dtype sum, value for value: on the derivation identity's
    three contractions (k may be empty), on a span product less an
    array, and with a term that cancels the sum exactly.  Entries up to
    2**40 and coefficients up to 2**20 put bounds on both sides of
    2**63, where the sparse rung must hand over to the dense one."""
    coef = st.sampled_from([1, -1, 3, -2 ** 20, 2 ** 20])
    if data.draw(st.booleans()):
        dk, n = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 4))
        k, s = _draw_sparse(data, (dk, n, n)), _draw_sparse(data, (n, n, n))
        terms = [(data.draw(coef), "kab,ibc->kiac", k, s),
                 (data.draw(coef), "iab,kbc->kiac", s, k),
                 (data.draw(coef), "kji,jac->kiac", k, s)]
    else:
        g, dk, c = (data.draw(st.integers(n, 5)) for n in (1, 0, 1))
        terms = [(data.draw(coef), "gk,kc->gc", _draw_sparse(data, (g, dk)),
                  _draw_sparse(data, (dk, c))),
                 (data.draw(coef), _draw_sparse(data, (g, c)))]
    total = sum(c * (np.einsum(t[0], *(a.astype(object) for a in t[1:]))
                     if len(t) == 3 else t[0].astype(object))
                for c, *t in terms)
    if not data.draw(st.integers(0, 3)):
        terms.append((-1, la.asint(total)))
        total = total * 0
    want = _ref_max(total)
    value, sparse, dense = _residual_rungs(*terms)
    assert value == dense == want
    assert sparse in (None, want)


def test_residual_sparse_bound_at_the_int64_edge():
    """The sparse rung bounds an entry of X @ Y by the largest row nnz of
    X times the max-abs values, not by the summed size: a row of two
    nonzeros among four, times 2**31, stays below 2**63 at 2**31 - 1
    and runs sparse; at 2**31 it reaches 2**63 and runs dense, exactly.
    At their default thresholds small or dense calls stay dense."""
    y = la.asint([[2 ** 31], [5], [2 ** 31], [7]])
    for top, on_sparse in ((2 ** 31 - 1, True), (2 ** 31, False)):
        x = la.asint([[top, 0, top, 0]])
        value, sparse, dense = _residual_rungs((1, "ab,bc->ac", x, y))
        assert value == dense == 2 * top * 2 ** 31
        assert (sparse is not None) == on_sparse
    assert la._sparse_plans([(1, "ab,bc->ac", ((x, top), (y, top)))]) \
        is None


def test_dense_residual_leaves_int64_only_when_its_products_do():
    """When its bound passes 2**63, the dense rung runs each product in
    the dtype of its own bound and adds them in int64 until |c| times
    their max-abs values reach 2**63, then in Python integers: products
    far below their bounds stay in int64, and a large term after a small
    one moves the running sum, exactly.  Each case equals the object
    reference."""
    x = la.asint(np.full((3, 2), 2 ** 30))
    y = la.asint([[1, 5], [-1, 2]])
    p = la.asint(x.astype(object) @ y.astype(object))   # column 0 is 0
    for terms in ([(2 ** 40, "ab,bc->ac", x, y[:, :1])],
                  [(1, "ab,bc->ac", x, y), (2 ** 40, "ab,bc->ac", x, y)],
                  [(-3, "ab,bc->ac", x, y), (2 ** 40, p)],
                  [(2 ** 70, "ab,bc->ac", x, y[:, :1]), (5, p[:, :1])],
                  [(2 ** 40, "ab,bc->ac", x, y),
                   (-2 ** 40, "ab,bc->ac", x, y)]):
        total = sum(c * (np.einsum(t[0], *(a.astype(object) for a in t[1:]))
                         if len(t) == 3 else t[0].astype(object))
                    for c, *t in terms)
        with mock.patch.object(la, "_SPARSE_LOOP", math.inf):
            assert la.residual(*terms) == _ref_max(total)


def test_lowest_terms_keeps_its_dtype():
    """lowest_terms divides int64 arrays in int64; a zero array over a
    den past int64 divides by that den."""
    arr, den = la.lowest_terms(la.asint([4, -6, 0]), 10)
    assert arr.dtype == np.int64 and arr.tolist() == [2, -3, 0]
    assert den == 5
    arr, den = la.lowest_terms(la.asint([0, 0]), 3 * 2 ** 70)
    assert arr.dtype == np.int64 and arr.tolist() == [0, 0] and den == 1
    arr, den = la.lowest_terms(la.asint([2 ** 70, 2 ** 66]), 2 ** 68)
    assert arr.dtype == np.int64 and arr.tolist() == [16, 1]
    assert den == 4


def test_kernel_refuses_float_operands():
    """A float64 operand raises TypeError in every kernel entry point,
    passed bare or as an ``(array, m)`` pair, so it is never truncated
    to int64 on an integer rung."""
    x = np.eye(3)
    for op in (x, (x, 1)):
        with pytest.raises(TypeError):
            la.einsum("ab,bc->ac", op, np.eye(3, dtype=np.int64))
        with pytest.raises(TypeError):
            la.lincomb((1, np.eye(3, dtype=np.int64)), (2, op))
        with pytest.raises(TypeError):
            la.bracket(op, np.eye(3, dtype=np.int64))
        with pytest.raises(TypeError):
            la.residual((1, "ab,bc->ac", op, op))
    for call in (la.max_abs, la.asint, lambda a: JordanAlgebra(
            kernel=(a.reshape(1, 1, 1), 1))):
        with pytest.raises(TypeError):
            call(np.array([0.5]))


def test_int64_limits_only_in_kernel():
    """Only the kernel module may mention the int64 limits."""
    src = Path(__file__).resolve().parents[1] / "src" / "jordanaff"
    pattern = re.compile(r"_INT64_SAFE|2\s*\*\*\s*6[23]\b")
    offenders = [f"{path.name}:{no}"
                 for path in sorted(src.glob("*.py"))
                 if path.name != "exactla.py"
                 for no, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert offenders == []


def test_denominators_cleared_only_in_jordan():
    """Only jordan.py turns Fractions into kernel form; every other module
    reads the kernel arrays an algebra stores."""
    src = Path(__file__).resolve().parents[1] / "src" / "jordanaff"
    pattern = re.compile(r"clear_denominators|\bfvec\b")
    offenders = [f"{path.name}:{no}"
                 for path in sorted(src.glob("*.py"))
                 if path.name not in ("exactla.py", "jordan.py")
                 for no, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert offenders == []


def test_serialization_constructs_no_fraction():
    """The JordanAlgebra constructor is the one parser of exact entries:
    serialization.py hands it the raw tensor and never makes a Fraction."""
    path = (Path(__file__).resolve().parents[1] / "src" / "jordanaff"
            / "serialization.py")
    offenders = [no for no, line in
                 enumerate(path.read_text().splitlines(), 1)
                 if "Fraction(" in line]
    assert offenders == []


def test_solve_tall_consistency():
    cols = [(1, 0, 2), (0, 1, -1)]
    rows = [tuple(c[i] for c in cols) for i in range(3)]
    x, d = la.solve(rows, [3, 4, 2])
    assert (x == [3, 4]).all() and d == 1
    assert la.solve(rows, [1, 0, 0]) is None


def _tall_system(data, n_rows, n_cols):
    e = data.draw(st.integers(0, 40))
    return [[data.draw(st.integers(-2 ** e, 2 ** e)) for _ in range(n_cols)]
            for _ in range(n_rows)]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_tall_solve_and_null_space_match_sympy(data):
    """Tall integer systems with entries up to 2**40: consistent,
    inconsistent and rank-deficient right-hand sides."""
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(n, 3 * n + 2))
    a = _tall_system(data, m, n)
    if data.draw(st.booleans()):   # rank-deficient: last column repeats
        for row in a:
            row[-1] = row[0]
    sa = sympy.Matrix(a)
    kind = data.draw(st.sampled_from(["consistent", "inconsistent"]))
    if kind == "consistent":
        x0 = [data.draw(st.integers(-2 ** 40, 2 ** 40)) for _ in range(n)]
        b = list(sa * sympy.Matrix(x0))
    else:
        b = [data.draw(st.integers(-2 ** 40, 2 ** 40)) for _ in range(m)]
    ns, d = la.null_space(a)
    assert [list(_rationals(v, d)) for v in ns] == \
        [list(v) for v in sa.nullspace()]
    try:
        want, params = sa.gauss_jordan_solve(sympy.Matrix(b))
    except ValueError:       # inconsistent
        want = None
    got = la.solve(a, b)
    if want is None or params.shape[0]:
        assert got is None
    else:
        assert _rationals(*got) == want


def _stacked_system(data, m, n, k):
    """One system of an m x n stack, with k right-hand sides (k = 0: a
    vector): unique, rank-deficient or (when tall) mostly inconsistent."""
    a = _tall_system(data, m, n)
    kind = data.draw(st.sampled_from(["unique", "singular", "random"]))
    if kind == "singular":   # the last column repeats the first
        for row in a:
            row[-1] = row[0] if n > 1 else 0
    entry = st.integers(-2 ** 40, 2 ** 40)
    if kind == "random":
        return a, [[data.draw(entry) for _ in range(k or 1)]
                   for _ in range(m)]
    x0 = [[data.draw(entry) for _ in range(k or 1)] for _ in range(n)]
    return a, (sympy.Matrix(a) * sympy.Matrix(x0)).tolist()


def _assert_solves_like_sympy(a, b, got):
    sa, sb = sympy.Matrix(a), sympy.Matrix(b)
    try:
        want, params = sa.gauss_jordan_solve(sb)
    except ValueError:       # inconsistent
        want = None
    if want is None or params.shape[0]:
        assert got is None
    else:
        assert _rationals(*got) == want


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_stacked_solve_matches_sympy(data):
    """A stack mixes unique, rank-deficient and inconsistent systems with
    a system whose answer is 2**40 and one whose pivot block is divisible
    by the first prime; each result is sympy's, and the same as solving
    that system alone."""
    p = la.PRIMES_30BIT[0]
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(n, n + 3))
    k = data.draw(st.integers(0, 2))
    systems = [_stacked_system(data, m, n, k)
               for _ in range(data.draw(st.integers(0, 4)))]
    pad = [[0] * n for _ in range(m - n)]
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    big = [[2 ** 40 if i == 0 else 1] * (k or 1) for i in range(m)]
    big[n:] = [[0] * (k or 1)] * (m - n)
    block = [[p if i == j == 0 else int(i == j) for j in range(n)]
             for i in range(n)]
    for extra in ((eye + pad, big), (block + pad, big)):
        systems.insert(data.draw(st.integers(0, len(systems))), extra)
    a = la.asint([ai for ai, _ in systems])
    b = la.asint([[r if k else r[0] for r in bi] for _, bi in systems])
    got = la.solve(a, b)
    assert len(got) == len(systems)
    for (ai, bi), sol, alone in zip(systems, got,
                                    (la.solve(x, y) for x, y in zip(a, b))):
        _assert_solves_like_sympy(ai, bi, sol)
        assert (sol is None) == (alone is None)
        if sol is not None:
            assert sol[1] == alone[1] and (sol[0] == alone[0]).all()
            assert sol[0].shape == ((n, k) if k else (n,))


def test_stacked_inverses_of_a_big_isotope(big_isotopes):
    """The inverses of the full_real(m=2)^(10^9/3) isotope, as
    check_inverse_identities solves them: P_v w = v for a stack of v,
    against sympy's LUsolve."""
    j = big_isotopes["full_real(m=2)^(10^9/3)"]
    x = j._int_elements(random.Random(5), 8, 3)
    pv, dp = j._p_int(x, 1)
    rhs = la.lincomb((dp, x))
    for pi, ri, sol in zip(pv, rhs, la.solve(pv, rhs)):
        sp = sympy.Matrix(pi.tolist())
        if sp.det() == 0:
            assert sol is None
        else:
            assert _rationals(*sol) == sp.LUsolve(sympy.Matrix(ri.tolist()))


def test_solve_sees_rows_hidden_from_the_prime():
    """The only inconsistent row is divisible by the candidate prime, so
    the modular pivot selection skips it; the exact check on every row
    must still find it."""
    p = la.PRIMES_30BIT[0]
    a = [[1, 0], [0, 1], [p, 2 * p]]
    x, d = la.solve(a, [1, 1, 3 * p])
    assert x.tolist() == [1, 1] and d == 1
    assert la.solve(a, [1, 1, 4 * p]) is None
    ns, _ = la.null_space([[p, 0], [0, 0]])
    assert ns.tolist() == [[0, 1]]


def test_solve_draws_more_primes(monkeypatch):
    """An entry above sqrt(p / 2) cannot be rebuilt from the first prime
    p: [A | B] is eliminated once modulo p, and the solution is lifted
    p-adically with no other prime.  Reconstruction is tried after 2
    steps and after the third, the first past the Hadamard bound.  A
    prime that divides det A shows too small a rank: rank A = 2 is
    certified, and A is lifted modulo the next prime.  A pivot that
    moves to another column modulo p fails null_space's exact check and
    draws more primes.  Each gives the exact answer."""
    p, q = la.PRIMES_30BIT[:2]
    eliminated, moduli = [], []
    eliminate, reconstruct = la._eliminate, la._reconstruct

    def counted_eliminate(m, n, prime):
        eliminated.append((prime, m.shape))
        return eliminate(m, n, prime)

    def counted_reconstruct(x, m):
        moduli.append(m)
        return reconstruct(x, m)

    monkeypatch.setattr(la, "_eliminate", counted_eliminate)
    monkeypatch.setattr(la, "_reconstruct", counted_reconstruct)
    x, d = la.solve([[1]], [2 ** 40])
    assert x.tolist() == [2 ** 40] and d == 1
    # [A | B] modulo p, then [A_S | I] to invert A_S for the lifting
    assert eliminated == [(p, (1, 1, 2)), (p, (1, 1, 2))]
    assert moduli == [p, p ** 2, p ** 3]
    # p divides det A: [A | B] modulo p, the span witness of the pivot
    # row modulo p (it fails), the pivots modulo q (rank 2, certified),
    # then [A_S | I] modulo p (singular) and modulo q for the lifting
    eliminated.clear()
    x, d = la.solve([[p, 0], [0, 1]], [1, 1])
    assert x.tolist() == [1, p] and d == p
    assert eliminated == [(p, (1, 2, 3)), (p, (1, 1, 3)), (q, (1, 2, 2)),
                          (p, (1, 2, 4)), (q, (1, 2, 4))]
    eliminated.clear()
    # modulo p the pivot is column 1, over Q it is column 0
    ns, d = la.null_space([[p, 1]])
    assert [list(_rationals(v, d)) for v in ns] == \
        [list(v) for v in sympy.Matrix([[p, 1]]).nullspace()]
    assert q in [prime for prime, _ in eliminated]


def test_lifting_stops_at_the_hadamard_bound(monkeypatch):
    """Were reconstruction never to succeed, lifting would still stop:
    with H = 1 + 2**80 for A = [1], B = [2**40], the third step passes
    2 H and raises ArithmeticError after its reconstruction."""
    p = la.PRIMES_30BIT[0]
    moduli = []

    def never(x, m):
        moduli.append(m)
        return np.zeros(x.shape, dtype=np.int64), \
            np.zeros(len(x), dtype=object)

    monkeypatch.setattr(la, "_reconstruct", never)
    with pytest.raises(ArithmeticError, match="Hadamard"):
        la.solve([[1]], [2 ** 40])
    assert moduli == [p, p ** 2, p ** 3]


def test_solvers_never_eliminate_over_objects(monkeypatch, desk_instances,
                                              get_algebra):
    """The unit, inverses, the split into simple ideals and the
    reconstruction's adapted basis run on residues modulo primes and one
    exact check each: the exact elimination behind det is never reached.
    Each algebra is rebuilt from its tensor, so no cached solution
    stands in for a solve."""
    def refuse(_):
        raise AssertionError("exact elimination reached")

    monkeypatch.setattr(la, "_echelon", refuse)
    rng = random.Random(3)
    count = 0
    for name, params in desk_instances:
        built = get_algebra(name, **params)
        if built.dim > 27:
            continue
        j = JordanAlgebra(kernel=built._int_tensor(), name=built.name)
        e = j.unity()
        u = j.random_element(rng, bound=5)
        try:
            assert j.product(u, j.invert(u)) == e, name
        except NotInvertibleError:
            pass
        assert sum(part.dim for part, _ in j.decompose(seed=0)) == j.dim
        assert reconstruct_algebra(build_model(j, Fraction(-1))).dim == \
            j.dim
        count += 1
    assert count == 26


def test_only_det_eliminates_exactly():
    """solve and null_space have no second path: ``_tall`` is gone, and
    the exact elimination ``_echelon`` is referenced only from det."""
    assert not hasattr(la, "_tall")
    src = Path(__file__).resolve().parents[1] / "src" / "jordanaff"
    users = []
    for path in sorted(src.glob("*.py")):
        top = None  # the enclosing top-level def or class
        for line in path.read_text().splitlines():
            found = re.match(r"(?:def|class) (\w+)", line)
            if found:
                top = found.group(1)
            elif re.search(r"\b(_tall|_echelon)\b", line):
                users.append((path.name, top))
    assert users == [("exactla.py", "det")]


def test_solve_lifts_instead_of_drawing_primes():
    """solve eliminates [A | B] modulo the first prime only and lifts
    what that prime cannot rebuild: solve and its helpers reference
    no prime past the first by index (a later prime serves only as the
    lifting prime of an A_S singular modulo the first).  exactla has one
    modular elimination and one way to recover what a prime cannot
    rebuild: no CRT join, no second elimination loop.  No sampled check
    (a function taking ``n_samples``) calls solve, or the inverses built
    on it, inside a loop or comprehension over its samples."""
    helpers = (la.solve, la._solve_stack, la._lift, la._dixon)
    source = "".join(inspect.getsource(f) for f in helpers)
    assert not re.search(r"PRIMES_30BIT\[(?!0\])", source)
    assert not re.search(r"\b(_crt|_mod_rank|_rref|_solve_mod)\b",
                         inspect.getsource(la))
    src = Path(__file__).resolve().parents[1] / "src" / "jordanaff"
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    offenders = []
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef) or \
                    "n_samples" not in [a.arg for a in fn.args.args]:
                continue
            offenders += [
                f"{path.name}:{fn.name}:{call.lineno}"
                for loop in ast.walk(fn) if isinstance(loop, loops)
                for call in ast.walk(loop)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("solve", "_invert_int")]
    assert offenders == []
