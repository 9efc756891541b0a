"""Exact linear algebra over the rationals, tuned for structure-constant work.

Exact data is an integer ndarray over one shared denominator, the
kernel form in which a ``JordanAlgebra`` stores its structure tensor.
Fractions appear only at the API edge and in the independent
determinant routines of complex matrix realizations (:class:`QI`,
:func:`field_det`).  At the edge :func:`as_fraction` coerces scalars,
and only :mod:`jordanaff.jordan` turns element and tensor entries into
kernel form, with :func:`fvec` and :func:`clear_denominators_vec`.
Every integer contraction, commutator and linear combination goes
through one kernel, :func:`einsum`, :func:`bracket` and :func:`lincomb`:
it bounds the result in Python ints from the operands' max-abs values,
the contracted sizes and the coefficients, then picks one dtype.  A
contraction whose bound is below 2**53 and whose loop is large runs in
float64, through BLAS, and is cast back to int64 once: every partial sum
is then an integer float64 holds exactly.  Otherwise the call runs in
int64 when the bound fits and on Python big integers (``dtype=object``)
when it does not.  It never wraps, never rounds and never refuses an
input for its size, and integer operands always give integer results.
A float64 operand makes the whole call run in float64, which is how
float-mode algebras share the exact code paths.

Ranks and solutions are certified, not probabilistic, and none of them
eliminates over Python integers.  A Gauss-Jordan elimination modulo one
30-bit prime finds the pivots: rows independent modulo a prime are
independent over Q.  What it solves is rebuilt by rational
reconstruction and accepted only when one exact identity, checked with
:func:`einsum`, holds on every row: Y @ M[pivot rows] == d * M for a
rank (after Kaltofen, Nehring and Saunders, "Quadratic-time certificates
in linear algebra", ISSAC 2011), A Y == d B for :func:`solve` and
A K^T == 0 for :func:`null_space` (after Dixon, Numer. Math. 40, 1982).
More primes are drawn, their residues joined by CRT, only when that
fails.  :func:`det` keeps one fraction-free elimination on Python
integers, and :func:`inertia` is its symmetric counterpart, which
pivots on the diagonal.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# A kernel result runs in int64 when its bound is below this.  asint keeps
# -2**63, the one int64 value whose abs wraps, out of int64 arrays.
_INT64_SAFE = 2 ** 63
# Every integer of absolute value below this is exact in float64.
_FLOAT_EXACT = 2 ** 53

# ---------------------------------------------------------------------------
# scalars and small vector helpers


def as_fraction(x) -> Fraction:
    """Coerce ints, rational strings like '-3/7', and Fractions."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def fvec(seq) -> tuple:
    return tuple(as_fraction(x) for x in seq)


# ---------------------------------------------------------------------------
# the API edge: Fractions to one integer vector over one denominator


def clear_denominators_vec(vec):
    """Return (ints, den) with vec == ints / den; den is the lcm of the
    entries' denominators, so the pair is in lowest terms."""
    den = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (den // x.denominator) for x in vec], den


# ---------------------------------------------------------------------------
# the exact integer kernel


def asint(ints):
    """ndarray of nested Python ints: int64 when every entry fits, else
    ``dtype=object`` (Python ints)."""
    try:
        arr = np.asarray(ints, dtype=np.int64)
    except OverflowError:
        return np.asarray(ints, dtype=object)
    if arr.size and arr.min() == -_INT64_SAFE:
        return arr.astype(object)
    return arr


def max_abs(arr):
    """Largest absolute entry of a kernel array: a Python int for an
    integer array, a float for a float64 one."""
    if not arr.size:
        return 0
    m = np.abs(arr).max()
    return float(m) if arr.dtype.kind == "f" else int(m)


# Loops with fewer iterations than this (the product of all index sizes)
# run faster as one naive einsum than after a contraction-path search, and
# faster in int64 than in float64 with its two casts.
_PATH_MIN = 2 ** 16


def _dtype(bound, loop=0):
    """The dtype of an integer kernel call whose result is bounded by
    ``bound``: float64 when the bound is below 2**53 and the loop is at
    least ``_PATH_MIN``, so that BLAS pays for the casts; else int64 when
    the bound fits; else Python big integers.  :func:`lincomb` passes no
    loop, since elementwise work gains nothing from BLAS."""
    if bound < _FLOAT_EXACT and loop >= _PATH_MIN:
        return np.float64
    return np.int64 if bound < _INT64_SAFE else object


def _array(op):
    """The array of an operand: an array or an ``(array, m)`` pair."""
    return op[0] if isinstance(op, tuple) else op


def _max(op):
    """A bound on an operand's max-abs: its m, or a scan of its array."""
    return op[1] if isinstance(op, tuple) else max_abs(op)


@functools.lru_cache(maxsize=256)
def _index_axes(spec):
    """(operand, axis) of the first occurrence of each index of ``spec``,
    split into summed and kept indices."""
    subs, out = spec.split("->")
    first = {}
    for k, sub in enumerate(subs.split(",")):
        for axis, index in enumerate(sub):
            first.setdefault(index, (k, axis))
    return (tuple(v for i, v in first.items() if i not in out),
            tuple(v for i, v in first.items() if i in out))


def einsum(spec, *ops):
    """Exact ``np.einsum`` of integer operands, in explicit mode.

    The bound is the product of the operands' max-abs values (at least 1
    each) and of the sizes of the summed indices.  It bounds every entry
    and every partial sum of the result and of any pairwise intermediate,
    so nothing can wrap in int64 when that bound fits.  Below 2**53 every
    such intermediate is an integer that float64 holds exactly, in any
    summation order, BLAS blocking and fused multiply-adds included; so a
    loop of at least ``_PATH_MIN`` then runs in float64, through BLAS, and
    its result is cast back to int64 once.  Otherwise the call runs in
    int64 when the bound fits and on Python big integers when it does
    not.  An operand may be passed as ``(array, m)`` with m >= its
    max-abs, so a cached tensor is scanned once.  With a float64 operand
    the call runs in float64 and no operand is scanned.
    """
    summed, kept = _index_axes(spec)
    arrs = [_array(op) for op in ops]
    bound = 1
    for k, axis in summed:
        bound *= arrs[k].shape[axis]
    loop = bound
    for k, axis in kept:
        loop *= arrs[k].shape[axis]
    floats = any(a.dtype.kind == "f" for a in arrs)
    if floats:
        dtype = np.float64
    else:
        for op in ops:
            bound *= max(_max(op), 1)
        dtype = _dtype(bound, loop)
    arrs = [a.astype(dtype, copy=False) for a in arrs]
    # a path search pays off for a large loop, and reaches BLAS in float64
    if loop >= _PATH_MIN and (dtype is np.float64 or len(arrs) > 2):
        out = np.einsum(spec, *arrs, optimize=True)
    else:
        out = np.einsum(spec, *arrs)
    if dtype is np.float64 and not floats:
        out = out.astype(np.int64)
    return out


def bracket(x, y):
    """Exact commutator x @ y - y @ x of integer matrices or stacks of
    them (broadcast as by ``np.matmul``).

    The bound is 2 * n * max-abs(x) * max-abs(y) and the loop is n times
    the size of the result; the dtype follows from them as in
    :func:`einsum`, float64 through BLAS included.  A float64 operand
    makes the call run in float64 without a scan.
    """
    xa, ya = _array(x), _array(y)
    floats = xa.dtype.kind == "f" or ya.dtype.kind == "f"
    if floats:
        dtype = np.float64
    else:
        n, d = xa.shape[-1], xa.ndim - ya.ndim
        dtype = _dtype(2 * n * _max(x) * _max(y),
                       n * math.prod(map(max, (1,) * -d + xa.shape,
                                         (1,) * d + ya.shape)))
    xa, ya = xa.astype(dtype, copy=False), ya.astype(dtype, copy=False)
    out = np.matmul(xa, ya)
    out -= np.matmul(ya, xa)
    if dtype is np.float64 and not floats:
        out = out.astype(np.int64)
    return out


def lincomb(*terms):
    """Exact sum of ``c * arr`` over ``(c, arr)`` terms of one shape.

    The coefficients are ints; int64 is used exactly when
    sum |c| * max-abs(arr) fits, float64 when an ``arr`` is float64, in
    which case no ``arr`` is scanned.  ``arr`` may be an ``(array, m)``
    pair as in :func:`einsum`.
    """
    floats = any(_array(op).dtype.kind == "f" for _, op in terms)
    terms = [(int(c), _array(op), 1 if floats else _max(op))
             for c, op in terms]
    dtype = np.float64 if floats else _dtype(sum(abs(c) * m
                                                 for c, _, m in terms))
    out = None
    for c, arr, m in terms:
        if c and m:
            term = c * arr.astype(dtype, copy=False)
            if out is None:
                out = term
            else:
                out += term
    return np.zeros(terms[0][1].shape, dtype) if out is None else out


# ---------------------------------------------------------------------------
# certified ranks and exact solutions over the integers


def _is_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# the 150 largest primes below 2**30, largest first
PRIMES_30BIT = tuple(itertools.islice(
    filter(_is_prime, range(2 ** 30 - 1, 0, -2)), 150))


def _reduce_mod(M, p):
    return (M % p).astype(np.int64)


def _mod_rank(A, p):
    """Gauss-Jordan elimination of the int64 matrix A modulo the prime p.

    A is reduced in place: its first r rows become the reduced row
    echelon form.  Returns r, the indices of the pivot rows in A as given
    and the pivot columns; the r x r minor of A on those rows and columns
    is nonzero modulo p.
    """
    n_rows, n_cols = A.shape
    perm = np.arange(n_rows)
    cols = []
    for c in range(n_cols):
        r = len(cols)
        if r == n_rows:
            break
        rows = A[:, c].nonzero()[0]
        k = int(rows.searchsorted(r))
        if k == rows.size:
            continue
        # rows r and below are zero left of c, so swapping from c is a
        # full row swap; row r was zero at c, so row i's place in rows
        # passes to r
        i = int(rows[k])
        if i != r:
            A[[r, i], c:] = A[[i, r], c:]
            perm[[r, i]] = perm[[i, r]]
            rows[k] = r
        pivot = A[r, c:] * pow(int(A[r, c]), p - 2, p) % p
        # clearing column c in every row zeroes row r too; it then gets
        # its normalized self back
        A[rows, c:] = (A[rows, c:] - A[rows, c, None] * pivot) % p
        A[r, c:] = pivot
        cols.append(c)
    r = len(cols)
    return r, [int(x) for x in perm[:r]], cols


def _rref(M, p):
    """The reduced row echelon form of the integer matrix M modulo p:
    ``(R, cols)``, one row of R per pivot column in ``cols``."""
    R = _reduce_mod(M, p)
    r, _, cols = _mod_rank(R, p)
    return R[:r], cols


def _solve_mod(M, rows, cols, p):
    """X with X @ M[rows][:, cols] == M[:, cols] modulo p, one row per
    row of M, or None when that minor is singular modulo p: the
    transposed system [M[rows, cols]^T | M[:, cols]^T] reduces to
    [I | X^T] exactly when the minor is nonsingular."""
    sub = M[:, cols]
    R, pivots = _rref(np.concatenate([sub[rows].T, sub.T], axis=1), p)
    return R[:, len(rows):].T if pivots == list(range(len(rows))) else None


def _crt(x, m, y, q):
    """The residues modulo m * q that are x modulo m and y modulo q."""
    t = (y - _reduce_mod(x, q)) % q * pow(m, -1, q) % q
    return lincomb((1, x), (m, t))


def _denominator(u, m, bound):
    """The denominator b <= bound of a fraction a / b with |a| <= bound
    and a == b * u modulo m, or None (half-extended Euclid)."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 0 < abs(t1) <= bound else None


def _reconstruct(X, m):
    """Rational reconstruction of the residues X modulo m over one
    denominator: ``(Y, d)`` with Y == d * X modulo m and every |Y| and d
    at most sqrt(m / 2), or None.

    d grows one entry at a time: the first entry whose residue times the
    running d is not small is reconstructed, and its denominator joins d.
    Each step at least doubles d, so there are few.
    """
    bound = math.isqrt(m // 2)
    d = 1
    while True:
        Y = lincomb((d, (X, m))) % m
        Y = np.where(Y > m // 2, Y - m, Y)
        big = np.flatnonzero(np.abs(Y) > bound)
        if not big.size:
            return asint(Y), d
        b = _denominator(int(Y.flat[big[0]]) % m, m, bound)
        if b is None or d * b > bound:
            return None
        d *= b


def _certify(M, rows, cols):
    """Certify that ``rows`` of the integer matrix M span its row space.

    ``rows`` (sorted) and ``cols`` come from :func:`_mod_rank` at the
    first prime, so the minor M[rows, cols] is nonzero modulo that prime
    and the rows are independent over Q.  The coordinates X of every row
    on the minor's columns are solved modulo the prime, rebuilt as Y / d
    by rational reconstruction and accepted only if Y @ M[rows] == d * M
    holds exactly.  Another prime is drawn only when reconstruction or
    that check fails: its residues join X by CRT, a prime at which the
    minor is singular is skipped, and a prime at which M has a larger
    rank restarts from that prime's pivots.

    Returns ``(rows, (Y, d))``.
    """
    primes = iter(PRIMES_30BIT)
    p = next(primes)
    X = None
    while True:
        Xp = _solve_mod(M, rows, cols, p)
        if Xp is not None:
            X, m = (Xp, p) if X is None else (_crt(X, m, Xp, p), m * p)
            witness = _reconstruct(X, m)
            if witness is not None:
                Y, d = witness
                if np.array_equal(einsum("ab,bc->ac", Y, M[rows]),
                                  lincomb((d, M))):
                    return rows, witness
        for p in primes:
            r, rows_p, cols_p = _mod_rank(_reduce_mod(M, p), p)
            if r >= len(rows):
                break
        else:
            raise ArithmeticError("certified rank: prime supply exhausted")
        if r > len(rows):
            rows, cols, X = sorted(rows_p), cols_p, None


def _first_prime(M):
    """M as a kernel array, with its pivot rows (sorted) and pivot
    columns modulo the first prime."""
    M = asint(M)
    p = PRIMES_30BIT[0]
    _, rows, cols = _mod_rank(_reduce_mod(M, p), p)
    return M, sorted(rows), cols


def int_rank(M) -> int:
    """Certified rank of an integer matrix (nested ints or an ndarray).

    A rank of min(shape) at the first prime needs no witness, since no
    larger rank exists; any smaller one is certified by the span
    identity of :func:`independent_rows`.
    """
    M, rows, cols = _first_prime(M)
    if len(rows) < min(M.shape):
        rows, _ = _certify(M, rows, cols)
    return len(rows)


def independent_rows(M):
    """A certified maximal independent row subset of the integer matrix
    M, with the witness that it spans every row.

    Returns ``(rows, (Y, d))``: the sorted row indices, independent over
    Q because they are independent modulo a prime, and the integer
    coordinates Y (one row per row of M, one column per index in
    ``rows``) with Y @ M[rows] == d * M, checked exactly before return.
    The rank is ``len(rows)``.
    """
    return _certify(*_first_prime(M))


def lowest_terms(arr, den):
    """The kernel pair (arr, den) divided by the gcd of den and every
    entry of arr."""
    g = math.gcd(den, *arr.flat)
    if g == 1:
        return arr, den
    return asint(arr.astype(object) // g), den // g


def null_space(A):
    """Kernel of integer A as ``(K, d)`` in lowest terms: the rows of K
    are an integer basis, and K / d is the reduced one (1 at its own free
    column, 0 at the other free columns).

    The basis is read from the reduced form modulo a prime, rebuilt by
    rational reconstruction and accepted only if A K^T == 0 holds
    exactly.  Then the rank and the pivot columns modulo p are those over
    Q, since each free column is a combination of earlier pivot columns.
    A prime with a larger rank or lexicographically smaller pivot columns
    restarts the residues; one with a smaller rank or larger pivot
    columns is skipped.
    """
    A = asint(A)
    n = A.shape[1]
    best = X = None
    for p in PRIMES_30BIT:
        R, cols = _rref(A, p)
        key = (-len(cols), cols)
        if best is not None and key > best:
            continue
        free = [c for c in range(n) if c not in cols]
        Kp = np.eye(n, dtype=np.int64)[free]
        Kp[:, cols] = -R[:, free].T % p
        X, m = (_crt(X, m, Kp, p), m * p) if key == best else (Kp, p)
        best = key
        witness = _reconstruct(X, m)
        if witness is not None and \
                not einsum("ab,cb->ac", A, witness[0]).any():
            return lowest_terms(*witness)
    raise ArithmeticError("null space: prime supply exhausted")


def solve(A, B):
    """The unique exact solution of A X = B for integer arrays.

    B is a vector or a matrix of right-hand sides.  Returns ``(X, d)``
    in lowest terms with A X = d B, or None when the system is
    inconsistent or its solution is not unique.

    Each verdict is certified.  [A | B] is reduced modulo a prime; all n
    columns of A pivots certify rank A = n (a minor nonzero modulo p is
    nonzero over Z), and a further pivot, in B, then certifies an
    inconsistent system.  A smaller rank of A modulo p means None only
    when :func:`int_rank` certifies it.  The solution read from the
    reduced form, joined by CRT to those of earlier primes and rebuilt
    by rational reconstruction, is returned only if A Y == d B exactly.
    """
    A, B = asint(A), asint(B)
    n = A.shape[1]
    rhs = B.reshape(len(B), -1)
    M = np.concatenate([A, rhs], axis=1)
    full, X = False, None  # full: rank A == n is certified
    for p in PRIMES_30BIT:
        R, cols = _rref(M, p)
        if cols[:n] != list(range(n)):
            # rank A < n over Q, or p divides every nonzero n x n minor
            if not full and int_rank(A) < n:
                return None
        elif len(cols) > n:
            return None
        else:
            X, m = (R[:, n:], p) if X is None else \
                (_crt(X, m, R[:, n:], p), m * p)
            witness = _reconstruct(X, m)
            if witness is not None:
                Y, d = witness
                if np.array_equal(einsum("ab,bc->ac", A, Y),
                                  lincomb((d, rhs))):
                    return lowest_terms(Y.reshape((n,) + B.shape[1:]), d)
        full = True
    raise ArithmeticError("exact solve: prime supply exhausted")


def _echelon(M):
    """``(d, sign)`` with det M = sign * d for a square integer M, by
    fraction-free (Bareiss) elimination on Python ints: d is 0 when M is
    singular, and each division is exact, as every entry is a minor of M.
    :func:`det` keeps it: no identity checks a determinant's residues,
    and a Hadamard-bound CRT would be longer for det's small matrices.
    """
    a = np.array(M, dtype=object)
    sign, d = 1, 1
    for c in range(len(a)):
        nz = np.flatnonzero(a[c:, c])
        if not nz.size:
            return 0, 1
        i = c + int(nz[0])
        if i != c:
            a[[c, i]] = a[[i, c]]
            sign = -sign
        p, rest = a[c, c], a[c + 1:, c + 1:]
        rest[:] = (p * rest - np.outer(a[c + 1:, c], a[c, c + 1:])) // d
        d = p
    return d, sign


def det(M):
    """Exact determinant of a square integer matrix, as a Python int."""
    d, sign = _echelon(asint(M))
    return sign * d


# ---------------------------------------------------------------------------
# inertia of a symmetric integer matrix (exact Sylvester signature)


def inertia(G):
    """Signature (positive, negative, zero) of a symmetric integer matrix.

    Fraction-free (Bareiss) symmetric elimination that pivots on a nonzero
    diagonal entry; the remaining block is the previous pivot times the
    Schur complement.  A zero remaining diagonal first gets row and
    column j added to row and column i for some a_ij != 0, a unimodular
    congruence, so every division stays exact.  A pivot counts as positive
    when its sign matches the previous pivot's (Sylvester/Jacobi).  Entries
    that are not integers raise TypeError.
    """
    a = np.array(G, dtype=object)
    n = len(a)
    bad = [x for x in a.flat if not isinstance(x, (int, np.integer))]
    if bad:
        raise TypeError(f"inertia needs integer entries, got {bad[0]!r}")
    a = np.frompyfunc(int, 1, 1)(a).reshape(n, n)
    pos = neg = 0
    d = 1
    while len(a):
        diag = np.flatnonzero(a.diagonal())
        if diag.size:
            k = int(diag[0])
        else:
            nz = np.argwhere(a)
            if not nz.size:
                break
            k, j = nz[0]
            a[k] += a[j]
            a[:, k] += a[:, j]
        p = a[k, k]
        if (p > 0) == (d > 0):
            pos += 1
        else:
            neg += 1
        rest = np.arange(len(a)) != k
        col = a[rest, k]
        a = (p * a[np.ix_(rest, rest)] - np.outer(col, col)) // d
        d = p
    return pos, neg, n - pos - neg


# ---------------------------------------------------------------------------
# exact complex rationals, for determinants of complex matrix realizations


class QI:
    """Gaussian rational a + b*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @staticmethod
    def _lift(o):
        if isinstance(o, QI):
            return o
        if isinstance(o, (int, Fraction)):
            return QI(o)
        return NotImplemented

    def __add__(self, o):
        o = QI._lift(o)
        if o is NotImplemented:
            return NotImplemented
        return QI(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = QI._lift(o)
        if o is NotImplemented:
            return NotImplemented
        return QI(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        o = QI._lift(o)
        if o is NotImplemented:
            return NotImplemented
        return QI(o.re - self.re, o.im - self.im)

    def __neg__(self):
        return QI(-self.re, -self.im)

    def __mul__(self, o):
        o = QI._lift(o)
        if o is NotImplemented:
            return NotImplemented
        return QI(self.re * o.re - self.im * o.im,
                  self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = QI._lift(o)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        return QI((self.re * o.re + self.im * o.im) / n,
                  (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, o):
        o = QI._lift(o)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def conj(self):
        return QI(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __eq__(self, o):
        return isinstance(o, QI) and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"QI({self.re}, {self.im})"


def field_det(rows):
    """Determinant over any exact field with +,-,*,/ and truthiness."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return Fraction(1)
    det_val = None
    sign = 1
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c]), None)
        if pivot is None:
            zero = m[0][0] - m[0][0]
            return zero
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        pv = m[c][c]
        det_val = pv if det_val is None else det_val * pv
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    if sign < 0:
        det_val = -det_val
    return det_val
