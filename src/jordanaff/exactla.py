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
the contracted sizes and the coefficients, then runs in int64 when the
bound fits and on Python big integers (``dtype=object``) otherwise.  It
never wraps and never refuses an input for its size.  A float64 operand
makes the whole call run in float64, which is how float-mode algebras
share the exact code paths.

Linear systems go through one fraction-free Gauss-Jordan elimination on
Python integers, reached by :func:`solve`, :func:`null_space` and
:func:`det`; a tall system eliminates only candidate pivot rows and
certifies the result on every row.  :func:`inertia` is the symmetric
counterpart, a fraction-free elimination that pivots on the diagonal.

Rank decisions are deterministic: ranks are computed modulo a descending
list of 30-bit primes until the accumulated prime product exceeds a
Hadamard bound on the relevant minors.  A prime can only under-report the
rank of an integer matrix when it divides a nonzero minor, and no nonzero
minor survives division by a product larger than its own magnitude, so the
reported rank is certified rather than probabilistic.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

# A kernel result runs in int64 when its bound is below this.  asint keeps
# -2**63, the one int64 value whose abs wraps, out of int64 arrays.
_INT64_SAFE = 2 ** 63

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


def _dtype(arrs, bound):
    """float64 when any operand is float64; else int64 when ``bound``
    fits, Python big integers otherwise."""
    if any(a.dtype.kind == "f" for a in arrs):
        return np.float64
    return np.int64 if bound < _INT64_SAFE else object


def _operand(op):
    """(array, bound on its max-abs); ``op`` is an array or such a pair."""
    if isinstance(op, tuple):
        return op
    return op, max_abs(op)


# Loops with fewer iterations than this (the product of all index sizes)
# run faster as one naive einsum than after a contraction-path search.
_PATH_MIN = 2 ** 16


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
    so int64 is used exactly when that bound fits and nothing can wrap.
    An operand may be passed as ``(array, m)`` with m >= its max-abs, so a
    cached tensor is scanned once.  With a float64 operand the call runs
    in float64.
    """
    summed, kept = _index_axes(spec)
    arrs, bound = [], 1
    for op in ops:
        arr, m = _operand(op)
        arrs.append(arr)
        bound *= max(m, 1)
    loop = 1
    for k, axis in summed:
        loop *= arrs[k].shape[axis]
    bound *= loop
    dtype = _dtype(arrs, bound)
    for k, axis in kept:
        loop *= arrs[k].shape[axis]
    return np.einsum(spec, *(a.astype(dtype, copy=False) for a in arrs),
                     optimize=len(arrs) > 2 and loop >= _PATH_MIN)


def bracket(x, y):
    """Exact commutator x @ y - y @ x of integer matrices or stacks of
    them (broadcast as by ``np.matmul``); int64 exactly when
    2 * n * max-abs(x) * max-abs(y) fits, float64 for a float64 operand."""
    (x, mx), (y, my) = _operand(x), _operand(y)
    dtype = _dtype((x, y), 2 * x.shape[-1] * mx * my)
    x, y = x.astype(dtype, copy=False), y.astype(dtype, copy=False)
    return x @ y - y @ x


def lincomb(*terms):
    """Exact sum of ``c * arr`` over ``(c, arr)`` terms of one shape.

    The coefficients are ints; int64 is used exactly when
    sum |c| * max-abs(arr) fits, float64 when an ``arr`` is float64.
    ``arr`` may be an ``(array, m)`` pair as in :func:`einsum`.
    """
    terms = [(int(c), _operand(op)) for c, op in terms]
    bound = sum(abs(c) * m for c, (_, m) in terms)
    dtype = _dtype([arr for _, (arr, _) in terms], bound)
    out = None
    for c, (arr, m) in terms:
        if c and m:
            term = c * arr.astype(dtype, copy=False)
            if out is None:
                out = term
            else:
                out += term
    return np.zeros(terms[0][1][0].shape, dtype) if out is None else out


# ---------------------------------------------------------------------------
# deterministic certified rank over the integers


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


def _gen_primes(count, below):
    out = []
    n = below - 1 if below % 2 == 0 else below - 2
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n -= 2
    return tuple(out)


PRIMES_30BIT = _gen_primes(150, 2 ** 30)


def _reduce_mod(M, p):
    return (M % p).astype(np.int64)


def _mod_rank(A, p):
    """Rank of int64 matrix A modulo prime p and the indices of its pivot
    rows; A is consumed."""
    n_rows, n_cols = A.shape
    perm = np.arange(n_rows)
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        col = A[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i], c:] = A[[i, r], c:]
            perm[[r, i]] = perm[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = A[r, c:] * inv % p
        below = A[r + 1:, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            rows = r + 1 + nzb
            A[rows, c:] = (A[rows, c:] - np.outer(below[nzb], A[r, c:])) % p
        r += 1
    return r, [int(x) for x in perm[:r]]


def _row_bits(M):
    """log2 of the max-abs entry of each nonzero row of M, largest first."""
    m = np.abs(M).max(axis=1)
    bits = np.frompyfunc(math.log2, 1, 1)(m[m != 0]).astype(float)
    return np.sort(bits)[::-1]


def _hadamard_bits(row_bits, size):
    """Upper bound, in bits, on any size x size minor of an integer matrix
    with these row bits (from :func:`_row_bits`)."""
    top = row_bits[:size]
    return 0.5 * math.log2(size) * len(top) + float(top.sum()) + 8.0


def int_rank(M) -> int:
    """Certified rank of an integer matrix (nested ints or an ndarray)."""
    return independent_rows(M)[1]


def independent_rows(M):
    """Indices of a certified maximal independent row subset of int matrix
    M, and the certified rank.

    Ranks modulo successive primes only under-report, so the pivot rows
    of the first prime reaching the largest rank seen are kept; the loop
    ends when that rank is full or the prime product passes the Hadamard
    bound on the next larger minors.  The subset is independent with
    certainty (independence modulo a prime lifts to the rationals) and
    maximal because its size equals the certified rank.
    """
    M = asint(M)
    if M.size == 0:
        return [], 0
    limit = min(M.shape)
    row_bits = _row_bits(M)
    rows = []
    acc_bits = 0.0
    for p in PRIMES_30BIT:
        r, piv = _mod_rank(_reduce_mod(M, p), p)
        if r > len(rows):
            rows = piv
        if len(rows) == limit:
            return sorted(rows), limit
        acc_bits += math.log2(p)
        if acc_bits > _hadamard_bits(row_bits, len(rows) + 1):
            return sorted(rows), len(rows)
    raise ArithmeticError("certified rank: prime supply exhausted")


# ---------------------------------------------------------------------------
# exact elimination: fraction-free Gauss-Jordan on integer arrays


def _echelon(M):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer M.

    Returns ``(R, pivots, d, sign)``: R holds one row per pivot column and
    equals d * rref(M) with d > 0, and det M = sign * d for a nonsingular
    square M.  Every intermediate entry is a minor of M, so each division
    is exact.
    """
    a = np.array(M, dtype=object)
    n_rows = a.shape[0]
    pivots, sign, d = [], 1, 1
    for c in range(a.shape[1]):
        r = len(pivots)
        if r == n_rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            sign = -sign
        p = a[r, c]
        rest = np.arange(n_rows) != r
        a[rest] = (p * a[rest] - np.outer(a[rest, c], a[r])) // d
        pivots.append(c)
        d = p
    a = a[:len(pivots)]
    if d < 0:
        a, d, sign = -a, -d, -sign
    return a, pivots, d, sign


def _tall(M):
    """Reduced row space of a tall integer system, certified on every row.

    Candidate pivot rows are picked modulo one prime and only they are
    eliminated; the kernel basis of that subsystem is then checked against
    every row of M, and a violated row joins the subsystem until none is.
    Returns ``(R, pivots, d, K)`` as in :func:`_echelon`, plus the kernel
    basis K (one row per free column f, with d at f and 0 at the other
    free columns).
    """
    M = asint(M)
    n_cols = M.shape[1]
    p = PRIMES_30BIT[0]
    _, sel = _mod_rank(_reduce_mod(M, p), p)
    for _ in range(n_cols + 1):
        R, pivots, d, _ = _echelon(M[sorted(sel)])
        free = [c for c in range(n_cols) if c not in pivots]
        K = np.zeros((len(free), n_cols), dtype=object)
        K[np.arange(len(free)), free] = d
        K[:, pivots] = -R[:, free].T
        K = asint(K)
        bad = np.flatnonzero(einsum("ab,cb->ac", M, K).any(axis=1))
        if not bad.size:
            return R, pivots, d, K
        sel.append(int(bad[0]))
    raise ArithmeticError("elimination failed to stabilize")


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
    column, 0 at the other free columns)."""
    _, _, d, K = _tall(A)
    return lowest_terms(K, d)


def solve(A, B):
    """The unique exact solution of A X = B for integer arrays.

    B is a vector or a matrix of right-hand sides.  Returns ``(X, d)``
    in lowest terms with A X = d B, or None when the system is
    inconsistent or its solution is not unique.
    """
    A, B = asint(A), asint(B)
    n = A.shape[1]
    R, pivots, d, _ = _tall(np.concatenate([A, B.reshape(len(B), -1)],
                                           axis=1))
    if pivots != list(range(n)):
        return None
    return lowest_terms(asint(R[:, n:].reshape((n,) + B.shape[1:])), d)


def det(M):
    """Exact determinant of a square integer matrix, as a Python int."""
    M = asint(M)
    if not M.size:
        return 1
    _, pivots, d, sign = _echelon(M)
    return sign * d if len(pivots) == len(M) else 0


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
