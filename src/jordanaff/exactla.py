"""Exact linear algebra over the rationals, tuned for structure-constant work.

Matrices at the API level are nested tuples of ``fractions.Fraction``.
Internally the routines clear denominators and run on integer ndarrays.
Every integer contraction, commutator and linear combination goes
through one kernel, :func:`einsum`, :func:`bracket` and :func:`lincomb`:
it bounds the result in Python ints from the operands' max-abs values,
the contracted sizes and the coefficients, then runs in int64 when the
bound fits and on Python big integers (``dtype=object``) otherwise.  It
never wraps and never refuses an input for its size.

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

Vec = tuple
Mat = tuple


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


def fvec(seq) -> Vec:
    return tuple(as_fraction(x) for x in seq)


def fmat(rows) -> Mat:
    return tuple(fvec(r) for r in rows)


def identity(n) -> Mat:
    z, one = Fraction(0), Fraction(1)
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(a, u):
    a = as_fraction(a)
    return tuple(a * x for x in u)


def mat_sub(A, B):
    return tuple(vec_sub(r, s) for r, s in zip(A, B))


def mat_add(A, B):
    return tuple(vec_add(r, s) for r, s in zip(A, B))


def mat_scale(a, A):
    return tuple(vec_scale(a, r) for r in A)


def transpose(A):
    return tuple(zip(*A)) if A else ()


# ---------------------------------------------------------------------------
# conversion between Fraction matrices and scaled integer arrays


def _lcm(a, b):
    return a // math.gcd(a, b) * b


def clear_denominators(rows):
    """Return (int_rows, den) with rows == int_rows / den exactly."""
    den = 1
    for row in rows:
        for x in row:
            den = _lcm(den, x.denominator)
    ints = [[x.numerator * (den // x.denominator) for x in row]
            for row in rows]
    return ints, den


def clear_denominators_vec(vec):
    den = 1
    for x in vec:
        den = _lcm(den, x.denominator)
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


def max_abs(arr) -> int:
    """Largest absolute entry of an integer ndarray, as a Python int."""
    return int(np.abs(arr).max()) if arr.size else 0


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
    cached tensor is scanned once.
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
    dtype = np.int64 if bound < _INT64_SAFE else object
    for k, axis in kept:
        loop *= arrs[k].shape[axis]
    return np.einsum(spec, *(a.astype(dtype, copy=False) for a in arrs),
                     optimize=len(arrs) > 2 and loop >= _PATH_MIN)


def bracket(x, y):
    """Exact commutator x @ y - y @ x of integer matrices or stacks of
    them (broadcast as by ``np.matmul``); int64 exactly when
    2 * n * max-abs(x) * max-abs(y) fits."""
    (x, mx), (y, my) = _operand(x), _operand(y)
    dtype = np.int64 if 2 * x.shape[-1] * mx * my < _INT64_SAFE else object
    x, y = x.astype(dtype, copy=False), y.astype(dtype, copy=False)
    return x @ y - y @ x


def lincomb(*terms):
    """Exact sum of ``c * arr`` over ``(c, arr)`` terms of one shape.

    The coefficients are ints; int64 is used exactly when
    sum |c| * max-abs(arr) fits.  ``arr`` may be an ``(array, m)`` pair
    as in :func:`einsum`.
    """
    terms = [(int(c), _operand(op)) for c, op in terms]
    bound = sum(abs(c) * m for c, (_, m) in terms)
    dtype = np.int64 if bound < _INT64_SAFE else object
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
# Fraction matrix products through the kernel


def mat_mul(A, B):
    """Exact Fraction matrix product via the scaled-integer kernel."""
    ia, da = clear_denominators(A)
    ib, db = clear_denominators(B)
    prod = einsum("ab,bc->ac", asint(ia), asint(ib))
    d = Fraction(1, da * db)
    return tuple(tuple(d * int(x) for x in row) for row in prod)


def mat_vec(A, v):
    iv, dv = clear_denominators_vec(v)
    ia, da = clear_denominators(A)
    d = Fraction(1, da * dv)
    return tuple(d * sum(a * b for a, b in zip(row, iv)) for row in ia)


# ---------------------------------------------------------------------------
# determinants, solving, inversion (fraction-free Bareiss)


def _bareiss_forward(a, n, width):
    """In-place Bareiss elimination on an n x width integer augmented matrix.

    Returns the permutation sign, or 0 if a zero pivot column is found
    (the matrix a is left partially reduced in that case).
    """
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign


def det(A) -> Fraction:
    """Determinant of a square Fraction matrix, exact."""
    n = len(A)
    if n == 0:
        return Fraction(1)
    rows = []
    dens = 1
    for row in A:
        ints, d = clear_denominators_vec(row)
        rows.append(ints)
        dens *= d
    if n == 1:
        return Fraction(rows[0][0], dens)
    sign = _bareiss_forward(rows, n, n)
    if sign == 0:
        return Fraction(0)
    return Fraction(sign * rows[n - 1][n - 1], dens)


def solve(A, b):
    """Solve the square system A x = b exactly; None if A is singular."""
    n = len(A)
    rows = []
    for row, bi in zip(A, b):
        ints, _ = clear_denominators_vec(tuple(row) + (bi,))
        rows.append(ints)
    sign = _bareiss_forward(rows, n, n + 1)
    if sign == 0 or rows[n - 1][n - 1] == 0:
        return None
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = Fraction(rows[i][n])
        for j in range(i + 1, n):
            acc -= rows[i][j] * x[j]
        x[i] = acc / rows[i][i]
    return tuple(x)


def inverse(A):
    """Exact inverse of a square Fraction matrix; raises if singular."""
    n = len(A)
    rows = []
    for i, row in enumerate(A):
        ints, d = clear_denominators_vec(row)
        aug = ints + [0] * n
        aug[n + i] = d
        rows.append(aug)
    sign = _bareiss_forward(rows, n, 2 * n)
    if sign == 0 or rows[n - 1][n - 1] == 0:
        raise ValueError("matrix is singular")
    cols = []
    for c in range(n):
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            acc = Fraction(rows[i][n + c])
            for j in range(i + 1, n):
                acc -= rows[i][j] * x[j]
            x[i] = acc / rows[i][i]
        cols.append(x)
    return tuple(tuple(cols[c][r] for c in range(n)) for r in range(n))


# ---------------------------------------------------------------------------
# reduced row echelon form over the rationals (small systems, and oracle)


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def null_space(A):
    """Exact basis of {x : A x = 0} for a Fraction matrix of modest size."""
    if not A:
        return []
    reduced, pivots = rref(A)
    n = len(A[0])
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(tuple(v))
    return basis


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


def _mod_rank(A, p, want_pivot_rows=False):
    """Rank of int64 matrix A modulo prime p; A is consumed."""
    n_rows, n_cols = A.shape
    perm = np.arange(n_rows) if want_pivot_rows else None
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
            if perm is not None:
                perm[[r, i]] = perm[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r, c:] = A[r, c:] * inv % p
        below = A[r + 1:, c]
        nzb = np.nonzero(below)[0]
        if nzb.size:
            rows = r + 1 + nzb
            A[rows, c:] = (A[rows, c:] - np.outer(below[nzb], A[r, c:])) % p
        r += 1
    if want_pivot_rows:
        return r, [int(x) for x in perm[:r]]
    return r, None


def _hadamard_bits(M, size):
    """Upper bound, in bits, on any size x size minor of integer matrix M."""
    if size <= 0:
        return 0.0
    logs = []
    for row in M.tolist():
        m = max(map(abs, row))
        if m:
            logs.append(0.5 * math.log2(size) + math.log2(m))
    logs.sort(reverse=True)
    return sum(logs[:size]) + 8.0


def int_rank(M) -> int:
    """Certified rank of an integer matrix (nested ints or an ndarray)."""
    M = asint(M)
    if M.size == 0:
        return 0
    limit = min(M.shape)
    best = 0
    acc_bits = 0.0
    for p in PRIMES_30BIT:
        r, _ = _mod_rank(_reduce_mod(M, p), p)
        best = max(best, r)
        if best == limit:
            return best
        acc_bits += math.log2(p)
        if acc_bits > _hadamard_bits(M, best + 1):
            return best
    raise ArithmeticError("certified rank: prime supply exhausted")


def independent_rows(M):
    """Indices of a certified maximal independent row subset of int matrix M.

    The returned subset is independent with certainty (independence modulo a
    prime lifts to the rationals) and maximal because its size equals the
    certified rank.
    """
    M = asint(M)
    r_total = int_rank(M)
    for p in PRIMES_30BIT:
        r, piv = _mod_rank(_reduce_mod(M, p), p, want_pivot_rows=True)
        if r == r_total:
            return sorted(piv), r_total
    raise ArithmeticError("independent rows: prime supply exhausted")


# ---------------------------------------------------------------------------
# tall systems: pick candidate pivot rows mod p, solve small, verify exactly


def _pivot_row_candidates(ints, extra=()):
    p = PRIMES_30BIT[0]
    _, piv = _mod_rank(_reduce_mod(asint(ints), p), p, want_pivot_rows=True)
    rows = sorted(set(piv) | set(extra))
    return rows


def _verify_zero_rows(ints, basis_cols_int):
    """Indices of rows of ints whose dot with any candidate column is nonzero."""
    prod = einsum("ab,cb->ac", asint(ints), asint(basis_cols_int))
    return [int(i) for i in np.nonzero(np.any(prod != 0, axis=1))[0]]


def null_space_tall(A):
    """Exact null space basis for systems with many rows and few columns.

    Candidate pivot rows are located modulo one prime; the null space of
    that subsystem is computed exactly and then verified against every row,
    pulling violated rows into the subsystem until verification passes.
    """
    rows = [r for r in A if any(x != 0 for x in r)]
    if not rows:
        n = len(A[0]) if A else 0
        return [tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
                for i in range(n)]
    ints = [clear_denominators_vec(r)[0] for r in rows]
    sel = _pivot_row_candidates(ints)
    for _ in range(len(rows[0]) + 1):
        basis = null_space([rows[i] for i in sel])
        if not basis:
            return []
        bints = [clear_denominators_vec(v)[0] for v in basis]
        bad = _verify_zero_rows(ints, bints)
        if not bad:
            return basis
        sel = sorted(set(sel) | {bad[0]})
    raise ArithmeticError("null_space_tall failed to stabilize")


def solve_tall(A, b):
    """Exact solution of a consistent overdetermined system, else None."""
    aug = [tuple(row) + (bi,) for row, bi in zip(A, b)]
    ints = [clear_denominators_vec(r)[0] for r in aug]
    sel = _pivot_row_candidates(ints)
    n = len(A[0])
    for _ in range(n + 2):
        sub = [A[i] for i in sel]
        subb = [b[i] for i in sel]
        reduced, pivots = rref([tuple(r) + (v,) for r, v in zip(sub, subb)])
        if n in pivots:
            return None
        x = [Fraction(0)] * n
        for r, pc in enumerate(pivots):
            x[pc] = reduced[r][n]
        residual_rows = []
        xi, _ = clear_denominators_vec(tuple(x) + (Fraction(-1),))
        residual_rows = _verify_zero_rows(ints, [xi])
        if not residual_rows:
            return tuple(x)
        sel = sorted(set(sel) | {residual_rows[0]})
    return None


# ---------------------------------------------------------------------------
# inertia of a symmetric Fraction matrix (exact Sylvester signature)


def inertia(G):
    """Signature (positive, negative, zero) of a symmetric Fraction matrix."""
    n = len(G)
    A = [list(map(as_fraction, row)) for row in G]
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
