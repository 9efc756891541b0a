"""Exact linear algebra over the rationals, tuned for structure-constant work.

Exact data is an integer ndarray over one shared denominator, the
kernel form in which a ``JordanAlgebra`` stores its structure tensor.
Fractions appear only at the API edge.  There :func:`as_fraction`
coerces scalars, and only :mod:`jordanaff.jordan` turns element and
tensor entries into kernel form, with :func:`fvec` and
:func:`clear_denominators_vec`.
Every integer contraction, commutator and linear combination goes
through one kernel, :func:`einsum`, :func:`bracket` and :func:`lincomb`:
it bounds the result in Python ints from the operands' max-abs values,
the contracted sizes and the coefficients, then picks one dtype.  A
contraction whose bound is below 2**53 and whose loop reaches 2**12
products runs in float64, through BLAS, and is cast back to int64 once:
every partial sum is then an integer float64 holds exactly, as in
FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).  There
:func:`einsum` runs as a left-to-right chain of batched ``np.matmul``
calls by the operands' permutations and reshapes (TTGT: Springer and
Bientinesi, ACM TOMS 44(3), 2018): an index both operands keep is a
batch axis, and an index one operand alone carries is summed first.
:func:`_plan` finds those permutations once per spec string and reads
the shapes on each call.  Otherwise the call runs on ``np.einsum``, in
int64 when the bound fits and on Python big integers (``dtype=object``)
when it does not: lowering those calls as well made the isotope
benchmark's median operation slower.  The kernel never wraps, never
rounds and never refuses an input for its size, and integer operands
always give integer results.  A float64 operand raises TypeError: a
float is not exact data, and none reaches an integer rung to be
truncated there.  An identity is checked
by :func:`residual`, the max-abs of a sum of two-operand contractions,
which picks its own rung: int64 operands with large loops and small
densities run as sparse int64 products, which multiply only nonzero
entries and are bounded by the largest row nnz in place of the summed
size, when that bound is below 2**63; everything else runs dense, each
term by the same lowering as :func:`einsum`, in chunks once its loops
reach 2**12.

Ranks and solutions are certified, not probabilistic, and none of them
eliminates over Python integers.  One batched Gauss-Jordan elimination
modulo a 30-bit prime, :func:`_eliminate`, finds every pivot: rows
independent modulo a prime are independent over Q.  :func:`solve`
eliminates a stack of systems [A | B] modulo the first prime at once; a
solution that prime cannot rebuild by rational reconstruction is lifted
p-adically on its pivot rows (Dixon, Numer. Math. 40, 1982) until it
can be or a Hadamard bound says it must have been.  A rank
(:func:`int_rank`, :func:`independent_rows`) eliminates M^T once: its
pivot columns are the lexicographically first rows of M independent
modulo the prime, its pivot rows the columns of a nonzero minor on
them, and its other columns the coordinates of every row of M on those
rows, rebuilt by rational reconstruction; a full rank needs none of
them, and rows in echelon form no elimination.  A kernel solves for
the free columns on the pivot columns, reusing its elimination the same
way.  Each result is accepted only when an exact identity holds on
every row: A Y == d B for :func:`solve`, Y @ M[pivot rows] == d * M for
a rank (after Kaltofen, Nehring and Saunders, "Quadratic-time
certificates in linear algebra", ISSAC 2011), and for
:func:`null_space` a solution zero at every pivot column right of each
free column.  A rank that fails its check has its coordinates solved
for on the minor and lifted (:func:`_certify`); only when that fails
too, or a kernel fails, is another prime drawn, for its pivots alone.
:func:`det` takes a stack of determinants, over Z or over the Gaussian
integers Z[i], in one fraction-free (Bareiss) elimination;
:func:`inertia` is the symmetric counterpart, which pivots on the
diagonal.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# A kernel result runs in int64 when its bound is below this.  asint keeps
# -2**63, the one int64 value whose abs wraps, out of int64 arrays.
_INT64_SAFE = 2 ** 63
# Every integer of absolute value below this is exact in float64.
_F64_EXACT = 2 ** 53

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


def snap(x: float, max_den: int):
    """(q, dist): the Fraction q of denominator at most ``max_den``
    nearest the finite float x, and its exact distance |q - x|."""
    f = Fraction(x)
    q = f.limit_denominator(max_den)
    return q, abs(q - f)


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
    ``dtype=object`` (Python ints).  A float array raises TypeError."""
    if isinstance(ints, np.ndarray):
        _exact(ints)
    try:
        arr = np.asarray(ints, dtype=np.int64)
    except OverflowError:
        return np.asarray(ints, dtype=object)
    if arr.size and arr.min() == -_INT64_SAFE:
        return arr.astype(object)
    return arr


def _exact(arr):
    """arr itself, unless it is a float or complex array, which raises
    TypeError: cast to an integer dtype it would be truncated silently."""
    if arr.dtype.kind in "fc":
        raise TypeError(f"kernel arrays hold integers, not {arr.dtype}")
    return arr


def max_abs(arr):
    """Largest absolute entry of an integer kernel array, a Python int."""
    _exact(arr)
    return int(np.abs(arr).max()) if arr.size else 0


# A loop (the product of all index sizes) of at least this many products
# runs in float64 when its bound allows: from here on a float64 matmul
# through BLAS, both casts included, beats numpy's int64 einsum, by 2-5x
# on the (5, n, n) stacks of n = 9 to 21 that the sampled checks multiply.
_PATH_MIN = 2 ** 12
# An int64 or object contraction of three or more operands searches a
# contraction path from this loop on; below it one naive einsum is faster.
_SEARCH_MIN = 2 ** 16


def _dtype(bound, loop=0):
    """The dtype of an integer kernel call whose result is bounded by
    ``bound``: float64 when the bound is below 2**53 and the loop is at
    least ``_PATH_MIN``, so that BLAS pays for the casts; else int64 when
    the bound fits; else Python big integers.  :func:`lincomb` passes no
    loop, since elementwise work gains nothing from BLAS."""
    if bound < _F64_EXACT and loop >= _PATH_MIN:
        return np.float64
    return np.int64 if bound < _INT64_SAFE else object


def _array(op):
    """The integer array of an operand: an array or an ``(array, m)``
    pair."""
    return _exact(op[0] if isinstance(op, tuple) else op)


def _max(op):
    """A bound on an operand's max-abs: its m, or a scan of its array."""
    return op[1] if isinstance(op, tuple) else max_abs(op)


_Plan = collections.namedtuple(
    "_Plan", "summed kept pre steps back subs out flat")


@functools.lru_cache(maxsize=256)
def _plan(spec):
    """How the contraction ``spec`` lowers to a left-to-right chain of
    batched matrix products, for operands of any shape.

    ``summed`` and ``kept`` hold the (operand, axis) of the first
    occurrence of each summed and each kept index.  ``pre`` holds, per
    operand, None or the one-operand einsum spec that first sums out the
    indices which neither the output nor another operand carries (and
    takes the diagonal of an index the operand repeats).  Step k of
    ``steps`` multiplies the running product x by operand k + 1, y, and
    is ``(xperm, yperm, nb, nx, ny)``: x.transpose(xperm) has the nb
    batch axes (indices of both that a later operand or the output
    needs) first, then the nx axes of x alone, then the summed ones;
    y.transpose(yperm) has the batch axes, the summed ones, then the ny
    axes of y alone.  The product's axes are batch, x's, y's; ``back``
    transposes the last one to the output.  ``subs`` and ``out`` are the
    spec's operand and output subscripts, and ``flat`` says whether the
    spec is one 2-D product: two operands, no batch axis and nothing
    summed first."""
    subs, out = spec.split("->")
    subs = tuple(subs.split(","))
    first = {}
    for k, sub in enumerate(subs):
        for axis, index in enumerate(sub):
            first.setdefault(index, (k, axis))
    pre, have = [], []
    for k, sub in enumerate(subs):
        need = set(out).union(*subs[:k], *subs[k + 1:])
        keep = "".join(dict.fromkeys(i for i in sub if i in need))
        pre.append(None if keep == sub else f"{sub}->{keep}")
        have.append(keep)
    steps, x = [], have[0]
    for k, y in enumerate(have[1:], 2):
        need = set(out).union(*have[k:])
        batch = [i for i in x if i in y and i in need]
        inner = [i for i in x if i in y and i not in need]
        own_x = [i for i in x if i not in y]
        own_y = [i for i in y if i not in x]
        steps.append((tuple(map(x.index, batch + own_x + inner)),
                      tuple(map(y.index, batch + inner + own_y)),
                      len(batch), len(own_x), len(own_y)))
        x = "".join(batch + own_x + own_y)
    return _Plan(tuple(v for i, v in first.items() if i not in out),
                 tuple(v for i, v in first.items() if i in out),
                 tuple(pre), tuple(steps), tuple(map(x.index, out)), subs,
                 out, len(subs) == 2 and not any(pre) and not steps[0][2])


def _loop(plan, arrs):
    """(summed size, loop) of a contraction by ``plan``: the products of
    the sizes of its summed indices and of all its indices."""
    summed = 1
    for k, axis in plan.summed:
        summed *= arrs[k].shape[axis]
    loop = summed
    for k, axis in plan.kept:
        loop *= arrs[k].shape[axis]
    return summed, loop


def _contract(plan, arrs):
    """The contraction of ``arrs`` by ``plan``, in their dtype, as a chain
    of batched ``np.matmul`` calls: the one lowering behind both
    :func:`einsum`'s float64 rung and :func:`residual`."""
    if any(plan.pre):
        arrs = [a if p is None else np.einsum(p, a)
                for p, a in zip(plan.pre, arrs)]
    x = arrs[0]
    for (xperm, yperm, nb, nx, ny), y in zip(plan.steps, arrs[1:]):
        x, y = x.transpose(xperm), y.transpose(yperm)
        shape = x.shape[:nb + nx] + y.shape[y.ndim - ny:]
        b, s = math.prod(shape[:nb]), math.prod(x.shape[nb + nx:])
        x = x.reshape(b, math.prod(shape[nb:nb + nx]), s)
        y = y.reshape(b, s, math.prod(shape[nb + nx:]))
        # with nothing to sum, a broadcast product is faster than BLAS
        x = (np.multiply if s == 1 else np.matmul)(x, y).reshape(shape)
    return x.transpose(plan.back)


def einsum(spec, *ops):
    """Exact ``np.einsum`` of integer operands, in explicit mode.

    The bound is the product of the operands' max-abs values (at least 1
    each) and of the sizes of the summed indices.  It bounds every entry
    and every partial sum of the result and of any pairwise intermediate,
    so nothing can wrap in int64 when that bound fits.  Below 2**53 every
    such intermediate is an integer that float64 holds exactly, in any
    summation order, BLAS blocking and fused multiply-adds included; so a
    loop of at least ``_PATH_MIN`` then runs in float64, as the chain of
    batched matmuls of :func:`_plan` (through BLAS), and its result is
    cast back to int64 once.  Otherwise the call runs on ``np.einsum``,
    in int64 when the bound fits and on Python big integers when it does
    not.  An operand
    may be passed as ``(array, m)`` with m >= its max-abs, so a cached
    tensor is scanned once.
    """
    plan = _plan(spec)
    arrs = [_array(op) for op in ops]
    bound, loop = _loop(plan, arrs)
    for op in ops:
        bound *= max(_max(op), 1)
    dtype = _dtype(bound, loop)
    if dtype is np.float64:
        return _contract(plan, [a.astype(dtype) for a in arrs]).astype(
            np.int64)
    arrs = [a.astype(dtype, copy=False) for a in arrs]
    if len(arrs) > 2 and loop >= _SEARCH_MIN:
        return np.einsum(spec, *arrs, optimize=True)
    return np.einsum(spec, *arrs)


def bracket(x, y):
    """Exact commutator x @ y - y @ x of integer matrices or stacks of
    them (broadcast as by ``np.matmul``).

    The bound is 2 * n * max-abs(x) * max-abs(y) and the loop is n times
    the size of the result; the dtype follows from them as in
    :func:`einsum`, float64 through BLAS included.
    """
    xa, ya = _array(x), _array(y)
    n, d = xa.shape[-1], xa.ndim - ya.ndim
    dtype = _dtype(2 * n * _max(x) * _max(y),
                   n * math.prod(map(max, (1,) * -d + xa.shape,
                                     (1,) * d + ya.shape)))
    xa, ya = xa.astype(dtype, copy=False), ya.astype(dtype, copy=False)
    out = np.matmul(xa, ya)
    out -= np.matmul(ya, xa)
    if dtype is np.float64:
        out = out.astype(np.int64)
    return out


def lincomb(*terms):
    """Exact sum of ``c * arr`` over ``(c, arr)`` terms of one shape.

    A coefficient is an int, or a 1-D array of ints with one coefficient
    per row (axis 0) of ``arr``; int64 is used exactly when
    sum max-abs(c) * max-abs(arr) fits.  ``arr`` may be an
    ``(array, m)`` pair as in :func:`einsum`.
    """
    terms = [(c if isinstance(c, np.ndarray) else int(c), _array(op),
              _max(op)) for c, op in terms]
    dtype = _dtype(sum(
        (max_abs(c) if isinstance(c, np.ndarray) else abs(c)) * m
        for c, _, m in terms))
    out = None
    for c, arr, m in terms:
        rows = isinstance(c, np.ndarray)
        if not (m and (c.any() if rows else c)):
            continue
        if rows:
            c = c.astype(dtype).reshape((-1,) + (1,) * (arr.ndim - 1))
        term = c * arr.astype(dtype, copy=False)
        if out is None:
            out = term
        else:
            out += term
    return np.zeros(terms[0][1].shape, dtype) if out is None else out


# ---------------------------------------------------------------------------
# identities: the max-abs of a sum of contractions, on a dense or sparse rung

# Entries per chunk of a dense residual: few enough to bound its memory
# and keep a chunk in cache (256 KiB in float64), enough that each
# chunk's loop stays on the float64 rung.
_BLOCK = 2 ** 15
# A residual runs on the sparse rung when its contraction loops add up to
# at least _SPARSE_LOOP and, in every term, the densities (nonzero share)
# of the two operands multiply to at most _SPARSE_DENSITY.
_SPARSE_LOOP = 2 ** 22
_SPARSE_DENSITY = 2 ** -9


def _sparse_plans(terms):
    """The :func:`_plan` of every contraction of a :func:`residual` (None
    for an array term) when the call runs on the sparse rung, else None:
    every operand is int64, the loops add up to at least
    ``_SPARSE_LOOP`` and each product of the two operands' densities is
    at most ``_SPARSE_DENSITY``."""
    if any(a.dtype != np.int64 for _, _, ops in terms for a, _ in ops):
        return None
    plans = [spec and _plan(spec) for _, spec, _ in terms]
    if sum(_loop(plan, [a for a, _ in ops])[1]
           for plan, (_, _, ops) in zip(plans, terms) if plan) < _SPARSE_LOOP:
        return None
    for _, spec, ops in terms:
        if spec:
            (x, _), (y, _) = ops
            if (np.count_nonzero(x) * np.count_nonzero(y)
                    > _SPARSE_DENSITY * x.size * y.size):
                return None
    return plans


def _matrices(plan, x, y):
    """``(X, Y, rows, cols)`` of a contraction of x and y that lowers to
    one 2-D product X @ Y: ``rows`` and ``cols`` hold the offset in the
    flattened output of each row of X and each column of Y."""
    ((xperm, yperm, _, nx, ny),), back = plan.steps, plan.back
    x, y = x.transpose(xperm), y.transpose(yperm)
    own = x.shape[:nx] + y.shape[y.ndim - ny:]
    # output axis k is axis back[k] of the product's own axes
    stride, at = [0] * len(own), 1
    for axis in reversed(back):
        stride[axis], at = at, at * own[axis]

    def offsets(axes):
        off = np.zeros(1, dtype=np.int64)
        for axis in axes:
            off = (off[:, None] + np.arange(own[axis]) * stride[axis]).ravel()
        return off

    rows, cols = offsets(range(nx)), offsets(range(nx, len(own)))
    s = math.prod(x.shape[nx:])
    return x.reshape(len(rows), s), y.reshape(s, len(cols)), rows, cols


def _products(X, Y):
    """Every nonzero product of the 2-D int64 product X @ Y, unsummed:
    for each nonzero X[i, k] and each nonzero Y[k, j], the row i, the
    column j and X[i, k] * Y[k, j]."""
    i, k = np.nonzero(X)
    yk, j = np.nonzero(Y)
    # Y's nonzeros in row r sit at start[r]:start[r + 1], row by row
    start = np.searchsorted(yk, np.arange(len(Y) + 1))
    count = start[k + 1] - start[k]
    t = np.repeat(np.arange(len(k)), count)
    at = np.arange(len(t)) + np.repeat(start[k] - np.cumsum(count) + count,
                                       count)
    return i[t], j[at], X[i, k][t] * Y[yk, j][at]


def _sparse_residual(terms, plans):
    """:func:`residual` on the sparse rung, or None when its bound
    reaches 2**63.  Each contraction is one 2-D int64 product X @ Y
    (:func:`_matrices`), whose entries sum at most (largest row nnz of X)
    products: that count bounds a term in place of the summed size, and
    the terms' bounds add up.  The nonzero products of every term
    (:func:`_products`) meet in one array of (flat output index, value)
    pairs, summed per index."""
    bound, flat, vals = 0, [], []
    for (c, spec, ops), plan in zip(terms, plans):
        if spec is None:
            ((arr, m),) = ops
            bound += abs(c) * int(m)
        else:
            (x, mx), (y, my) = ops
            X, Y, rows, cols = _matrices(plan, x, y)
            nnz = int(np.count_nonzero(X, axis=1).max(initial=0))
            bound += abs(c) * int(mx) * int(my) * nnz
        # the bound only grows: stop before a product can wrap
        if bound >= _INT64_SAFE:
            return None
        if spec is None:
            at = np.flatnonzero(arr)
            v = arr.ravel()[at]
        else:
            i, j, v = _products(X, Y)
            at = rows[i] + cols[j]
        flat.append(at)
        vals.append(c * v)
    flat = np.concatenate(flat)
    if not flat.size:
        return 0
    order = np.argsort(flat)
    flat = flat[order]
    vals = np.concatenate(vals)[order]
    starts = np.flatnonzero(np.concatenate([[True], flat[1:] != flat[:-1]]))
    return int(np.abs(np.add.reduceat(vals, starts)).max())


def _wide(plan, arrs, ms):
    """The contraction of x and y, ``arrs``, by ``plan`` when its bound
    passes 2**63, on Python integers.  When both are int64, x is split
    into base-2**w digits, w such that each digit's contraction with y
    stays below 2**53 and runs in float64; the digit products are shifted
    into place as Python integers, a few passes over the output in place
    of Python-integer arithmetic inside the contraction."""
    (x, y), (mx, my) = arrs, ms
    w = 52 - (max(my, 1) * _loop(plan, arrs)[0]).bit_length()
    if x.dtype != np.int64 or y.dtype != np.int64 or w < 8:
        return _contract(plan, [a.astype(object) for a in arrs])
    top, y, out = int(mx).bit_length(), y.astype(np.float64), 0
    for shift in range(0, max(top, 1), w):
        digit = x >> shift
        if shift + w < top:
            digit &= (1 << w) - 1
        part = _contract(plan, [digit.astype(np.float64), y])
        out = out + (part.astype(np.int64).astype(object) << shift)
    return out


def _dense_residual(terms):
    """:func:`residual` on the dense rung: each contraction runs by
    :func:`_contract`, in one dtype picked as :func:`einsum` picks it
    from the sum of the terms' bounds (|c| times the kernel's bound of
    the term) and of their loops.  When that is Python integers, each
    product runs in the dtype its own bound and loop pick instead (by
    :func:`_wide` when that is Python integers too), and the sum starts
    in int64: it moves to Python integers only once |c| times the
    max-abs of each product added so far reaches 2**63, so a large
    coefficient whose terms cancel costs no object arithmetic.  A
    call whose loops add up to ``_PATH_MIN`` or more runs over chunks of
    the output's leading axis of about ``_BLOCK`` entries: a chunk slices
    every operand that carries the leading index.  A smaller one runs
    whole."""
    plans, bound, loop = [], 0, 0
    for c, spec, ops in terms:
        plan = spec and _plan(spec)
        b, n = _loop(plan, [a for a, _ in ops]) if plan else (1, 0)
        for _, m in ops:
            b *= max(m, 1)
        plans.append((plan, b, n))
        bound += abs(c) * b
        loop += n
    dtype = _dtype(bound, loop)
    parts = [None]
    if loop >= _PATH_MIN:
        (_, _, ops), (plan, _, _) = terms[0], plans[0]
        if plan:
            size = {}
            for sub, (a, _) in zip(plan.subs, ops):
                size.update(zip(sub, a.shape))
            shape = [size[i] for i in plan.out]
        else:
            shape = ops[0][0].shape
        step = max(1, _BLOCK // max(1, math.prod(shape[1:])))
        parts = [slice(at, at + step) for at in range(0, shape[0], step)]
    worst = 0
    for part in parts:
        out, seen = None, 0
        acc = np.int64 if dtype is object else dtype
        for (c, _, ops), (plan, b, n) in zip(terms, plans):
            arrs = [a for a, _ in ops]
            if part and plan:
                lead = plan.out[0]
                arrs = [a[(slice(None),) * sub.index(lead) + (part,)]
                        if lead in sub else a
                        for a, sub in zip(arrs, plan.subs)]
            elif part:
                arrs = [arrs[0][part]]
            term = arrs[0]
            own = plan and (_dtype(b, n) if dtype is object else dtype)
            if own is object:
                term = _wide(plan, arrs, [m for _, m in ops])
            elif plan:
                arrs = [a.astype(own, copy=False) for a in arrs]
                if own is dtype and c != 1 and (out is None or c != -1):
                    # scale the smaller operand rather than the product
                    k = int(arrs[0].size > arrs[1].size)
                    arrs[k] = c * arrs[k]
                    c = 1
                term = _contract(plan, arrs)
                if own is np.float64 and acc is not np.float64:
                    term = term.astype(np.int64)
            if acc is not dtype:
                # the bound only grows: leave int64 before a sum can wrap
                m = max_abs(term)
                if not m:
                    continue
                seen += abs(c) * m
                if seen >= _INT64_SAFE:
                    acc = dtype
                    out = None if out is None else out.astype(dtype)
            term = term.astype(acc, copy=False)
            if out is None:
                # a product is a new array (or a view of one); an array
                # term is the caller's
                out = term if plan and c == 1 else c * term
            elif c == 1:
                out += term
            elif c == -1:
                out -= term
            else:
                out += c * term
        # on the float64 rung every entry is an integer float64 holds
        if out is not None and out.size:
            worst = max(worst, int(np.abs(out).max()))
    return worst


def residual(*terms):
    """Largest absolute entry of an exact sum of terms: 0 exactly when
    the sum vanishes, which is how an exact identity is checked.

    A term is ``(c, spec, x, y)``, c times the contraction
    ``einsum(spec, x, y)`` of two operands that lowers to one 2-D product
    (every index kept by one operand or summed over both), or
    ``(c, arr)``, c times an array of the output's shape (at least one
    axis); c is an int, and each array may be an ``(array, m)`` pair as
    in :func:`einsum`.  The kernel picks the rung.  When every operand is
    int64, the loops are large and the operands sparse
    (:func:`_sparse_plans`), each contraction runs as one sparse int64
    product (:func:`_sparse_residual`), bounded by the largest row nnz
    in place of the summed size, if that bound is below 2**63.  Otherwise
    it runs dense (:func:`_dense_residual`).  Both rungs give the same
    value.
    """
    norm, loop = [], 0
    for term in terms:
        spec, ops = (term[1], term[2:]) if len(term) == 4 else (None, term[1:])
        ops = tuple([(_array(op), _max(op)) for op in ops])
        if spec:
            plan = _plan(spec)
            if not plan.flat:
                raise ValueError(f"{spec} is not one 2-D product")
            loop += _loop(plan, (ops[0][0], ops[1][0]))[1]
        norm.append((int(term[0]), spec, ops))
    plans = _sparse_plans(norm) if loop >= _SPARSE_LOOP else None
    worst = None if plans is None else _sparse_residual(norm, plans)
    return _dense_residual(norm) if worst is None else worst


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


def _eliminate(M, n, p):
    """Gauss-Jordan elimination modulo the prime p of the first n
    columns of every matrix of the stack M (s, m, w), all at once.

    Returns ``(R, piv)``: the reduced int64 stack and, per matrix, the
    row of each column's pivot, or -1 where the column has none.  No row
    moves: the pivot of column c is the first row that is not yet a
    pivot row and is nonzero at c.  The elimination is fraction-free, so
    no inverse is taken per column: a row with entry a at c becomes
    v * row - a * (pivot row), v the pivot, each product below 2**60.
    Pivot rows therefore come out scaled by a unit; :func:`_divide`
    divides them out.  Unless half the rows are nonzero at c, a column
    updates only those rows, which keeps sparse systems cheap; a column
    zero in every row is never visited, one without a candidate row
    costs one test, and the loop stops once no matrix has a free row.
    M is reduced into one C-ordered array, so a transposed view costs
    no more memory than the matrix itself.
    """
    R = np.remainder(M, p, order="C")
    if R.dtype != np.int64:
        R = R.astype(np.int64)
    s, m, _ = R.shape
    free = np.ones((s, m), dtype=bool)
    piv = np.full((s, n), -1)
    every = np.arange(s)
    left = s * m  # free rows in the stack
    # a column zero in every row stays zero
    for c in np.flatnonzero(R[:, :, :n].any(axis=(0, 1))).tolist():
        if not left:
            break
        cand = np.logical_and(R[:, :, c], free)
        if not np.count_nonzero(cand):
            continue
        has = cand.any(axis=1)
        pr = cand.argmax(axis=1)
        if np.count_nonzero(has) == s:
            ps = every
        else:
            ps = has.nonzero()[0]
            pr = pr[ps]
        prow = R[ps, pr]
        # R itself when every matrix pivots and at least half the rows
        # are nonzero at c; else the rows nonzero at c in some matrix,
        # taken along axis 1 when every matrix pivots
        dense = ps is every and 2 * np.count_nonzero(R[:, :, c]) >= s * m
        if dense:
            block = R
        else:
            rows = R[:, :, c].any(axis=0).nonzero()[0]
            at = (slice(None) if ps is every else ps[:, None]), rows
            block = R.take(rows, axis=1) if ps is every else R[at]
        col = block[:, :, c, None] * prow[:, None]
        block *= prow[:, None, c, None]
        block -= col
        block %= p
        if not dense:
            R[at] = block
        R[ps, pr] = prow
        free[ps, pr] = False
        piv[ps, c] = pr
        left -= len(ps)
    return R, piv


def _divide(rows, diag, p):
    """The residues ``rows`` (..., w) modulo p, each row divided by its
    entry of ``diag`` (...), a unit modulo p."""
    inv = np.array([pow(v, -1, p) for v in diag.ravel().tolist()],
                   dtype=np.int64).reshape(diag.shape)
    return rows * inv[..., None] % p


def _pivot_rows(R, piv, n, p):
    """Columns n: of the pivot rows of an :func:`_eliminate` stack in
    which each of the first n columns pivots, divided by the pivots: one
    row per column, as (s, n, w - n) residues modulo p."""
    rows = R[np.arange(len(R))[:, None], piv]
    return _divide(rows[:, :, n:], rows[:, np.arange(n), np.arange(n)], p)


def _denominator(u, m, bound):
    """The denominator b <= bound of a fraction a / b with |a| <= bound
    and a == b * u modulo m, or None (half-extended Euclid)."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return abs(t1) if 0 < abs(t1) <= bound else None


def _reconstruct(X, m):
    """Rational reconstruction of the residues X modulo m, one
    denominator per system along axis 0: ``(Y, d)`` with
    Y[i] == d[i] * X[i] modulo m and every |Y[i]| and d[i] at most
    sqrt(m / 2).  d[i] is 0, and Y[i] zero, where no such pair exists.

    Each d grows one entry at a time: the first entry of a system whose
    residue times the running d is not small is reconstructed, and its
    denominator joins d.  Each step at least doubles d, so there are few.
    """
    bound = math.isqrt(m // 2)
    flat = (X.reshape(len(X), math.prod(X.shape[1:])), m - 1)
    d = np.ones(len(X), dtype=np.int64 if bound < _INT64_SAFE else object)
    Y = flat[0]
    while True:
        Y = np.where(Y > m // 2, Y - m, Y)
        big = np.abs(Y) > bound
        grow = big.any(axis=1).nonzero()[0]
        if not grow.size:
            return asint(Y).reshape(X.shape), d
        for i, k in zip(grow.tolist(), big[grow].argmax(axis=1).tolist()):
            b = _denominator(int(Y[i, k]) % m, m, bound)
            b = b and int(d[i]) * b
            d[i] = b if b and b <= bound else 0
        if not d.any():
            return np.zeros(X.shape, dtype=np.int64), d
        Y = lincomb((d, flat)) % m


def _pivots(M, p):
    """The pivot rows (sorted) and pivot columns of the integer matrix M
    modulo the prime p, from one :func:`_eliminate`; the minor of M on
    them is nonzero modulo p."""
    _, piv = _eliminate(M[None], M.shape[1], p)
    cols = (piv[0] >= 0).nonzero()[0]
    return sorted(piv[0, cols].tolist()), cols.tolist()


def _first_rows(M):
    """One :func:`_eliminate` of M^T modulo the first prime p.

    Its pivot columns are ``rows``, the lexicographically first rows of
    M independent modulo p; its pivot rows are ``cols``, sorted, the
    columns of a minor of M on ``rows`` nonzero modulo p.  Every other
    column of the reduced M^T holds the coordinates of that row of M on
    ``rows``, times the pivots, and every pivot column a pivot alone.
    Returns ``(rows, cols, X)``, X the coordinates modulo p of every row
    of M on ``rows``, one column per row of M.
    """
    R, piv = _eliminate(M.T[None], len(M), PRIMES_30BIT[0])
    rows = (piv[0] >= 0).nonzero()[0]
    prow = R[0, piv[0, rows]]
    X = _divide(prow, prow[np.arange(len(rows)), rows], PRIMES_30BIT[0])
    return rows.tolist(), sorted(piv[0, rows].tolist()), X


def _certify(M, rows, cols):
    """Certify that ``rows`` of the integer matrix M span its row space.

    ``rows`` and ``cols`` are pivots of M at the first prime, so the
    minor M[rows, cols] is nonzero modulo that prime and the rows are
    independent over Q.  When they are all the rows of M, the identity is
    the witness.  Otherwise the coordinates Y / d of every row on the
    minor's columns are solved exactly, by :func:`solve` on the
    transposed minor, and accepted only if Y @ M[rows] == d * M holds
    exactly.  When it does not, M has a larger rank over Q, and the
    pivots (:func:`_pivots`) of the next prime that sees a larger rank
    are tried.

    Returns ``(rows, cols, (Y, d))``, ``cols`` the columns of a minor on
    ``rows`` that is nonzero modulo a prime.
    """
    primes = iter(PRIMES_30BIT[1:])
    while True:
        if len(rows) == len(M):
            return rows, cols, (np.eye(len(M), dtype=np.int64), 1)
        sub = M[:, cols]
        X, d = solve(sub[rows].T, sub.T)
        Y = X.T
        if not residual((1, "ab,bc->ac", Y, M[rows]), (-d, M)):
            return rows, cols, (Y, d)
        for p in primes:
            rows_p, cols_p = _pivots(M, p)
            if len(rows_p) > len(rows):
                rows, cols = rows_p, cols_p
                break
        else:
            raise ArithmeticError("certified rank: prime supply exhausted")


def _span(M, rows, cols, X):
    """The certified ``(rows, cols, (Y, d))`` of :func:`independent_rows`
    from the :func:`_first_rows` of M.  The coordinates X modulo the
    first prime are rebuilt by rational reconstruction into Y / d, with
    one denominator, and accepted only if Y @ M[rows] == d * M holds
    exactly; otherwise :func:`_certify` lifts them or draws more
    primes."""
    if len(rows) < len(M):
        (Y,), (d,) = _reconstruct(X.T[None], PRIMES_30BIT[0])
        if d and not residual((1, "ab,bc->ac", Y, M[rows]), (-int(d), M)):
            return rows, cols, lowest_terms(Y, int(d))
    return _certify(M, rows, cols)


def int_rank(M) -> int:
    """Certified rank of an integer matrix (nested ints or an ndarray).

    Nonzero rows whose last nonzero entries sit in distinct columns are
    independent, since their minor on those columns is triangular with a
    nonzero diagonal: such a matrix needs no elimination.  Otherwise a
    rank of min(shape) at the first prime needs no witness, since no
    larger rank exists; any smaller one is certified by the span
    identity of :func:`independent_rows`, from the same elimination.
    """
    M = asint(M)
    nz = M != 0
    if not len(M) or nz.any(axis=1).all() and len(
            np.unique(np.argmax(nz[:, ::-1], axis=1))) == len(M):
        return len(M)
    rows, cols, X = _first_rows(M)
    if len(rows) < min(M.shape):
        rows, _, _ = _span(M, rows, cols, X)
    return len(rows)


def independent_rows(M):
    """A certified maximal independent row subset of the integer matrix
    M, with the witness that it spans every row.

    Returns ``(rows, cols, (Y, d))``: the sorted row indices, independent
    over Q because the minor M[rows, cols] is nonzero modulo a prime, the
    columns of that minor, and the integer coordinates Y (one row per row
    of M, one column per index in ``rows``) with Y @ M[rows] == d * M,
    checked exactly before return.  The rank is ``len(rows)``.  Unless
    the first prime misses the rank, ``rows`` are the lexicographically
    first rows independent modulo that prime, and Y comes from the one
    elimination of M^T that found them (:func:`_first_rows`).
    """
    M = asint(M)
    return _span(M, *_first_rows(M))


def lowest_terms(arr, den):
    """The kernel pair (arr, den) divided by the gcd of den and every
    entry of arr, in arr's own dtype when it is int64 and g fits (g is
    den itself when arr is zero, so it need not)."""
    g = math.gcd(den, int(np.gcd.reduce(arr, axis=None)))
    if g == 1:
        return arr, den
    if arr.dtype == np.int64 and g < _INT64_SAFE:
        return arr // g, den // g
    return asint(arr.astype(object) // g), den // g


def null_space(A):
    """Kernel of integer A as ``(K, d)`` in lowest terms: the rows of K
    are an integer basis, and K / d is the reduced one (1 at its own free
    column, 0 at the other free columns).

    The pivot columns P of A modulo a prime are independent over Q, so
    the solve of A[:, P] X = -d A[:, F], F the free columns, has a
    unique X or none; modulo the first prime it reuses the elimination
    that found P.  The basis is accepted only if X is zero at every
    pivot column right of each free column: then each free column is a
    combination of earlier pivot columns, so P are the pivot columns
    over Q and K / d is the reduced basis.  Otherwise the pivots of the
    next prime with a larger rank or lexicographically smaller pivot
    columns are tried.
    """
    A = asint(A)
    n = A.shape[1]
    best = (1,)  # above every (-rank, pivot columns)
    for p in PRIMES_30BIT:
        R, piv = _eliminate(A[None], n, p)
        cols = (piv[0] >= 0).nonzero()[0].tolist()
        if (-len(cols), cols) >= best:
            continue
        best = (-len(cols), cols)
        free = [c for c in range(n) if c not in cols]
        # modulo the first prime, [A_P | -A_F] reduces to these columns
        # of R in that order, the free ones negated
        reduced = p == PRIMES_30BIT[0] and (np.concatenate(
            [R[:, :, cols], -R[:, :, free] % p], axis=2), piv[:, cols])
        (sol,) = _solve_stack(A[None, :, cols], -A[None, :, free], reduced)
        if sol is None or sol[0][np.greater.outer(cols, free)].any():
            continue
        X, d = sol
        K = np.eye(n, dtype=object)[free] * d
        K[:, cols] = X.T
        return asint(K), d
    raise ArithmeticError("null space: prime supply exhausted")


def _solves(A, rhs, Y, d):
    """Per system of a stack, whether A Y == d B holds exactly with
    d > 0: one :func:`einsum` for the stack, d one int per system."""
    same = einsum("smn,snk->smk", A, Y) == lincomb((d, rhs))
    return d.astype(bool) & same.all(axis=(1, 2))


def solve(A, B):
    """The unique exact solution of A X = B, for one integer system or
    a stack of them.

    A is an (m, n) matrix and B a vector or a matrix of right-hand
    sides; or A is a stack (s, m, n) and B is (s, m) or (s, m, k), one
    system per index of axis 0.  A system gives ``(X, d)`` in lowest
    terms with A X = d B, or None when it is inconsistent or its
    solution is not unique; a stack gives the list of them, and a 2-D
    call is a stack of one.

    Each verdict is certified.  The whole stack [A | B] is reduced
    modulo the first prime in one :func:`_eliminate`.  All n columns of
    A pivoting certify rank A = n (a minor nonzero modulo p is nonzero
    over Z), and a nonzero left in B then certifies an inconsistent
    system.  A smaller rank of A modulo p means None only when
    :func:`_certify` certifies it; otherwise the n rows it certifies are
    lifted.  The solutions that rational reconstruction rebuilds from
    the first prime are accepted only if A Y == d B holds exactly, one
    check for the stack; the systems that fail go to :func:`_lift`.
    """
    A, B = asint(A), asint(B)
    one = A.ndim == 2
    if one:
        A, B = A[None], B[None]
    s, m, n = A.shape
    rhs = B.reshape(s, m, math.prod(B.shape[2:]))
    out = _solve_stack(A, rhs) if s and m >= n else [None] * s
    shape = (n,) + B.shape[2:]
    out = [sol and (sol[0].reshape(shape), sol[1]) for sol in out]
    return out[0] if one else out


def _solve_stack(A, rhs, reduced=None):
    """:func:`solve` on a nonempty stack with m >= n; ``reduced`` is the
    :func:`_eliminate` of [A | B] modulo the first prime, if known."""
    s, m, n = A.shape
    p = PRIMES_30BIT[0]
    R, piv = reduced or _eliminate(np.concatenate([A, rhs], axis=2), n, p)
    ok = (piv >= 0).all(axis=1)
    lift = {}  # system: n of its rows, independent over Q
    for i in (~ok).nonzero()[0].tolist():
        # rank A < n over Q, or p divides every nonzero n x n minor
        cols = (piv[i] >= 0).nonzero()[0]
        rows, _, _ = _certify(A[i], sorted(piv[i, cols].tolist()),
                              cols.tolist())
        if len(rows) == n:
            lift[i] = rows
    if m > n:
        # after the n pivots, B must vanish outside the pivot rows (the
        # -1 of a system without full rank clears a row of its own)
        tail = R[:, :, n:].any(axis=2)
        tail[np.arange(s)[:, None], piv] = False
        ok &= ~tail.any(axis=1)
    idx = ok.nonzero()[0]
    at = slice(None) if len(idx) == s else idx  # a view when all are left
    Y, d = _reconstruct(_pivot_rows(R[at], piv[at], n, p), p)
    out = [None] * s
    for i, done, y, dy in zip(idx.tolist(), _solves(A[at], rhs[at], Y, d),
                              Y, d.tolist()):
        if done:
            out[i] = lowest_terms(y, dy)
        else:
            lift[i] = piv[i]
    if lift:
        keys = sorted(lift)
        S = np.array([lift[i] for i in keys])
        for i, sol in zip(keys, _lift(A[keys], rhs[keys], S)):
            out[i] = sol
    return out


def _lift(A, rhs, S):
    """Solutions of a stack of systems A X = B (``rhs`` (s, m, k)) whose
    rows S (s, n) are independent over Q, by Dixon's p-adic lifting on
    the square subsystems A_S X = B_S; one ``(Y, d)`` or None per system.

    C = A_S^{-1} modulo q comes from one :func:`_eliminate` of
    [A_S | I], q the first prime at which A_S is nonsingular: the first
    prime itself, unless S was certified at a prime that saw a larger
    rank.  The systems are then lifted together by :func:`_dixon`.
    """
    s, _, n = A.shape
    at = np.arange(s)[:, None]
    sub, bsub = A[at, S], rhs[at, S]
    out = [None] * s
    todo = np.arange(s)
    for q in PRIMES_30BIT:
        eye = np.broadcast_to(np.eye(n, dtype=np.int64), (len(todo), n, n))
        R, piv = _eliminate(np.concatenate([sub[todo], eye], axis=2), n, q)
        ok = (piv >= 0).all(axis=1)
        k = todo[ok]
        if k.size:
            C = _pivot_rows(R[ok], piv[ok], n, q)
            for i, sol in zip(k.tolist(), _dixon(A[k], rhs[k], sub[k],
                                                 bsub[k], C, q)):
                out[i] = sol
        todo = todo[~ok]
        if not todo.size:
            return out
    raise ArithmeticError("exact solve: prime supply exhausted")


def _dixon(A, rhs, sub, bsub, C, q):
    """Dixon's lifting of the stack of square systems ``sub`` X =
    ``bsub``, C their inverses modulo q; each solution is accepted on
    the full system A X = ``rhs``.

    x_i = C r_i mod q and r_{i+1} = (r_i - A_S x_i) / q, r_0 = B_S, are
    the q-adic digits of A_S^{-1} B_S; each product reaches the kernel
    as an ``(array, bound)`` operand, so the residues r stay small and
    int64 while the sum of the digits grows.  After 2, 4, 8, ... steps
    the digits so far are rebuilt by rational reconstruction (one step
    would repeat the first prime's).  A Y that solves A Y == d B exactly
    is the solution; one that solves only A_S Y == d B_S certifies an
    inconsistent system (None), since A_S determines Y.

    By Hadamard, det A_S and each Cramer numerator are at most sqrt(H)
    with H = prod_i (|row i of A_S|^2 + max |row i of B_S|^2), so
    reconstruction cannot fail once q^k > 2 H.  A system still open
    after that step raises ArithmeticError.
    """
    n = sub.shape[1]
    limit = 2 * max(math.prod(h) for h in (
        (sub.astype(object) ** 2).sum(axis=2)
        + np.abs(bsub.astype(object)).max(axis=2, initial=0) ** 2).tolist())
    live = np.arange(len(A))
    out = [None] * len(A)
    ma = max_abs(sub)
    res, mres = bsub, max_abs(bsub)
    acc = np.zeros(bsub.shape, dtype=np.int64)
    step, mod = 0, 1
    while True:
        x = einsum("sij,sjk->sik", (C, q - 1), (res, mres)) % q
        ax = einsum("sij,sjk->sik", (sub, ma), (x, q - 1))
        res = lincomb((1, (res, mres)), (-1, (ax, n * ma * (q - 1)))) // q
        mres = (mres + n * ma * (q - 1)) // q
        acc = lincomb((1, (acc, mod - 1)), (mod, (x, q - 1)))
        mod *= q
        step += 1
        if (step == 1 or step & (step - 1)) and mod <= limit:
            continue
        Y, d = _reconstruct(acc, mod)
        done = _solves(A, rhs, Y, d)
        for k in done.nonzero()[0].tolist():
            out[live[k]] = lowest_terms(asint(Y[k]), int(d[k]))
        keep = ~done
        failed = (keep & d.astype(bool)).nonzero()[0]
        if failed.size:
            keep[failed] = ~_solves(sub[failed], bsub[failed], Y[failed],
                                    d[failed])
        if not keep.any():
            return out
        if mod > limit:
            raise ArithmeticError(
                "exact solve: lifting passed its Hadamard bound")
        live, A, rhs, sub, bsub, C, res, acc = (
            a[keep] for a in (live, A, rhs, sub, bsub, C, res, acc))


def _times(x, y):
    """Entrywise product of integer arrays whose last axis holds an
    integer (length 1) or a Gaussian integer (re, im) (length 2)."""
    if x.shape[-1] == 1:
        return x * y
    xr, xi, yr, yi = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    return np.stack([xr * yr - xi * yi, xr * yi + xi * yr], axis=-1)


def _echelon(a):
    """Determinants of a stack a (s, n, n, k) of integer (k = 1) or
    Gaussian-integer (k = 2) matrices, as an (s, k) object array, by one
    fraction-free (Bareiss) elimination of the whole stack.

    Each step moves the first row nonzero at the leading column of each
    matrix to the top and replaces the trailing block by
    (p * rest - col * row) / d, p the pivot and d the one before: every
    entry is a minor, so the division is exact (over Z[i], a product with
    conj(d) and a division by |d|^2).  The last pivot, signed by the row
    swaps, is the determinant; a matrix without a pivot leaves the stack
    with 0.  An integer block runs in int64 while 2 max-abs^2 fits.
    """
    s, n, _, k = a.shape
    out = np.zeros((s, k), dtype=object)
    out[:, 0] = 1  # the empty matrix
    live = np.arange(s)
    sign = np.ones((s, 1), dtype=np.int64)
    d = None  # the previous pivots, (s, 1, 1, k)
    a = a.astype(object if k == 2 else a.dtype)  # a copy: rows move
    while n and len(live):
        nz = a[:, :, 0].any(axis=2)
        has = nz.any(axis=1)
        if not has.all():
            out[live[~has]] = 0
            live, a, nz, sign = (v[has] for v in (live, a, nz, sign))
            d = d if d is None else d[has]
        i = nz.argmax(axis=1)
        swap = i.nonzero()[0]
        a[swap, 0], a[swap, i[swap]] = a[swap, i[swap]], a[swap, 0]
        sign[swap] *= -1
        p = a[:, :1, :1]
        if a.shape[1] == 1:
            out[live] = p[:, 0, 0] * sign
            break
        if a.dtype != object and 2 * max_abs(a) ** 2 >= _INT64_SAFE:
            a = a.astype(object)
        rest = _times(p, a[:, 1:, 1:]) - _times(a[:, 1:, :1], a[:, :1, 1:])
        if d is not None and k == 2:
            rest = _times(rest, d * [1, -1]) // (d * d).sum(3, keepdims=True)
        elif d is not None:
            rest //= d
        a, d = rest, p
    return out


def det(M, im=None):
    """Exact determinants of square integer matrices: a Python int for
    one matrix (n, n), a list of them for a stack (s, n, n), all from
    one batched elimination.  With ``im``, an integer array of M's shape,
    they are those of the Gaussian-integer M + i im, as (re, im) pairs."""
    M = asint(M)
    a = M[..., None] if im is None else np.stack([M, asint(im)], axis=-1)
    dets = [v[0] if im is None else tuple(v)
            for v in _echelon(a if M.ndim == 3 else a[None]).tolist()]
    return dets if M.ndim == 3 else dets[0]


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
