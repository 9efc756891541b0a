"""Symmetric pairs from multiplication operators of a Jordan algebra.

For a unital algebra J with injective u -> T_u, let V0 be the
trace-zero subspace {u : tr T_u = 0}, p = {T_X : X in V0} and
k = span{[T_X, T_Y] : X, Y in V0}.  Then g = k (+) p is a Lie algebra of
operators on J and (g, k) is a symmetric pair:

    [k, k] <= k,   [k, p] <= p,   [p, p] <= k,

with k acting by derivations that kill the unit element and are skew
for the trace form.  :func:`restricted_pair` builds the pair with exact
integer arithmetic: its k basis is the first independent commutators
[T_a, T_b] in a < b order, found by one elimination of the transposed
commutator matrix modulo a prime, which also yields the witness of that
rank, the coordinates of every commutator in the k basis, checked
exactly.  :func:`check_pair` re-verifies every relation and returns a
report; [p, p] = k is checked from that witness by one exact identity,
so the rank of the commutators is not computed again, k (+) p is
certified direct from k e = 0, the rank of the T_X e and of k's minor,
and [k, k] <= k is proved from the other relations by Jacobi.

The bracket computations stay in scaled-integer form throughout: the
algebra's multiplication operators share one denominator, so commutators
and products compare exactly as integer matrices.  They run through the
kernel of :mod:`jordanaff.exactla`, which picks float64 (exact below
2**53, for large contractions through BLAS), int64 or Python big
integers from a bound on each result and never wraps or refuses an input
for its size.  The derivation identity and the span [p, p] = k are each
one :func:`exactla.residual`, which runs them as sparse int64 products
when the operators are sparse and over blocks otherwise, so the
dim_k x n^3 stack is never held at once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla as la
from .jordan import JordanAlgebra, JordanError, NotUnitalError
from .reports import CheckResult, VerificationReport


class PairError(JordanError):
    pass


@dataclass
class SymmetricPair:
    """The operator pair (k, p) attached to a Jordan algebra.

    All operator matrices are integer ndarrays over a single denominator
    per block: ``p_ops / p_den`` are the multiplication operators of the
    trace-zero basis ``v0`` and ``k_ops / k_den`` the chosen commutator
    basis of k.  The stacks are int64 when their entries fit and
    ``dtype=object`` otherwise, as the exactla kernel produces them; every
    check contracts them through that kernel.  The k basis is the first
    independent commutators [p_a, p_b] in a < b order (independent
    modulo the first prime; a later prime picks them only when that one
    misses the rank).  ``k_pairs`` names the generator pair (indices
    into v0) behind every k basis element, and ``k_cols`` the sorted
    dim_k entries (indices into the flattened n x n matrices) on which
    the minor of the k basis is nonzero modulo a prime, which certified
    its independence; :func:`check_pair` ranks that minor again.

    ``pp_coords`` is the kernel pair (Y, d), in lowest terms, of the
    commutators in the k basis: row g of Y holds the coordinates of the
    g-th commutator [p_a, p_b] (a < b, in order) times d, so that
    Y @ k_ops == d * commutators as integer stacks.
    """

    algebra: JordanAlgebra
    v0: tuple            # basis of the trace-zero subspace (int vectors)
    p_ops: np.ndarray    # stack (dim_p, n, n)
    p_den: int
    k_ops: np.ndarray    # stack (dim_k, n, n)
    k_den: int
    k_pairs: tuple       # (i, j) per k basis element
    k_cols: tuple        # entries of a nonzero dim_k x dim_k minor of k
    pp_coords: tuple     # (Y, d): Y @ k_ops == d * [p, p] commutators

    @property
    def dim_p(self):
        return len(self.v0)

    @property
    def dim_k(self):
        return len(self.k_ops)

    @property
    def dim_g(self):
        return self.dim_k + self.dim_p


def _trace_zero_basis(j):
    """Integer basis of {u : tr T_u = 0}."""
    tr, _ = j._basis_traces()
    n = j.dim
    p = next((i for i, t in enumerate(tr) if t), None)
    if p is None:
        raise PairError(f"{j.name}: every multiplication operator is "
                        "traceless, so the trace form degenerates")
    out = []
    for i in range(n):
        if i == p:
            continue
        v = [0] * n
        v[i] = tr[p]
        v[p] = -tr[i]
        g = math.gcd(*v)
        out.append(tuple(x // g for x in v))
    return tuple(out)


def _commutators(x):
    """Stack of the brackets [x[a], x[b]] over a < b, in that order."""
    m = la.max_abs(x)
    blocks = [la.bracket((x[a], m), (x[a + 1:], m))
              for a in range(len(x) - 1)]
    return la.asint(np.concatenate(blocks)) if blocks else x[:0]


def restricted_pair(j):
    """Build the symmetric pair of the trace-zero multiplication operators.

    Requires a unit element.  k is the first independent commutators of
    the p basis, by :func:`exactla.independent_rows`, whose span witness
    becomes ``pp_coords``.
    """
    j.unity()
    v0 = _trace_zero_basis(j)
    p_ops, p_den = j._t_int(la.asint(v0).reshape(-1, j.dim), 1)
    n = j.dim
    gens = _commutators(p_ops)
    pairs = [(a, b) for a in range(len(v0)) for b in range(a + 1, len(v0))]
    idx, cols, coords = la.independent_rows(gens.reshape(len(gens), n * n))
    k_ops = la.asint(gens[idx])
    k_pairs = tuple(pairs[i] for i in idx)
    return SymmetricPair(j, v0, p_ops, p_den, k_ops, p_den * p_den,
                         k_pairs, tuple(cols), coords)


def check_pair(pair, n_samples=3, seed=0):
    """Verify every defining relation of the pair, exactly.

    Checks: independence of the k basis and of k (+) p, the span
    [p, p] = k (the commutators, recomputed, must equal the stored
    coordinates ``pp_coords`` times the k basis; only a failure computes
    their rank, which ``max_residual`` reports in excess of dim k), the
    derivation identity [Phi, T_u] = T_{Phi(u)} with
    Phi(u) trace-zero, Phi(e) = 0, skewness of k for the trace form,
    [k, k] <= k, and injectivity of u -> T_u.  Nothing is sampled:
    ``n_samples`` and ``seed`` are kept for the callers' sake.

    ``k_p_direct_sum`` is certified from three exact premises: k e = 0
    (the ``k_kills_unity`` residual), the T_X e of the p basis have rank
    dim p, and k's minor at ``k_cols`` has rank dim k.  A relation
    sum a_i k_i + sum b_X T_X = 0 applied to e leaves sum b_X T_X e = 0,
    so b = 0, and then a = 0 on the minor.  When a premise fails, the
    rank of the whole (dim k + dim p) x n^2 stack decides, and
    ``max_residual`` is dim k + dim p minus that rank.

    ``kk_in_k`` is proved by the Jacobi identity
    [Phi, [T_X, T_Y]] = [[Phi, T_X], T_Y] + [T_X, [Phi, T_Y]] for Phi in
    k and X, Y in v0: by the derivation identity and ``kp_in_p``,
    [Phi, T_X] = T_{Phi(X)} with Phi(X) in V0, which lies in p once
    span v0 = V0, so [Phi, [T_X, T_Y]] lies in span [p, p] = span k.
    Its premises are those two checks and ``pp_spans_k``; a witness row
    d e_i at the pair (a, b) of each k_i, so that k_i = [p_a, p_b]; and
    ``v0`` equal to the basis of V0 that :func:`restricted_pair` takes,
    with ``p_ops`` its T stack.
    """
    t_start = time.monotonic()
    j = pair.algebra
    n = j.dim
    report = VerificationReport(target=f"pair({j.name})", checks=[])
    k, p = pair.k_ops, pair.p_ops
    dim_k, dim_p = pair.dim_k, pair.dim_p
    kb = (k, la.max_abs(k))
    flat = k.reshape(dim_k, n * n)
    y, d = pair.pp_coords

    # k kills the unit
    e_int, _ = j._unit_int()
    worst_e = la.max_abs(la.einsum("kab,b->ka", kb, e_int))

    # independence and direct sum: the rank of the whole stack only when
    # k e = 0, independent T_X e or k's minor fails
    if (worst_e == 0
            and la.int_rank(la.einsum("pab,b->pa", p, e_int)) == dim_p
            and la.int_rank(flat[:, list(pair.k_cols)]) == dim_k):
        rank_kp = dim_k + dim_p
    else:
        kp = np.concatenate(
            [la.lincomb((pair.p_den, flat)),
             la.lincomb((pair.k_den, p.reshape(dim_p, n * n)))], axis=0)
        rank_kp = la.int_rank(kp)
    report.add(CheckResult(
        name="k_p_direct_sum", passed=rank_kp == dim_k + dim_p,
        max_residual=dim_k + dim_p - rank_kp,
        details={"dim_k": dim_k, "dim_p": dim_p, "rank": rank_kp}))

    # [p, p] inside span(k): all commutators of p basis pairs, written
    # in the k basis by the witness; independence of k is proved above
    npairs = dim_p * (dim_p - 1) // 2
    if npairs:
        gens = _commutators(p).reshape(npairs, n * n)
        spans = d > 0 and la.residual((1, "gk,kc->gc", y, (flat, kb[1])),
                                      (-d, gens)) == 0
        excess = 0 if spans else la.int_rank(
            np.concatenate([flat, gens], axis=0)) - dim_k
        report.add(CheckResult(
            name="pp_spans_k", passed=spans, max_residual=excess,
            details={"generators": npairs, "dim_k": dim_k}))
    else:
        spans = dim_k == 0
        report.add(CheckResult(name="pp_spans_k", passed=spans))

    # derivation identity in operator form: for every k basis element
    # Phi and every algebra basis vector b_i,
    #   Phi T_{b_i} - T_{b_i} Phi = T_{Phi(b_i)}.
    _, st, s_den = j._operands()
    worst = la.residual((1, "kab,ibc->kiac", kb, st),
                        (-1, "iab,kbc->kiac", st, kb),
                        (-1, "kji,jac->kiac", kb, st))
    # common denominator: k carries k_den, st carries s_den on both
    # sides, so the integer difference is exact
    report.add(CheckResult(
        name="derivation_identity", passed=worst == 0,
        max_residual=Fraction(worst, pair.k_den * s_den),
        samples=dim_k * n))

    report.add(CheckResult(
        name="k_kills_unity", passed=worst_e == 0,
        max_residual=Fraction(worst_e, pair.k_den)))

    # skewness for the trace form: (G Phi)^T = -G Phi
    g_int, g_den = la.lowest_terms(*j._gram_int())
    gk = la.einsum("ab,kbc->kac", g_int, kb)
    worst_skew = la.max_abs(la.lincomb((1, gk), (1, gk.transpose(0, 2, 1))))
    report.add(CheckResult(
        name="k_skew_for_trace_form", passed=worst_skew == 0,
        max_residual=Fraction(worst_skew, g_den * pair.k_den)))

    # [k, p] lands in p: Phi(X) is trace-zero for X in v0, and the
    # derivation identity above already wrote [Phi, T_X] as T_{Phi(X)}
    tr, tr_den = j._basis_traces()
    v0 = la.asint(pair.v0).reshape(dim_p, n)
    worst_tr = la.max_abs(la.einsum("kab,ib,a->ki", kb, v0, la.asint(tr)))
    report.add(CheckResult(
        name="kp_in_p", passed=worst_tr == 0,
        max_residual=Fraction(worst_tr, pair.k_den * tr_den),
        samples=dim_k * dim_p))

    # [k, k] inside span k, by Jacobi from the relations above
    named = [a * dim_p - a * (a + 1) // 2 + b - a - 1
             for a, b in pair.k_pairs]
    report.add(CheckResult(name="kk_in_k", passed=bool(
        spans and worst == 0 and worst_tr == 0
        and v0.tolist() == [list(x) for x in _trace_zero_basis(j)]
        and np.array_equal(p, j._t_int(v0, 1)[0])
        and np.array_equal(y[named], d * np.eye(dim_k, dtype=object)))))

    # effectiveness: T is injective, k kills e, and V = R e (+) V0,
    # so an element of k vanishing on V0 vanishes everywhere
    inj = j.is_nondegenerate()
    tr_e = sum(t * int(x) for t, x in zip(tr, e_int))
    report.add(CheckResult(
        name="effective", passed=bool(inj) and tr_e != 0 and worst_e == 0,
        details={"t_injective": inj, "unit_trace_nonzero": tr_e != 0}))

    report.elapsed_ms = (time.monotonic() - t_start) * 1000.0
    return report
