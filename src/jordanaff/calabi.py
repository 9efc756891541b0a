"""Calabi-style composition of hypersphere models.

Models on algebras J_1, ..., J_r compose into a model on the direct sum
J = J_1 (+) ... (+) J_r: a point of the composed hypersurface is

    x = (c_1 e^{t_1} x_1, ..., c_r e^{t_r} x_r),

where x_a lies on the factor hypersurface, the scale c_a = C / C_a
matches the factor level to the composed one, and the exponents satisfy
sum (n_a + 1) t_a = 0.  The t directions form the flat central subspace
p0 = { sum t_a e_a : sum (n_a + 1) t_a = 0 } of dimension r - 1 inside
the trace-zero space: each e_a is central in the direct sum, so the
curvature R(v, .) = -[T_v, T_.] vanishes along p0.

The determinant of the quadratic operator factors over the summands,
which makes the composed level value exact:

    det P_x = prod (c_a e^{t_a})^{2(n_a+1)} det P_{x_a}
            = C^{2(n+1)} * exp(2 sum (n_a+1) t_a) = C^{2(n+1)}.

The smallest example is R (+) R at mean curvature -1: two point factors
compose into the hyperbola x1 x2 = 1/4 with C = 1/2.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla as la
from .config import TOL
from .hypersurface import (HypersurfaceModel, ModelError, _level_deviation,
                           build_model)
from .jordan import direct_sum
from .reports import CheckResult, VerificationReport


@dataclass
class CalabiComposition:
    """A composed model together with its factor bookkeeping."""

    factors: tuple            # HypersurfaceModel per summand
    model: HypersurfaceModel  # model on the direct sum
    scale_squares: tuple      # c_a^2 = C^2 / C_a^2, exact
    scale_floats: tuple       # signed c_a
    p0: tuple                 # integer basis of the flat central subspace
    offsets: tuple            # coordinate offset of each factor block

    @property
    def weights(self):
        return tuple(f.n + 1 for f in self.factors)


def compose(models, l1=Fraction(-1)):
    """Compose factor models into one model on the direct sum."""
    if not models:
        raise ModelError("composition needs at least one factor")
    big = direct_sum([m.algebra for m in models])
    model = build_model(big, l1)
    scale_squares = tuple(model.c_squared / m.c_squared for m in models)
    scale_floats = tuple(model.c_float / m.c_float for m in models)
    offsets = []
    at = 0
    for m in models:
        offsets.append(at)
        at += m.algebra.dim
    # integer basis of p0: weighted differences of embedded unit elements
    weights = [m.n + 1 for m in models]
    units = [m.algebra._unit_int() for m in models]
    (xl, dl), last = units[-1], offsets[-1]
    p0 = []
    for (x, dx), off, w in zip(units[:-1], offsets, weights):
        d = math.lcm(dx, dl)
        v = np.zeros(big.dim, dtype=object)
        v[off:off + len(x)] = la.lincomb((weights[-1] * (d // dx), x))
        v[last:last + len(xl)] = la.lincomb((-w * (d // dl), xl))
        p0.append(tuple(la.lowest_terms(v, d)[0].tolist()))
    return CalabiComposition(
        factors=tuple(models), model=model,
        scale_squares=scale_squares, scale_floats=scale_floats,
        p0=tuple(p0), offsets=tuple(offsets))


def project_exponents(weights, t):
    """Project exponents onto the constraint sum((n_a + 1) t_a) = 0."""
    w = np.asarray(weights, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    return t - w * (w @ t) / (w @ w)


def compose_point(comp, factor_points, t=None):
    """Assemble one composed point from factor points and exponents.

    The exponents must satisfy the balance constraint already; use
    :func:`project_exponents` to repair a free vector first.
    """
    r = len(comp.factors)
    if len(factor_points) != r:
        raise ModelError(f"need {r} factor points")
    if t is None:
        t = np.zeros(r)
    t = np.asarray(t, dtype=np.float64)
    drift = float(np.dot(comp.weights, t))
    if abs(drift) > TOL.abs_floor * max(1.0, float(np.max(np.abs(t)))):
        raise ModelError(
            f"exponents violate the balance constraint by {drift:.3e}")
    big_dim = comp.model.algebra.dim
    out = np.zeros(big_dim)
    for a, (m, off) in enumerate(zip(comp.factors, comp.offsets)):
        x = np.asarray(factor_points[a], dtype=np.float64)
        out[off:off + m.algebra.dim] = \
            comp.scale_floats[a] * math.exp(t[a]) * x
    return out


def check_composition(comp, n_samples=6, seed=0):
    """Certify the composition: exact block identities plus sampling."""
    t_start = time.monotonic()
    big = comp.model.algebra
    report = VerificationReport(
        target=f"calabi({', '.join(m.algebra.name for m in comp.factors)})",
        checks=[])
    rng = random.Random(seed)

    # p0 dimension and trace-zero containment
    tr, tr_den = big._basis_traces()
    worst_tr = 0
    for v in comp.p0:
        worst_tr = max(worst_tr, abs(sum(t * x for t, x in zip(tr, v))))
    report.add(CheckResult(
        name="p0_trace_zero", passed=worst_tr == 0,
        max_residual=Fraction(worst_tr, tr_den),
        details={"dim_p0": len(comp.p0),
                 "expected": len(comp.factors) - 1}))

    # p0 is central: [T_v, T_u] = 0 for all basis u
    _, st, s_den = big._operands()
    tv, _ = big._t_int(la.asint(comp.p0).reshape(-1, big.dim), 1)
    worst_c = la.max_abs(la.bracket(tv[:, None], st))
    report.add(CheckResult(
        name="p0_central", passed=worst_c == 0,
        max_residual=Fraction(worst_c, s_den ** 2),
        samples=len(comp.p0) * big.dim))

    # det P factorizes over the blocks, on random integer elements: a
    # row of the direct sum is the factors' draws side by side, so each
    # factor's stack is a column block of the same rows
    count = max(2, n_samples // 2)
    xs = big._int_elements(rng, count, 4)
    rhs = [1] * count
    for m, off in zip(comp.factors, comp.offsets):
        dets = m.algebra._dets(xs[:, off:off + m.algebra.dim])
        rhs = [a * b for a, b in zip(rhs, dets)]
    worst_f = max(abs(a - b) for a, b in zip(big._dets(xs), rhs))
    report.add(CheckResult(
        name="block_determinant_factorization", passed=worst_f == 0,
        max_residual=worst_f, samples=count, seed=seed))

    # scale matching: c_a^2 C_a^2 = C^2 exactly
    worst_s = Fraction(0)
    for c2, m in zip(comp.scale_squares, comp.factors):
        worst_s = max(worst_s, abs(c2 * m.c_squared
                                   - comp.model.c_squared))
    report.add(CheckResult(
        name="scale_matching", passed=worst_s == 0, max_residual=worst_s))

    # sampled composed points sit on the composed level set
    log_target = comp.model.log_level_value()
    pts = [m.sample_points(count=n_samples, seed=seed + i, steps=2)
           for i, m in enumerate(comp.factors)]
    xs = np.empty((n_samples, big.dim))
    for s in range(n_samples):
        t = project_exponents(
            comp.weights, [rng.uniform(-0.5, 0.5) for _ in comp.factors])
        xs[s] = compose_point(comp, [p[s] for p in pts], t)
    sign_ok, worst_l = _level_deviation(big, xs, log_target)
    report.add(CheckResult(
        name="composed_level_samples",
        passed=sign_ok and worst_l <= TOL.level,
        max_residual=worst_l, samples=n_samples, seed=seed,
        details={"positive_branch": sign_ok}))

    report.elapsed_ms = (time.monotonic() - t_start) * 1000.0
    return report
