"""Equiaffine hypersphere models carried by unital Jordan algebras.

A unital algebra J of dimension n+1 with nondegenerate trace form
carries a level-set hypersurface

    M = { x : det P_x = (C^2)^(n+1) }

through the base point o = C e, where the scale C depends only on n and
the target affine mean curvature L1 != 0:

    C = -sign(L1) * sqrt(n+1) * ((n+1) |L1|)^(-(n+2)/2),

so C^2 = (n+1)^-(n+1) * |L1|^-(n+2) is rational whenever L1 is.  The
tangent space at o is the trace-zero subspace V0, and the Blaschke data
pulled back to V0 is algebraic:

    g(X, Y)  = -<X, Y> / ((n+1) L1)          (affine metric),
    A(X, Y)  = X o Y - tr(T_{X o Y})/(n+1) e (difference tensor),
    S        = L1 * Id                        (shape operator),
    xi_o     = -L1 C e                        (affine normal at o).

The curvature R(X, Y) = -[T_X, T_Y] restricted to V0 satisfies the
Gauss equation of an affine hypersphere,

    R(X, Y)Z = L1 (g(Y, Z) X - g(X, Z) Y) - [A_X, A_Y] Z,

which :func:`verify_model` certifies exactly, along with apolarity,
total symmetry of the cubic form, nondegeneracy of g, the quadratic
expansion P_{e + h X} = I + 2 h T_X + h^2 (2 T_X^2 - T_{X^2}) behind
the tangency of V0, and an exact product reconstruction from (g, A,
L1).  The expansion, the range and apolarity of A and the
reconstruction are proved from cached premises
(:meth:`HypersurfaceModel._by_construction`) and evaluated only when one
fails.  Floating-point orbit sampling confirms the level-set value; its
T_x and P_x come from :func:`_float_operators`, on a float64 copy of the
tensor, and each orbit step exponentiates the whole stack of sampled T_Y
at once by :func:`_expm`, a scaled Taylor polynomial in numpy alone.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import exactla as la
from .config import TOL
from .jordan import JordanAlgebra, JordanError
from .reports import CheckResult, VerificationReport
from .structure import _trace_zero_basis

# the coefficients 1 / k! of _expm's degree-18 Taylor polynomial, in
# rows of four: row i holds those of a^(4i), ..., a^(4i+3)
_TAYLOR = np.array([1 / math.factorial(k) for k in range(19)]
                   + [0.0]).reshape(5, 4)


class ModelError(JordanError):
    pass


def _float_operators(j, x):
    """(T_x, P_x) of float64 points, the rows of x, as two (s, n, n)
    stacks, with P_x = 2 T_x^2 - T_{x^2}: numpy on the float64 tensor of
    ``j``.  Geometry of sampled points only; every identity is exact."""
    c = j._float_tensor()
    t = np.einsum("si,ijk->skj", x, c)
    x2 = np.einsum("skj,sj->sk", t, x)
    return t, 2 * (t @ t) - np.einsum("si,ijk->skj", x2, c)


def _level_deviation(j, x, log_target):
    """(sign_ok, worst) at float64 points, the rows of x: whether every
    det P_x is positive, and the largest |log |det P_x| - log_target|."""
    _, p = _float_operators(j, x)
    sign, logabs = np.linalg.slogdet(p)
    return (bool(np.all(sign > 0)),
            float(np.max(np.abs(logabs - log_target), initial=0.0)))


def _expm(t):
    """exp of each matrix of the float (s, n, n) stack t: the degree-18
    Taylor polynomial of a = t / 2^q, with every 1-norm at most 1/2 (its
    truncation error is below 2^-19 / 19! ~ 1.6e-23), squared q times.
    The polynomial runs by Horner in a^4 over cubic polynomials in a
    (Paterson-Stockmeyer): 7 matrix products where plain Horner takes 18.
    """
    norm = np.abs(t).sum(axis=-2).max(initial=0.0)
    q = max(0, math.ceil(math.log2(2 * norm))) if norm else 0
    a = t / 2.0 ** q
    # the powers a^0, ..., a^3, and the five cubics they make
    pw = np.empty((4,) + t.shape)
    pw[0], pw[1] = np.eye(t.shape[-1]), a
    np.matmul(a, a, out=pw[2])
    np.matmul(pw[2], a, out=pw[3])
    cubics = (_TAYLOR @ pw.reshape(4, -1)).reshape((5,) + t.shape)
    a4 = pw[2] @ pw[2]
    out = cubics[4]
    for cubic in cubics[3::-1]:
        out = a4 @ out
        out += cubic
    for _ in range(q):
        out = out @ out
    return out


def scale_constant(n, l1):
    """(C^2, float C with sign, sign) for ambient dimension n+1."""
    l1 = la.as_fraction(l1)
    if l1 == 0:
        raise ModelError("the mean curvature parameter must be nonzero")
    c_sq = Fraction(1, (n + 1) ** (n + 1)) / (abs(l1) ** (n + 2))
    sign = -1 if l1 > 0 else 1
    return c_sq, sign * math.sqrt(float(c_sq)), sign


@dataclass
class HypersurfaceModel:
    """Blaschke data of the level-set hypersphere of an algebra."""

    algebra: JordanAlgebra
    l1: Fraction
    n: int                    # hypersurface dimension (= dim - 1)
    c_squared: Fraction
    c_float: float
    v0: tuple                 # integer basis of the trace-zero subspace
    g_v0: tuple               # affine metric on the v0 basis (Fractions)
    _ints: dict = field(default_factory=dict, repr=False)

    @property
    def level_value(self):
        """Exact value of det P_x on the hypersurface."""
        return self.c_squared ** (self.n + 1)

    def metric_signature(self):
        # g = -<X, Y> / ((n+1) L1) has the trace form's inertia on V0,
        # with positive and negative swapped when L1 > 0.  V = R e (+) V0
        # is orthogonal for the trace form (<e, X> = tr T_X = 0 on V0)
        # and <e, e> = dim > 0, so that is the algebra's cached inertia
        # less one positive direction.
        _, (pos, neg, zero) = self.algebra.is_semisimple()
        pos -= 1
        return (neg, pos, zero) if self.l1 > 0 else (pos, neg, zero)

    def affine_normal(self):
        """The normal at the base point, exactly -L1 C e."""
        j = self.algebra
        e = j.unity()
        ef = np.array([float(x) for x in e])
        return {
            "coefficient_times_c": -self.l1,
            "c_float": self.c_float,
            "vector_float": -float(self.l1) * self.c_float * ef,
        }

    def base_point(self):
        j = self.algebra
        return self.c_float * np.array([float(x) for x in j.unity()])

    # -- integer stacks ---------------------------------------------------

    def _stacks(self):
        """Integer T and A stacks over the v0 basis, the trace form g and
        its restriction gv to v0, plus denominators.

        ``t_max`` and ``a_max`` cache the max-abs of the two stacks for
        the kernel.
        """
        if "t_ops" in self._ints:
            return self._ints
        j = self.algebra
        nn = j.dim
        v0_arr = la.asint(self.v0).reshape(self.n, nn)
        t_ops, t_den = j._t_int(v0_arr, 1)
        e_arr, e_den = j._unit_int()
        g_arr, g_den = la.lowest_terms(*j._gram_int())
        outer_den = e_den * g_den * nn
        d = math.lcm(t_den, outer_den)
        w = la.einsum("ab,ib->ia", g_arr, v0_arr)
        outer = la.einsum("b,ic->ibc", e_arr, w)
        a_ops = la.lincomb((d // t_den, t_ops), (-(d // outer_den), outer))
        self._ints.update({
            "t_ops": t_ops, "t_den": t_den, "t_max": la.max_abs(t_ops),
            "a_ops": a_ops, "a_den": d, "a_max": la.max_abs(a_ops),
            "g": g_arr, "g_den": g_den, "v0": v0_arr,
            "gv": la.einsum("ai,ij,bj->ab", v0_arr, g_arr, v0_arr),
        })
        return self._ints

    def _by_construction(self):
        """Whether the model is built as its construction says: the tensor
        is commutative, the unit e is two-sided (T_e = R_e = I) and
        tau(v) = tr T_v = 0 for every v in ``v0``.  The first two are
        cached on the algebra, the third on the model.  Under these
        premises the tangent expansion, the difference tensor's range and
        apolarity, and the reconstruction hold identically (each check's
        docstring has the proof), so those checks run only when a premise
        fails."""
        j = self.algebra
        if "trace_free" not in self._ints:
            tr, _ = j._basis_traces()
            v0 = la.asint(self.v0).reshape(self.n, j.dim)
            self._ints["trace_free"] = not la.einsum(
                "ab,b->a", v0, la.asint(tr)).any()
        return (j._asymmetry() is None and j._two_sided_unit()
                and self._ints["trace_free"])

    # -- exact checks ------------------------------------------------------

    def check_metric(self):
        pos, neg, zero = self.metric_signature()
        return CheckResult(
            name="metric_nondegenerate", passed=zero == 0,
            max_residual=zero,
            details={"signature": (pos, neg), "dim": self.n})

    def check_difference_tensor(self):
        """A maps V0 x V0 into V0 and has vanishing trace (apolarity).

        A(X, Y) = X o Y - <X, Y> e / (n+1), where n+1 = dim J.  On the
        premises of :meth:`_by_construction` both hold identically for
        X, Y in V0: tau(A(X, Y)) = tau(X o Y) - <X, Y> tau(e) / (n+1) =
        (1 - tau(e) / (n+1)) <X, Y> = 0, since tau(X o Y) = <X, Y> and
        tau(e) = tr I = n+1; and tr A_X = tau(X) - <e, X> / (n+1) = 0,
        since <e, X> = tau(e o X) = tau(X) = 0.  The residuals are
        evaluated only when a premise fails.
        """
        if self.n == 0:
            return CheckResult(name="difference_tensor_into_v0",
                               passed=True)
        if self._by_construction():
            return CheckResult(
                name="difference_tensor_into_v0", passed=True,
                max_residual=Fraction(0), samples=self.n * self.n,
                details={"apolarity_residual": Fraction(0)})
        s = self._stacks()
        tr, tr_den = self.algebra._basis_traces()
        a_ops = (s["a_ops"], s["a_max"])
        worst_tr = la.max_abs(la.einsum("iab,jb,a->ij", a_ops, s["v0"],
                                        la.asint(tr)))
        diag = la.max_abs(la.einsum("iaa->i", a_ops))
        passed = worst_tr == 0 and diag == 0
        return CheckResult(
            name="difference_tensor_into_v0", passed=passed,
            max_residual=Fraction(max(worst_tr, diag),
                                  s["a_den"] * tr_den),
            samples=self.n * self.n,
            details={"apolarity_residual": Fraction(diag, s["a_den"])})

    def check_cubic_form(self):
        """g(A(X,Y), Z) is symmetric in all three arguments."""
        if self.n == 0:
            return CheckResult(name="cubic_form_symmetric", passed=True)
        s = self._stacks()
        img = la.einsum("iab,jb->ija", (s["a_ops"], s["a_max"]), s["v0"])
        cub = la.einsum("ija,ab,kb->ijk", img, s["g"], s["v0"])
        worst = max(la.max_abs(la.lincomb((1, cub), (-1, cub.transpose(perm))))
                    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)))
        return CheckResult(
            name="cubic_form_symmetric", passed=worst == 0,
            max_residual=Fraction(worst, s["a_den"] * s["g_den"]),
            samples=self.n ** 3)

    def check_gauss(self):
        """R(X,Y) = L1 (g(Y,.)X - g(X,.)Y) - [A_X, A_Y] on V0, exactly,
        as one residual indexed (a, b, i, l): the i-th entry of both
        sides for X, Y, Z the V0 basis vectors a, b and l."""
        if self.n < 2:
            return CheckResult(name="gauss_equation", passed=True)
        s = self._stacks()
        t_ops, a_ops, v0 = s["t_ops"], s["a_ops"], s["v0"]
        nn = self.algebra.dim
        den_t = s["t_den"] ** 2
        den_a = s["a_den"] ** 2
        den_g = s["g_den"] * nn
        d = math.lcm(den_t, den_a, den_g)
        ft, fa, fg = d // den_t, d // den_a, d // den_g
        mt, ma, mv = s["t_max"], s["a_max"], la.max_abs(v0)
        # T_b Z and A_b Z for every b and Z = l, and g(Z, Y) for Y = b up
        # to its den; the output runs (a, i, b, l), the layout of the
        # products of the first, third and fifth terms
        tz = la.einsum("bkm,lm->bkl", (t_ops, mt), (v0, mv))
        az = la.einsum("bkm,lm->bkl", (a_ops, ma), (v0, mv))
        tz, az, gz = ((x, la.max_abs(x)) for x in (tz, az, s["gv"].T))
        worst = la.residual(
            (-ft, "aik,bkl->aibl", (t_ops, mt), tz),
            (ft, "bik,akl->aibl", (t_ops, mt), tz),
            (fa, "aik,bkl->aibl", (a_ops, ma), az),
            (-fa, "bik,akl->aibl", (a_ops, ma), az),
            (fg, "ai,bl->aibl", (v0, mv), gz),
            (-fg, "bi,al->aibl", (v0, mv), gz))
        return CheckResult(
            name="gauss_equation", passed=worst == 0,
            max_residual=Fraction(worst, d),
            samples=self.n * (self.n - 1) // 2 * self.n)

    def check_quadratic_expansion(self, hs=(Fraction(1, 3), Fraction(2),
                                            Fraction(-1, 5))):
        """P_{e+hX} = I + 2h T_X + h^2 (2 T_X^2 - T_{X^2}), so the level
        function has vanishing first-order term along V0 at the base
        point and V0 is the tangent space there.

        X runs over the first min(n, 6) vectors of the V0 basis and h
        over ``hs``; all those points run as one stack, each over its
        own denominator q de for h = p / q.

        On the premises of :meth:`_by_construction` it holds identically:
        T is linear and (e + hX)^2 = e + h (e o X + X o e) + h^2 X^2 =
        e + 2hX + h^2 X^2, so P_{e+hX} - I - 2h T_X - h^2 P_X =
        (P_e - I) + h (2 (T_e T_X + T_X T_e) - T_{e o X + X o e} - 2 T_X)
        = 0 with T_e = I, and the first-order trace is tr T_X = tau(X) =
        0.  The residuals are evaluated only when a premise fails.
        """
        if self._by_construction():
            return CheckResult(
                name="tangent_quadratic_expansion", passed=True,
                max_residual=Fraction(0), samples=len(hs) * min(self.n, 6),
                details={"first_order_trace": Fraction(0)})
        j = self.algebra
        e, de = j._unit_int()
        x = la.asint(self.v0[:min(self.n, 6)]).reshape(-1, j.dim)
        tx, dt = j._t_int(x, 1)
        px, dp = j._p_int(x, 1)
        tangency = max((Fraction(abs(int(t)), dt)
                        for t in np.trace(tx, axis1=1, axis2=2)),
                       default=Fraction(0))
        # one row per (h, X), h-major; p and q are h = p / q per row
        k = len(x)
        p = np.repeat(np.array([h.numerator for h in hs], dtype=object), k)
        q = np.repeat(np.array([h.denominator for h in hs], dtype=object), k)
        u = la.lincomb((q, np.broadcast_to(e, (len(p), j.dim))),
                       (p * de, np.tile(x, (len(hs), 1))))
        pu, du = j._p_int(u, q * de)
        eye = np.broadcast_to(np.eye(j.dim, dtype=np.int64), pu.shape)
        worst = j._worst(
            (1, pu, du), (-1, (eye, 1), 1),
            (-2 * p, np.tile(tx, (len(hs), 1, 1)), q * dt),
            (-p * p, np.tile(px, (len(hs), 1, 1)), q * q * dp))
        return CheckResult(
            name="tangent_quadratic_expansion",
            passed=worst == 0 and tangency == 0,
            max_residual=max(worst, tangency), samples=len(u),
            details={"first_order_trace": tangency})

    def check_reconstruction(self):
        """The product is recovered from (g, A, L1) on the basis e, V0.

        Verifies e o e = e, e o X = X and the ambient identity
        X o Y = A(X, Y) - L1 g(X, Y) e over the v0 basis, which is the
        full multiplication table in the adapted basis.  The L1 factors
        cancel exactly: -L1 g(X, Y) = <X, Y> / (n+1).

        On the premises of :meth:`_by_construction` it holds identically:
        e o e = e and X o e = X say that e is a two-sided unit, and the
        third identity is how :meth:`_stacks` defines A, from the same
        integers: A_X Y = X o Y - <Y, X> e / (n+1), and <Y, X> = <X, Y>
        because the tensor is commutative.  The residuals are evaluated
        only when a premise fails.
        """
        if self._by_construction():
            return CheckResult(
                name="reconstruction_roundtrip", passed=True,
                max_residual=Fraction(0),
                samples=self.n * self.n + self.n + 1)
        j = self.algebra
        nn = j.dim
        e, de = j._unit_int()
        ee, dee = j._prod_int(e[None], de, e[None], de)
        worst = j._worst((1, ee, dee), (-1, e[None], de))
        if self.n == 0:
            return CheckResult(name="reconstruction_roundtrip",
                               passed=worst == 0, max_residual=worst,
                               samples=1)
        s = self._stacks()
        v0 = s["v0"]
        c, _, cden = j._operands()
        ex = la.einsum("ijk,j,bk->ib", c, e, v0)
        worst = max(worst, j._worst((1, ex, cden * de), (-1, v0.T, 1)))
        prod = la.einsum("ijk,ai,bj->abk", c, v0, v0)
        img = la.einsum("aij,bj->abi", (s["a_ops"], s["a_max"]), v0)
        unit_term = la.einsum("ab,k->abk", s["gv"], e)
        worst = max(worst, j._worst(
            (1, prod, cden), (-1, img, s["a_den"]),
            (-1, unit_term, s["g_den"] * nn * de)))
        return CheckResult(
            name="reconstruction_roundtrip", passed=worst == 0,
            max_residual=worst, samples=self.n * self.n + self.n + 1)

    # -- floating point sampling -------------------------------------------

    def sample_points(self, count=8, seed=0, steps=2, scale=0.35):
        """Orbit points C exp(T_{Y_k}) ... exp(T_{Y_1}) e on the level set.

        All ``count * steps * n`` coefficients of the Y_i over the V0
        basis are drawn first, sample by sample and step by step; then
        each step applies :func:`_expm` to the whole (count, dim, dim)
        stack of T_{Y_i} at once (a scaled Taylor polynomial, squared).
        """
        j = self.algebra
        ef = np.array([float(x) for x in j.unity()])
        if self.n == 0:
            return np.tile(self.c_float * ef, (count, 1))
        rng = random.Random(seed)
        coeff = np.array([rng.uniform(-scale, scale)
                          for _ in range(count * steps * self.n)])
        ys = coeff.reshape(count, steps, self.n) @ np.array(
            self.v0, dtype=np.float64)
        ys /= np.maximum(1.0, np.linalg.norm(ys, axis=2, keepdims=True))
        x = np.tile(ef, (count, 1))
        for step in range(steps):
            t, _ = _float_operators(j, ys[:, step])
            x = np.einsum("sij,sj->si", _expm(t), x)
        return self.c_float * x

    def log_level_value(self):
        """Natural log of the level value, safe from float underflow."""
        v = self.level_value
        return math.log(v.numerator) - math.log(v.denominator)

    def check_level(self, count=8, seed=0, steps=2):
        """det P_x at sampled orbit points against the exact level value.

        The comparison runs in log space (a log difference is a relative
        error of the value) because the level value underflows float64
        already in middling dimensions.
        """
        pts = self.sample_points(count=count, seed=seed, steps=steps)
        log_target = self.log_level_value()
        sign_ok, worst = _level_deviation(self.algebra, pts, log_target)
        return CheckResult(
            name="level_set_samples",
            passed=sign_ok and worst <= TOL.level,
            max_residual=worst, samples=count, seed=seed,
            details={"log_level_value": log_target,
                     "positive_branch": sign_ok})


def _adapted_basis(model):
    """(b, db, binv, dinv): the rows of b / db are the adapted basis
    (e, V0), and binv / dinv is the inverse of the matrix with those
    columns.  Made once per model: :func:`reconstruct_algebra` and
    :func:`adapted_constants` both read it.

    The inverse is in closed form, with no solve.  The integer traces
    t_i = tr T_{b_i} (times one den) give tau(u) = sum t_i u_i, which
    vanishes on V0, and tau(e), a nonzero multiple of tr I.  The V0
    basis vector v_k (:func:`structure._trace_zero_basis`) is w_k at its
    own index i_k and zero off i_k and the pivot p, so
    u = alpha e + sum c_k v_k has alpha = tau(u) / tau(e) and
    c_k = (u_{i_k} - alpha e_{i_k}) / w_k.  On the rows of b that is
    b^T X = D I with D = de L tau(e), L = lcm w_k, X[0] = de L t and
    X[k] = (L / w_k) (tau(e) delta_{i_k} - e_{i_k} t); (X, D) is put in
    lowest terms with D > 0, the pair :func:`exactla.solve` returns.
    """
    if "adapted" not in model._ints:
        j = model.algebra
        nn = j.dim
        e, de = j._unit_int()
        v0 = la.asint(model.v0).reshape(model.n, nn)
        b = np.concatenate([e[None], la.lincomb((de, v0))])
        t = j._basis_traces()[0]
        p = next(i for i, a in enumerate(t) if a)
        own = [i for i in range(nn) if i != p]
        w = v0[range(model.n), own].tolist()
        te, big = sum(a * x for a, x in zip(t, e.tolist())), math.lcm(*w)
        sign = 1 if te > 0 else -1
        # X times the sign of D: one coefficient per row on delta, one
        # on t
        s = np.array([0] + [sign * big // x for x in w], dtype=object)
        ct = -s * np.array([0] + e[own].tolist(), dtype=object)
        ct[0] = sign * de * big
        delta = np.zeros((nn, nn), dtype=np.int64)
        delta[range(1, nn), own] = 1
        binv, dinv = la.lowest_terms(la.lincomb(
            (s * te, delta), (ct, np.broadcast_to(la.asint(t), (nn, nn)))),
            abs(de * big * te))
        model._ints["adapted"] = (b, de, la.lincomb((de, binv)), dinv)
    return model._ints["adapted"]


def reconstruct_algebra(model):
    """Rebuild the algebra from model data alone, in the basis (e, V0).

    Returns a new :class:`JordanAlgebra` whose products come from
    X o Y = A(X, Y) - L1 g(X, Y) e with e adjoined as unit.  A(X, Y) is
    read off the integer A stack in adapted coordinates with one kernel
    einsum, and -L1 g(X, Y) = <X, Y> / (n+1) from the trace form; the
    tensor is assembled in kernel form over one denominator.
    """
    j = model.algebra
    nn = j.dim
    _, _, binv, dinv = _adapted_basis(model)
    s = model._stacks()
    coords = la.einsum("ti,aij,bj->abt", binv, (s["a_ops"], s["a_max"]),
                       s["v0"])
    gv = s["gv"]
    da, dg = s["a_den"] * dinv, s["g_den"] * nn
    d = math.lcm(da, dg)
    c = np.zeros((nn, nn, nn), dtype=object)
    # e = b_0 is the unit: b_0 o b_t = b_t o b_0 = b_t
    c[0] = c[:, 0] = d * np.eye(nn, dtype=object)
    c[1:, 1:] = la.lincomb((d // da, coords))
    c[1:, 1:, 0] += la.lincomb((d // dg, gv))
    return JordanAlgebra(
        kernel=(c, d), name=f"rebuilt({j.name})",
        meta={"rebuilt_from": j.name, "l1": str(model.l1)},
        unit=(np.eye(nn, dtype=np.int64)[0], 1))


def adapted_constants(model):
    """Structure constants of the original algebra over (e, V0).

    Computed independently of :func:`reconstruct_algebra`: products of
    the adapted basis vectors are taken in the original coordinates and
    converted back with the basis inverse, so comparing the two tensors
    certifies the reconstruction entry by entry.
    """
    j = model.algebra
    b, db, binv, dinv = _adapted_basis(model)
    c, _, cden = j._operands()
    prod = la.einsum("ijk,ai,bj->abk", c, b, b)
    return j._out(la.einsum("abk,tk->abt", prod, binv),
                  cden * db * db * dinv)


def build_model(j, l1):
    """Attach the hypersphere model with mean curvature ``l1`` to ``j``."""
    l1 = la.as_fraction(l1)
    e = j.unity()
    n = j.dim - 1
    c_sq, c_f, _ = scale_constant(n, l1)
    ok, sig = j.is_semisimple()
    if not ok:
        raise ModelError(
            f"{j.name}: the trace form is degenerate {sig}; the affine "
            "metric of the model would be degenerate too")
    v0 = _trace_zero_basis(j) if n else ()
    # g(X, Y) = -<X, Y> / ((n + 1) L1) on the v0 basis
    g, g_den = j._gram_int()
    v0_arr = la.asint(v0).reshape(n, j.dim)
    g_v0 = j._out(la.lincomb((-l1.denominator, la.einsum(
        "ai,ij,bj->ab", v0_arr, g, v0_arr))), g_den * (n + 1) * l1.numerator)
    return HypersurfaceModel(
        algebra=j, l1=l1, n=n, c_squared=c_sq, c_float=c_f, v0=v0,
        g_v0=g_v0)


def verify_model(j, l1, n_float_samples=6, seed=0):
    """Build the model and certify all of its defining identities."""
    t0 = time.monotonic()
    model = build_model(j, l1)
    report = VerificationReport(
        target=f"model({j.name}, l1={l1})", checks=[])
    report.add(model.check_metric())
    report.add(model.check_difference_tensor())
    report.add(model.check_cubic_form())
    report.add(model.check_gauss())
    report.add(model.check_quadratic_expansion())
    report.add(model.check_reconstruction())
    report.add(model.check_level(count=n_float_samples, seed=seed))
    report.elapsed_ms = (time.monotonic() - t0) * 1000.0
    return model, report
