"""Commutative structure-constant algebras and the Jordan-algebra toolkit.

An algebra is a tensor c with (b_i o b_j) = sum_k c[i][j][k] b_k over a
fixed basis.  Rational mode keeps every coefficient a Fraction and all
verification residuals are exact; float mode mirrors the same operations
in numpy float64 with tolerances from :mod:`jordanaff.config`.

The multiplication operator of u is T_u = u o (.), the quadratic operator
is P_u = 2 T_u^2 - T_{u^2}, the element determinant and trace are those of
P_u and T_u, and the trace form is <u, v> = tr T_{u o v}.  The Jordan
axioms are commutativity and u o (u^2 o v) = u^2 o (u o v); the second is
checked through the operator commutator [T_u, T_{u^2}], whose columns
cover every basis choice of v at once.

Exact computations clear denominators and run through the one integer
kernel of :mod:`jordanaff.exactla`, which picks int64 or Python big
integers from a bound on each result and never wraps or refuses an input
for its size.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np

from . import exactla as la
from .config import FLOAT, RATIONAL, TOL
from .reports import CheckResult


class JordanError(Exception):
    pass


class DimensionMismatchError(JordanError):
    pass


class NotUnitalError(JordanError):
    pass


class NotInvertibleError(JordanError):
    pass


class NotSemisimpleError(JordanError):
    pass


class JordanAlgebra:
    """A finite-dimensional commutative algebra over R in a fixed basis."""

    def __init__(self, c, mode=RATIONAL, name="algebra", labels=None,
                 meta=None):
        self.mode = mode
        self.name = name
        self.meta = dict(meta or {})
        dim = len(c)
        if dim == 0:
            raise ValueError("algebra dimension must be at least 1")
        if mode == RATIONAL:
            tensor = tuple(
                tuple(la.fvec(cij) for cij in ci) for ci in c)
        elif mode == FLOAT:
            tensor = np.asarray(c, dtype=np.float64)
            if tensor.shape != (dim, dim, dim):
                raise DimensionMismatchError(
                    f"structure tensor must be cubic, got {tensor.shape}")
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if mode == RATIONAL:
            for ci in tensor:
                if len(ci) != dim or any(len(cij) != dim for cij in ci):
                    raise DimensionMismatchError(
                        "structure tensor must be cubic")
        self.dim = dim
        self.c = tensor
        self.labels = tuple(labels) if labels else tuple(
            f"b{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise DimensionMismatchError("one label per basis element")
        self._cache = {}

    # -- basic representations ------------------------------------------

    def _int_tensor(self):
        """(ci, den) with c == ci / den; ci is int64 or object-dtype."""
        if "ci" not in self._cache:
            den = 1
            for ci in self.c:
                for cij in ci:
                    for x in cij:
                        den = den // math.gcd(den, x.denominator) \
                            * x.denominator
            ci = la.asint([[[x.numerator * (den // x.denominator)
                             for x in cij] for cij in ci] for ci in self.c])
            self._cache["ci"] = (ci, den)
            self._cache["cmax"] = la.max_abs(ci)
        return self._cache["ci"]

    def _t_stack(self):
        """Integer stack S with S[i] = T_{b_i} (scaled by the tensor den)."""
        if "tstack" not in self._cache:
            ci, den = self._int_tensor()
            self._cache["tstack"] = (ci.transpose(0, 2, 1).copy(), den)
        return self._cache["tstack"]

    def _operands(self):
        """Kernel operands (ci, S) with their cached max-abs, and the den."""
        ci, den = self._int_tensor()
        st, _ = self._t_stack()
        m = self._cache["cmax"]
        return (ci, m), (st, m), den

    def _float_tensor(self):
        if "cf" not in self._cache:
            if self.mode == FLOAT:
                self._cache["cf"] = self.c
            else:
                self._cache["cf"] = np.array(
                    [[[float(x) for x in cij] for cij in ci]
                     for ci in self.c], dtype=np.float64)
        return self._cache["cf"]

    def coerce(self, u):
        """Normalize an element to the mode's canonical representation."""
        if len(u) != self.dim:
            raise DimensionMismatchError(
                f"element of length {len(u)} in algebra of dimension "
                f"{self.dim}")
        if self.mode == RATIONAL:
            return la.fvec(u)
        return np.asarray(u, dtype=np.float64)

    def zero(self):
        return self.coerce([0] * self.dim)

    def basis_element(self, i):
        return self.coerce([1 if j == i else 0 for j in range(self.dim)])

    def to_float(self):
        """Float-mode copy of this algebra."""
        J = JordanAlgebra(self._float_tensor(), mode=FLOAT, name=self.name,
                          labels=self.labels, meta=dict(self.meta))
        return J

    # -- products and operators -----------------------------------------

    def product(self, u, v):
        u = self.coerce(u)
        v = self.coerce(v)
        if self.mode == FLOAT:
            return np.einsum("i,j,ijk->k", u, v, self._float_tensor())
        c, _, den = self._operands()
        ui, du = la.clear_denominators_vec(u)
        vi, dv = la.clear_denominators_vec(v)
        w = la.einsum("i,j,ijk->k", la.asint(ui), la.asint(vi), c)
        d = Fraction(1, den * du * dv)
        return tuple(d * int(x) for x in w)

    def square(self, u):
        return self.product(u, u)

    def t_operator(self, u):
        """Matrix of v -> u o v in the basis."""
        u = self.coerce(u)
        if self.mode == FLOAT:
            return np.einsum("i,ijk->kj", u, self._float_tensor())
        m, d = self._t_int(u)
        frac = Fraction(1, d)
        return tuple(tuple(frac * int(x) for x in row) for row in m)

    def _t_int(self, u):
        """Integer-scaled T_u: returns (matrix, den)."""
        _, st, den = self._operands()
        ui, du = la.clear_denominators_vec(la.fvec(u))
        return la.einsum("i,ikj->kj", la.asint(ui), st), den * du

    def p_operator(self, u):
        """Quadratic operator P_u = 2 T_u^2 - T_{u^2}."""
        u = self.coerce(u)
        if self.mode == FLOAT:
            t = self.t_operator(u)
            return 2.0 * (t @ t) - self.t_operator(self.square(u))
        m, d = self._p_int(u)
        frac = Fraction(1, d)
        return tuple(tuple(frac * int(x) for x in row) for row in m)

    def _p_int(self, u):
        t, dt = self._t_int(u)
        t2 = la.einsum("ab,bc->ac", t, t)
        usq = self.square(u)
        tu2, du2 = self._t_int(usq)
        # scales: t2 carries dt^2, tu2 carries du2; align on lcm
        lcm = dt * dt // math.gcd(dt * dt, du2) * du2
        a = lcm // (dt * dt)
        b = lcm // du2
        return la.lincomb((2 * a, t2), (-b, tu2)), lcm

    # -- traces, determinants, the trace form ----------------------------

    def _basis_traces(self):
        """tr T_{b_i} for each i, as integer vector plus denominator."""
        if "traces" not in self._cache:
            c, _, den = self._operands()
            tr = la.einsum("ijj->i", c)
            self._cache["traces"] = ([int(x) for x in tr], den)
        return self._cache["traces"]

    def element_trace(self, u):
        u = self.coerce(u)
        tr, den = self._basis_traces()
        if self.mode == FLOAT:
            return float(np.dot(u, np.array(tr, dtype=np.float64) / den))
        return sum((a * t for a, t in zip(u, tr)), Fraction(0)) / den

    def element_det(self, u):
        """det P_u, the squared analogue of a norm-form value."""
        u = self.coerce(u)
        if self.mode == FLOAT:
            t = self.t_operator(u)
            p = 2.0 * (t @ t) - self.t_operator(self.square(u))
            return float(np.linalg.det(p))
        m, d = self._p_int(u)
        rows = m.tolist()
        sign = la._bareiss_forward(rows, self.dim, self.dim)
        if self.dim == 1:
            det_int = rows[0][0]
            return Fraction(det_int, d)
        if sign == 0:
            return Fraction(0)
        return Fraction(sign * rows[self.dim - 1][self.dim - 1],
                        d ** self.dim)

    def trace_form(self, u, v):
        """<u, v> = tr T_{u o v}."""
        w = self.product(u, v)
        return self.element_trace(w)

    def gram(self):
        """Gram matrix of the trace form on the basis."""
        if "gram" not in self._cache:
            tr, dtr = self._basis_traces()
            if self.mode == FLOAT:
                g = np.einsum("ijk,k->ij", self._float_tensor(),
                              np.array(tr, dtype=np.float64) / dtr)
                self._cache["gram"] = g
            else:
                c, _, den = self._operands()
                g = la.einsum("ijk,k->ij", c, la.asint(tr))
                f = Fraction(1, den * dtr)
                self._cache["gram"] = tuple(
                    tuple(f * int(x) for x in row) for row in g)
        return self._cache["gram"]

    def is_semisimple(self):
        """(nondegenerate trace form?, inertia (pos, neg, zero))."""
        g = self.gram()
        if self.mode == FLOAT:
            w = np.linalg.eigvalsh(np.asarray(g))
            scale = max(1.0, float(np.max(np.abs(w))))
            pos = int(np.sum(w > TOL.rel * scale))
            neg = int(np.sum(w < -TOL.rel * scale))
            zero = self.dim - pos - neg
            return zero == 0, (pos, neg, zero)
        pos, neg, zero = la.inertia(g)
        return zero == 0, (pos, neg, zero)

    def is_nondegenerate(self):
        """Whether v -> T_v is injective (no absolute zero divisors)."""
        if self.mode == FLOAT:
            ci = self._float_tensor()
            m = ci.transpose(0, 2, 1).reshape(self.dim, -1).T
            s = np.linalg.svd(m, compute_uv=False)
            return bool(s[-1] > TOL.rel * s[0])
        st, _ = self._t_stack()
        return la.int_rank(st.reshape(self.dim, -1).T) == self.dim

    # -- unity and inversion ---------------------------------------------

    def find_unity(self):
        """The unit element, or None when the algebra has no unit."""
        if "unity" in self._cache:
            return self._cache["unity"]
        dim = self.dim
        if self.mode == FLOAT:
            cf = self._float_tensor()
            a = cf.transpose(0, 2, 1).reshape(dim, -1).T
            rhs = np.eye(dim).reshape(-1)
            e, *_ = np.linalg.lstsq(a, rhs, rcond=None)
            resid = np.max(np.abs(a @ e - rhs))
            unity = e if resid <= TOL.rel * max(1.0, np.max(np.abs(cf))) \
                else None
        else:
            rows = []
            rhs = []
            for k in range(dim):
                for j in range(dim):
                    rows.append(tuple(self.c[i][j][k] for i in range(dim)))
                    rhs.append(Fraction(1 if k == j else 0))
            unity = la.solve_tall(rows, rhs)
        self._cache["unity"] = unity
        return unity

    def unity(self):
        e = self.find_unity()
        if e is None:
            raise NotUnitalError(f"{self.name} has no unit element")
        return e

    def invert(self, v):
        """Jordan inverse P_v^{-1} v; raises when P_v is singular."""
        e = self.unity()
        v = self.coerce(v)
        if self.mode == FLOAT:
            t = self.t_operator(v)
            p = 2.0 * (t @ t) - self.t_operator(self.square(v))
            d = np.linalg.det(p)
            scale = max(1.0, float(np.linalg.norm(p, "fro"))) ** self.dim
            if abs(d) <= TOL.det_floor * scale:
                raise NotInvertibleError(
                    "quadratic operator is numerically singular; no inverse "
                    "(invertibility fails exactly when det P_v = 0)")
            return np.linalg.solve(p, v)
        p = self.p_operator(v)
        x = la.solve(p, v)
        if x is None:
            raise NotInvertibleError(
                "quadratic operator P_v is singular, so v has no inverse")
        return x

    # -- the Jordan axioms -------------------------------------------------

    def random_element(self, rng, bound=9, den=1):
        if self.mode == FLOAT:
            return np.array([rng.uniform(-bound, bound)
                             for _ in range(self.dim)])
        return tuple(Fraction(rng.randint(-bound, bound),
                              rng.randint(1, den) if den > 1 else 1)
                     for _ in range(self.dim))

    def check_jordan(self, n_samples=5, seed=0) -> CheckResult:
        """Commutativity of the tensor plus the Jordan identity.

        The identity u o (u^2 o v) = u^2 o (u o v) is evaluated through the
        commutator [T_u, T_{u^2}] for u ranging over the basis and
        ``n_samples`` seeded random elements; the commutator columns give
        the residual for every basis vector v, and the same seeded
        elements are applied on the right as extra v samples.
        """
        rng = random.Random(seed)
        if self.mode == FLOAT:
            return self._check_jordan_float(n_samples, rng)
        ci, den = self._int_tensor()
        ja1 = Fraction(la.max_abs(la.lincomb(
            (1, ci), (-1, ci.transpose(1, 0, 2)))), den)
        ja1_witness = None
        if ja1:
            for i in range(self.dim):
                for j in range(self.dim):
                    row_ij, row_ji = self.c[i][j], self.c[j][i]
                    if row_ij != row_ji:
                        ja1_witness = (i, j)
                        break
                if ja1_witness:
                    break
        samples = [self.basis_element(i) for i in range(self.dim)]
        extra = [self.random_element(rng) for _ in range(n_samples)]
        samples += extra
        ja2 = Fraction(0)
        ja2_witness = None
        for idx, u in enumerate(samples):
            t, dt = self._t_int(u)
            t2, d2 = self._t_int(self.square(u))
            m = la.max_abs(la.bracket(t, t2))
            r = Fraction(m, dt * d2)
            if r > ja2:
                ja2, ja2_witness = r, idx
        residual = max(ja1, ja2)
        return CheckResult(
            name="jordan_axioms", passed=residual == 0,
            max_residual=residual, samples=len(samples), seed=seed,
            details={"commutativity_residual": ja1,
                     "jordan_identity_residual": ja2,
                     "commutativity_witness": ja1_witness,
                     "jordan_identity_witness": ja2_witness})

    def _check_jordan_float(self, n_samples, rng):
        cf = self._float_tensor()
        scale_c = max(1.0, float(np.max(np.abs(cf))))
        ja1 = float(np.max(np.abs(cf - cf.transpose(1, 0, 2))))
        samples = [np.eye(self.dim)[i] for i in range(self.dim)]
        samples += [np.array([rng.uniform(-9, 9) for _ in range(self.dim)])
                    for _ in range(n_samples)]
        ja2 = 0.0
        for u in samples:
            t = self.t_operator(u)
            t2 = self.t_operator(self.square(u))
            scale = (scale_c * max(1.0, float(np.max(np.abs(u))))) ** 3 \
                * self.dim ** 2
            r = float(np.max(np.abs(t @ t2 - t2 @ t))) / scale
            ja2 = max(ja2, r)
        residual = max(ja1 / scale_c, ja2)
        tol = TOL.rel + TOL.abs_floor
        return CheckResult(
            name="jordan_axioms", passed=residual <= tol,
            max_residual=residual, samples=len(samples),
            details={"commutativity_residual": ja1,
                     "jordan_identity_residual": ja2})

    def triple(self, u, v, w):
        """Jordan triple product {u, v, w}."""
        a = self.product(self.product(u, v), w)
        b = self.product(self.product(w, v), u)
        c = self.product(self.product(u, w), v)
        if self.mode == FLOAT:
            return a + b - c
        return tuple(x + y - z for x, y, z in zip(a, b, c))

    def check_fundamental(self, n_samples=4, seed=0) -> CheckResult:
        """P_{P_u v} = P_u P_v P_u on seeded random pairs.

        Rational mode compares scaled integer matrices, so larger sample
        counts stay affordable even when the intermediate entries
        outgrow machine words.
        """
        rng = random.Random(seed)
        if self.mode == FLOAT:
            worst = 0.0
            for _ in range(n_samples):
                u = self.random_element(rng)
                v = self.random_element(rng)
                pu = np.asarray(self.p_operator(u))
                pv = np.asarray(self.p_operator(v))
                lhs = np.asarray(self.p_operator(pu @ v))
                rhs = pu @ pv @ pu
                scale = max(1.0, float(np.max(np.abs(rhs))))
                worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
            return CheckResult(name="quadratic_fundamental",
                               passed=worst <= TOL.rel + TOL.abs_floor,
                               max_residual=worst, samples=n_samples,
                               seed=seed)
        worst = Fraction(0)
        for _ in range(n_samples):
            u = self.random_element(rng, bound=3)
            v = self.random_element(rng, bound=3)
            pu, dpu = self._p_int(u)
            pv, dpv = self._p_int(v)
            a = la.einsum("ab,b->a", pu, la.asint([int(x) for x in v]))
            # a = dpu * P_u(v), and pa = (dpu)^2 P_{P_u v} * dpa
            pa, dpa = self._p_int(la.fvec(a))
            rhs = la.einsum("ab,bc,cd->ad", pu, pv, pu)
            # lhs / (dpa dpu^2)  vs  rhs / (dpu^2 dpv)
            gl = dpa * dpu * dpu
            gr = dpu * dpu * dpv
            lcm = gl // math.gcd(gl, gr) * gr
            m = la.max_abs(la.lincomb((lcm // gl, pa), (-(lcm // gr), rhs)))
            worst = max(worst, Fraction(m, lcm))
        return CheckResult(name="quadratic_fundamental",
                           passed=worst == 0, max_residual=worst,
                           samples=n_samples, seed=seed)

    def _int_elements(self, rng, count, bound):
        return np.array([[rng.randint(-bound, bound)
                          for _ in range(self.dim)] for _ in range(count)],
                        dtype=np.int64)

    def check_triple(self, n_samples=100, seed=0) -> CheckResult:
        """The induced triple product and its operator identities.

        With t(u,v,w) = (u o v) o w + (w o v) o u - (u o w) o v and the
        operator L(u,v) : w -> t(u,v,w), seeded samples verify

          * outer symmetry       t(u,v,w) = t(w,v,u);
          * operator form        L(u,v) = [T_u, T_v] + T_{u o v};
          * its split            L(u,v) + L(v,u) = 2 T_{u o v},
                                 L(u,v) - L(v,u) = 2 [T_u, T_v];
          * trace-form transpose <t(u,v,w), z> = <w, t(v,u,z)>;
          * the commutation rule
              [L(w,z), L(u,v)] = L(t(w,z,u), v) - L(u, t(z,w,v)).

        Rational mode compares integer tensors and is exact.
        """
        rng = random.Random(seed)
        if self.mode == FLOAT:
            return self._check_triple_float(n_samples, rng, seed)
        c, st, dc = self._operands()
        U, V, W, Z = (self._int_elements(rng, n_samples, 3)
                      for _ in range(4))

        def prod(a, b):
            return la.einsum("si,sj,ijk->sk", a, b, c)

        def trip(a, b, w):
            return la.lincomb((1, prod(prod(a, b), w)),
                              (1, prod(prod(w, b), a)),
                              (-1, prod(prod(a, w), b)))

        def lmat(a, b):
            # columns of L(a, b): images of the basis vectors
            p1 = la.einsum("sl,lkm->skm", prod(a, b), c)
            q = la.einsum("sj,kjl->skl", b, c)
            p2 = la.einsum("skl,si,lim->skm", q, a, c)
            r = la.einsum("si,ikl->skl", a, c)
            p3 = la.einsum("skl,sj,ljm->skm", r, b, c)
            return la.lincomb((1, p1), (1, p2), (-1, p3)).transpose(0, 2, 1)

        def residual(*terms):
            return la.max_abs(la.lincomb(*terms))

        worsts = {}
        tuvw = trip(U, V, W)
        worsts["outer_symmetry"] = Fraction(
            residual((1, tuvw), (-1, trip(W, V, U))), dc * dc)

        luv, lvu = lmat(U, V), lmat(V, U)
        comm = la.bracket(la.einsum("si,ikj->skj", U, st),
                          la.einsum("si,ikj->skj", V, st))
        t_uv = la.einsum("sl,lkj->skj", prod(U, V), st)
        worsts["operator_form"] = Fraction(
            residual((1, luv), (-1, comm), (-1, t_uv)), dc * dc)
        worsts["symmetric_part"] = Fraction(
            residual((1, luv), (1, lvu), (-2, t_uv)), dc * dc)
        worsts["antisymmetric_part"] = Fraction(
            residual((1, luv), (-1, lvu), (-2, comm)), dc * dc)

        g_int, dg = la.clear_denominators(self.gram())
        g_arr = la.asint(g_int)
        lhs = la.einsum("sm,mq,sq->s", tuvw, g_arr, Z)
        rhs = la.einsum("sm,mq,sq->s", trip(V, U, Z), g_arr, W)
        worsts["trace_form_transpose"] = Fraction(
            residual((1, lhs), (-1, rhs)), dc * dc * dg)

        # [L(w,z), L(u,v)] = L(t(w,z,u), v) - L(u, t(z,w,v)); every term
        # carries dc^4
        lwz = lmat(W, Z)
        a = la.einsum("sab,sb->sa", lwz, U)
        b = la.einsum("sab,sb->sa", lmat(Z, W), V)
        worsts["commutation_rule"] = Fraction(
            residual((1, la.bracket(lwz, luv)), (-1, lmat(a, V)),
                     (1, lmat(U, b))), dc ** 4)

        worst = max(worsts.values())
        return CheckResult(
            name="triple_identities", passed=worst == 0,
            max_residual=worst, samples=n_samples, seed=seed,
            details={k: v for k, v in worsts.items()})

    def _check_triple_float(self, n_samples, rng, seed):
        cf = self._float_tensor()
        n = self.dim
        worst = 0.0
        for _ in range(n_samples):
            u, v, w, z = (self.random_element(rng, bound=2)
                          for _ in range(4))
            t1 = self.triple(u, v, w)
            t2 = self.triple(w, v, u)
            scale = (max(1.0, float(np.max(np.abs(cf)))) *
                     max(1.0, *(float(np.max(np.abs(x)))
                                for x in (u, v, w, z)))) ** 3 * n ** 2
            worst = max(worst, float(np.max(np.abs(t1 - t2))) / scale)
            tu = np.asarray(self.t_operator(u))
            tv = np.asarray(self.t_operator(v))
            op = tu @ tv - tv @ tu + np.asarray(
                self.t_operator(self.product(u, v)))
            cols = np.stack([self.triple(u, v, np.eye(n)[k])
                             for k in range(n)], axis=1)
            worst = max(worst, float(np.max(np.abs(cols - op))) / scale)
        tol = TOL.rel + TOL.abs_floor
        return CheckResult(name="triple_identities", passed=worst <= tol,
                           max_residual=worst, samples=n_samples,
                           seed=seed)

    def check_self_adjoint(self, n_samples=100, seed=0) -> CheckResult:
        """T_v and P_v are self-adjoint for the trace form.

        T is linear in v, so symmetry of G T_{b_i} for every basis
        vector settles it for all v; P is quadratic and is sampled.
        """
        rng = random.Random(seed)
        if self.mode == FLOAT:
            g = np.asarray(self.gram())
            st = np.stack([np.asarray(self.t_operator(np.eye(self.dim)[i]))
                           for i in range(self.dim)])
            gt = np.einsum("ab,ibc->iac", g, st)
            scale = max(1.0, float(np.max(np.abs(gt))))
            worst = float(np.max(np.abs(gt - gt.transpose(0, 2, 1))))
            worst /= scale
            for _ in range(n_samples):
                u = self.random_element(rng, bound=3)
                gp = g @ np.asarray(self.p_operator(u))
                sc = max(1.0, float(np.max(np.abs(gp))))
                worst = max(worst,
                            float(np.max(np.abs(gp - gp.T))) / sc)
            tol = TOL.rel + TOL.abs_floor
            return CheckResult(name="operators_self_adjoint",
                               passed=worst <= tol, max_residual=worst,
                               samples=self.dim + n_samples, seed=seed)
        g_int, dg = la.clear_denominators(self.gram())
        g_arr = la.asint(g_int)
        _, st, dt = self._operands()
        gt = la.einsum("ab,ibc->iac", g_arr, st)
        worst = Fraction(la.max_abs(la.lincomb(
            (1, gt), (-1, gt.transpose(0, 2, 1)))), dg * dt)
        for _ in range(n_samples):
            u = self.random_element(rng, bound=3)
            p, dp = self._p_int(u)
            gp = la.einsum("ab,bc->ac", g_arr, p)
            worst = max(worst, Fraction(
                la.max_abs(la.lincomb((1, gp), (-1, gp.T))), dg * dp))
        return CheckResult(name="operators_self_adjoint",
                           passed=worst == 0, max_residual=worst,
                           samples=self.dim + n_samples, seed=seed)

    def check_inverse_identities(self, n_samples=20, seed=0) -> CheckResult:
        """Inverse laws through the quadratic operator.

        For invertible v with w = v^{-1}: P_v w = v, P_w = P_v^{-1},
        and T_w = T_v P_v^{-1} = P_v^{-1} T_v.  Exact in rational mode;
        singular draws are skipped (they have no inverse by definition).
        """
        rng = random.Random(seed)
        n = self.dim
        if self.mode == FLOAT:
            worst = 0.0
            done = 0
            for _ in range(4 * n_samples):
                if done == n_samples:
                    break
                v = self.random_element(rng, bound=3)
                try:
                    w = self.invert(v)
                except NotInvertibleError:
                    continue
                done += 1
                pv = np.asarray(self.p_operator(v))
                pw = np.asarray(self.p_operator(w))
                tw = np.asarray(self.t_operator(w))
                tv = np.asarray(self.t_operator(v))
                sc = max(1.0, float(np.max(np.abs(pv))))
                worst = max(
                    worst,
                    float(np.max(np.abs(pv @ w - v))) / sc,
                    float(np.max(np.abs(pw @ pv - np.eye(n)))) / sc,
                    float(np.max(np.abs(tw @ pv - tv))) / sc,
                    float(np.max(np.abs(pv @ tw - tv))) / sc)
            tol = TOL.rel + TOL.abs_floor
            return CheckResult(name="inverse_identities",
                               passed=worst <= tol, max_residual=worst,
                               samples=done, seed=seed)
        worst = Fraction(0)
        done = 0
        for _ in range(4 * n_samples):
            if done == n_samples:
                break
            v = self.random_element(rng, bound=3)
            try:
                w = self.invert(v)
            except NotInvertibleError:
                continue
            done += 1
            y, dw = la.clear_denominators_vec(w)
            pv, dpv = self._p_int(v)
            # P_v w = v  <=>  pv . y = dpv dw v
            r1 = la.einsum("ab,b->a", pv, la.asint(y))
            m1 = la.max_abs(la.lincomb(
                (1, r1), (-dpv * dw, la.asint([int(x) for x in v]))))
            worst = max(worst, Fraction(m1, dpv * dw))
            # P_w P_v = I  <=>  py . pv = dpy dw^2 dpv I
            py, dpy = self._p_int(la.fvec(y))
            pp = la.einsum("ab,bc->ac", py, pv)
            full = dpy * dw * dw * dpv
            m2 = la.max_abs(la.lincomb((1, pp), (-full, np.eye(n, dtype=int))))
            worst = max(worst, Fraction(m2, full))
            # T_w P_v = T_v and P_v T_w = T_v, aligned on integers
            ty, dty = self._t_int(la.fvec(y))
            tv_i, dtv = self._t_int(v)
            scale_r = dty * dw * dpv // dtv
            for lhs in (la.einsum("ab,bc->ac", ty, pv),
                        la.einsum("ab,bc->ac", pv, ty)):
                m3 = la.max_abs(la.lincomb((1, lhs), (-scale_r, tv_i)))
                worst = max(worst, Fraction(m3, dty * dw * dpv))
        return CheckResult(name="inverse_identities", passed=worst == 0,
                           max_residual=worst, samples=done, seed=seed)

    # -- isotopes -----------------------------------------------------------

    def isotope(self, gamma):
        """Mutation u o_G v = u o (v o G) + v o (u o G) - (u o v) o G."""
        gamma = self.coerce(gamma)
        if self.mode == FLOAT:
            cf = self._float_tensor()
            tg = np.einsum("i,ijk->kj", gamma, cf)
            w = np.einsum("ikj,j->ik", cf.transpose(0, 2, 1), gamma)
            term1 = np.einsum("ika,ja->ijk", cf.transpose(0, 2, 1), w)
            term3 = np.einsum("ka,ija->ijk", tg, cf)
            new_c = term1 + term1.transpose(1, 0, 2) - term3
        else:
            c, st, den = self._operands()
            gi, dg = la.clear_denominators_vec(gamma)
            garr = la.asint(gi)
            w = la.einsum("ikj,j->ik", st, garr)
            tg = la.einsum("i,ikj->kj", garr, st)
            term1 = la.einsum("ika,ja->ijk", st, w)
            term3 = la.einsum("ka,ija->ijk", tg, c)
            new_int = la.lincomb((1, term1), (1, term1.transpose(1, 0, 2)),
                                 (-1, term3))
            d = Fraction(1, den * den * dg)
            new_c = [[[d * int(x) for x in row] for row in plane]
                     for plane in new_int]
        return JordanAlgebra(new_c, mode=self.mode,
                             name=f"{self.name}^gamma", labels=self.labels,
                             meta={**self.meta, "isotope_of": self.name})

    # -- center and decomposition -------------------------------------------

    def _commutator_columns(self, z):
        """Integer matrix whose column i is vec([T_{b_i}, T_z])."""
        _, st, _ = self._operands()
        tz, _ = self._t_int(z)
        return la.bracket(st, tz).reshape(self.dim, -1).T

    def center(self, seed=0):
        """Exact basis of {v : [T_v, T_u] = 0 for all u}."""
        if "center" in self._cache:
            return self._cache["center"]
        if self.mode == FLOAT:
            raise JordanError("center extraction runs in rational mode")
        rng = random.Random(seed)
        z = self.random_element(rng, bound=7)
        rows = [tuple(Fraction(int(x)) for x in r)
                for r in self._commutator_columns(z)]
        cands = la.null_space_tall(rows)
        for j in range(self.dim):
            if not cands:
                break
            tj, _ = self._t_int(self.basis_element(j))
            small = []
            for w in cands:
                tw, _ = self._t_int(w)
                small.append(la.bracket(tw, tj).reshape(-1))
            if not any(col.any() for col in small):
                continue
            coeff_rows = [la.fvec(r) for r in zip(*small)]
            combos = la.null_space(coeff_rows)
            cands = [
                tuple(sum((a * w[t] for a, w in zip(combo, cands)),
                          Fraction(0)) for t in range(self.dim))
                for combo in combos]
        self._cache["center"] = cands
        return cands

    def decompose(self, seed=0, max_attempts=8):
        """Split a semisimple algebra into simple ideals.

        Returns a list of (ideal, basis) pairs where ``basis`` holds the
        ideal's basis vectors in the ambient coordinates.  Uses a generic
        central element's minimal polynomial; rational factorizations give
        exact ideals, irrational real spectra fall back to float mode.
        """
        ok, sig = self.is_semisimple()
        if not ok:
            raise NotSemisimpleError(
                f"{self.name}: trace form is degenerate {sig}; "
                "decomposition into simple ideals needs semisimplicity")
        e = self.unity()
        zc = self.center(seed=seed)
        m = len(zc)
        ambient = [self.basis_element(i) for i in range(self.dim)]
        if m == 1:
            return [(self, ambient)]  # the only central idempotent is e
        zmat = [tuple(w[r] for w in zc) for r in range(self.dim)]
        rng = random.Random(seed + 1)
        for attempt in range(max_attempts):
            coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(m)]
            z = tuple(sum((a * w[r] for a, w in zip(coeffs, zc)),
                          Fraction(0)) for r in range(self.dim))
            # coordinates of powers of z inside the center
            powers = [la.solve_tall(zmat, self.coerce(e))]
            cur = z
            for _ in range(m):
                powers.append(la.solve_tall(zmat, cur))
                cur = self.product(cur, z)
            if any(p is None for p in powers):
                raise JordanError("center is not closed under products")
            reduced, pivots = la.rref(powers[:-1])
            if len(pivots) < m:
                continue  # z not generic, try again
            rel = la.solve_tall([tuple(p[i] for p in powers[:-1])
                                 for i in range(m)], powers[-1])
            # minimal polynomial x^m - sum rel_k x^k
            ideals = self._split_by_min_poly(z, rel, zc, zmat)
            if ideals is not None:
                return ideals
        return self._decompose_float(seed)

    def _split_by_min_poly(self, z, rel, zc, zmat):
        import sympy

        m = len(zc)
        x = sympy.Symbol("x")
        poly = x ** m - sum(sympy.Rational(rel[k].numerator,
                                           rel[k].denominator) * x ** k
                            for k in range(m))
        factors = sympy.factor_list(sympy.Poly(poly, x))[1]
        if any(mult > 1 for _, mult in factors):
            return None
        if len(factors) == 1:
            # the center is a field, so the algebra is already simple
            return [(self, [self.basis_element(i)
                            for i in range(self.dim)])]
        # exact path requires each factor to be R-irreducible
        for f, _ in factors:
            deg = f.degree()
            if deg > 2:
                return None
            if deg == 2:
                c2, c1, c0 = [Fraction(str(v)) for v in f.all_coeffs()]
                if c1 * c1 - 4 * c2 * c0 > 0:
                    return None
        # T_z restricted to the center, in center coordinates
        tcols = [la.solve_tall(zmat, self.product(z, w)) for w in zc]
        a = tuple(tuple(tcols[j][i] for j in range(m)) for i in range(m))
        blocks = []
        for f, _ in factors:
            cs = [Fraction(str(v)) for v in f.all_coeffs()]
            fa = None
            for coeff in cs:
                fa = la.mat_scale(coeff, la.identity(m)) if fa is None \
                    else la.mat_add(la.mat_mul(fa, a),
                                    la.mat_scale(coeff, la.identity(m)))
            blocks.append(la.null_space(fa))
        if sum(len(b) for b in blocks) != m:
            return None
        # unit components along the block decomposition of the center
        cols = [v for b in blocks for v in b]
        bigmat = [tuple(col[i] for col in cols) for i in range(m)]
        ecoords = la.solve_tall(zmat, self.coerce(self.unity()))
        comp = la.solve(bigmat, ecoords)
        if comp is None:
            return None
        out = []
        at = 0
        for b in blocks:
            w = [Fraction(0)] * m
            for v in b:
                for i in range(m):
                    w[i] += comp[at] * v[i]
                at += 1
            eps = tuple(sum((w[i] * zc[i][r] for i in range(m)), Fraction(0))
                        for r in range(self.dim))
            if self.product(eps, eps) != tuple(eps):
                return None
            sub = self._ideal_of_idempotent(eps)
            if sub is None:
                return None
            out.append(sub)
        # verify pairwise annihilation
        for i in range(len(out)):
            for j in range(i):
                for u in out[i][1]:
                    for v in out[j][1]:
                        if any(self.product(u, v)):
                            return None
        return out

    def _ideal_of_idempotent(self, eps):
        p = self.p_operator(eps)
        cols = [tuple(row) for row in zip(*p)]
        ints = [la.clear_denominators_vec(cv)[0] for cv in cols]
        idx, r = la.independent_rows(ints)
        basis = [cols[i] for i in idx]
        bmat = [tuple(b[i] for b in basis) for i in range(self.dim)]
        sub_c = []
        for u in basis:
            row = []
            for v in basis:
                w = la.solve_tall(bmat, self.product(u, v))
                if w is None:
                    return None
                row.append(w)
            sub_c.append(row)
        sub = JordanAlgebra(sub_c, mode=RATIONAL,
                            name=f"{self.name}[ideal]",
                            meta={"parent": self.name})
        return sub, basis

    def _decompose_float(self, seed):
        rng = random.Random(seed + 101)
        zc = self.center(seed=seed)
        m = len(zc)
        zmat = np.array([[float(w[r]) for w in zc]
                         for r in range(self.dim)])
        coeffs = [rng.randint(-9, 9) for _ in range(m)]
        z = zmat @ np.array(coeffs, dtype=float)
        jf = self.to_float()
        tz = jf.t_operator(z)
        # T_z restricted to the center in center coordinates
        a, *_ = np.linalg.lstsq(zmat, tz @ zmat, rcond=None)
        evals = np.linalg.eigvals(a)
        clusters = []
        for lam in evals:
            if lam.imag < -1e-9:
                continue
            if lam.imag > 1e-9:
                clusters.append((lam, np.conj(lam)))
            else:
                clusters.append((lam.real,))
        e = np.asarray(jf.unity())
        out = []
        for cl in clusters:
            proj = np.eye(self.dim, dtype=complex)
            for other in clusters:
                if other is cl:
                    continue
                for mu in other:
                    proj = proj @ (tz - mu * np.eye(self.dim)) / (cl[0] - mu)
            if len(cl) == 2:
                proj = proj @ (tz - cl[1] * np.eye(self.dim)) \
                    / (cl[0] - cl[1])
                proj = 2 * proj.real
            else:
                proj = proj.real
            eps = proj @ e
            p = jf.p_operator(eps)
            u, s, vt = np.linalg.svd(p)
            k = int(np.sum(s > TOL.rel * s[0]))
            basis = [u[:, i] for i in range(k)]
            bmat = np.stack(basis, axis=1)
            sub_c = np.empty((k, k, k))
            for i in range(k):
                for j in range(k):
                    w = jf.product(basis[i], basis[j])
                    sub_c[i, j], *_ = np.linalg.lstsq(bmat, w, rcond=None)
            out.append((JordanAlgebra(sub_c, mode=FLOAT,
                                      name=f"{self.name}[ideal]",
                                      meta={"parent": self.name,
                                            "exact": False}), basis))
        return out


def direct_sum(algebras, name=None):
    """Block direct sum; factors multiply independently and cross terms vanish."""
    if not algebras:
        raise ValueError("direct sum needs at least one factor")
    mode = algebras[0].mode
    if any(j.mode != mode for j in algebras):
        raise ValueError("direct sum factors must share one arithmetic mode")
    dims = [j.dim for j in algebras]
    dim = sum(dims)
    if mode == FLOAT:
        c = np.zeros((dim, dim, dim))
        at = 0
        for j in algebras:
            c[at:at + j.dim, at:at + j.dim, at:at + j.dim] = \
                j._float_tensor()
            at += j.dim
    else:
        zero = Fraction(0)
        c = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
        at = 0
        for jal in algebras:
            for i in range(jal.dim):
                for jj in range(jal.dim):
                    row = jal.c[i][jj]
                    tgt = c[at + i][at + jj]
                    for k in range(jal.dim):
                        tgt[at + k] = row[k]
            at += jal.dim
    labels = []
    for t, j in enumerate(algebras):
        labels += [f"f{t}.{lab}" for lab in j.labels]
    return JordanAlgebra(
        c, mode=mode,
        name=name or "(+) ".join(j.name for j in algebras),
        labels=labels,
        meta={"factors": [j.name for j in algebras],
              "factor_dims": dims})
