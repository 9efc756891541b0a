"""Commutative structure-constant algebras and the Jordan-algebra toolkit.

An algebra is a tensor c with (b_i o b_j) = sum_k c[i][j][k] b_k over a
fixed basis, in one of two modes.  A rational algebra stores integers
over one denominator and certifies each identity exactly; a float
algebra (``mode=FLOAT``, e.g. from :meth:`JordanAlgebra.to_float`) holds
float64 coefficients.  Each identity has one implementation for both:
it runs on kernel arrays from :meth:`JordanAlgebra._operands`, integers
over a common denominator or float64 over 1, and the mode decides only
that dtype and the zero test of :meth:`JordanAlgebra._residual`.

The multiplication operator of u is T_u = u o (.), the quadratic operator
is P_u = 2 T_u^2 - T_{u^2}, the element determinant and trace are those of
P_u and T_u, and the trace form is <u, v> = tr T_{u o v}.  The Jordan
axioms are commutativity and u o (u^2 o v) = u^2 o (u o v); the second is
checked through the operator commutator [T_u, T_{u^2}], whose columns
cover every basis choice of v at once.  The sampled checks draw their
elements as the rows of one stack and evaluate each identity on the
whole stack, one residual per row.

Exact computations clear denominators and run through the one integer
kernel of :mod:`jordanaff.exactla`, which picks float64 (exact below
2**53, for large contractions through BLAS), int64 or Python big
integers from a bound on each result and never wraps or refuses an input
for its size; float64 operands pass through it in float64, unscanned.
"""

from __future__ import annotations

import functools
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
    """A finite-dimensional commutative algebra over R in a fixed basis.

    ``c`` is the nested tensor c[i][j][k]: Fractions, ints or rational
    strings (never floats), or finite floats for ``mode=FLOAT``; this is
    the one parser of such input, and it parses each distinct entry once
    (ValueError or TypeError on a bad one).  Internal producers pass
    ``kernel=(array, den)`` with c == array / den instead.  Either way
    the algebra stores only that kernel pair, in lowest terms (float64
    over 1 for a float algebra); :attr:`c` is derived from it.
    """

    def __init__(self, c=None, mode=RATIONAL, name="algebra", labels=None,
                 meta=None, *, kernel=None):
        if mode not in (RATIONAL, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.name = name
        self.meta = dict(meta or {})
        dim = len(c) if kernel is None else len(kernel[0])
        if dim == 0:
            raise ValueError("algebra dimension must be at least 1")
        if kernel is not None:
            ci, den = kernel
        elif any(len(ci) != dim or any(len(cij) != dim for cij in ci)
                 for ci in c):
            raise DimensionMismatchError("structure tensor must be cubic")
        elif mode == FLOAT:
            ci, den = np.asarray(c, dtype=np.float64), 1
            bad = ci[~np.isfinite(ci)]
            if bad.size:
                raise ValueError(f"structure constant {bad[0]} is not finite")
        else:
            # parse each distinct entry once; keyed by type too, so a
            # float 1.0 is refused even where an int 1 came first
            index = {}
            codes = [index.setdefault((type(x), x), len(index))
                     for ci in c for cij in ci for x in cij]
            ints, den = la.clear_denominators_vec(
                la.fvec(x for _, x in index))
            ci = la.asint(ints)[codes].reshape(dim, dim, dim)
        if ci.shape != (dim, dim, dim):
            raise DimensionMismatchError(
                f"structure tensor must be cubic, got {ci.shape}")
        if mode == RATIONAL:
            ci, den = la.lowest_terms(la.asint(ci), den)
        self._kernel = (ci, den)
        self._cmax = la.max_abs(ci)
        # the zero test: a residual passes when it is at most this; a
        # check over no samples reports the zero residual
        self._tol = TOL.rel + TOL.abs_floor if mode == FLOAT else 0
        self._zero = 0.0 if mode == FLOAT else Fraction(0)
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(
            f"b{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise DimensionMismatchError("one label per basis element")
        self._cache = {}

    @property
    def c(self):
        """The structure tensor at the API edge, made from the kernel
        pair on first read: nested tuples of Fractions, or the float64
        array of a float algebra."""
        if "c" not in self._cache:
            self._cache["c"] = self._out(*self._kernel)
        return self._cache["c"]

    # -- kernel arrays and the API edge -----------------------------------

    def _int_tensor(self):
        """(ci, den) with c == ci / den in lowest terms: ci is int64 or
        object-dtype for a rational algebra, the float64 tensor over den
        1 for a float one."""
        return self._kernel

    def _t_stack(self):
        """Stack S with S[i] = T_{b_i} (scaled by the tensor den)."""
        if "tstack" not in self._cache:
            ci, den = self._kernel
            self._cache["tstack"] = (ci.transpose(0, 2, 1).copy(), den)
        return self._cache["tstack"]

    def _operands(self):
        """Kernel operands (ci, S) with their cached max-abs, and the den."""
        ci, den = self._kernel
        st, _ = self._t_stack()
        m = self._cmax
        return (ci, m), (st, m), den

    def coerce(self, u):
        """Normalize an element to the mode's canonical representation."""
        if len(u) != self.dim:
            raise DimensionMismatchError(
                f"element of length {len(u)} in algebra of dimension "
                f"{self.dim}")
        if self.mode == RATIONAL:
            return la.fvec(u)
        return np.asarray(u, dtype=np.float64)

    def _elem(self, u):
        """Kernel form (x, dx) of an element, with u == x / dx."""
        u = self.coerce(u)
        if self.mode == FLOAT:
            return u, 1
        ints, den = la.clear_denominators_vec(u)
        return la.asint(ints), den

    def _out(self, arr, den):
        """API form of the kernel array arr / den: nested tuples of
        Fractions for a rational algebra, the float64 array itself for a
        float one (whose den is 1)."""
        if self.mode == FLOAT:
            return arr
        # one Fraction per distinct value; .tolist() gives Python ints,
        # so Fraction(v, den) never wraps
        frac = {v: Fraction(v, den) for v in set(arr.ravel().tolist())}

        def nest(rows):
            if rows and isinstance(rows[0], list):
                return tuple(nest(r) for r in rows)
            return tuple([frac[v] for v in rows])
        return nest(arr.tolist())

    def _residual(self, *terms):
        """The residuals of sum c * arr / den over ``(c, arr, den)``
        terms, one per row (axis 0) of the stacks ``arr``, as a list.

        ``arr`` may be an ``(array, m)`` pair as in :func:`exactla.einsum`,
        so that nothing the kernel already bounded is scanned again; c
        and den are ints or object arrays of one int per row.  One
        :func:`exactla.lincomb` over each row's least common denominator
        d gives r.  A rational algebra reports max-abs(r) / d of each
        row, exactly; a float one reports max-abs(r) relative to the
        largest of that row's aligned terms (at least 1), which the zero
        test holds to ``TOL``.
        """
        d = functools.reduce(_lcm, (den for _, _, den in terms))
        scaled = [(c * (d // den), op) for c, op, den in terms]
        r = _row_max(la.lincomb(*scaled))
        if self.mode == FLOAT:
            scale = functools.reduce(np.maximum, (abs(c) * _row_max(op)
                                                  for c, op in scaled))
            return (r / np.maximum(1.0, scale)).tolist()
        dens = d.tolist() if isinstance(d, np.ndarray) else [d] * len(r)
        return [Fraction(a, b) for a, b in zip(r.tolist(), dens)]

    def _worst(self, *terms):
        """The largest of the :meth:`_residual` rows; the zero residual
        for an empty stack."""
        return max(self._residual(*terms), default=self._zero)

    def zero(self):
        return self.coerce([0] * self.dim)

    def basis_element(self, i):
        return self.coerce([1 if j == i else 0 for j in range(self.dim)])

    def to_float(self):
        """Float-mode copy of this algebra, built once and cached."""
        if "float" not in self._cache:
            ci, den = self._kernel
            # Python int division rounds each entry of ci / den correctly
            self._cache["float"] = JordanAlgebra(
                kernel=(np.asarray(ci.astype(object) / den,
                                   dtype=np.float64), 1), mode=FLOAT,
                name=self.name, labels=self.labels, meta=dict(self.meta))
        return self._cache["float"]

    # -- products and operators -----------------------------------------

    # The kernel forms below run over a stack: the elements are the rows
    # of x / dx, where x is an (s, n) array and dx one int for the stack
    # or an object array of one int per row.  The result is an (s, n) or
    # (s, n, n) stack over the den that follows from dx in the same way.

    def _prod_int(self, x, dx, y, dy):
        """Kernel form of the products of the rows of x / dx and y / dy."""
        c, _, den = self._operands()
        return la.einsum("si,sj,ijk->sk", x, y, c), den * dx * dy

    def _t_int(self, x, dx):
        """Kernel form (stack, den) of T_u for the rows u of x / dx."""
        _, st, den = self._operands()
        return la.einsum("si,ikj->skj", x, st), den * dx

    def _p_int(self, x, dx):
        """Kernel form of P_u = 2 T_u^2 - T_{u^2} for the rows u of
        x / dx; both terms carry the same den, (tensor den * dx)^2.
        u^2 is T_u u.  Only x and T_u are scanned: every later operand
        reaches the kernel as ``(array, m)`` with the bound m the kernel
        put on it.
        """
        n = self.dim
        _, (st, ms), _ = self._operands()
        x = (x, la.max_abs(x))
        t, dt = self._t_int(x, dx)
        t = (t, la.max_abs(t))
        x2 = (la.einsum("skj,sj->sk", t, x), n * t[1] * x[1])
        tu2 = (la.einsum("si,ikj->skj", x2, (st, ms)), n * x2[1] * ms)
        tt = (la.einsum("sab,sbc->sac", t, t), n * t[1] * t[1])
        return la.lincomb((2, tt), (-1, tu2)), dt * dt

    def _single(self, kernel_op, *elements):
        """API form of a stack kernel op on single elements."""
        args = []
        for u in elements:
            x, dx = self._elem(u)
            args += [x[None], dx]
        arr, den = kernel_op(*args)
        return self._out(arr[0], den)

    def product(self, u, v):
        return self._single(self._prod_int, u, v)

    def square(self, u):
        return self.product(u, u)

    def t_operator(self, u):
        """Matrix of v -> u o v in the basis."""
        return self._single(self._t_int, u)

    def p_operator(self, u):
        """Quadratic operator P_u = 2 T_u^2 - T_{u^2}."""
        return self._single(self._p_int, u)

    # -- traces, determinants, the trace form ----------------------------

    def _basis_traces(self):
        """tr T_{b_i} for each i, as a list of numerators plus the den."""
        if "traces" not in self._cache:
            c, _, den = self._operands()
            self._cache["traces"] = (la.einsum("ijj->i", c).tolist(), den)
        return self._cache["traces"]

    def element_trace(self, u):
        tr, den = self._basis_traces()
        return sum((a * t for a, t in zip(self.coerce(u), tr)),
                   Fraction(0)) / den

    def element_det(self, u):
        """det P_u, the squared analogue of a norm-form value."""
        x, dx = self._elem(u)
        (m,), d = self._p_int(x[None], dx)
        if self.mode == FLOAT:
            return float(np.linalg.det(m))
        return Fraction(la.det(m), d ** self.dim)

    def trace_form(self, u, v):
        """<u, v> = tr T_{u o v}."""
        w = self.product(u, v)
        return self.element_trace(w)

    def _gram_int(self):
        """Kernel form (G, den) of the trace-form Gram matrix."""
        if "gram_int" not in self._cache:
            c, _, den = self._operands()
            tr = la.einsum("ijj->i", c)
            self._cache["gram_int"] = (la.einsum("ijk,k->ij", c, tr),
                                       den * den)
        return self._cache["gram_int"]

    def gram(self):
        """Gram matrix of the trace form on the basis."""
        if "gram" not in self._cache:
            self._cache["gram"] = self._out(*self._gram_int())
        return self._cache["gram"]

    def is_semisimple(self):
        """(nondegenerate trace form?, inertia (pos, neg, zero))."""
        g, _ = self._gram_int()
        if self.mode == FLOAT:
            w = np.linalg.eigvalsh(g)
            scale = max(1.0, float(np.max(np.abs(w))))
            pos = int(np.sum(w > TOL.rel * scale))
            neg = int(np.sum(w < -TOL.rel * scale))
            zero = self.dim - pos - neg
            return zero == 0, (pos, neg, zero)
        pos, neg, zero = la.inertia(g)
        return zero == 0, (pos, neg, zero)

    def is_nondegenerate(self):
        """Whether v -> T_v is injective (no absolute zero divisors)."""
        st, _ = self._t_stack()
        m = st.reshape(self.dim, -1).T
        if self.mode == FLOAT:
            s = np.linalg.svd(m, compute_uv=False)
            return bool(s[-1] > TOL.rel * s[0])
        return la.int_rank(m) == self.dim

    # -- unity and inversion ---------------------------------------------

    def find_unity(self):
        """The unit element, or None when the algebra has no unit."""
        if "unity" in self._cache:
            return self._cache["unity"]
        dim = self.dim
        st, den = self._t_stack()
        a = st.reshape(dim, -1).T
        rhs = np.eye(dim, dtype=np.int64).reshape(-1)
        if self.mode == FLOAT:
            e, *_ = np.linalg.lstsq(a, rhs, rcond=None)
            resid = np.max(np.abs(a @ e - rhs))
            sol = (e, 1) if resid <= TOL.rel * max(1.0, la.max_abs(st)) \
                else None
        else:
            sol = la.solve(a, la.lincomb((den, rhs)))
        self._cache["unity_int"] = sol
        self._cache["unity"] = None if sol is None else self._out(*sol)
        return self._cache["unity"]

    def unity(self):
        e = self.find_unity()
        if e is None:
            raise NotUnitalError(f"{self.name} has no unit element")
        return e

    def _unit_int(self):
        """Kernel form (e, de) of the unit; raises as :meth:`unity`."""
        self.unity()
        return self._cache["unity_int"]

    def _invert_int(self, x, dx, p, dp):
        """Kernel form of the Jordan inverse P_v^{-1} v of v = x / dx,
        given P_v = p / dp; raises when P_v is singular."""
        self.unity()
        rhs = la.lincomb((dp // dx, x))
        if self.mode == FLOAT:
            d = np.linalg.det(p)
            scale = max(1.0, float(np.linalg.norm(p, "fro"))) ** self.dim
            if abs(d) <= TOL.det_floor * scale:
                raise NotInvertibleError(
                    "quadratic operator is numerically singular; no inverse "
                    "(invertibility fails exactly when det P_v = 0)")
            return np.linalg.solve(p, rhs), 1
        sol = la.solve(p, rhs)
        if sol is None:
            raise NotInvertibleError(
                "quadratic operator P_v is singular, so v has no inverse")
        return sol

    def invert(self, v):
        """Jordan inverse P_v^{-1} v; raises when P_v is singular."""
        x, dx = self._elem(v)
        (p,), dp = self._p_int(x[None], dx)
        return self._out(*self._invert_int(x, dx, p, dp))

    # -- the Jordan axioms -------------------------------------------------
    #
    # Each check below is the one implementation of its identity.  Every
    # residual goes through _residual and every verdict is
    # ``residual <= self._tol``: exact zero for a rational algebra, TOL
    # for a float one.  Both modes draw the same seeded integer samples,
    # and each check runs them as one stack, with one residual per sample.

    def _int_elements(self, rng, count, bound):
        """``count`` seeded integer elements, the rows of an int64 array."""
        return np.array([[rng.randint(-bound, bound)
                          for _ in range(self.dim)] for _ in range(count)],
                        dtype=np.int64).reshape(count, self.dim)

    def random_element(self, rng, bound=9):
        return self.coerce(self._int_elements(rng, 1, bound)[0])

    def check_jordan(self, n_samples=5, seed=0) -> CheckResult:
        """Commutativity of the tensor plus the Jordan identity.

        The identity u o (u^2 o v) = u^2 o (u o v) is evaluated through the
        commutator [T_u, T_{u^2}] for u ranging over the basis and
        ``n_samples`` seeded random elements; the commutator columns give
        the residual for every basis vector v, and the same seeded
        elements are applied on the right as extra v samples.  All rows u
        run as one stack, so the kernel calls do not grow with the
        sample count.
        """
        rng = random.Random(seed)
        ci, den = self._kernel
        ci_t = ci.transpose(1, 0, 2)
        ja1 = max(self._residual((1, ci, den), (-1, ci_t, den)))
        ja1_witness = None
        if ja1:
            i, j, _ = np.argwhere(ci != ci_t)[0]
            ja1_witness = (int(i), int(j))
        samples = np.concatenate([np.eye(self.dim, dtype=np.int64),
                                  self._int_elements(rng, n_samples, 9)])
        t, dt = self._t_int(samples, 1)
        t2, d2 = self._t_int(*self._prod_int(samples, 1, samples, 1))
        # both products of the commutator, so that a float algebra holds
        # the residual to the larger of them
        t, t2 = (t, la.max_abs(t)), (t2, la.max_abs(t2))
        m = self.dim * t[1] * t2[1]
        res = self._residual(
            (1, (la.einsum("sab,sbc->sac", t, t2), m), dt * d2),
            (-1, (la.einsum("sab,sbc->sac", t2, t), m), dt * d2))
        ja2 = max(res)
        ja2_witness = res.index(ja2) if ja2 else None
        residual = max(ja1, ja2)
        return CheckResult(
            name="jordan_axioms", passed=residual <= self._tol,
            max_residual=residual, samples=len(samples), seed=seed,
            details={"commutativity_residual": ja1,
                     "jordan_identity_residual": ja2,
                     "commutativity_witness": ja1_witness,
                     "jordan_identity_witness": ja2_witness})

    def triple(self, u, v, w):
        """Jordan triple product {u, v, w}."""
        x, y, z = ((e[None], d) for e, d in map(self._elem, (u, v, w)))

        def prod(a, b, c):
            return self._prod_int(*self._prod_int(*a, *b), *c)

        (a, d), (b, _), (c, _) = prod(x, y, z), prod(z, y, x), prod(x, z, y)
        return self._out(la.lincomb((1, a), (1, b), (-1, c))[0], d)

    def check_fundamental(self, n_samples=4, seed=0) -> CheckResult:
        """P_{P_u v} = P_u P_v P_u on seeded random pairs.

        The pairs are drawn as 2 * ``n_samples`` rows, u then v of each
        pair, and run as one stack.  The operators are compared as scaled
        integer matrices in a rational algebra, so larger sample counts
        stay affordable even when the intermediate entries outgrow
        machine words.
        """
        rng = random.Random(seed)
        rows = self._int_elements(rng, 2 * n_samples, 3)
        x, y = rows[0::2], rows[1::2]
        pu, dpu = self._p_int(x, 1)
        pv, dpv = self._p_int(y, 1)
        pu, pv = (pu, la.max_abs(pu)), (pv, la.max_abs(pv))
        pa, dpa = self._p_int(la.einsum("sab,sb->sa", pu, y), dpu)
        rhs = (la.einsum("sab,sbc,scd->sad", pu, pv, pu),
               self.dim ** 2 * pu[1] * pv[1] * pu[1])
        worst = self._worst((1, pa, dpa), (-1, rhs, dpu * dpu * dpv))
        return CheckResult(name="quadratic_fundamental",
                           passed=worst <= self._tol, max_residual=worst,
                           samples=n_samples, seed=seed)

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

        All six run batched over the samples; a rational algebra compares
        integer tensors and is exact.
        """
        rng = random.Random(seed)
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

        def mm(x, y):
            return la.einsum("sab,sbc->sac", x, y)

        d2 = dc * dc
        worsts = {}
        tuvw = trip(U, V, W)
        worsts["outer_symmetry"] = self._worst(
            (1, tuvw, d2), (-1, trip(W, V, U), d2))

        luv, lvu = lmat(U, V), lmat(V, U)
        tu = la.einsum("si,ikj->skj", U, st)
        tv = la.einsum("si,ikj->skj", V, st)
        tutv, tvtu = mm(tu, tv), mm(tv, tu)
        t_uv = la.einsum("sl,lkj->skj", prod(U, V), st)
        worsts["operator_form"] = self._worst(
            (1, luv, d2), (-1, tutv, d2), (1, tvtu, d2), (-1, t_uv, d2))
        worsts["symmetric_part"] = self._worst(
            (1, luv, d2), (1, lvu, d2), (-2, t_uv, d2))
        worsts["antisymmetric_part"] = self._worst(
            (1, luv, d2), (-1, lvu, d2), (-2, tutv, d2), (2, tvtu, d2))

        g, dg = self._gram_int()
        lhs = la.einsum("sm,mq,sq->s", tuvw, g, Z)
        rhs = la.einsum("sm,mq,sq->s", trip(V, U, Z), g, W)
        worsts["trace_form_transpose"] = self._worst(
            (1, lhs, d2 * dg), (-1, rhs, d2 * dg))

        # [L(w,z), L(u,v)] = L(t(w,z,u), v) - L(u, t(z,w,v)); every term
        # carries dc^4
        lwz = lmat(W, Z)
        a = la.einsum("sab,sb->sa", lwz, U)
        b = la.einsum("sab,sb->sa", lmat(Z, W), V)
        worsts["commutation_rule"] = self._worst(
            (1, mm(lwz, luv), d2 * d2), (-1, mm(luv, lwz), d2 * d2),
            (-1, lmat(a, V), d2 * d2), (1, lmat(U, b), d2 * d2))

        worst = max(worsts.values())
        return CheckResult(
            name="triple_identities", passed=worst <= self._tol,
            max_residual=worst, samples=n_samples, seed=seed,
            details=worsts)

    def check_self_adjoint(self, n_samples=100, seed=0) -> CheckResult:
        """T_v and P_v are self-adjoint for the trace form.

        T is linear in v, so symmetry of G T_{b_i} for every basis
        vector settles it for all v; P is quadratic and is sampled, all
        samples as one stack.
        """
        rng = random.Random(seed)
        n = self.dim
        g, dg = self._gram_int()
        _, (st, ms), dt = self._operands()
        p, dp = self._p_int(self._int_elements(rng, n_samples, 3), 1)
        mg, mp = la.max_abs(g), la.max_abs(p)

        def asymmetry(a, m, d):
            # each matrix of the stack a / d (max-abs at most m) minus
            # its transpose
            return self._residual((1, (a, m), d),
                                  (-1, (a.transpose(0, 2, 1), m), d))
        worst = max(
            asymmetry(la.einsum("ab,ibc->iac", (g, mg), (st, ms)),
                      n * mg * ms, dg * dt) +
            asymmetry(la.einsum("ab,sbc->sac", (g, mg), (p, mp)),
                      n * mg * mp, dg * dp))
        return CheckResult(name="operators_self_adjoint",
                           passed=worst <= self._tol, max_residual=worst,
                           samples=self.dim + n_samples, seed=seed)

    def check_inverse_identities(self, n_samples=20, seed=0) -> CheckResult:
        """Inverse laws through the quadratic operator.

        For invertible v with w = v^{-1}: P_v w = v, P_w = P_v^{-1},
        and T_w = T_v P_v^{-1} = P_v^{-1} T_v.  Singular draws are
        skipped (they have no inverse by definition).  Up to
        4 * ``n_samples`` elements are drawn, in chunks of the count
        still missing, so the draws are those of one element at a time.
        Each w is solved on its own, and the identities then run on the
        stack of invertible v.  w keeps its own denominator: scaled to a
        common one, its integers would grow with every other sample's.
        """
        rng = random.Random(seed)
        xs, ps, ws = [], [], []
        drawn = 0
        while len(ws) < n_samples and drawn < 4 * n_samples:
            rows = self._int_elements(rng, min(n_samples - len(ws),
                                               4 * n_samples - drawn), 3)
            drawn += len(rows)
            p, dpv = self._p_int(rows, 1)
            kept = []
            for i in range(len(rows)):
                try:
                    ws.append(self._invert_int(rows[i], 1, p[i], dpv))
                except NotInvertibleError:
                    continue
                kept.append(i)
            xs.append(rows[kept])
            ps.append(p[kept])
        if not ws:
            return CheckResult(name="inverse_identities", passed=True,
                               max_residual=self._zero, samples=0, seed=seed)
        x, pv = np.concatenate(xs), np.concatenate(ps)
        y = np.array([w for w, _ in ws])
        dw = np.array([d for _, d in ws], dtype=object)
        n = self.dim
        py, dpy = self._p_int(y, dw)
        ty, dty = self._t_int(y, dw)
        tv, dtv = self._t_int(x, 1)
        pv, py, ty = ((a, la.max_abs(a)) for a in (pv, py, ty))
        eye = np.broadcast_to(np.eye(n, dtype=np.int64), py[0].shape)
        m = n * ty[1] * pv[1]
        worst = max(
            # P_v w = v
            self._worst((1, la.einsum("sab,sb->sa", pv, y), dpv * dw),
                        (-1, x, 1)),
            # P_w P_v = I
            self._worst((1, (la.einsum("sab,sbc->sac", py, pv),
                             n * py[1] * pv[1]), dpy * dpv),
                        (-1, (eye, 1), 1)),
            # T_w P_v = T_v and P_v T_w = T_v
            *(self._worst((1, (lhs, m), dty * dpv), (-1, tv, dtv))
              for lhs in (la.einsum("sab,sbc->sac", ty, pv),
                          la.einsum("sab,sbc->sac", pv, ty))))
        return CheckResult(name="inverse_identities",
                           passed=worst <= self._tol, max_residual=worst,
                           samples=len(ws), seed=seed)

    # -- isotopes -----------------------------------------------------------

    def isotope(self, gamma):
        """Mutation u o_G v = u o (v o G) + v o (u o G) - (u o v) o G."""
        c, st, den = self._operands()
        garr, dg = self._elem(gamma)
        w = la.einsum("ikj,j->ik", st, garr)
        tg = la.einsum("i,ikj->kj", garr, st)
        term1 = la.einsum("ika,ja->ijk", st, w)
        term3 = la.einsum("ka,ija->ijk", tg, c)
        new_c = la.lincomb((1, term1), (1, term1.transpose(1, 0, 2)),
                           (-1, term3))
        return JordanAlgebra(kernel=(new_c, den * den * dg),
                             mode=self.mode, name=f"{self.name}^gamma",
                             labels=self.labels,
                             meta={**self.meta, "isotope_of": self.name})

    # -- center and decomposition -------------------------------------------

    def center(self, seed=0):
        """Exact basis of {v : [T_v, T_u] = 0 for all u}.

        The kernel form (K, d), with the basis the rows of K / d, is
        cached as well for :meth:`decompose`.
        """
        if "center" in self._cache:
            return self._cache["center"]
        if self.mode == FLOAT:
            raise JordanError("center extraction runs in rational mode")
        _, (st, ms), _ = self._operands()
        (tz,), _ = self._t_int(
            self._int_elements(random.Random(seed), 1, 7), 1)
        # column i of the system is vec([T_{b_i}, T_z])
        cands, dc = la.null_space(
            la.bracket((st, ms), tz).reshape(self.dim, -1).T)
        for j in range(self.dim):
            if not len(cands):
                break
            tw = la.einsum("wi,ikj->wkj", cands, (st, ms))
            small = la.bracket(tw, (st[j], ms)).reshape(len(cands), -1)
            if not small.any():
                continue
            combos, dm = la.null_space(small.T)
            cands, dc = la.lowest_terms(la.einsum("ab,bi->ai", combos, cands),
                                        dc * dm)
        self._cache["center_int"] = (cands, dc)
        self._cache["center"] = list(self._out(cands, dc))
        return self._cache["center"]

    def _center_coords(self, vecs, dv):
        """Kernel form (Y, d) of the center coordinates of the rows of
        vecs / dv, one column per row; None when one is not central."""
        zk, dc = self._cache["center_int"]
        sol = la.solve(zk.T, vecs.T)
        if sol is None:
            return None
        y, d = sol
        return la.lowest_terms(la.lincomb((dc, y)), d * dv)

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
        e, de = self._unit_int()
        m = len(self.center(seed=seed))
        zk, dc = self._cache["center_int"]
        ambient = [self.basis_element(i) for i in range(self.dim)]
        if m == 1:
            return [(self, ambient)]  # the only central idempotent is e
        rng = random.Random(seed + 1)
        for attempt in range(max_attempts):
            coeffs = la.asint([rng.randint(-9, 9) for _ in range(m)])
            z = la.einsum("a,ai->i", coeffs, zk)
            # e, z, ..., z^m over one den, then their center coordinates
            powers = [(e, de), (z, dc)]
            for _ in range(m - 1):
                x, dx = powers[-1]
                (x,), dx = self._prod_int(x[None], dx, z[None], dc)
                powers.append((x, dx))
            d = math.lcm(*(dp for _, dp in powers))
            coords = self._center_coords(
                np.stack([la.lincomb((d // dp, p)) for p, dp in powers]), d)
            if coords is None:
                raise JordanError("center is not closed under products")
            y, dy = coords
            # the minimal polynomial x^m - sum rel_k x^k, unless z is not
            # generic (then e, ..., z^(m-1) are dependent)
            sol = la.solve(y[:, :m], y[:, m])
            if sol is None:
                continue
            rel = [Fraction(int(r), sol[1]) for r in sol[0]]
            ideals = self._split_by_min_poly((z, dc), rel, (y[:, 0], dy))
            if ideals is not None:
                return ideals
        return self._decompose_float(seed)

    def _split_by_min_poly(self, z, rel, e_coords):
        """Ideals from the minimal polynomial of the central z = (x, dx),
        given the center coordinates e_coords = (y, dy) of the unit."""
        import sympy

        m = len(rel)
        x = sympy.Symbol("x")
        poly = x ** m - sum(sympy.Rational(rel[k].numerator,
                                           rel[k].denominator) * x ** k
                            for k in range(m))
        factors = sympy.factor_list(sympy.Poly(poly, x))[1]
        if any(mult > 1 for _, mult in factors):
            return None
        # exact path requires each factor to be R-irreducible
        for f, _ in factors:
            deg = f.degree()
            if deg > 2:
                return None
            if deg == 2:
                c2, c1, c0 = [Fraction(str(v)) for v in f.all_coeffs()]
                if c1 * c1 - 4 * c2 * c0 > 0:
                    return None
        if len(factors) == 1:
            # one quadratic factor with negative discriminant: the center
            # is C, a field over R, so the algebra is already simple
            return [(self, [self.basis_element(i)
                            for i in range(self.dim)])]
        c, _, den = self._operands()
        zk, dc = self._cache["center_int"]
        # T_z restricted to the center, in center coordinates: a / da
        a, da = self._center_coords(la.einsum("i,wj,ijk->wk", z[0], zk, c),
                                    den * z[1] * dc)
        eye = np.eye(m, dtype=np.int64)
        blocks = []
        for f, _ in factors:
            cs = [Fraction(str(v)) for v in f.all_coeffs()]
            lead = math.lcm(*(q.denominator for q in cs))
            # Horner: da^t f_t(a) with f_t the leading t + 1 coefficients
            fa = la.lincomb((cs[0] * lead, eye))
            for t, q in enumerate(cs[1:], 1):
                fa = la.lincomb((1, la.einsum("ab,bc->ac", fa, a)),
                                (q * lead * da ** t, eye))
            blocks.append(la.null_space(fa)[0])
        if sum(len(b) for b in blocks) != m:
            return None
        # unit components along the block decomposition of the center
        sol = la.solve(np.concatenate(blocks).T, e_coords[0])
        if sol is None:
            return None
        comp, dw = sol[0], sol[1] * e_coords[1] * dc
        out = []
        at = 0
        for b in blocks:
            w = la.einsum("v,vi->i", comp[at:at + len(b)], b)
            at += len(b)
            eps, de = la.lowest_terms(la.einsum("i,ir->r", w, zk), dw)
            (sq,), dsq = self._prod_int(eps[None], de, eps[None], de)
            if la.lincomb((de, sq), (-dsq, eps)).any():
                return None
            sub = self._ideal_of_idempotent(eps, de)
            if sub is None:
                return None
            out.append(sub)
        # verify pairwise annihilation
        for i in range(len(out)):
            for j in range(i):
                if la.einsum("ui,vj,ijk->uvk", out[i][2], out[j][2],
                             c).any():
                    return None
        return [(sub, basis) for sub, basis, _ in out]

    def _ideal_of_idempotent(self, eps, de):
        """(ideal, basis, integer basis) of the ideal P_eps V for the
        central idempotent eps / de, or None."""
        c, _, den = self._operands()
        (p,), dp = self._p_int(eps[None], de)
        idx, _ = la.independent_rows(p.T)
        basis, k = p.T[idx], len(idx)
        prods = la.einsum("ui,vj,ijk->uvk", basis, basis, c)
        sol = la.solve(basis.T, prods.reshape(k * k, self.dim).T)
        if sol is None:
            return None
        y, dy = sol
        sub = JordanAlgebra(kernel=(y.T.reshape(k, k, k), dy * den * dp),
                            mode=RATIONAL, name=f"{self.name}[ideal]",
                            meta={"parent": self.name})
        return sub, list(self._out(basis, dp)), basis

    def _decompose_float(self, seed):
        rng = random.Random(seed + 101)
        m = len(self.center(seed=seed))
        zk, dc = self._cache["center_int"]
        # Python int division rounds each entry of zk / dc correctly
        zmat = np.asarray(zk.T.astype(object) / dc, dtype=np.float64)
        coeffs = [rng.randint(-9, 9) for _ in range(m)]
        z = zmat @ np.array(coeffs, dtype=float)
        jf = self.to_float()
        tz = jf.t_operator(z)
        # T_z restricted to the center in center coordinates
        a, *_ = np.linalg.lstsq(zmat, tz @ zmat, rcond=None)
        evals = np.linalg.eigvals(a)
        clusters = []
        for lam in evals:
            if lam.imag < -TOL.rel:
                continue
            if lam.imag > TOL.rel:
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
            out.append((JordanAlgebra(kernel=(sub_c, 1), mode=FLOAT,
                                      name=f"{self.name}[ideal]",
                                      meta={"parent": self.name,
                                            "exact": False}), basis))
        return out


def _lcm(a, b):
    """lcm of two dens: ints, or object arrays of one int per row."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.lcm(a, b)
    return math.lcm(a, b)


def _row_max(op):
    """Max-abs of each row (axis 0) of an array or ``(array, m)`` pair;
    0 for an empty row."""
    arr = op[0] if isinstance(op, tuple) else op
    return np.abs(arr).max(axis=tuple(range(1, arr.ndim)), initial=0)


def direct_sum(algebras, name=None):
    """Block direct sum; factors multiply independently and cross terms vanish."""
    if not algebras:
        raise ValueError("direct sum needs at least one factor")
    mode = algebras[0].mode
    if any(j.mode != mode for j in algebras):
        raise ValueError("direct sum factors must share one arithmetic mode")
    dims = [j.dim for j in algebras]
    dim = sum(dims)
    kernels = [j._int_tensor() for j in algebras]
    den = math.lcm(*(d for _, d in kernels))
    blocks = [la.lincomb((den // d, ci)) for ci, d in kernels]
    c = np.zeros((dim, dim, dim), dtype=np.result_type(*blocks))
    at = 0
    for b in blocks:
        block = slice(at, at + len(b))
        c[block, block, block] = b
        at += len(b)
    labels = []
    for t, j in enumerate(algebras):
        labels += [f"f{t}.{lab}" for lab in j.labels]
    return JordanAlgebra(
        kernel=(c, den), mode=mode,
        name=name or "(+) ".join(j.name for j in algebras),
        labels=labels,
        meta={"factors": [j.name for j in algebras],
              "factor_dims": dims})
