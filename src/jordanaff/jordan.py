"""Commutative structure-constant algebras and the Jordan-algebra toolkit.

An algebra is a tensor c with (b_i o b_j) = sum_k c[i][j][k] b_k over a
fixed basis, stored as integers over one denominator.  Every identity
is certified exactly, and has one implementation: it runs on the kernel
arrays of :meth:`JordanAlgebra._operands`, and its verdict is that the
exact residual of :meth:`JordanAlgebra._residual` is 0.  Float input is
snapped to rationals at the edge (:mod:`jordanaff.serialization`), and
float64 is left to the geometry of sampled points.

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
for its size.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from . import exactla as la
from .reports import CheckResult


# At the API edge each value is one Fraction object: _fraction hands
# out the Fraction of a reduced (numerator, denominator) pair from this
# table, so equal entries of two tensors are identical and tuple
# equality skips Fraction.__eq__ on them.  A Fraction key would cost a
# Fraction hash per lookup; the table is cleared when full.
_FRACTIONS_MAX = 4096
_fractions = {}

# entry types the constructor keys by value: equal ones parse alike
_BY_VALUE = frozenset((int, str, Fraction))


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
    strings, never floats; this is the one parser of such input, and it
    parses each distinct entry once (ValueError or TypeError on a bad
    one), keyed by value when every entry is an int, str or Fraction and
    by (type, value) otherwise.  Internal producers pass
    ``kernel=(array, den)`` with c == array / den instead.  Either way
    the algebra stores only that kernel pair, in lowest terms; :attr:`c`
    is derived from it, and its entries are the shared Fraction objects
    of the API edge (:meth:`_out`).

    ``unit`` is a hint of the unit, in the form of the tensor: an
    element (as :meth:`coerce` takes it) beside ``c``, or a kernel pair
    (x, dx) with u == x / dx beside ``kernel``.  It is checked by the
    first :meth:`find_unity`, never here.
    """

    def __init__(self, c=None, name="algebra", labels=None, meta=None, *,
                 kernel=None, unit=None):
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
        else:
            # parse each distinct entry once.  Equal ints, strs and
            # Fractions parse alike, so those key by value; any other
            # entry keys by type too, so a float 1.0 is refused even
            # where an int 1 came first
            flat = list(itertools.chain.from_iterable(
                itertools.chain.from_iterable(c)))
            by_value = _BY_VALUE.issuperset(map(type, flat))
            keys = flat if by_value else list(zip(map(type, flat), flat))
            index = {k: i for i, k in enumerate(dict.fromkeys(keys))}
            codes = np.fromiter(map(index.__getitem__, keys), np.intp,
                                len(keys))
            ints, den = la.clear_denominators_vec(
                la.fvec(index if by_value else (x for _, x in index)))
            ci = la.asint(ints)[codes].reshape(dim, dim, dim)
        if ci.shape != (dim, dim, dim):
            raise DimensionMismatchError(
                f"structure tensor must be cubic, got {ci.shape}")
        self._kernel = la.lowest_terms(la.asint(ci), den)
        self._cmax = la.max_abs(self._kernel[0])
        self.dim = dim
        self.labels = tuple(labels) if labels else tuple(
            f"b{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise DimensionMismatchError("one label per basis element")
        self._cache = {}
        self._unit = (self._elem(unit) if kernel is None and unit is not None
                      else unit)

    @property
    def c(self):
        """The structure tensor at the API edge, made from the kernel
        pair on first read: nested tuples of Fractions."""
        if "c" not in self._cache:
            self._cache["c"] = self._out(*self._kernel)
        return self._cache["c"]

    # -- kernel arrays and the API edge -----------------------------------

    def _int_tensor(self):
        """(ci, den) with c == ci / den in lowest terms: ci is int64, or
        object-dtype when an entry does not fit."""
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

    def _float_tensor(self):
        """c as a float64 array, made once: geometry of sampled points
        (:mod:`jordanaff.hypersurface`) reads it, and no check does."""
        if "float" not in self._cache:
            ci, den = self._kernel
            # Python int division rounds each entry of ci / den correctly
            self._cache["float"] = np.asarray(ci.astype(object) / den,
                                              dtype=np.float64)
        return self._cache["float"]

    def coerce(self, u):
        """An element as a tuple of Fractions."""
        if len(u) != self.dim:
            raise DimensionMismatchError(
                f"element of length {len(u)} in algebra of dimension "
                f"{self.dim}")
        return la.fvec(u)

    def _elem(self, u):
        """Kernel form (x, dx) of an element, with u == x / dx."""
        ints, den = la.clear_denominators_vec(self.coerce(u))
        return la.asint(ints), den

    def _out(self, arr, den):
        """API form of the kernel array arr / den: nested tuples of
        Fractions, each the one object :func:`_fraction` holds for its
        value, so two outputs compare by identity entry by entry."""
        # one table lookup per distinct entry; .tolist() gives Python
        # ints, so nothing wraps
        table = _PerValue()
        table.den = int(den)
        return _nest(list(map(table.__getitem__, arr.ravel().tolist())),
                     arr.shape)

    def _residual(self, *terms):
        """The residuals of sum c * arr / den over ``(c, arr, den)``
        terms, one per row (axis 0) of the stacks ``arr``, as a list.

        ``arr`` may be an ``(array, m)`` pair as in :func:`exactla.einsum`,
        so that nothing the kernel already bounded is scanned again; c
        and den are ints or object arrays of one int per row.  One
        :func:`exactla.lincomb` over each row's least common denominator
        d gives r, and each row reports max-abs(r) / d, exactly.
        """
        d = functools.reduce(_lcm, (den for _, _, den in terms))
        r = _row_max(la.lincomb(*((c * (d // den), op)
                                  for c, op, den in terms)))
        dens = d.tolist() if isinstance(d, np.ndarray) else [d] * len(r)
        return [Fraction(a, b) for a, b in zip(r.tolist(), dens)]

    def _worst(self, *terms):
        """The largest of the :meth:`_residual` rows; the zero residual
        for an empty stack."""
        return max(self._residual(*terms), default=Fraction(0))

    def zero(self):
        return self.coerce([0] * self.dim)

    def basis_element(self, i):
        return self.coerce([1 if j == i else 0 for j in range(self.dim)])

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

    def _p_int(self, x, dx, t=None):
        """Kernel form of P_u = 2 T_u^2 - T_{u^2} for the rows u of
        x / dx; both terms carry the same den, (tensor den * dx)^2.
        u^2 is T_u u.  Only x and T_u are scanned: every later operand
        reaches the kernel as ``(array, m)`` with the bound m the kernel
        put on it.  A caller that has T_u already passes it as ``t``,
        ``((stack, max-abs), den)``, and it is not formed again.
        """
        n = self.dim
        _, (st, ms), _ = self._operands()
        x = (x, la.max_abs(x))
        if t is None:
            t, dt = self._t_int(x, dx)
            t = ((t, la.max_abs(t)), dt)
        t, dt = t
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
        return self._dets(x[None], dx)[0]

    def _dets(self, x, dx=1):
        """det P_u for the rows u of x / dx (dx one int), as a list of
        Fractions: one P stack and one stacked :func:`exactla.det`."""
        p, d = self._p_int(x, dx)
        return [Fraction(v, d ** self.dim) for v in la.det(p)]

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
        if "inertia" not in self._cache:
            self._cache["inertia"] = la.inertia(self._gram_int()[0])
        pos, neg, zero = self._cache["inertia"]
        return zero == 0, (pos, neg, zero)

    def is_nondegenerate(self):
        """Whether v -> T_v is injective (no absolute zero divisors).
        A unit e is the certificate: T_v e = v, so T_v = 0 only for
        v = 0."""
        st, _ = self._t_stack()
        return (self.find_unity() is not None
                or la.int_rank(st.reshape(self.dim, -1).T) == self.dim)

    # -- unity and inversion ---------------------------------------------

    def find_unity(self):
        """The unit element, or None when the algebra has no unit.

        The ``unit`` hint the algebra was built with is tried first: it
        is the unit exactly when T_hint == I, one contraction, since a
        unit is unique.  Without a hint, or when the hint fails that
        test, the unit is solved for from the tall system T_u e = u over
        the basis.
        """
        if "unity" in self._cache:
            return self._cache["unity"]
        dim = self.dim
        st, den = self._t_stack()
        eye = np.eye(dim, dtype=np.int64)
        sol = self._unit
        if sol is not None and np.array_equal(
                la.einsum("i,ikj->kj", sol[0], self._operands()[1]),
                la.lincomb((den * sol[1], eye))):
            sol = la.lowest_terms(*sol)
        else:
            sol = la.solve(st.reshape(dim, -1).T,
                           la.lincomb((den, eye.reshape(-1))))
        self._cache["unity_int"] = sol
        self._cache["unity"] = None if sol is None else self._out(*sol)
        return self._cache["unity"]

    def _known_unit(self):
        """Kernel form of the unit if :meth:`find_unity` has run (None
        if there is none), else the unchecked hint: what the builder of
        a larger algebra hands down without solving."""
        return self._cache.get("unity_int", self._unit)

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
        """Kernel forms of the Jordan inverses P_v^{-1} v of the rows v
        of x / dx, given the stack P_v = p / dp: one ``(w, dw)`` per row,
        or None where P_v is singular.  All rows are solved in one call."""
        self.unity()
        return la.solve(p, la.lincomb((dp // dx, x)))

    def invert(self, v):
        """Jordan inverse P_v^{-1} v; raises when P_v is singular."""
        x, dx = self._elem(v)
        p, dp = self._p_int(x[None], dx)
        (sol,) = self._invert_int(x[None], dx, p, dp)
        if sol is None:
            raise NotInvertibleError(
                "quadratic operator P_v is singular, so v has no inverse "
                "(invertibility fails exactly when det P_v = 0)")
        return self._out(*sol)

    # -- the Jordan axioms -------------------------------------------------
    #
    # Each check below is the one implementation of its identity.  Every
    # residual goes through _residual and every verdict is
    # ``residual == 0``.  Each check draws seeded integer samples and runs
    # them as one stack, with one residual per sample.

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
        res = self._residual((1, la.bracket(t, t2), dt * d2))
        ja2 = max(res)
        ja2_witness = res.index(ja2) if ja2 else None
        residual = max(ja1, ja2)
        return CheckResult(
            name="jordan_axioms", passed=residual == 0,
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
                           passed=worst == 0, max_residual=worst,
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
        c, _, dc = self._operands()
        s, n = n_samples, self.dim
        # U, V, W and Z, the s-row blocks 0-3 of one stack
        X = np.concatenate([self._int_elements(rng, s, 3) for _ in range(4)])

        def rows(x, *blocks):
            return np.concatenate([x[b * s:(b + 1) * s] for b in blocks])

        def prod(a, b):
            return la.einsum("si,sj,ijk->sk", a, b, c)

        def mm(x, y):
            return la.einsum("sab,sbc->sac", x, y)

        # multiplication stacks, [s, k, l] = (a o e_k)_l and (e_k o a)_l;
        # left(a) is T_a transposed
        def left(a):
            x = la.einsum("si,ikl->skl", a, c)
            return x, la.max_abs(x)

        def right(a):
            x = la.einsum("sj,kjl->skl", a, c)
            return x, la.max_abs(x)

        def lmat(lab, la_, ra, rb):
            # L(a, b) = T_{a o b} + R_b R_a - L_a R_b, transposed, from the
            # left stacks of a o b and a and the right stacks of a and b:
            # its columns are the images of the basis vectors, so
            # L(a, b) w = t(a, b, w)
            return la.lincomb((1, lab), (1, mm(rb, ra)),
                              (-1, mm(la_, rb))).transpose(0, 2, 1)

        # L(u,v), L(v,u), L(w,v), L(w,z) and L(z,w) as one stack, and
        # t(u,v,w), L(v,u) z, t(w,v,u), L(w,z) u and L(z,w) v
        (lx, _), (rx, _) = left(X), right(X)
        fst, snd = (0, 1, 2, 2, 3), (1, 0, 1, 3, 2)
        l_ab = left(prod(rows(X, *fst), rows(X, *snd)))
        ls = lmat(l_ab, rows(lx, *fst), rows(rx, *fst), rows(rx, *snd))
        luv, lvu = ls.reshape(5, s, n, n)[:2]
        img = la.einsum("sab,sb->sa", ls, rows(X, 2, 3, 0, 0, 1))
        tuvw, _, twvu, a, b = img.reshape(5, s, n)

        d2 = dc * dc
        worsts = {}
        worsts["outer_symmetry"] = self._worst((1, tuvw, d2), (-1, twvu, d2))

        tx = lx.transpose(0, 2, 1)
        tutv, tvtu = mm(rows(tx, 0, 1), rows(tx, 1, 0)).reshape(2, s, n, n)
        t_uv = l_ab[0][:s].transpose(0, 2, 1)
        worsts["operator_form"] = self._worst(
            (1, luv, d2), (-1, tutv, d2), (1, tvtu, d2), (-1, t_uv, d2))
        worsts["symmetric_part"] = self._worst(
            (1, luv, d2), (1, lvu, d2), (-2, t_uv, d2))
        worsts["antisymmetric_part"] = self._worst(
            (1, luv, d2), (-1, lvu, d2), (-2, tutv, d2), (2, tvtu, d2))

        g, dg = self._gram_int()
        lhs, rhs = la.einsum("sm,mq,sq->s", rows(img, 0, 1), g,
                             rows(X, 3, 2)).reshape(2, s)
        worsts["trace_form_transpose"] = self._worst(
            (1, lhs, d2 * dg), (-1, rhs, d2 * dg))

        # [L(w,z), L(u,v)] = L(t(w,z,u), v) - L(u, t(z,w,v)); every term
        # carries dc^4.  L(a, V) and L(U, b) run alone: a and b are far
        # larger than U, and one bound for both would slow U's products
        comm = mm(rows(ls, 3, 0), rows(ls, 0, 3)).reshape(2, s, n, n)
        V = rows(X, 1)
        worsts["commutation_rule"] = self._worst(
            (1, comm[0], d2 * d2), (-1, comm[1], d2 * d2),
            (-1, lmat(left(prod(a, V)), left(a), right(a), rows(rx, 1)),
             d2 * d2),
            (1, lmat(left(prod(X[:s], b)), rows(lx, 0), rows(rx, 0),
                     right(b)), d2 * d2))

        worst = max(worsts.values())
        return CheckResult(
            name="triple_identities", passed=worst == 0,
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
                           passed=worst == 0, max_residual=worst,
                           samples=self.dim + n_samples, seed=seed)

    def check_inverse_identities(self, n_samples=20, seed=0) -> CheckResult:
        """Inverse laws through the quadratic operator.

        For invertible v with w = v^{-1}: P_w = P_v^{-1} and
        T_w = T_v P_v^{-1} = P_v^{-1} T_v.  P_v w = v holds by
        construction, since w is the exact solution of it that
        :func:`exactla.solve` certified.  Singular draws are
        skipped (they have no inverse by definition).  Up to
        4 * ``n_samples`` elements are drawn, in chunks of the count
        still missing, so the draws are those of one element at a time.
        The w of a chunk are solved in one call, and the identities then
        run on the stack of invertible v.  w keeps its own denominator:
        scaled to a common one, its integers would grow with every other
        sample's.
        """
        rng = random.Random(seed)
        xs, ps, ws = [], [], []
        drawn = 0
        while len(ws) < n_samples and drawn < 4 * n_samples:
            rows = self._int_elements(rng, min(n_samples - len(ws),
                                               4 * n_samples - drawn), 3)
            drawn += len(rows)
            p, dpv = self._p_int(rows, 1)
            sols = self._invert_int(rows, 1, p, dpv)
            kept = [i for i, sol in enumerate(sols) if sol is not None]
            ws += [sols[i] for i in kept]
            xs.append(rows[kept])
            ps.append(p[kept])
        if not ws:
            return CheckResult(name="inverse_identities", passed=True,
                               max_residual=Fraction(0), samples=0, seed=seed)
        x, pv = np.concatenate(xs), np.concatenate(ps)
        y = np.array([w for w, _ in ws])
        dw = np.array([d for _, d in ws], dtype=object)
        n = self.dim
        ty, dty = self._t_int(y, dw)
        ty = (ty, la.max_abs(ty))
        py, dpy = self._p_int(y, dw, (ty, dty))
        tv, dtv = self._t_int(x, 1)
        pv, py = ((a, la.max_abs(a)) for a in (pv, py))
        eye = np.broadcast_to(np.eye(n, dtype=np.int64), py[0].shape)
        m = n * ty[1] * pv[1]
        worst = max(
            # P_w P_v = I
            self._worst((1, (la.einsum("sab,sbc->sac", py, pv),
                             n * py[1] * pv[1]), dpy * dpv),
                        (-1, (eye, 1), 1)),
            # T_w P_v = T_v and P_v T_w = T_v
            *(self._worst((1, (lhs, m), dty * dpv), (-1, tv, dtv))
              for lhs in (la.einsum("sab,sbc->sac", ty, pv),
                          la.einsum("sab,sbc->sac", pv, ty))))
        return CheckResult(name="inverse_identities",
                           passed=worst == 0, max_residual=worst,
                           samples=len(ws), seed=seed)

    # -- isotopes -----------------------------------------------------------

    def isotope(self, gamma):
        """Mutation u o_G v = u o (v o G) + v o (u o G) - (u o v) o G.
        Its unit is the Jordan inverse G^{-1}, one square solve, handed
        down as the unit hint; there is none when P_G is singular or the
        algebra has no unit."""
        c, st, den = self._operands()
        garr, dg = self._elem(gamma)
        unit = None
        if self.find_unity() is not None:
            p, dp = self._p_int(garr[None], dg)
            (unit,) = self._invert_int(garr[None], dg, p, dp)
        w = la.einsum("ikj,j->ik", st, garr)
        tg = la.einsum("i,ikj->kj", garr, st)
        term1 = la.einsum("ika,ja->ijk", st, w)
        term3 = la.einsum("ka,ija->ijk", tg, c)
        new_c = la.lincomb((1, term1), (1, term1.transpose(1, 0, 2)),
                           (-1, term3))
        return JordanAlgebra(kernel=(new_c, den * den * dg),
                             name=f"{self.name}^gamma",
                             labels=self.labels,
                             meta={**self.meta, "isotope_of": self.name},
                             unit=unit)

    # -- center and decomposition -------------------------------------------

    def center(self, seed=0):
        """Exact basis of Z = {v : [T_v, T_u] = 0 for all u}.

        ``seed`` draws two pairs (z, x); B(z, x) is v -> [T_v, T_z] x,
        that is R_{z o x} - T_z R_x with R_w v = v o w read off the
        tensor, so a non-commutative one is served too.  The kernel K
        of both B stacked contains Z by construction, and one stacked
        bracket of every T_v, v in K, with every T_{b_j} shows K in Z,
        or else K is cut to the kernel of that bracket map.  The basis
        is the reduced one (:func:`exactla.null_space`), which depends
        only on Z; its kernel form (K, d, F), the basis the rows of
        K / d and F their free columns, is cached for :meth:`decompose`.
        """
        if "center" in self._cache:
            return self._cache["center"]
        (c, mc), (st, ms), _ = self._operands()
        z, x = np.split(self._int_elements(random.Random(seed), 4, 7), 2)
        zx, _ = self._prod_int(z, 1, x, 1)
        tz, _ = self._t_int(z, 1)
        rx, rzx = (la.einsum("ijk,sj->ski", (c, mc), w) for w in (x, zx))
        # both terms of B carry the tensor den squared
        cands, dc = la.null_space(la.lincomb(
            (1, rzx), (-1, la.einsum("sab,sbc->sac", tz, rx))
        ).reshape(-1, self.dim))
        # [T_v, T_{b_j}] for v a row of cands, one column per row
        small = la.bracket(la.einsum("wi,ikj->wkj", cands, (st, ms))[:, None],
                           (st, ms)).reshape(len(cands), -1).T
        nonzero = small.any(axis=1)
        if nonzero.any():
            combos, dm = la.null_space(small[nonzero])
            cands, dc = la.lowest_terms(la.einsum("ab,bi->ai", combos, cands),
                                        dc * dm)
        # a reduced basis vector ends at its own free column
        free = self.dim - 1 - np.argmax(cands[:, ::-1] != 0, axis=1)
        self._cache["center_int"] = (cands, dc, free)
        self._cache["center"] = list(self._out(cands, dc))
        return self._cache["center"]

    def _center_coords(self, vecs, dv):
        """Kernel form (Y, d) of the center coordinates of the rows of
        vecs / dv, one column per row; None when one is not central.
        K / d is the identity on its free columns F, so the coordinates
        of a central u are u[F], and y K == d u certifies them."""
        zk, dc, free = self._cache["center_int"]
        y = vecs[:, free]
        if not np.array_equal(la.einsum("ab,bi->ai", y, zk),
                              la.lincomb((dc, vecs))):
            return None
        return la.lowest_terms(y.T, dv)

    def decompose(self, seed=0, max_attempts=8):
        """Split a semisimple algebra into simple ideals.

        Returns a list of (ideal, basis) pairs where ``basis`` holds the
        ideal's basis vectors in the ambient coordinates.  Uses a generic
        central element's minimal polynomial, whose factors over Q give
        the ideals exactly.  The factors are rounded from the float roots
        of the polynomial and accepted only when they divide it exactly
        down to 1 and each quadratic one has a negative discriminant
        (:func:`_factors_from_roots`); anything else goes to sympy's
        ``factor_list``, imported only then, in the same order.  A factor
        irreducible over Q that splits over R (x^2 - 2, or any of degree
        above 2) has ideals not defined over Q, and raises JordanError
        naming it; only sympy's factoring can show that.
        """
        ok, sig = self.is_semisimple()
        if not ok:
            raise NotSemisimpleError(
                f"{self.name}: trace form is degenerate {sig}; "
                "decomposition into simple ideals needs semisimplicity")
        e, de = self._unit_int()
        m = len(self.center(seed=seed))
        zk, dc, _ = self._cache["center_int"]
        ambient = list(self._out(np.eye(self.dim, dtype=np.int64), 1))
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
        raise JordanError(f"{self.name}: no exact split into simple ideals "
                          f"from {max_attempts} central elements")

    def _split_by_min_poly(self, z, rel, e_coords):
        """Ideals from the minimal polynomial of the central z = (x, dx),
        given the center coordinates e_coords = (y, dy) of the unit."""
        m = len(rel)
        factors = _min_poly_factors(rel, self.name)
        if factors is None:
            return None
        if len(factors) == 1:
            # one quadratic factor with negative discriminant: the center
            # is C, a field over R, so the algebra is already simple
            return [(self, list(self._out(np.eye(self.dim, dtype=np.int64),
                                          1)))]
        c, _, den = self._operands()
        zk, dc, _ = self._cache["center_int"]
        # T_z restricted to the center, in center coordinates: a / da
        a, da = self._center_coords(la.einsum("i,wj,ijk->wk", z[0], zk, c),
                                    den * z[1] * dc)
        eye = np.eye(m, dtype=np.int64)
        blocks = []
        for cs in factors:
            # Horner: da^t f_t(a) with f_t the leading t + 1 coefficients
            fa = la.lincomb((cs[0], eye))
            for t, q in enumerate(cs[1:], 1):
                fa = la.lincomb((1, la.einsum("ab,bc->ac", fa, a)),
                                (q * da ** t, eye))
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
        idx, _, _ = la.independent_rows(p.T)
        basis, k = p.T[idx], len(idx)
        prods = la.einsum("ui,vj,ijk->uvk", basis, basis, c)
        sol = la.solve(basis.T, prods.reshape(k * k, self.dim).T)
        if sol is None:
            return None
        y, dy = sol
        sub = JordanAlgebra(kernel=(y.T.reshape(k, k, k), dy * den * dp),
                            name=f"{self.name}[ideal]",
                            meta={"parent": self.name})
        return sub, list(self._out(basis, dp)), basis


def _min_poly_factors(rel, name):
    """The factors over Q of F = x^m - sum_k rel_k x^k, each as its
    primitive integer coefficients, leading first, in the order of
    sympy's ``factor_list``; None when F has a repeated factor.  Raises
    JordanError when a factor is irreducible over Q but split over R.

    :func:`_factors_from_roots` tries first; what it cannot certify goes
    to sympy, which also proves the negative verdicts."""
    f = [Fraction(1)] + [-r for r in reversed(rel)]
    factors = _factors_from_roots(f)
    return factors if factors is not None else _sympy_factors(rel, name)


def _factors_from_roots(f):
    """The factors of the monic f (Fractions, leading first) rounded from
    its float roots, or None when they are not certified.

    With D the lcm of f's denominators, D f is an integer polynomial of
    leading coefficient D, so by Gauss's lemma every monic factor of f
    over Q has its coefficients in Z / D.  A real root r gives the
    candidate x - round(rD)/D and a conjugate pair alpha, alpha-bar gives
    x^2 + bx + c with b = round(-2 Re(alpha) D)/D and
    c = round(|alpha|^2 D)/D.  The list stands only if each candidate
    divides f exactly, the last quotient is 1, the candidates are
    distinct and each quadratic has a negative discriminant: then it is
    f's factorization over Q into irreducibles.  The factors come back
    primitive, sorted by (degree, coefficients)."""
    den = math.lcm(*(c.denominator for c in f))
    try:
        cands = []
        for r in np.roots([float(c) for c in f]):
            if r.imag == 0:
                cands.append([1, -Fraction(round(r.real * den), den)])
            elif r.imag > 0:
                cands.append([1, Fraction(round(-2 * r.real * den), den),
                              Fraction(round(abs(r) ** 2 * den), den)])
    except (OverflowError, ValueError, np.linalg.LinAlgError):
        return None
    quot = f
    for cand in cands:
        quot = _divide_monic(quot, cand)
        if quot is None:
            return None
    if (quot != [1] or len(set(map(tuple, cands))) < len(cands)
            or any(len(c) == 3 and c[1] ** 2 >= 4 * c[2] for c in cands)):
        return None
    return sorted((_primitive(c) for c in cands), key=lambda c: (len(c), c))


def _divide_monic(f, d):
    """The quotient of f by the monic d (coefficients leading first), or
    None when the remainder is not zero."""
    k = len(d) - 1
    q = list(f)
    for i in range(len(f) - k):
        for t in range(1, k + 1):
            q[i + t] -= q[i] * d[t]
    return None if any(q[len(q) - k:]) else q[:len(q) - k]


def _primitive(coeffs):
    """The rational coefficients scaled to coprime integers."""
    lead = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(c * lead) for c in coeffs]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _sympy_factors(rel, name):
    """:func:`_min_poly_factors` by sympy's ``factor_list``."""
    import sympy

    m = len(rel)
    x = sympy.Symbol("x")
    poly = x ** m - sum(sympy.Rational(rel[k].numerator,
                                       rel[k].denominator) * x ** k
                        for k in range(m))
    factors = sympy.factor_list(sympy.Poly(poly, x))[1]
    if any(mult > 1 for _, mult in factors):
        return None
    coeffs = [[Fraction(str(v)) for v in f.all_coeffs()] for f, _ in factors]
    # each factor must stay irreducible over R: of degree 1, or of
    # degree 2 without a real root
    for (f, _), c in zip(factors, coeffs):
        disc = c[1] * c[1] - 4 * c[0] * c[2] if len(c) == 3 else 0
        if len(c) > 3 or disc > 0:
            factor = str(f.as_expr()).replace("**", "^")
            if disc:
                # an affine change of x makes f x^2 - d, d squarefree
                d = sympy.sqrt(sympy.Rational(str(disc))).as_coeff_Mul()
                factor = f"x^2 - {d[1] ** 2} (here {factor})"
            raise JordanError(
                f"{name}: the minimal polynomial of a central "
                f"element has the factor {factor}, irreducible over Q "
                "but split over R, so the simple ideals are not "
                "defined over Q")
    return [_primitive(c) for c in coeffs]


def _fraction(p, q):
    """The Fraction p / q, the one object the table holds for it."""
    g = math.gcd(p, q)
    key = (p // g, q // g) if q > 0 else (-p // g, -q // g)
    f = _fractions.get(key)
    if f is None:
        if len(_fractions) >= _FRACTIONS_MAX:
            _fractions.clear()
        f = _fractions[key] = Fraction(*key)
    return f


class _PerValue(dict):
    """Maps each kernel entry v to ``_fraction(v, den)``, looked up on
    its first use."""

    __slots__ = ("den",)

    def __missing__(self, v):
        f = self[v] = _fraction(v, self.den)
        return f


def _nest(items, shape):
    """The flat C-order list ``items`` nested to ``shape`` as tuples; an
    axis of size 0 nests as in ``arr.tolist()``."""
    for k in range(len(shape) - 1, 0, -1):
        n = shape[k]
        items = (list(map(tuple, zip(*[iter(items)] * n))) if n else
                 [() for _ in range(math.prod(shape[:k]))])
    return tuple(items)


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
    """Block direct sum; factors multiply independently and cross terms
    vanish.  The factors' known units (:meth:`JordanAlgebra._known_unit`)
    side by side are the unit hint, when every factor has one."""
    if not algebras:
        raise ValueError("direct sum needs at least one factor")
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
    units, unit = [j._known_unit() for j in algebras], None
    if all(units):
        du = math.lcm(*(d for _, d in units))
        unit = la.asint(np.concatenate(
            [la.lincomb((du // d, x)) for x, d in units])), du
    return JordanAlgebra(
        kernel=(c, den),
        name=name or "(+) ".join(j.name for j in algebras),
        labels=labels,
        meta={"factors": [j.name for j in algebras],
              "factor_dims": dims},
        unit=unit)
