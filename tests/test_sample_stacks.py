"""The sampled identity checks run batched over a sample axis.

The kernel forms ``_t_int``, ``_prod_int`` and ``_p_int`` take a stack of
elements and must agree with one element at a time; the batched
``check_inverse_identities`` must draw, skip and report exactly as a
loop over one element at a time; no sampled check may pay per sample in
kernel calls, apart from the one ``solve`` of each inverse.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordanaff import exactla as la
from jordanaff.hypersurface import build_model
from jordanaff.jordan import NotInvertibleError, direct_sum

F = Fraction


@pytest.fixture(scope="module")
def stack_algebras(get_algebra, big_isotopes):
    return [get_algebra("full_real", m=2),
            get_algebra("quadratic", signs=(1, -1, 1)),
            get_algebra("hermitian_complex", gammas=(1, -1), m=2),
            big_isotopes["full_real(m=2)^(10^9/3)"]]


def _same(a, b):
    """Equal values, whatever the dtypes the kernel chose."""
    return a.shape == b.shape and np.array_equal(a.astype(object),
                                                 b.astype(object))


def _assert_rows_match(kernel, stack_args, row_args):
    """kernel on a stack equals kernel on each of its rows alone.

    Both argument lists alternate a stack and its den; in ``row_args``
    each den is a list of the rows' own dens."""
    arr, den = kernel(*stack_args)
    assert len(arr) == len(stack_args[0])
    for i in range(len(arr)):
        args = [a[i:i + 1] if k % 2 == 0 else a[i]
                for k, a in enumerate(row_args)]
        row, row_den = kernel(*args)
        assert _same(arr[i], row[0])
        assert (den[i] if isinstance(den, np.ndarray) else den) == row_den


def _draw_stack(data, s, dim):
    """s rows, each with its own magnitude, so that one stack mixes
    rows whose own bounds fall on either side of 2**53 and 2**63, and a
    den that is one int or one int per row (with the dens of the rows)."""
    rows = []
    for _ in range(s):
        b = data.draw(st.sampled_from([2, 2 ** 12, 2 ** 24, 2 ** 40]))
        rows.append([data.draw(st.integers(-b, b)) for _ in range(dim)])
    x = la.asint(np.array(rows, dtype=object).reshape(s, dim))
    if data.draw(st.booleans()):
        d = np.array([data.draw(st.integers(1, 10 ** 12)) for _ in range(s)],
                     dtype=object)
        return x, d, list(d)
    d = data.draw(st.integers(1, 10 ** 12))
    return x, d, [d] * s


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_stack_kernels_match_rows(data, stack_algebras):
    j = data.draw(st.sampled_from(stack_algebras))
    s = data.draw(st.integers(0, 5))
    x, dx, dxs = _draw_stack(data, s, j.dim)
    y, dy, dys = _draw_stack(data, s, j.dim)
    _assert_rows_match(j._t_int, (x, dx), (x, dxs))
    _assert_rows_match(j._p_int, (x, dx), (x, dxs))
    _assert_rows_match(j._prod_int, (x, dx, y, dy), (x, dxs, y, dys))


def test_stack_kernels_cross_the_dtype_bounds(big_isotopes):
    """A stack of a small and a large row runs on Python ints, where the
    small row alone runs in int64 below 2**53, and still matches its rows;
    zero rows give an empty stack of the right shape."""
    j = big_isotopes["full_real(m=2)^(10^9/3)"]
    small = la.asint([[1, -1, 1, 2]])
    x = np.concatenate([small, la.asint([[2 ** 20, -2 ** 20, 1, 2]])])
    alone, _ = j._prod_int(small, 1, small, 1)
    both, _ = j._prod_int(x, 1, x, 1)
    assert alone.dtype == np.int64 and la.max_abs(alone) < 2 ** 53
    assert both.dtype == object and la.max_abs(both) >= 2 ** 63
    _assert_rows_match(j._t_int, (x, 1), (x, [1, 1]))
    _assert_rows_match(j._p_int, (x, 1), (x, [1, 1]))
    _assert_rows_match(j._prod_int, (x, 1, x, 1), (x, [1, 1], x, [1, 1]))
    empty = np.zeros((0, j.dim), dtype=np.int64)
    assert j._t_int(empty, 1)[0].shape == (0, j.dim, j.dim)
    assert j._p_int(empty, 1)[0].shape == (0, j.dim, j.dim)
    assert j._prod_int(empty, 1, empty, 1)[0].shape == (0, j.dim)


# -- check_inverse_identities against one element at a time -------------------


def _inverse_loop(j, n_samples, seed):
    """``check_inverse_identities`` as a loop over single draws: up to
    4 * n_samples of them, skipping the singular ones.  Returns the
    sample count and the worst residual."""
    rng = random.Random(seed)
    eye = np.eye(j.dim, dtype=np.int64)[None]
    worst = 0
    done = 0
    for _ in range(4 * n_samples):
        if done == n_samples:
            break
        x = j._int_elements(rng, 1, 3)
        pv, dpv = j._p_int(x, 1)
        try:
            y, dw = j._invert_int(x[0], 1, pv[0], dpv)
        except NotInvertibleError:
            continue
        done += 1
        y = y[None]
        py, dpy = j._p_int(y, dw)
        ty, dty = j._t_int(y, dw)
        tv, dtv = j._t_int(x, 1)
        worst = max(
            worst,
            j._worst((1, la.einsum("sab,sb->sa", pv, y), dpv * dw),
                     (-1, x, 1)),
            j._worst((1, la.einsum("sab,sbc->sac", py, pv), dpy * dpv),
                     (-1, eye, 1)),
            *(j._worst((1, lhs, dty * dpv), (-1, tv, dtv))
              for lhs in (la.einsum("sab,sbc->sac", ty, pv),
                          la.einsum("sab,sbc->sac", pv, ty))))
    return done, worst


def _recording_inverses(j, monkeypatch):
    """Record the element of every inversion j attempts, in order."""
    tried = []
    invert = j._invert_int

    def record(x, dx, p, dp):
        tried.append(x.tolist())
        return invert(x, dx, p, dp)
    monkeypatch.setattr(j, "_invert_int", record)
    return tried


def test_inverse_identities_match_the_loop(get_algebra, monkeypatch):
    """Same samples, residual and draws as one element at a time, on
    algebras with null elements (mixed-signature quadratic forms) and on
    R^12, whose draws are mostly singular, so that the 4 * n_samples cap
    ends the draws."""
    cases = [get_algebra("quadratic", signs=(1, -1)),
             get_algebra("quadratic", signs=(1, -1, 1)),
             get_algebra("quadratic", signs=(-1, -1, -1, 1)),
             direct_sum([get_algebra("reals")] * 12)]
    skipped = capped = 0
    for j in cases:
        for n_samples, seed in ((0, 0), (1, 3), (8, 5), (20, 0)):
            tried = _recording_inverses(j, monkeypatch)
            res = j.check_inverse_identities(n_samples=n_samples, seed=seed)
            batched = list(tried)
            tried.clear()
            done, worst = _inverse_loop(j, n_samples, seed)
            assert batched == tried, (j.name, n_samples, seed)
            assert (res.samples, res.max_residual) == (done, worst)
            assert res.passed
            skipped += len(tried) > done
            capped += len(tried) == 4 * n_samples > done
            monkeypatch.undo()
    assert skipped >= 6 and capped >= 2


# -- every check at zero samples ---------------------------------------------


def test_zero_samples_pass(get_algebra):
    j = get_algebra("hermitian_complex", gammas=(1, -1), m=2)
    for alg in (j, j.to_float()):
        for check, samples in (("check_jordan", j.dim),
                               ("check_fundamental", 0),
                               ("check_triple", 0),
                               ("check_self_adjoint", j.dim),
                               ("check_inverse_identities", 0)):
            res = getattr(alg, check)(n_samples=0, seed=0)
            assert res.passed and res.samples == samples, (alg.mode, check)
    model = build_model(j, F(-1))
    res = model.check_quadratic_expansion(hs=())
    assert res.passed and res.samples == 0
    res = model.check_level(count=0)
    assert res.passed and res.samples == 0


# -- kernel calls do not grow with the sample count ---------------------------


def _count_einsum(monkeypatch):
    """Count la.einsum calls, apart from those made inside la.solve."""
    counts = {"einsum": 0, "solve": 0}
    einsum, solve = la.einsum, la.solve
    inside = []

    def counted_einsum(*args):
        if not inside:
            counts["einsum"] += 1
        return einsum(*args)

    def counted_solve(*args):
        counts["solve"] += 1
        inside.append(1)
        try:
            return solve(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(la, "einsum", counted_einsum)
    monkeypatch.setattr(la, "solve", counted_solve)
    return counts


@pytest.mark.parametrize("check", ["check_jordan", "check_fundamental",
                                   "check_self_adjoint",
                                   "check_inverse_identities"])
def test_kernel_calls_do_not_grow_with_samples(check, get_algebra,
                                               monkeypatch):
    j = get_algebra("hermitian_complex", gammas=(1, 1, 1), m=3)
    getattr(j, check)(n_samples=1)  # fills the caches of unit and gram
    runs = []
    for n_samples in (5, 20):
        counts = _count_einsum(monkeypatch)
        res = getattr(j, check)(n_samples=n_samples, seed=1)
        monkeypatch.undo()
        assert res.passed
        runs.append(counts)
    assert runs[0]["einsum"] == runs[1]["einsum"]
    if check == "check_inverse_identities":
        # no draw was singular, so the only per-sample call is solve
        assert [r["solve"] for r in runs] == [5, 20]
    else:
        assert runs[0]["solve"] == runs[1]["solve"] == 0


def test_quadratic_expansion_calls_do_not_grow_with_points(get_model,
                                                           monkeypatch):
    model = get_model("hermitian_complex", gammas=(1, 1, 1), m=3)
    runs = []
    for hs in ((F(1, 3), F(2), F(-1, 5)),
               tuple(F(k, 7) for k in range(-6, 7) if k)):
        counts = _count_einsum(monkeypatch)
        res = model.check_quadratic_expansion(hs=hs)
        monkeypatch.undo()
        assert res.passed and res.samples == 6 * len(hs)
        runs.append(counts["einsum"])
    assert runs[0] == runs[1]


def test_single_element_api_on_stacks(get_algebra):
    """The public single-element operations run the stack kernels on
    one-row stacks: {u, v, w} = (u o v) o w + (w o v) o u - (u o w) o v."""
    j = get_algebra("hermitian_complex", gammas=(1, -1), m=2)
    rng = random.Random(7)
    u, v, w = (tuple(F(rng.randint(-9, 9), rng.randint(1, 5))
                     for _ in range(j.dim)) for _ in range(3))
    uv, wv, uw = j.product(u, v), j.product(w, v), j.product(u, w)
    want = tuple(a + b - c for a, b, c in zip(
        j.product(uv, w), j.product(wv, u), j.product(uw, v)))
    assert j.triple(u, v, w) == want
    tu = j.t_operator(u)
    assert tuple(sum(r * x for r, x in zip(row, v)) for row in tu) == uv
