"""Cayley-Dickson composition algebras over the reals, up to dimension 8.

The doubling convention is fixed once and used everywhere:

    (x, y) * (u, v) = (x*u + gamma * conj(v)*y,  v*x + y*conj(u))
    conj((x, y))    = (conj(x), -y)

with one sign ``gamma`` per doubling step.  All-minus signs give the
division algebras R, C, H, O; any plus sign gives the split form of the
same dimension.  The norm is N(a) = real-part(a * conj(a)), so for
instance N(1 + e) = 0 in the split complexes.

Basis units are indexed 0 .. 2^k - 1 with unit m < 2^(k-1) embedded as
(e_m, 0) and unit 2^(k-1) + t as (0, e_t).  Products of units are signed
units, so the whole algebra is described by an integer table; the
induced quaternion table in the division case is i*j = k, j*k = i,
k*i = j for (i, j, k) = (e1, e2, e3), and the octonion table extends it
with e1*e4 = e5, e2*e4 = e6, e3*e4 = e7.

An element is an integer array (sig.dim, k) of its coefficients, real
(k = 1) or complex (k = 2, as (re, im)).  The functions below take
stacks of them, and :func:`cd_mul` multiplies two stacks in one exact
contraction of the integer kernel, :func:`exactla.einsum`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exactla as la


class SignatureMismatchError(ValueError):
    """Operands belong to composition algebras of different signatures."""


@dataclass(frozen=True)
class CDSignature:
    """Signs of the doubling steps; length k between 0 and 3."""

    gammas: tuple

    def __post_init__(self):
        if len(self.gammas) > 3:
            raise ValueError("doubling beyond dimension 8 loses alternativity "
                             "and is not supported")
        if any(g not in (-1, 1) for g in self.gammas):
            raise ValueError("each doubling sign must be +1 or -1")

    @property
    def level(self) -> int:
        return len(self.gammas)

    @property
    def dim(self) -> int:
        return 2 ** len(self.gammas)

    @property
    def is_split(self) -> bool:
        return any(g == 1 for g in self.gammas)

    @property
    def name(self) -> str:
        base = {0: "reals", 1: "complexes", 2: "quaternions", 3: "octonions"}
        word = base[self.level]
        return f"split-{word}" if self.is_split else word


REALS = CDSignature(())
COMPLEXES = CDSignature((-1,))
SPLIT_COMPLEXES = CDSignature((1,))
QUATERNIONS = CDSignature((-1, -1))
SPLIT_QUATERNIONS = CDSignature((-1, 1))
OCTONIONS = CDSignature((-1, -1, -1))
SPLIT_OCTONIONS = CDSignature((-1, -1, 1))


@lru_cache(maxsize=None)
def unit_table(sig: CDSignature):
    """table[i][j] = (k, s) meaning e_i * e_j = s * e_k."""
    if sig.level == 0:
        return (((0, 1),),)
    lower = CDSignature(sig.gammas[:-1])
    sub = unit_table(lower)
    h = lower.dim
    g = sig.gammas[-1]

    def cj(entry):
        k, s = entry
        return (k, s if k == 0 else -s)

    table = [[None] * (2 * h) for _ in range(2 * h)]
    for i in range(h):
        for j in range(h):
            table[i][j] = sub[i][j]
    for i in range(h):
        for t in range(h):
            k, s = sub[t][i]
            table[i][h + t] = (h + k, s)
    for s_ in range(h):
        for j in range(h):
            # e_{h+s} * e_j = (0, e_s * conj(e_j))
            cjj, cjs = cj((j, 1))
            kk, ss = sub[s_][cjj]
            table[h + s_][j] = (h + kk, ss * cjs)
    for s_ in range(h):
        for t in range(h):
            # e_{h+s} * e_{h+t} = (gamma * conj(e_t) * e_s, 0)
            ct, cs = cj((t, 1))
            kk, ss = sub[ct][s_]
            table[h + s_][h + t] = (kk, g * ss * cs)
    return tuple(tuple(row) for row in table)


@lru_cache(maxsize=None)
def mul_table_tensor(sig: CDSignature) -> np.ndarray:
    """Dense (dim, dim, dim) int8 tensor M with (a*b)_k = sum M[i,j,k] a_i b_j."""
    d = sig.dim
    tab = unit_table(sig)
    M = np.zeros((d, d, d), dtype=np.int8)
    for i in range(d):
        for j in range(d):
            k, s = tab[i][j]
            M[i, j, k] = s
    return M


def _check_len(sig, a):
    if a.shape[-2] != sig.dim:
        raise SignatureMismatchError(
            f"coefficient vector of length {a.shape[-2]} does not match "
            f"{sig.name} (dimension {sig.dim})")


@lru_cache(maxsize=None)
def _entry_table(sig: CDSignature, k):
    """int8 table of the product of entries with real (k = 1) or complex
    (k = 2) coefficients: sig's table tensored with that of R or C,
    flattened to (sig.dim * k,) * 3."""
    scalars = mul_table_tensor(COMPLEXES if k == 2 else REALS)
    n = sig.dim * k
    table = np.einsum("ijk,abc->iajbkc", mul_table_tensor(sig),
                      scalars).reshape(n, n, n)
    table.flags.writeable = False
    return table


def cd_mul(sig: CDSignature, a, b):
    """Products of stacked entries: a and b are integer arrays of shape
    (..., sig.dim, k), broadcast against each other, whose last axis holds
    a real (k = 1) or complex (k = 2, (re, im)) coefficient.  One exact
    :func:`exactla.einsum` against the cached entry table."""
    a, b = np.broadcast_arrays(a, b)
    _check_len(sig, a)
    n = sig.dim * a.shape[-1]
    out = la.einsum("sx,sy,xyz->sz", a.reshape(-1, n), b.reshape(-1, n),
                    (_entry_table(sig, a.shape[-1]), 1))
    return out.reshape(a.shape)


def cd_conj(sig: CDSignature, a):
    _check_len(sig, a)
    return np.concatenate([a[..., :1, :], -a[..., 1:, :]], axis=-2)


def cd_real(a):
    """Coefficient of the unit 1, shape (..., k)."""
    return a[..., 0, :]


def cd_norm(sig: CDSignature, a):
    """N(a) = real-part(a * conj(a))."""
    return cd_real(cd_mul(sig, a, cd_conj(sig, a)))


def cd_unit(sig: CDSignature, k, one=1):
    return tuple(one if i == k else 0 for i in range(sig.dim))
