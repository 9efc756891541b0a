"""Arithmetic modes and the shared tolerance settings.

The mode of an algebra decides the dtype its identity checks run in
(integers over a common denominator, or float64) and their zero test.
Every floating-point comparison in the library routes through one
``Tolerances`` record so that thresholds are set in exactly one place.
Rational-mode checks never use tolerances; they compare exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

RATIONAL = "rational"
FLOAT = "float"

@dataclass(frozen=True)
class Tolerances:
    """Float-mode thresholds used across the verification suites.

    rel: relative tolerance for residuals of algebraic identities, and
        the relative cutoff of float inertia, rank and unit solves.  A
        float identity residual is taken relative to the largest term it
        cancels, and passes when at most ``rel + abs_floor``.
    abs_floor: added to ``rel`` in that zero test.
    level: relative tolerance for hypersurface level-set membership.
    det_floor: relative floor below which a quadratic-operator
        determinant is treated as singular when inverting.
    """

    rel: float = 1e-9
    abs_floor: float = 1e-12
    level: float = 1e-8
    det_floor: float = 1e-12


TOL = Tolerances()
