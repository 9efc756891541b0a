"""The one arithmetic and the shared tolerance settings.

Every algebra holds integers over a common denominator, and every
identity check compares exactly; no verdict on an algebra uses a
tolerance.  Floats enter in two places only, and each reads its
threshold from the one ``Tolerances`` record: float input, which
:mod:`jordanaff.serialization` snaps to rationals, and the geometry of
sampled points on a hypersurface model.
"""

from __future__ import annotations

from dataclasses import dataclass

# the arithmetic of every algebra, as the "mode" of files and reports
RATIONAL = "rational"


@dataclass(frozen=True)
class Tolerances:
    """Float thresholds at the edges of the exact library.

    rel: relative distance within which a float entry of an algebra file
        snaps to a rational (:func:`jordanaff.serialization.from_jsonable`).
    abs_floor: slack of the balance constraint on the exponents of a
        composed point, relative to the largest exponent or 1
        (:func:`jordanaff.calabi.compose_point`).
    level: relative tolerance for hypersurface level-set membership.
    """

    rel: float = 1e-9
    abs_floor: float = 1e-12
    level: float = 1e-8


TOL = Tolerances()
