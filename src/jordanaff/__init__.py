"""Real Jordan algebras and their equiaffine hypersphere models.

The library builds the simple real Jordan algebras from structure
constants, verifies their defining identities exactly, extracts the
symmetric pair of the reduced structure algebra, and realizes each
algebra's positive cone section as a centro-affine hypersurface whose
metric, cubic form, and curvature come straight from the product.
"""

from .config import RATIONAL, TOL, Tolerances
from .jordan import (
    DimensionMismatchError,
    JordanAlgebra,
    JordanError,
    NotInvertibleError,
    NotSemisimpleError,
    NotUnitalError,
    direct_sum,
)
from .catalog import (
    build,
    degree,
    desk_catalog,
    family_names,
    generic_norm,
    verify_det_formula,
)
from .structure import PairError, SymmetricPair, check_pair, restricted_pair
from .hypersurface import (
    HypersurfaceModel,
    ModelError,
    adapted_constants,
    build_model,
    reconstruct_algebra,
    scale_constant,
    verify_model,
)
from .calabi import (
    CalabiComposition,
    check_composition,
    compose,
    compose_point,
    project_exponents,
)
from .reports import CheckResult, VerificationReport
from . import composition_algebras, serialization

__version__ = "0.1.0"

__all__ = [
    "CalabiComposition",
    "CheckResult",
    "DimensionMismatchError",
    "HypersurfaceModel",
    "JordanAlgebra",
    "JordanError",
    "ModelError",
    "NotInvertibleError",
    "NotSemisimpleError",
    "NotUnitalError",
    "PairError",
    "RATIONAL",
    "SymmetricPair",
    "TOL",
    "Tolerances",
    "VerificationReport",
    "build",
    "build_model",
    "check_composition",
    "check_pair",
    "compose",
    "compose_point",
    "composition_algebras",
    "degree",
    "desk_catalog",
    "direct_sum",
    "family_names",
    "generic_norm",
    "project_exponents",
    "adapted_constants",
    "reconstruct_algebra",
    "restricted_pair",
    "scale_constant",
    "serialization",
    "verify_det_formula",
    "verify_model",
]
