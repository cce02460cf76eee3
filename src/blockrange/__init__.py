"""Numerical ranges of matrices and essential numerical ranges of block
diagonal operators, with a hull-free regrouping of the blocks."""

from .blockop import (
    BUILTIN_TAILS,
    BlockOperatorSpec,
    BuiltinTail,
    LimsupResult,
    VanishingTail,
    limsup_ranges,
    tail_union,
)
from .convex2d import (
    ConvexRegion,
    PointCloud,
    extreme_points,
    grid_angles,
    hausdorff,
    intersect_regions,
    nested_conv_exchange,
)
from .errors import (
    BlockRangeError,
    DegenerateGeometry,
    EmptyInput,
    EmptyIntersection,
    InconsistentResult,
    NoConvergence,
    NonConvergence,
    NotNested,
    NotUnit,
    ParseError,
    ScanExhausted,
    ValidationError,
)
from .essrange import (
    EssentialRangeResult,
    essential_numerical_range,
    translate_spec,
)
from .linalg import ComplexMatrix, rayleigh
from .numrange import (
    NumericalRangeResult,
    numerical_range,
    numerical_ranges,
)
from .oracle import inner_approximate
from .regroup import (
    Decomposition,
    GroupSelection,
    TranslationChoice,
    choose_translation,
    group_region,
    identity_decomposition,
    regroup,
    verify_conv_free,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_TAILS",
    "BlockOperatorSpec",
    "BlockRangeError",
    "BuiltinTail",
    "ComplexMatrix",
    "ConvexRegion",
    "Decomposition",
    "DegenerateGeometry",
    "EmptyInput",
    "EmptyIntersection",
    "EssentialRangeResult",
    "GroupSelection",
    "InconsistentResult",
    "LimsupResult",
    "NoConvergence",
    "NonConvergence",
    "NotNested",
    "NotUnit",
    "NumericalRangeResult",
    "ParseError",
    "PointCloud",
    "ScanExhausted",
    "TranslationChoice",
    "ValidationError",
    "VanishingTail",
    "choose_translation",
    "essential_numerical_range",
    "extreme_points",
    "grid_angles",
    "group_region",
    "hausdorff",
    "identity_decomposition",
    "inner_approximate",
    "intersect_regions",
    "limsup_ranges",
    "nested_conv_exchange",
    "numerical_range",
    "numerical_ranges",
    "rayleigh",
    "regroup",
    "tail_union",
    "translate_spec",
    "verify_conv_free",
]
