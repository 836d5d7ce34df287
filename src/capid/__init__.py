"""capid: exact capacity-core algebra and sharp identification of
decision-rule distributions from aggregate choice data with unobserved menus.
"""

from .capacity import (
    Capacity,
    GroundSet,
    Measure,
    core_vertices,
    decompose_in_mixture_core,
    is_belief_function,
    is_convex,
)
from .errors import (
    CapidError,
    InfeasibleSetError,
    NotConvexError,
    SizeLimitError,
    ValidationError,
)

__version__ = "0.1.0"

__all__ = [
    "Capacity",
    "GroundSet",
    "Measure",
    "core_vertices",
    "decompose_in_mixture_core",
    "is_belief_function",
    "is_convex",
    "CapidError",
    "InfeasibleSetError",
    "NotConvexError",
    "SizeLimitError",
    "ValidationError",
    "__version__",
]
