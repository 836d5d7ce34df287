"""capid: exact capacity-core algebra and sharp identification of
decision-rule distributions from aggregate choice data with unobserved menus.
"""

from .capacity import (
    Capacity,
    GroundSet,
    Measure,
    capacity_from_mobius,
    core_contains,
    core_vertices,
    cylindrical_extension,
    decompose_in_mixture_core,
    is_belief_function,
    is_convex,
    lower_probability,
    mixture,
    mobius,
    pushforward,
    pushforward_measure,
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
    "capacity_from_mobius",
    "core_contains",
    "core_vertices",
    "cylindrical_extension",
    "decompose_in_mixture_core",
    "is_belief_function",
    "is_convex",
    "lower_probability",
    "mixture",
    "mobius",
    "pushforward",
    "pushforward_measure",
    "CapidError",
    "InfeasibleSetError",
    "NotConvexError",
    "SizeLimitError",
    "ValidationError",
    "__version__",
]
