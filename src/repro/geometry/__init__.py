"""Planar geometry substrate for the gathering reproduction.

Everything the paper's algorithm needs from the plane lives here:
tolerant predicates, clockwise angles under chirality, smallest enclosing
circles, orientation-preserving local frames, and Weber point
machinery.  See DESIGN.md section 3 for the inventory and section 4
for the tolerance model.
"""

from . import kernels
from .angles import (
    TWO_PI,
    clockwise_angle,
    direction_angle,
    normalize_angle,
    rotate_clockwise,
)
from .circle import Circle, circumcircle, smallest_enclosing_circle
from .point import ORIGIN, Point, centroid, distance
from .predicates import (
    Orientation,
    all_collinear,
    are_collinear,
    on_ray,
    orientation,
    point_on_segment,
    point_strictly_between,
    project_parameter,
)
from .tolerance import DEFAULT_TOLERANCE, Tolerance
from .transforms import IDENTITY_FRAME, Frame, random_frame
from .weber import (
    WeberResult,
    geometric_median,
    is_weber_point,
    linear_weber_interval,
    sum_of_distances,
    unit_vector_sum,
)

__all__ = [
    "TWO_PI",
    "clockwise_angle",
    "direction_angle",
    "normalize_angle",
    "rotate_clockwise",
    "Circle",
    "circumcircle",
    "smallest_enclosing_circle",
    "ORIGIN",
    "Point",
    "centroid",
    "distance",
    "Orientation",
    "all_collinear",
    "are_collinear",
    "on_ray",
    "orientation",
    "point_on_segment",
    "point_strictly_between",
    "project_parameter",
    "DEFAULT_TOLERANCE",
    "Tolerance",
    "IDENTITY_FRAME",
    "Frame",
    "random_frame",
    "WeberResult",
    "geometric_median",
    "is_weber_point",
    "linear_weber_interval",
    "sum_of_distances",
    "unit_vector_sum",
]
