"""Rational points on y^2 = x(x+M)(x+N) via 2-descent and staged search."""

__version__ = "0.1.0"

from .curves import ConcordantCurve, CurvePoint, log_height, point_log_height
from .descent import (
    DescentTriplet,
    HomogeneousSpace,
    build_homogeneous_space,
    descent_generators,
    lift_solution,
    triplet_solvable,
)
from .integers import (
    Factorization,
    factorize,
    is_perfect_square,
    primitive_normalize,
    squarefree_part,
)
from .quadforms import (
    ConicParametrization,
    LegendreForm,
    TernaryForm,
    find_conic_point,
    legendre_solvable,
    parametrize_conic,
    reduce_to_legendre,
    zero_coordinate_point,
)
from .solver import (
    SearchOutcome,
    StagePins,
    select_equation_pair,
    strong_solve,
    weak_solve,
)
