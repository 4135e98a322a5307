"""Oscillation analysis of scalar linear impulsive differential equations
with piecewise constant deviating arguments.

The pipeline: parse coefficient expressions, reduce the hybrid system to a
delayed or advanced linear difference equation via interval-wise variation
of parameters, evaluate oscillation/nonoscillation criteria on the reduced
coefficients, and cross-check against direct simulation of both the
discrete skeleton and the reconstructed continuous trajectory.
"""

from .exprlang import Expr, ParseError, compile_expr, parse
from .quad import NumericFailure, QuadResult, integrate
from .reduction import (
    DiagnosticMismatch,
    Direction,
    DiscreteSystem,
    ImpulseSpec,
    ProblemSpec,
    build_discrete_system,
)
from .diffeq import (
    DiscreteSolution,
    Verdict,
    continue_window,
    discrete_oscillation_check,
    reduce_to_y,
    solve,
)
from .criteria import CriterionReport, evaluate_all, synthesize_verdict, tail_stats
from .trajectory import Trajectory, continuous_oscillation_check, reconstruct

__version__ = "0.1.0"
