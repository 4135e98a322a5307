"""Oscillation analysis of scalar linear impulsive differential equations
with piecewise constant deviating arguments.

The pipeline: parse coefficient expressions, reduce the hybrid system to a
delayed or advanced linear difference equation via interval-wise variation
of parameters, evaluate oscillation/nonoscillation criteria on the reduced
coefficients, and cross-check against direct simulation of both the
discrete skeleton and the reconstructed continuous trajectory.

Each exported name is resolved on first access, so ``import idepca`` loads
no submodule and a command pays only for the modules it runs.
"""

from importlib import import_module

# exported name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("Expr", "ParseError", "compile_expr", "parse"), "exprlang"),
    **dict.fromkeys(("NumericFailure", "QuadResult", "integrate"), "quad"),
    **dict.fromkeys(("DiagnosticMismatch", "Direction", "DiscreteSystem", "ImpulseSpec",
                     "ProblemSpec", "build_discrete_system"), "reduction"),
    **dict.fromkeys(("DiscreteSolution", "Verdict", "continue_window",
                     "discrete_oscillation_check", "reduce_to_y", "solve"), "diffeq"),
    **dict.fromkeys(("CriterionReport", "evaluate_all", "synthesize_verdict",
                     "tail_stats"), "criteria"),
    **dict.fromkeys(("Trajectory", "continuous_oscillation_check", "reconstruct"),
                    "trajectory"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
