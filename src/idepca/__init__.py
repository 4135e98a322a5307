"""Oscillation analysis of scalar linear impulsive differential equations
with piecewise constant deviating arguments.

The pipeline: parse coefficient expressions, reduce the hybrid system to a
delayed or advanced linear difference equation via interval-wise variation
of parameters, evaluate oscillation/nonoscillation criteria on the reduced
coefficients, and cross-check against direct simulation of both the
discrete skeleton and the reconstructed continuous trajectory.

The package re-exports nothing: names come from their submodules
(idepca.cli, idepca.reduction, ...), so ``import idepca`` loads none.
"""

__version__ = "0.1.0"
