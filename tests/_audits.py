"""Reference checks and helpers that several test modules share; the
package has no use for them."""

from __future__ import annotations

import math

from idepca.reduction import ProblemSpec
from idepca.trajectory import Trajectory

SPEC_FIELDS = ("a", "b", "direction", "k", "impulse", "initial_window", "horizon", "n0")


def respec(spec: ProblemSpec, **changes) -> ProblemSpec:
    """A new spec with the given fields changed, validated as a new one is."""
    return ProblemSpec(**{**{name: getattr(spec, name) for name in SPEC_FIELDS}, **changes})


def sign_change(u: float, v: float) -> bool:
    """u * v <= 0, evaluated without forming the (possibly huge) product."""
    return u == 0.0 or v == 0.0 or (u > 0.0) != (v > 0.0)


def max_node_discontinuity(traj: Trajectory) -> float:
    """Largest relative gap between left limit and node value (continuity audit)."""
    worst = 0.0
    for rec in traj.nodes:
        if not math.isfinite(rec.z_right):
            continue
        gap = abs(rec.z_left - rec.z_right) / max(1.0, abs(rec.z_left))
        worst = max(worst, gap)
    return worst
