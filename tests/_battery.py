"""Shared randomized instance battery for the property-based tests.

Instances are generated from a fixed seed (override with the OSC_SEED
environment variable) so any failure is reproducible.  Coefficient
functions are small polynomials or exponentials in t/61; the scaling
keeps exp of their running integrals comfortably inside double range
over the whole horizon.
"""

from __future__ import annotations

import functools
import os
import random
from dataclasses import dataclass

from idepca.diffeq import DiscreteSolution, solve
from idepca.exprlang import parse
from idepca.reduction import (
    Direction,
    DiscreteSystem,
    ImpulseSpec,
    ProblemSpec,
    build_discrete_system,
)

SEED = int(os.environ.get("OSC_SEED", "20250822"))
SIZE = 100
HORIZON = 61
T_SCALE = HORIZON

# Basis functions are damped by 1/5; the drawn coefficients themselves range
# over [-2, 2].  The damping was needed by the nested adaptive Simpson rule,
# whose absolute tolerance made exponential weights over a full deviation
# span cost millions of evaluations.  The per-interval Chebyshev kernel does
# not need it: the same draw undamped builds all 100 instances without a
# numeric failure.  It stays because the acceptance gates are stated on this
# battery.


@dataclass(frozen=True)
class Instance:
    index: int
    source_a: str
    source_b: str
    spec: ProblemSpec
    ds: DiscreteSystem
    sol: DiscreteSolution


def _poly(rng: random.Random) -> str:
    c0, c1, c2 = (rng.uniform(-2.0, 2.0) for _ in range(3))
    return (f"({c0:.17g} + {c1:.17g}*(t/{T_SCALE})"
            f" + {c2:.17g}*(t/{T_SCALE})^2)/5")


def _exponential(rng: random.Random) -> str:
    c0 = rng.uniform(-2.0, 2.0)
    c1 = rng.uniform(-2.0, 2.0)
    return f"{c0:.17g}*exp({c1:.17g}*(t/{T_SCALE})/2)/5"


def _make_instance(rng: random.Random, index: int) -> Instance:
    k = rng.randint(1, 5)
    direction = rng.choice((Direction.DELAYED, Direction.ADVANCED))
    source_a = _poly(rng) if rng.random() < 0.5 else _exponential(rng)
    source_b = _poly(rng) if rng.random() < 0.5 else _exponential(rng)
    factor = rng.uniform(0.25, 2.0)
    window = tuple(rng.uniform(0.5, 1.5) for _ in range(k + 1))
    spec = ProblemSpec(
        a=parse(source_a, "t"),
        b=parse(source_b, "t"),
        direction=direction,
        k=k,
        impulse=ImpulseSpec.constant(factor),
        initial_window=window,
        horizon=HORIZON,
    )
    ds = build_discrete_system(spec)
    sol = solve(ds, spec.initial_window)
    return Instance(index, source_a, source_b, spec, ds, sol)


@functools.lru_cache(maxsize=1)
def get_battery() -> tuple:
    rng = random.Random(SEED)
    return tuple(_make_instance(rng, i) for i in range(SIZE))
