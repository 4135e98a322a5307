"""Problem files for the benchmark workloads, generated from a seed.

Only the standard library is used here, so the files are plain JSON that
any version of the CLI can read.  The battery draw mirrors the test
battery: the same random calls in the same order, so a given seed yields
the same 100 instances as the tests' battery with that seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

BATTERY_SIZE = 100
BATTERY_HORIZON = 61
STIFF_HORIZON = 60

# ROADMAP's stiff probes, verbatim: (a, b, direction, k) at horizon 60,
# no impulses, window all ones.
STIFF_PROBES = (
    ("-3", "-1", "delayed", 5),
    ("3", "1", "advanced", 5),
    ("t/10", "1", "advanced", 3),
    ("5", "1", "advanced", 4),
)


def _battery_poly(rng: random.Random) -> tuple:
    c0, c1, c2 = (rng.uniform(-2.0, 2.0) for _ in range(3))
    s = BATTERY_HORIZON
    source = f"({c0:.17g} + {c1:.17g}*(t/{s}) + {c2:.17g}*(t/{s})^2)/5"
    return source, ("poly", (c0, c1, c2, s))


def _battery_exponential(rng: random.Random) -> tuple:
    c0 = rng.uniform(-2.0, 2.0)
    c1 = rng.uniform(-2.0, 2.0)
    source = f"{c0:.17g}*exp({c1:.17g}*(t/{BATTERY_HORIZON})/2)/5"
    return source, ("exp", (c0, c1, BATTERY_HORIZON))


def battery(seed: int) -> list:
    """The damped 100-instance battery: h=61, basis damped by 1/5, k=1..5.

    Returns (problem document, basis) pairs; basis holds the drawn
    parameters of a and b, for the reference coefficients.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(BATTERY_SIZE):
        k = rng.randint(1, 5)
        direction = rng.choice(("delayed", "advanced"))
        a, a_basis = _battery_poly(rng) if rng.random() < 0.5 else _battery_exponential(rng)
        b, b_basis = _battery_poly(rng) if rng.random() < 0.5 else _battery_exponential(rng)
        factor = rng.uniform(0.25, 2.0)
        window = [rng.uniform(0.5, 1.5) for _ in range(k + 1)]
        doc = {
            "a": a, "b": b, "direction": direction, "k": k,
            "impulse": {"factor": factor}, "initial_window": window,
            "n0": 0, "horizon": BATTERY_HORIZON, "tol": 1e-10,
            "tail_fraction": 0.5,
        }
        out.append((doc, {"a": a_basis, "b": b_basis}))
    return out


def stiff(seed: int, size: int) -> list:
    """Undamped constant-coefficient instances, then the four probes.

    |a| <= 3, |b| <= 1.5, k = 1..5, both directions, constant impulse
    factor in [0.5, 1.5], window all ones.
    """
    rng = random.Random(seed)
    docs = []
    for _ in range(size):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-1.5, 1.5)
        k = rng.randint(1, 5)
        direction = rng.choice(("delayed", "advanced"))
        factor = rng.uniform(0.5, 1.5)
        docs.append({
            "a": repr(a), "b": repr(b), "direction": direction, "k": k,
            "impulse": {"factor": factor}, "initial_window": [1] * (k + 1),
            "horizon": STIFF_HORIZON,
        })
    for a, b, direction, k in STIFF_PROBES:
        docs.append({
            "a": a, "b": b, "direction": direction, "k": k, "impulse": "none",
            "initial_window": [1] * (k + 1), "horizon": STIFF_HORIZON,
        })
    return docs


def write(docs: list, directory: Path, stem: str) -> list:
    """Write each document as <stem>-NNN.json; returns the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, doc in enumerate(docs):
        path = directory / f"{stem}-{i:03d}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
