"""Check each CLI output against the independent references in oracle.py.

Every check takes the operation's outputs and returns None when they are
right, or a one-line reason when they are not.  A reason names the defect
where one is known, so a failure is attributed where it is counted.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np

import oracle

VERDICTS = {"Oscillatory", "Nonoscillatory", "Inconclusive", "ConflictDetected"}
OSCILLATION_IDS = {"ErbeZhang", "LadasPhilosSficas", "GyoriLadasA", "GyoriLadasB",
                   "OcalanAkin"}
CHECK_NAMES = {"dual_route_q_audit", "alpha_telescoping", "recursion_residual",
               "reduced_form_residual", "node_consistency"}


class Model:
    """A problem's coefficient functions, in the form the references need.

    kind "constant": a, b are numbers; "reciprocal": a = b = 1/t;
    "battery": basis holds the drawn parameters of a and b.
    """

    def __init__(self, doc: dict, kind: str, basis=None):
        self.doc = doc
        self.kind = kind
        self.basis = basis
        self.k = doc["k"]
        self.direction = doc["direction"]
        self.n0 = doc.get("n0", 0)
        imp = doc["impulse"]
        self.r = 1.0 if imp == "none" else float(imp["factor"])
        if kind == "constant":
            self.a = float(Fraction(doc["a"]))
            self.b = float(Fraction(doc["b"]))
        self._tables = {}

    def coefficients(self, horizon: int) -> oracle.Coefficients:
        if horizon not in self._tables:
            args = (self.direction, self.k, self.n0, horizon)
            if self.kind == "constant":
                table = oracle.constant_coefficients(self.a, self.b, self.r, *args)
            elif self.kind == "reciprocal":
                table = oracle.example2_coefficients(self.k, self.n0, horizon, self.r)
            else:
                table = oracle.battery_coefficients(self.basis["a"], self.basis["b"],
                                                    self.r, *args)
            self._tables[horizon] = table
        return self._tables[horizon]

    def positive_root(self):
        """(decided, has positive root) from the characteristic equation."""
        if self.kind != "constant":
            return False, None
        an, bn = oracle.constant_an_bn(self.a, self.b, self.r)
        return True, oracle.has_positive_root(an, bn, self.k, self.direction)


# -- coeffs -------------------------------------------------------------------

def check_coeffs(model: Model, horizon: int, stdout: str, files: dict):
    ref = model.coefficients(horizon)
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != ["n", "a_n", "b_n", "alpha_n", "q_n"]:
        return "coeffs: missing or wrong CSV header"
    body = rows[1:]
    if len(body) != horizon - model.n0:
        return f"coeffs: {len(body)} rows, expected {horizon - model.n0}"
    for row in body:
        n = int(row[0])
        i = n - model.n0
        for name, got, want in (("a_n", row[1], ref.a[i]), ("b_n", row[2], ref.b[i]),
                                ("alpha_n", row[3], ref.alpha[i])):
            if not oracle.close(float(got), want):
                return f"coeffs: {name} at n={n} is {got}, reference {want!r}"
        want_q = ref.q.get(n)
        if (row[4] == "") != (want_q is None):
            return f"coeffs: q_n presence wrong at n={n}"
        if want_q is not None and not oracle.close(float(row[4]), want_q):
            return f"coeffs: q_n at n={n} is {row[4]}, reference {want_q!r}"
    return None


# -- analyze ------------------------------------------------------------------

def _fired(doc: dict) -> list:
    return [c["criterion_id"] for c in doc["criteria"] if c["verdict"] == "Fires"]


def check_analyze(model: Model, horizon: int, stdout: str, files: dict):
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return "analyze: stdout is not JSON"
    if doc.get("k") != model.k or doc.get("direction") != model.direction:
        return "analyze: wrong k or direction echoed"
    verdict = doc.get("overall_verdict")
    if verdict not in VERDICTS:
        return f"analyze: unknown verdict {verdict!r}"
    q = model.coefficients(horizon).q
    for c in doc["criteria"]:
        cid = c["criterion_id"]
        stat, thr, margin, scale = oracle.criterion_reference(cid, q, model.k, c["window"])
        if not oracle.close(c["threshold"], thr):
            return f"analyze: {cid} threshold {c['threshold']!r}, reference {thr!r}"
        if not oracle.close(c["statistic"], stat, scale):
            return f"analyze: {cid} statistic {c['statistic']!r}, reference {stat!r}"
        if not oracle.close(c["margin"], margin, max(scale, abs(thr))):
            return f"analyze: {cid} margin {c['margin']!r}, reference {margin!r}"
    fired = _fired(doc)
    if verdict == "ConflictDetected":
        return f"ConflictDetected: fired {','.join(fired)}"
    decided, root = model.positive_root()
    if decided and root and verdict == "Oscillatory":
        osc = [c for c in fired if c in OSCILLATION_IDS]
        an, bn = oracle.constant_an_bn(model.a, model.b, model.r)
        lams = oracle.positive_roots(an, bn, model.k, model.direction)
        lam = f"{lams[0]:.4g}" if lams else "?"
        return (f"unsound Oscillatory: fired {','.join(osc)}, but lambda={lam} > 0 "
                f"solves the characteristic equation")
    if decided and not root and verdict == "Nonoscillatory":
        return (f"unsound Nonoscillatory: fired {','.join(fired)}, but the "
                f"characteristic equation has no positive root")
    return None


# -- check --------------------------------------------------------------------

def check_check(model: Model, horizon: int, stdout: str, files: dict):
    lines = stdout.splitlines()
    names = set()
    for line in lines:
        status, _, rest = line.partition(" ")
        name = rest.split(":", 1)[0]
        names.add(name)
        if status != "PASS":
            return f"check: {line}"
    if not CHECK_NAMES <= names:
        return f"check: invariants missing: {sorted(CHECK_NAMES - names)}"
    expected = len(model.coefficients(horizon).q)
    audit = next(l for l in lines if "dual_route_q_audit" in l)
    if f" {expected} indices compared" not in audit:
        return f"check: audit compared the wrong count, expected {expected}: {audit}"
    return None


# -- simulate -----------------------------------------------------------------

def _rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def check_simulate(model: Model, horizon: int, samples: int, stdout: str, files: dict):
    """Samples against the interval solution, given the file's node values.

    On [n, n+1): z(t) = E(t) (z_n + z_dev G(t)).  z_n, z_dev come from the
    node table (or the initial window); the closed-form E and G come from
    the model.  The left limit at n+1 must match too, which ties each node
    value to the recursion with the reference a_n and b_n.
    """
    traj = _rows(files.get("trajectory.csv", ""))
    nodes = _rows(files.get("nodes.csv", ""))
    if traj[:1] != [["t", "z"]] or nodes[:1] != [["n", "z_left", "z_right", "jump_factor"]]:
        return "simulate: missing or wrong CSV header"
    try:
        verdicts = json.loads(files.get("verdicts.json", ""))
    except json.JSONDecodeError:
        return "simulate: verdicts file is not JSON"
    kind = "constant" if model.kind == "constant" else "reciprocal"
    params = (model.a, model.b) if kind == "constant" else ()
    k, n0 = model.k, model.n0
    window = model.doc["initial_window"]
    if model.direction == "delayed":
        z_node = {n0 - k + i: float(v) for i, v in enumerate(window)}
        dev = -k
    else:
        z_node = {n0 + i: float(v) for i, v in enumerate(window)}
        dev = k
    left = {}
    for n, z_left, z_right, r in nodes[1:]:
        n = int(n)
        if not oracle.close(float(r), model.r):
            return f"simulate: jump factor at node {n} is {r}"
        left[n] = float(z_left)
        if math.isfinite(float(z_right)):
            z_node.setdefault(n, float(z_right))
            if not oracle.close(float(z_right), model.r * left[n]):
                return f"simulate: node {n} right value is not r times its left limit"
    body = traj[1:]
    if len(body) % samples:
        return "simulate: sample count is not a multiple of --samples"
    tau = np.arange(samples) / samples
    for start in range(0, len(body), samples):
        block = body[start:start + samples]
        n = int(round(float(block[0][0])))
        t = np.array([float(row[0]) for row in block])
        z = np.array([float(row[1]) for row in block])
        if not np.allclose(t, n + tau, rtol=1e-9, atol=0.0):
            return f"simulate: sample times on [{n}, {n + 1}) are off the grid"
        if n + 1 not in left or n not in z_node:
            return f"simulate: no node values for interval [{n}, {n + 1})"
        z_n = z_node[n]
        if not oracle.close(z[0], z_n):
            return f"simulate: z({n}) is {z[0]!r}, node value {z_n!r}"
        e, g = oracle.interval_weights(kind, params, n, np.append(tau, 1.0))
        z_dev = z_node.get(n + dev)
        if z_dev is None:
            # past the node table's end: take it from the left limit at n+1
            z_dev = (left[n + 1] / e[-1] - z_n) / g[-1]
        ref = e * (z_n + z_dev * g)
        got = np.append(z, left[n + 1])
        scale = e * (abs(z_n) + abs(z_dev * g))
        bad = np.abs(got - ref) > oracle.REL_TOL * scale
        if bad.any():
            i = int(np.argmax(bad))
            return (f"simulate: z on [{n}, {n + 1}) at sample {i} is {float(got[i])!r}, "
                    f"interval solution {float(ref[i])!r}")
    for key in ("discrete", "continuous"):
        v = verdicts.get(key, {}).get("verdict")
        if v not in {"Oscillatory", "EventuallyPositive", "EventuallyNegative",
                     "Inconclusive"}:
            return f"simulate: {key} verdict {v!r}"
        decided, root = model.positive_root()
        if decided and not root and v.startswith("Eventually"):
            return f"simulate: {key} verdict {v} but every solution oscillates"
    return None
