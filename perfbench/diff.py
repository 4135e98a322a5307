#!/usr/bin/env python3
"""Compare two benchmark records stage by stage.

    python3 perfbench/diff.py BASE.json NEW.json

BASE and NEW are records that run.py writes to .perfbench/results/.  For
traced records every per-layer quantity (each span's time, self time,
calls and integrand evaluations, mean per operation) is printed side by
side with its base; for untraced ones, the end-to-end metrics.  Then the
output digests of operations present in both are compared, so a change
that should keep behaviour can show byte-identical outputs.
"""

from __future__ import annotations

import json
import sys


def _rows(record: dict) -> dict:
    rows = {name: m["value"] for name, m in record["result"]["metrics"].items()}
    if record.get("trace"):
        for name, value in record["details"].get("per_op_mean", {}).items():
            rows.setdefault(name, value)
    return rows


def _change(base: float, new: float) -> str:
    if base == new:
        return "="
    if base == 0:
        return "new"
    return f"{100.0 * (new - base) / abs(base):+.1f}%"


def _digests(record: dict) -> dict:
    seen = {}
    for op in record["ops"]:
        seen.setdefault(op["id"], set()).add(json.dumps(op["digests"], sort_keys=True))
    return seen


def diff(base: dict, new: dict) -> list:
    lines = [f"base: {base['workload']} seed {base['seed']} trace {base['trace']}",
             f"new:  {new['workload']} seed {new['seed']} trace {new['trace']}"]
    b, n = _rows(base), _rows(new)
    width = max(len(k) for k in b.keys() | n.keys())
    lines.append(f"{'metric':{width}}  {'base':>14}  {'new':>14}  change")
    for name in sorted(b.keys() | n.keys()):
        bv, nv = b.get(name), n.get(name)
        if bv is None or nv is None:
            shown = "only in " + ("new" if bv is None else "base")
            lines.append(f"{name:{width}}  {bv if bv is not None else '-':>14}  "
                         f"{nv if nv is not None else '-':>14}  {shown}")
            continue
        lines.append(f"{name:{width}}  {bv:14.6g}  {nv:14.6g}  {_change(bv, nv)}")
    bd, nd = _digests(base), _digests(new)
    common = sorted(bd.keys() & nd.keys())
    changed = [op for op in common if bd[op] != nd[op]]
    lines.append(f"outputs: {len(common) - len(changed)} of {len(common)} common "
                 f"operations byte-identical")
    lines.extend(f"  differs: {op}" for op in changed)
    return lines


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    print("\n".join(diff(*records)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
