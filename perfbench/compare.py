"""Compare two sets of benchmark results written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

For each workload and end-to-end metric it prints both medians, the change as
a share of the base median, and a verdict against the metric's bound in
BENCHMARK.json: ``worse`` when the head median is worse by more than the bound,
``unresolved`` when the base runs spread wider than the bound, else ``ok``.
Traced results of the same workload and seed are compared count by count.
Outputs whose digest differs for the same workload and seed are reported.

It refuses to compare results taken under different rational backends, so
that a faster backend cannot pass for a faster program.  Exit code: 0 when no
metric is worse, 1 when one is, 2 when the comparison is refused.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values(records: list[dict], workload: str, name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in records
            if r["workload"] == workload and r["trace"] == 0]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    backends = sorted({r["provenance"]["backend"] for r in base + head})
    if len(backends) != 1:
        print(f"refused: results come from different rational backends {backends}",
              file=sys.stderr)
        return 2

    by_key = {(r["workload"], r["seed"], r["trace"]): r for r in base}
    for r in head:
        old = by_key.get((r["workload"], r["seed"], r["trace"]))
        if old is None:
            continue
        if old["info"]["digest"] != r["info"]["digest"]:
            print(f"{r['workload']} seed={r['seed']}: output differs from base")
        if r["trace"]:
            for name, m in r["result"]["metrics"].items():
                was = old["result"]["metrics"][name]["value"]
                if m["unit"] == "count" and m["value"] != was:
                    print(f"{r['workload']} seed={r['seed']} {name}: {was} -> {m['value']}")

    worse = 0
    spec = json.loads(SPEC.read_text())["end_to_end"]
    for workload in sorted({r["workload"] for r in base if r["trace"] == 0}):
        for metric in spec:
            name = metric["name"]
            b, h = values(base, workload, name), values(head, workload, name)
            if not b or not h:
                continue
            mb, mh = statistics.median(b), statistics.median(h)
            change = (mh - mb) / mb
            worse_by = change if metric["better"] == "lower" else -change
            spread = 0.0
            if len(b) >= 2:
                q1, _, q3 = statistics.quantiles(b, n=4)
                spread = (q3 - q1) / mb
            if worse_by > metric["bound"]:
                verdict = "worse"
                worse += 1
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{workload:8s} {name:14s} base {mb:12.6g} head {mh:12.6g} {metric['unit']:6s}"
                  f" change {change:+7.1%} bound {metric['bound']:.0%} spread {spread:.1%}"
                  f" n={len(b)}/{len(h)} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
