"""Print two benchmark result sets side by side.

Usage:

    python3 scbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records that ``run.py --save FILE`` appends, one per run
(any mix of workloads, seeds and trace settings).  For every workload and
end-to-end metric the tool prints each side's median and quartiles over its
runs, the change of the medians, and whether it exceeds the metric's bound
in BENCHMARK.json.  From traced runs it prints the per-layer self times and
counts with their change.  It also prints each side's median machine probe
(the time of a fixed Python loop), so that a slower machine is not read as a
slower program.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import quartiles  # noqa: E402


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def bounds():
    path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m for m in spec["end_to_end"]}


def _series(records, workload, key, name):
    return [r[key][name] for r in records if r["workload"] == workload and name in r.get(key, {})]


def _delta(base: float, new: float) -> str:
    if base == 0:
        return "n/a"
    return "%+.1f%%" % ((new - base) / base * 100.0)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = bounds()
    workloads = sorted({r["workload"] for r in base} | {r["workload"] for r in new})
    for wl in workloads:
        print("== %s" % wl)
        print("  %-18s %-5s %32s %32s %8s" % ("metric", "unit", "base median [q1, q3] (runs)",
                                             "new median [q1, q3] (runs)", "change"))
        for name, m in spec.items():
            a, b = _series(base, wl, "e2e", name), _series(new, wl, "e2e", name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            worse = (qb[1] - qa[1]) / qa[1] if m["better"] == "lower" else (qa[1] - qb[1]) / qa[1]
            flag = "  WORSE THAN BOUND %.2f" % m["bound"] if worse > m["bound"] else ""
            print("  %-18s %-5s %11.5g [%.5g, %.5g] (%d) %11.5g [%.5g, %.5g] (%d) %8s%s"
                  % (name, m["unit"], qa[1], qa[0], qa[2], len(a), qb[1], qb[0], qb[2], len(b),
                     _delta(qa[1], qb[1]), flag))
        pa = [r["probe_ms"] for r in base if r["workload"] == wl and "probe_ms" in r]
        pb = [r["probe_ms"] for r in new if r["workload"] == wl and "probe_ms" in r]
        if pa and pb:
            ma, mb = statistics.median(pa), statistics.median(pb)
            print("  %-18s %-5s %11.5g %32.5g %8s  (machine speed, not a metric)"
                  % ("machine probe", "ms", ma, mb, _delta(ma, mb)))
        layers = defaultdict(lambda: ([], []))
        for side, records in ((0, base), (1, new)):
            for r in records:
                if r["workload"] == wl:
                    for name, value in r.get("layers", {}).items():
                        layers[name][side].append(value)
        if layers:
            print("  per-layer (traced runs, medians)")
            for name in sorted(layers):
                a, b = layers[name]
                if not a or not b:
                    continue
                ma, mb = statistics.median(a), statistics.median(b)
                print("    %-46s %12.6g %12.6g %8s" % (name, ma, mb, _delta(ma, mb)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
