"""Benchmark of the spacecover CLI: seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 scbench/run.py --workload primal-random --seed 0 --seconds 40 --trace 0
    python3 scbench/run.py --workload all --seed 0

One run builds the workload's seeded corpus of SCPM files, then decides it
as many times as the workload has passes, each time in a fresh child process,
one instance at a time (a closed loop with one client), through
``spacecover.cli.main(["solve", FILE, "--json", ...])``.  A workload may add
light passes, which skip the costly host queries.  An instance's verdict
time is the median of its times (see stats.row_time).  Every verdict is
checked against ``solve --oracle`` and every yes report against ``check``.  With
``--trace 1`` one more fresh child decides the same corpus with the layers
traced (see tracer.py) and the run reports per-layer metrics instead of
end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
unless a verdict was wrong or unstable or a certificate was rejected (1), or
the run could not be made (2, and no JSON line is printed).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".scbench")

# Set-up is timed at least this many times, spread evenly over the slots
# before each pass and after the last one.
SETUP_PROBES = 8
ORACLE_LIMIT_S = 60.0

E2E_UNITS = {"total_s": "s", "verdict_p50_ms": "ms", "verdict_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


class InstanceTimeout(BaseException):
    """Raised by the interval timer.

    It derives from BaseException so that the CLI's ``except Exception``
    cannot turn a timeout into exit code 2.
    """


class ChildFailed(Exception):
    """A child process of the run exited non-zero or ran past its time."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


def _corpus_dir(workload: str, seed: int) -> str:
    return os.path.join(WORK, "corpus", "%s-%d" % (workload, seed))


# ---------------------------------------------------------------------------
# child: choice of draws (untimed) and set-up probe


def select(workload: str, seed: int, seconds: float) -> dict:
    """Choose each row's draw (see workloads.select) and write the choice."""
    import workloads

    wl = workloads.WORKLOADS[workload]
    attempts = workloads.select(wl, seed, workloads.corpus_size(wl, seconds))
    out = _corpus_dir(workload, seed)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "attempts.json"), "w", encoding="utf-8") as fh:
        json.dump(attempts, fh)
    return {"n": len(attempts)}


def probe(workload: str, seed: int) -> dict:
    """Import spacecover, build the corpus and write it; time all of it."""
    start = time.perf_counter()
    import spacecover.cli  # noqa: F401  (numpy comes in through derand)
    import workloads

    wl = workloads.WORKLOADS[workload]
    out = _corpus_dir(workload, seed)
    with open(os.path.join(out, "attempts.json"), encoding="utf-8") as fh:
        rows = workloads.build_corpus(wl, seed, json.load(fh))
    manifest = []
    for row in rows:
        name = "%04d.scpm" % row.index
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            fh.write(row.text)
        manifest.append({"file": name, "mode": row.mode, "n": row.n, "m": row.m,
                         "k": row.k, "terminals": row.terminals, "cell": row.cell})
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    elapsed = time.perf_counter() - start
    return {"setup_s": elapsed, "digest": workloads.corpus_digest(rows), "n": len(rows)}


# ---------------------------------------------------------------------------
# child: one pass over the corpus


def _call_cli(cli, argv):
    """Run cli.main in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _timed_cli(cli, argv, limit: float):
    """(exit code, stdout, seconds); exit code None means the limit was hit."""
    start = time.perf_counter()
    try:
        if limit:
            signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            code, text = _call_cli(cli, argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except InstanceTimeout:
        return None, "", time.perf_counter() - start
    return code, text, time.perf_counter() - start


def machine_probe_ms(repeats: int = 21) -> float:
    """Median time of a fixed pure-Python loop, in ms: how fast the machine runs now.

    It is not a metric; it lets a reader tell a slow machine from a slow
    program when two runs differ.
    """
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(50000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def run_pass(workload: str, seed: int, limit: float, trace: bool, verify: bool,
             light: bool) -> dict:
    import resource

    import spacecover.cli as cli
    import workloads
    from tracer import Tracer, layer_metrics

    wl = workloads.WORKLOADS[workload]
    corpus = _corpus_dir(workload, seed)
    with open(os.path.join(corpus, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if trace else None
    probes = [machine_probe_ms()]
    if tracer is not None:
        tracer.install()
    indices = [i for i, entry in enumerate(manifest)
               if not light or workloads.in_light_pass(entry["cell"])]
    rows = []
    try:
        for i in indices:
            entry = manifest[i]
            path = os.path.join(corpus, entry["file"])
            if tracer is not None:
                tracer.begin_instance(i, "cli.solve")
            code, text, elapsed = _timed_cli(cli, ["solve", path, "--json", *wl.solve_args], limit)
            if tracer is not None:
                tracer.end_instance()
            rows.append({"file": entry["file"], "code": code, "seconds": elapsed,
                         "report": text.strip()})
    finally:
        if tracer is not None:
            tracer.uninstall()
    probes.append(machine_probe_ms())
    result = {"indices": indices,
              "codes": [r["code"] for r in rows], "seconds": [r["seconds"] for r in rows],
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "probe_ms": probes}
    if tracer is not None:
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        tracer.write(os.path.join(WORK, "spans", "%s-%d.jsonl" % (workload, seed)))
        result["layers"] = layer_metrics(tracer.spans(), tracer.counts)
    if verify:
        result["checks"] = _verify(cli, corpus, rows)
    return result


def _verdict(code):
    return {0: "yes", 1: "no", None: "timeout"}.get(code, "error")


def _verify(cli, corpus: str, rows: list) -> list:
    """Oracle verdict, certificate check, t and guesses of each row, outside the timed loop."""
    import workloads
    from spacecover import fileio

    report_dir = os.path.join(corpus, "reports")
    os.makedirs(report_dir, exist_ok=True)
    out = []
    for r in rows:
        path = os.path.join(corpus, r["file"])
        code, _, oracle_s = _timed_cli(cli, ["solve", path, "--json", "--oracle"], ORACLE_LIMIT_S)
        check = None
        if r["code"] == 0:
            report_path = os.path.join(report_dir, r["file"] + ".json")
            with open(report_path, "w", encoding="utf-8") as fh:
                fh.write(r["report"] + "\n")
            check = _call_cli(cli, ["check", path, report_path])[0] == 0
        inst = fileio.parse_file(path)
        guesses = json.loads(r["report"])["stats"].get("guesses", 0) if r["report"] else None
        out.append({"oracle": _verdict(code), "oracle_s": oracle_s, "check": check,
                    "t": workloads.row_types(inst), "r": inst.r, "guesses": guesses})
    return out


# ---------------------------------------------------------------------------
# parent


def _child(args: list, env=None, timeout=None) -> dict:
    """Run this script in a fresh interpreter; its last stdout line is JSON."""
    argv = [sys.executable, os.path.abspath(__file__), *args]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed("child %s ran past %.0f s" % (" ".join(args), timeout))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise ChildFailed("child %s exited with %d" % (" ".join(args), proc.returncode))
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed("child %s printed no result" % " ".join(args))


def _fmt(value: float) -> str:
    return "%.6g" % value


def pass_schedule(passes: int, light_passes: int) -> list:
    """Whether each pass in turn is light: the light passes spread evenly after the full ones."""
    schedule = []
    for p in range(passes):
        schedule.append(False)
        schedule += [True] * (light_passes // passes + (p < light_passes % passes))
    return schedule


def merged_verdict(verdicts) -> str:
    """One verdict from the passes' verdicts of a row."""
    verdicts = set(verdicts)
    if "timeout" in verdicts:
        return "timeout"
    if len(verdicts) > 1:
        return "unstable"
    return verdicts.pop()


def row_status(verdict: str, oracle: str, check) -> str:
    """ok, or why the row failed; check is None when no certificate was checked."""
    if check is False:
        return "rejected"
    if verdict in ("timeout", "error", "unstable"):
        return verdict
    if oracle not in ("yes", "no"):
        return "unverified"
    return "ok" if verdict == oracle else "wrong"


# statuses that make a run incorrect; the others are failed but not wrong
WRONG = ("wrong", "rejected", "unstable")
STATUSES = ("timeout", "error", "unverified") + WRONG


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 limit_override, save) -> int:
    try:
        return _run_workload(workload, seed, seconds, trace, limit_override, save)
    except ChildFailed as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def _run_workload(workload: str, seed: int, seconds: float, trace: bool,
                  limit_override, save) -> int:
    import stats
    import workloads

    wl = workloads.WORKLOADS[workload]
    limit = wl.limit_s if limit_override is None else limit_override
    common = ["--workload", workload, "--seed", str(seed)]

    # Untimed: choose the draws.  This child also writes the bytecode, even
    # where PYTHONDONTWRITEBYTECODE is set.  The timed set-up probes go
    # between the passes, so setup_s sees the machine as the passes do.
    n = _child(["--select", *common, "--seconds", str(seconds)],
               env={k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"})["n"]
    pass_args = [*common, "--limit", str(limit)]
    budget = n * (limit + ORACLE_LIMIT_S) + 60.0 if limit else None
    schedule = pass_schedule(wl.passes, wl.light_passes)
    slot_probes = -(-SETUP_PROBES // (len(schedule) + 1))
    probes, passes = [], []
    for p in range(len(schedule) + 1):
        probes += [_child(["--probe", *common]) for _ in range(slot_probes)]
        if p < len(schedule):
            passes.append(_child(["--pass", *pass_args, *(["--verify"] if p == 0 else []),
                                  *(["--light"] if schedule[p] else [])], timeout=budget))
    if len({p["digest"] for p in probes}) != 1:
        print("error: the same seed produced different corpora", file=sys.stderr)
        return 2
    setup_s = statistics.median(p["setup_s"] for p in probes)
    full = [p for p, light in zip(passes, schedule) if not light]

    with open(os.path.join(_corpus_dir(workload, seed), "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    decided = [[] for _ in manifest]        # (code, seconds) of each pass that decided the row
    for p in passes:
        for i, code, elapsed in zip(p["indices"], p["codes"], p["seconds"]):
            decided[i].append((code, elapsed))
    rows = []
    for entry, check, times in zip(manifest, passes[0]["checks"], decided):
        verdict = merged_verdict(_verdict(c) for c, _ in times)
        rows.append(dict(entry, **check, verdict=verdict,
                         status=row_status(verdict, check["oracle"], check["check"]),
                         seconds=stats.row_time((None if c is None else t for c, t in times),
                                                limit),
                         pass_seconds=[t for _, t in times]))
    rows_path = os.path.join(WORK, "rows-%s-%d.jsonl" % (workload, seed))
    with open(rows_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    by_status = {s: [r for r in rows if r["status"] == s] for s in STATUSES}
    failed = sum(len(v) for v in by_status.values())
    correct = not any(by_status[s] for s in WRONG)

    summary = stats.summarize([r["seconds"] for r in rows])
    e2e = {"total_s": summary["total_s"], "verdict_p50_ms": summary["verdict_p50_ms"],
           "verdict_tail_ms": summary["verdict_tail_ms"], "setup_s": setup_s,
           "peak_rss_mb": max(p["peak_rss_mb"] for p in full)}

    yes = sum(1 for r in rows if r["oracle"] == "yes")
    k_mix = {}
    for r in rows:
        k_mix[r["k"]] = k_mix.get(r["k"], 0) + 1
    print("workload %s  seed %d  N=%d  yes share %.3f  k mix %s  limit %gs  passes %d + %d light"
          % (workload, seed, n, yes / n, " ".join("k%d:%d" % kv for kv in sorted(k_mix.items())),
             limit, wl.passes, wl.light_passes))
    print("  one line per instance (t, guesses, verdicts, times): %s"
          % os.path.relpath(rows_path, ROOT))
    for name, value in e2e.items():
        print("  %-24s %12s %s" % (name, _fmt(value), E2E_UNITS[name]))
    print("  %-24s %12s (p%g of N=%d, 10 beyond)" % ("  tail percentile", "", summary["tail_pct"], n))
    print("  %-24s %12s   (%s of %d)" % ("failed_frac", _fmt(failed / n), ", ".join(
        "%d %s" % (len(by_status[s]), s) for s in STATUSES), n))

    metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in e2e.items()}
    probe_ms = statistics.median(ms for p in passes for ms in p["probe_ms"])
    print("  %-24s %12s ms  (median time of a fixed Python loop around the passes; "
          "not a metric)" % ("machine probe", _fmt(probe_ms)))
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "limit_s": limit, "n": n, "failed_frac": failed / n,
              "e2e": e2e, "tail_pct": summary["tail_pct"], "probe_ms": probe_ms}

    if trace:
        traced = _child(["--pass", *pass_args, "--trace", "1"], timeout=budget)
        if [_verdict(c) for c in traced["codes"]] != [_verdict(c) for c in passes[0]["codes"]]:
            print("error: traced verdicts differ from untraced ones", file=sys.stderr)
            correct = False
        traced_s = sum(stats.charged_time(None if c is None else s, limit)
                       for c, s in zip(traced["codes"], traced["seconds"]))
        one_pass_s = statistics.median(
            sum(stats.charged_time(None if c is None else s, limit)
                for c, s in zip(p["codes"], p["seconds"])) for p in full)
        oracle_s = sum(r["oracle_s"] for r in rows)
        layers = dict(traced["layers"])
        layers["oracle.solve_s"] = oracle_s
        layers["oracle.speedup"] = oracle_s / e2e["total_s"]
        layers["trace.overhead_frac"] = traced_s / one_pass_s - 1.0
        print("  traced pass: total_s %s s against %s s untraced (median full pass); "
              "oracle.speedup = oracle.solve_s / total_s = %s / %s"
              % (_fmt(traced_s), _fmt(one_pass_s), _fmt(oracle_s), _fmt(e2e["total_s"])))
        for name in sorted(layers):
            print("  %-48s %12s %s" % (name, _fmt(layers[name]), layer_unit(name)))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
        record["layers"] = layers
    for s in ("timeout", "error", "unverified"):
        for r in by_status[s]:
            print("  %s: %s (oracle %s)" % (s, r["file"], r["oracle"]))
    for s in WRONG:
        for r in by_status[s]:
            print("error: %s %s (verdict %s, oracle %s)" % (r["file"], s, r["verdict"],
                                                           r["oracle"]), file=sys.stderr)
    if save:
        with open(save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac") or name.endswith("speedup"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from workloads.py, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="solve time of the full passes together; sets the corpus size "
                             "to seconds x the workload's rate / its full passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=float, default=None,
                        help="per-instance time limit in seconds (0 = none); "
                             "default: the workload's own")
    parser.add_argument("--save", default=None, help="append the result record to this file")
    parser.add_argument("--select", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass", dest="run_pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--verify", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--light", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "spacecover")):
        print("error: no spacecover sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    if args.select:
        print(json.dumps(select(args.workload, args.seed, args.seconds)))
        return 0
    if args.probe:
        print(json.dumps(probe(args.workload, args.seed)))
        return 0
    if args.run_pass:
        print(json.dumps(run_pass(args.workload, args.seed, args.limit, bool(args.trace),
                                  args.verify, args.light)))
        return 0

    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error("unknown workload %r; choose from %s"
                         % (name, ", ".join(workloads.WORKLOADS)))
    status = 0
    for name in names:
        status = max(status, run_workload(name, args.seed, args.seconds, bool(args.trace),
                                          args.limit, args.save))
    return status


if __name__ == "__main__":
    sys.exit(main())
