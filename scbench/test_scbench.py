"""Fast self-tests of the benchmark: python3 -m pytest scbench -q"""

import json
import os
import signal
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- tail percentile --------------------------------------------------------

@pytest.mark.parametrize("n, pct, rank", [
    (1000, 99.0, 989),    # p99.9 would leave 1 beyond
    (200, 95.0, 189),
    (109, 90.0, 98),      # p95 would leave 5 beyond
    (100, 90.0, 89),      # exactly 10 beyond
    (99, 75.0, 74),
    (20, 50.0, 9),
])
def test_tail_is_highest_ladder_percentile_with_ten_beyond(n, pct, rank):
    values = [float(i) for i in range(n)]
    got_pct, got_value = stats.tail_percentile(reversed(values))
    assert (got_pct, got_value) == (pct, float(rank))
    assert n - 1 - rank >= stats.TAIL_BEYOND


def test_tail_without_enough_samples_is_the_maximum():
    assert stats.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


# -- self time --------------------------------------------------------------

def _traced(clock):
    tracer = Tracer(clock=clock)

    def child():
        clock.now += 2

    def parent():
        clock.now += 1
        wrapped_child()
        clock.now += 3

    wrapped_child = tracer.wrap(child, "m.child")
    return tracer, tracer.wrap(parent, "m.parent"), wrapped_child


def test_self_time_of_nested_spans():
    clock = Clock()
    tracer, parent, _ = _traced(clock)
    tracer.begin_instance(0, "root")
    parent()
    clock.now += 5
    tracer.end_instance()
    assert self_times(tracer.spans()) == {"root": 5.0, "m.parent": 4.0, "m.child": 2.0}
    assert tracer.counts["m.parent.calls"] == 1


def test_self_time_of_recursive_spans():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def rec(depth):
        clock.now += 1
        if depth:
            wrapped(depth - 1)
        clock.now += 1

    wrapped = tracer.wrap(rec, "m.rec")
    wrapped(2)
    spans = tracer.spans()
    assert [end - start for _, start, end, _, _ in spans] == [6.0, 4.0, 2.0]
    assert [parent for _, _, _, parent, _ in spans] == [-1, 0, 1]
    assert self_times(spans) == {"m.rec": 6.0}


def test_self_time_of_generator_spans_excludes_suspended_time():
    clock = Clock()
    tracer, _, child = _traced(clock)

    def gen():
        for i in range(3):
            clock.now += 1
            child()
            yield i

    wrapped = tracer.wrap(gen, "m.gen")
    tracer.begin_instance(0, "root")
    assert list(_consume(wrapped(), clock)) == [0, 1, 2]
    tracer.end_instance()
    assert self_times(tracer.spans()) == {"root": 30.0, "m.gen": 3.0, "m.child": 6.0}
    assert tracer.counts["m.gen.yielded"] == 3


def _consume(items, clock):
    for item in items:
        clock.now += 10
        yield item


def test_install_rebinds_and_uninstall_restores_every_name():
    import spacecover.cli  # noqa: F401
    from spacecover import dual_solver, pattern_cover, pgm_solver

    modules = [m for k, m in sys.modules.items() if k.startswith("spacecover")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    bump = dual_solver.RecursParams.bump
    tracer = Tracer()
    tracer.install()
    try:
        assert pgm_solver.enumerate_backbones is not before[("spacecover.pgm_solver",
                                                             "enumerate_backbones")]
        assert pattern_cover.build_hash_family is not before[("spacecover.pattern_cover",
                                                              "build_hash_family")]
        assert dual_solver.RecursParams.bump is not bump
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert dual_solver.RecursParams.bump is bump


# -- timeouts ---------------------------------------------------------------

class SleepyCli:
    """Stands in for spacecover.cli: sleeps, and turns any Exception into exit 2."""

    @staticmethod
    def main(argv):
        try:
            time.sleep(5)
        except Exception:
            return 2
        return 0


def test_timeout_is_not_an_error_and_is_charged_at_the_limit():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        code, text, elapsed = run._timed_cli(SleepyCli, ["solve"], 0.05)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert code is None and text == ""
    assert elapsed < 1.0
    assert run._verdict(code) == "timeout"
    times = [stats.charged_time(0.5, 2.0), stats.charged_time(None, 2.0)]
    assert times == [0.5, 2.0]
    assert stats.summarize(times)["total_s"] == 2.5


def test_spans_left_open_by_a_timeout_are_closed():
    clock = Clock()
    tracer = Tracer(clock=clock)

    def hangs():
        clock.now += 4
        raise run.InstanceTimeout()

    wrapped = tracer.wrap(hangs, "m.hangs")
    tracer.begin_instance(0, "root")
    with pytest.raises(run.InstanceTimeout):
        wrapped()
    clock.now += 1
    tracer.end_instance()
    assert all(end is not None for _, _, end, _, _ in tracer.spans())
    assert self_times(tracer.spans()) == {"root": 1.0, "m.hangs": 4.0}


# -- corpora ----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_corpus(name):
    wl = workloads.WORKLOADS[name]
    attempts = workloads.select(wl, 7, 9)
    assert workloads.select(wl, 7, 9) == attempts
    first = workloads.build_corpus(wl, 7, attempts)
    again = workloads.build_corpus(wl, 7, attempts)
    assert [r.text for r in first] == [r.text for r in again]
    assert workloads.corpus_digest(first) == workloads.corpus_digest(again)
    assert workloads.corpus_digest(first) != workloads.corpus_digest(
        workloads.build_corpus(wl, 8, workloads.select(wl, 8, 9)))
    assert workloads.select(wl, 7, 5) == attempts[:5]
    assert workloads.build_corpus(wl, 7, attempts[:5]) == first[:5]


def test_six_rounds_of_cells_span_each_cells_n_range():
    cells = workloads.PRIMAL_CELLS
    wl = workloads.WORKLOADS["primal-random"]
    seen = {}
    for i in range(6 * len(cells)):
        seen.setdefault(i % len(cells), set()).add(wl.draw(wl.name, 0, i, 0).inst.graph.n)
    for pos, ((n_lo, n_hi), *_rest) in enumerate(cells):
        assert min(seen[pos]) == n_lo and max(seen[pos]) >= n_hi - 1


def test_recursion_rows_hold_the_same_sizes_for_every_seed():
    wl = workloads.WORKLOADS["dual-recursion"]
    sizes = [[wl.draw(wl.name, seed, i, 0).inst.graph.n for i in range(40)] for seed in (1, 2)]
    assert sizes[0] == sizes[1]
    assert set(sizes[0]) == {workloads.HOST_N, 18, 19, 20}


@pytest.mark.parametrize("name", ["primal-random", "dual-random"])
def test_random_rows_keep_t_and_verdict_across_seeds(name):
    from spacecover.fileio import parse_instance

    wl = workloads.WORKLOADS[name]
    seen = []
    for seed in (3, 4):
        rows = workloads.build_corpus(wl, seed, workloads.select(wl, seed, 9))
        insts = [parse_instance(row.text) for row in rows]
        seen.append([(row.cell, workloads.row_types(inst), workloads.oracle_verdict(inst))
                     for row, inst in zip(rows, insts)])
    assert seen[0] == seen[1]
    assert {verdict for _, _, verdict in seen[0]} == {"yes", "no"}
    assert all(cell.endswith(verdict) for cell, _, verdict in seen[0])


# -- verdicts and statuses ----------------------------------------------------

def test_row_time_is_the_median_of_the_charged_times():
    assert stats.row_time([0.2, 0.1, 0.9], 10.0) == 0.2
    assert stats.row_time([1.0, None, 3.0], 10.0) == 3.0
    assert stats.row_time([4.0, 2.0], 0) == 3.0


def test_light_passes_follow_the_full_ones_and_skip_only_host_queries():
    assert run.pass_schedule(1, 0) == [False]
    assert run.pass_schedule(2, 5) == [False, True, True, True, False, True, True]
    wl = workloads.WORKLOADS["dual-recursion"]
    cells = {wl.draw(wl.name, 0, i, 0).cell for i in range(60)}
    assert {c for c in cells if not workloads.in_light_pass(c)} == {
        "host rank0", "host rank1", "host cocycle"}


def test_merged_verdict_of_the_passes():
    assert run.merged_verdict(["no", "no", "no"]) == "no"
    assert run.merged_verdict(["yes", "timeout", "yes"]) == "timeout"
    assert run.merged_verdict(["yes", "no", "yes"]) == "unstable"


def test_row_status_checks_every_certificate_whatever_the_oracle_says():
    assert run.row_status("yes", "yes", True) == "ok"
    assert run.row_status("no", "no", None) == "ok"
    assert run.row_status("yes", "timeout", False) == "rejected"
    assert run.row_status("yes", "timeout", True) == "unverified"
    assert run.row_status("no", "yes", None) == "wrong"
    assert run.row_status("timeout", "no", None) == "timeout"
    assert run.row_status("unstable", "no", None) == "unstable"
    assert set(run.WRONG) <= set(run.STATUSES)


def test_a_failed_child_is_exit_2_without_a_result(monkeypatch, capsys):
    with pytest.raises(run.ChildFailed):
        run._child(["--workload", "primal-random", "--no-such-flag"])

    def fails(args, env=None, timeout=None):
        raise run.ChildFailed("child ran past 1 s")

    monkeypatch.setattr(run, "_child", fails)
    assert run.run_workload("primal-random", 0, 1.0, False, None, None) == 2
    assert capsys.readouterr().out == ""


# -- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_lists_exactly_what_a_run_reports():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    names = list(layer_metrics([], Counter())) + ["oracle.solve_s", "oracle.speedup",
                                                   "trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in names}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
