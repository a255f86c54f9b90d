"""Tests of the benchmark itself: ``python -m pytest bench/test_bench.py``."""

import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import causalbn  # noqa: E402
import causalbn.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(1, 101)) == (90, 90.0, 10)
    value, pct, beyond = run.tail(list(range(1000, 0, -1)))
    assert (value, pct, beyond) == (990, 99.0, 10)
    # exactly 10 samples beyond value 2, none beyond anything higher
    assert run.tail([5.0] * 10 + [2.0]) == (2.0, 100 * 1 / 11, 10)
    # too few samples for any such percentile: the maximum, nothing beyond
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b.x", 5.0, 7.0, 3),
        ("b.y", 6.0, 8.0, 3),  # overlaps b.x: covered once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])
    assert tracing.union_length([(0, 2), (1, 3), (5, 9)], 0.0, 6.0) == 4.0
    assert tracing.within(spans, "b") == [False, False, False, True, True, True]


def _bindings():
    """Every attribute of every causalbn module and class, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "causalbn" or name.startswith("causalbn."):
            for attr, obj in vars(module).items():
                out[(name, attr)] = obj
                if inspect.isclass(obj):
                    for mattr, mobj in vars(obj).items():
                        out[(name, attr, mattr)] = mobj
    return out


def _one_op(workload):
    return next(iter(workload.ops()))


def test_traced_run_restores_every_original(tmp_path):
    original_joint = causalbn.bayesnet.joint
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert causalbn.bayesnet.joint is not original_joint
        assert causalbn.latent.joint is causalbn.bayesnet.joint
        tally = run.measure([_one_op(workloads.Scan(1, tmp_path))], 0.0, tracer)
    assert causalbn.bayesnet.joint is original_joint
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert tally.failed == 0
    summary = tracer.summary()
    cells = summary["latent.bias_scan"]["size"]
    assert cells == tally.attempted
    assert summary["bayesnet.joint"]["calls"] > 0
    metrics = run.layer_metrics(
        tracer, 0.0, ["bayesnet.joint.calls", "bayesnet.contract.calls",
                      "latent.scan.joints_per_cell"])
    # a layer that does not exist at this commit is absent, not an error
    assert "bayesnet.contract.calls" not in metrics
    assert metrics["bayesnet.joint.calls"] == summary["bayesnet.joint"]["calls"]


def test_corrupted_scan_output_is_counted(tmp_path, monkeypatch):
    real = causalbn.latent.scan_to_csv

    def corrupt(results):
        lines = real(results).splitlines(keepends=True)
        fields = lines[1].split(",")
        fields[-2] = "0.5"  # err_unadj_ace of the first cell
        lines[1] = ",".join(fields)
        return "".join(lines)

    monkeypatch.setattr(causalbn.latent, "scan_to_csv", corrupt)
    tally = run.measure([_one_op(workloads.Scan(1, tmp_path))], 0.0)
    # one cell per template grid, and the summary stays consistent
    assert tally.failed == 2
    assert tally.failed / tally.attempted == 2 / (2 * workloads.GRID_POINTS ** 2)
    assert len(tally.unexpected) == 2


def test_corrupted_query_output_is_counted(tmp_path, monkeypatch):
    query = workloads.Query(1, tmp_path)
    request = workloads.Request(
        ("do", "fig1_left", "--target", "Y", "--do", "Z=1"), "do",
        query.bundled["fig1_left"], info={"target": "Y", "evidence": {"Z": "1"}},
    )
    op = workloads.Op([lambda: workloads.run_cli(request.argv)],
                      lambda out: query.check(request, out[0]), 1, 1)
    assert run.measure([op], 0.0).failed == 0
    monkeypatch.setattr(causalbn.cli, "_fmt", lambda x: f"{x + 1e-6:.12g}")
    query.seen.clear()
    tally = run.measure([op], 0.0)
    assert (tally.attempted, tally.failed, len(tally.unexpected)) == (1, 1, 1)


def test_known_defects_do_not_make_the_run_incorrect(tmp_path):
    query = workloads.Query(1, tmp_path)
    ops = query.ops()
    probes = [next(ops) for _ in workloads.KNOWN_DEFECTS]
    tally = run.measure(probes, float("inf"))
    assert tally.attempted == len(workloads.KNOWN_DEFECTS)
    assert not tally.unexpected
    assert tally.failed == len(tally.known)


def test_fixed_count_run_attempts_the_same_requests(tmp_path):
    query = workloads.Query(1, tmp_path)
    count = run.request_count(query, 0.04)
    assert count == round(0.04 * query.requests_per_s)
    tallies = [run.measure(query.ops(), 60.0, count=count) for _ in range(2)]
    for tally in tallies:
        assert tally.attempted == count
        assert tally.failed == len(workloads.KNOWN_DEFECTS) == len(tally.known)
    assert run.request_count(workloads.Scan(1, tmp_path), 15) is None


def test_corrupted_sample_csv_is_counted(tmp_path, monkeypatch):
    sample = workloads.Sample(1, tmp_path)
    sample.rows = 2000
    monkeypatch.setattr(workloads, "TV_LIMIT", 0.2)  # 2000 rows are too few for 0.01
    assert run.measure([_one_op(sample)], 0.0).failed == 0
    real = causalbn.bayesnet.Dataset.to_csv
    monkeypatch.setattr(causalbn.bayesnet.Dataset, "to_csv",
                        lambda self: real(self).replace("\n1,", "\n0,", 1))
    tally = run.measure([_one_op(sample)], 0.0)
    assert (tally.attempted, tally.failed) == (2, 2)
