#!/usr/bin/env python3
"""causalbn benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload scan|query|sample --seed N --seconds S --trace 0|1

Run from the root of a causalbn checkout.  It prints a report, one line
per metric with its unit, then, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced; with --trace 1 they are the per-layer metrics, from a
traced run that follows an untraced one of equal length.  A fuller
record (provenance, the tail percentile, failures) goes to
.bench_out/result-<workload>-seed<seed>-trace<t>.json, and the spans of
a traced run to .bench_out/spans-<workload>-seed<seed>.tsv.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from speed import Speedometer

NPROC = len(os.sched_getaffinity(0))
#: BLAS threads are capped at the CPUs this process may use
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = ROOT / ".bench_out"
#: a run stops after --seconds of scaled request time, or after this many
#: times --seconds of unscaled request time on a host that is very slow
RAW_CAP = 1.5
#: a run of a fixed number of requests stops early only after this many
#: times --seconds of unscaled request time, so it ends well within 180 s
#: even when the program is several times slower than today
COUNT_RAW_CAP = 6.0
#: fresh-interpreter starts whose median is setup_s
SETUP_STARTS = 5
#: the tail is the slowest request with at least this many slower ones
TAIL_BEYOND = 10
#: what throughput_per_s counts on each workload
THROUGHPUT_ALIAS = {
    "scan": "scan_cells_per_s", "query": "requests_per_s", "sample": "sample_rows_per_s",
}


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples beyond it).  With ``beyond`` or
    fewer samples no such percentile exists, and the maximum is returned
    with 0 samples beyond.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, 0
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


@dataclass
class Tally:
    #: per request: seconds scaled to the nominal probe speed, and as measured
    latencies: list[float] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    known: list[str] = field(default_factory=list)
    unexpected: list[str] = field(default_factory=list)

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.raw += other.raw
        self.items += other.items
        self.attempted += other.attempted
        self.failed += other.failed
        self.known += other.known
        self.unexpected += other.unexpected


def measure(ops, seconds: float, tracer=None, count: int | None = None) -> Tally:
    """Closed loop, one client: run ops until ``seconds`` of them have been timed.

    Counting scaled time keeps the amount of work in a run the same when
    the host slows down; ``RAW_CAP`` bounds the run's length.  With
    ``count``, exactly the first ``count`` ops run instead (unless
    ``COUNT_RAW_CAP`` cuts the run), so ``attempted`` and ``failed`` are
    the same in every run of a seed.
    """
    if count is not None:
        ops = itertools.islice(ops, count)
    tally = Tally()
    busy = raw_busy = 0.0
    for op in ops:
        out, raised, raw, scaled = [], None, 0.0, 0.0
        for step in op.steps:
            with Speedometer() as meter:
                if tracer is not None:
                    tracer.active = True
                try:
                    out.append(step())
                except Exception as exc:  # counted as failed operations, the loop goes on
                    raised = exc
                if tracer is not None:
                    tracer.active = False
            raw += meter.elapsed
            scaled += meter.scaled
            if raised is not None:
                break
        if raised is not None:
            failures = [f"raised {raised!r}"] * op.operations
        else:
            try:
                failures = op.check(out)
            except Exception as exc:  # a check that cannot read the output fails it
                failures = [f"check raised {exc!r}"] * op.operations
        tally.latencies.append(scaled)
        tally.raw.append(raw)
        tally.items += op.items
        tally.attempted += op.operations
        tally.failed += min(len(failures), op.operations)
        (tally.known if op.known_defect else tally.unexpected).extend(failures)
        busy += scaled
        raw_busy += raw
        if count is None and (busy >= seconds or raw_busy >= RAW_CAP * seconds):
            return tally
        if count is not None and raw_busy >= COUNT_RAW_CAP * seconds:
            return tally
    return tally


def setup_seconds(code: str) -> float:
    """Median over fresh interpreters of the time from the first import of
    causalbn to the workload's models being loaded, scaled like a step."""
    program = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(BENCH)!r}, {str(SRC)!r}]",
        "from speed import Speedometer",
        "with Speedometer() as meter:",
        *(f"    {line}" for line in code.splitlines()),
        "print(meter.scaled)",
    ])
    times = []
    for _ in range(SETUP_STARTS):
        child = subprocess.run([sys.executable, "-c", program], cwd=ROOT, check=True,
                               capture_output=True, text=True)
        times.append(float(child.stdout))
    return statistics.median(times)


def provenance() -> dict:
    import numpy

    info = {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": NPROC,
        "cpu": "unknown",
        "caches": {},
        "commit": "unknown",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "unknown",
            )
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            info["caches"][f"L{level}{suffix}"] = size
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if git.returncode == 0:
            info["commit"] = git.stdout.strip()
    except OSError:
        pass
    return info


def layer_metrics(tracer, overhead: float, names) -> dict[str, float]:
    """The per-layer metrics; a name whose layer is not wrapped is left out."""
    summary = tracer.summary()

    def per(count: float, calls: float) -> float:
        return count / calls if calls else 0.0

    joints = ("bayesnet.joint", "intervention.interventional_distribution")
    scan, select = "latent.bias_scan", "intervention.select_sufficient_confounders"

    def entries():
        return sum(summary[n]["size"] for n in joints)

    def within(root, *layers):
        for layer in (root, *layers):
            summary[layer]  # KeyError: the layer does not exist at this commit
        return tracer.count_within(root, layers)

    derived = {
        "modelfile.bytes_parsed": lambda: summary["modelfile.parse_model"]["size"],
        "bayesnet.joint.entries": entries,
        "bayesnet.joint.computed_bytes": lambda: 8 * entries(),
        "bayesnet.csv_bytes": lambda: summary["bayesnet.Dataset.to_csv"]["size"],
        "latent.scan.validates_per_cell": lambda: per(
            within(scan, "bayesnet.validate"), summary[scan]["size"]),
        "latent.scan.joints_per_cell": lambda: per(
            within(scan, *joints), summary[scan]["size"]),
        "intervention.select.equality_tests": lambda: per(
            summary[select]["size"], summary[select]["calls"]),
        "intervention.select.joints_per_call": lambda: per(
            within(select, *joints), summary[select]["calls"]),
        "trace.overhead_frac": lambda: overhead,
    }
    out = {}
    for name in names:
        try:
            if name in derived:
                out[name] = derived[name]()
            else:
                layer, _, stat = name.rpartition(".")
                out[name] = summary[layer][stat]
        except KeyError:
            pass
    return out


def request_count(workload, seconds: float) -> int | None:
    """Requests in a run of a fixed-count workload, None for a timed one."""
    rate = getattr(workload, "requests_per_s", None)
    return None if rate is None else max(1, round(seconds * rate))


def run(args, spec) -> tuple[dict, Tally, dict]:
    """Set up, measure and return (metrics, tally, extra report fields)."""
    import causalbn
    import tracing
    import workloads

    if not Path(causalbn.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: causalbn was imported from {causalbn.__file__}, not {SRC}")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(tmp))
        extra: dict = {}
        if not args.trace:
            setup_s = setup_seconds(workload.setup_code)
            workload.warmup()
            tally = measure(workload.ops(), args.seconds,
                            count=request_count(workload, args.seconds))
            value, pct, beyond = tail(tally.latencies)
            metrics = {
                "setup_s": setup_s,
                "throughput_per_s": tally.items / sum(tally.latencies),
                "request_p50_ms": statistics.median(tally.latencies) * 1e3,
                "request_tail_ms": value * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            extra["tail"] = {"percentile": pct, "beyond": beyond, "requests": len(tally.latencies)}
            extra["unscaled"] = {
                "throughput_per_s": tally.items / sum(tally.raw),
                "request_p50_ms": statistics.median(tally.raw) * 1e3,
                "request_tail_ms": tail(tally.raw)[0] * 1e3,
            }
            extra["speed"] = sum(tally.latencies) / sum(tally.raw)
            extra[THROUGHPUT_ALIAS[args.workload]] = metrics["throughput_per_s"]
            return metrics, tally, extra
        workload.warmup()
        half = args.seconds / 2
        plain = measure(workload.ops(), half, count=request_count(workload, half))
        tracer = tracing.Tracer()
        with tracer:
            traced = measure(workload.ops(), half, tracer, request_count(workload, half))
        m = min(len(plain.latencies), len(traced.latencies))
        overhead = sum(traced.latencies[:m]) / sum(plain.latencies[:m]) - 1
        names = [metric["name"] for metric in spec["per_layer"]]
        metrics = layer_metrics(tracer, overhead, names)
        extra["absent"] = [n for n in names if n not in metrics]
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        plain.merge(traced)
        return metrics, plain, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "query", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "causalbn" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print(f"error: {ROOT} is not a causalbn checkout "
              "(src/causalbn and tests/oracles.py are needed)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(NPROC)
    sys.path[:0] = [str(SRC), str(TESTS)]
    metrics, tally, extra = run(args, spec)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    info = provenance()
    fail_frac = tally.failed / tally.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {info['commit']}")
    print(f"machine: {info['cpu']}, nproc {info['nproc']}, caches {info['caches']}, "
          f"python {info['python']}, numpy {info['numpy']}, BLAS threads {info['blas_threads']}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name in extra.get("absent", []):
        print(f"{name} = absent (layer not found)")
    if "tail" in extra:
        t = extra["tail"]
        print(f"request_tail_ms is p{t['percentile']:.4g}: {t['beyond']} of "
              f"{t['requests']} requests are slower")
        alias = THROUGHPUT_ALIAS[args.workload]
        print(f"{alias} = {extra[alias]:.6g} (throughput_per_s on this workload)")
        print("as measured, before scaling to the nominal probe speed: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in extra["unscaled"].items()))
    print(f"fail_frac = {fail_frac:.6g} ({tally.failed} failed of {tally.attempted} attempted; "
          f"{len(tally.known)} are known defects)")
    for message in (tally.unexpected + tally.known)[:10]:
        print(f"  failure: {message}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": info, "metrics": metrics, "extra": extra,
        "fail_frac": fail_frac, "attempted": tally.attempted, "failed": tally.failed,
        "known_defects": tally.known, "unexpected_failures": tally.unexpected,
    }
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
