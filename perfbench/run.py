"""Benchmark of the cartan package: one workload, one seed, one run.

    python3 perfbench/run.py --workload cartan-warm --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from the `src` directory next
to this one.  The run sets the workload up at least 5 times and for at
least 3 s (caches cleared each time) and reports the median set-up time,
then repeats whole rounds of the workload's ops for about `--seconds`
seconds of wall time, checks every op's output outside the timed region,
and prints as its last line one JSON object: {"correct", "attempted",
"failed", "metrics"}.  The line
before it carries the environment, the seed and the counts that say
whether the run tested anything.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`
the run measures the same loop untraced and then traced, spanning every
call the benchmark makes into the library, and reports per-layer
metrics, the probes of the CLI start-up and the verify suites, and the
tracing overhead; the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
# Set-ups go on past SETUP_REPEATS until they total SETUP_SECONDS, so that a cheap
# set-up is timed over a window longer than a short slow stretch of a shared machine.
SETUP_SECONDS = 3.0
# The host of a shared VM can slow every instruction by up to 1.8x for minutes at a
# time, which no run length within the benchmark's time limit outlasts.  So each run
# times a fixed calibration loop next to the workload and reports its timings at one
# nominal machine speed: the speed at which the calibration loop takes
# NOMINAL_CALIBRATION_S, about its fastest time on an Intel Xeon 2.1 GHz with
# Python 3.11.7.  The wall-clock figures go on the info line.
NOMINAL_CALIBRATION_S = 0.0008
CALIBRATION_REPEATS = 10
PROBE_REPEATS = 5

TIMED_LAYERS = (
    "surjection.table_reduction", "barratt_eccles.embedding_homotopy",
    "barratt_eccles.diagonal_homotopy", "simplicial.shih",
    "cochains.witness_surjections", "cochains.cup_surjections",
    "cochains.cartan_coboundary", "cochains.cup", "cochains.delta",
    "cochains.steenrod_square", "barratt_eccles.squared_product",
    "barratt_eccles.product_of_squares", "barratt_eccles.sigma_act",
    "barratt_eccles.nerve_map", "simplicial.aw", "simplicial.ez",
    "simplicial.boundary", "surjection.surj_boundary", "f2.add",
)
COUNTED_LAYERS = (
    "surjection.table_reduction", "cochains.cartan_coboundary", "cochains.cup",
    "cochains.delta", "cochains.steenrod_square", "f2.add",
)


def percentile(sorted_xs: list, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    pos = q * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def calibration_loop() -> int:
    """Fixed work of the kind the library does: tuples, slices, dict lookups, integer ops."""
    d = {}
    for i in range(3000):
        t = (i, i + 1, i & 7)
        d[t] = d.get(t[:2], 0) + (i ^ (i >> 3))
    return len(d)


def calibrate(repeats: int = CALIBRATION_REPEATS) -> float:
    """Fastest time of the calibration loop over `repeats` runs, with the collector off
    so that the heap the workload left behind does not count."""
    best = float("inf")
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = perf_counter()
            calibration_loop()
            best = min(best, perf_counter() - t0)
    finally:
        gc.enable()
    return best


class Loop:
    """Latencies and failures of one measured loop, and a calibration after each round."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.rounds = 0
        self.round_seconds: list[float] = []
        self.calibrations: list[float] = []
        self.failures: list[str] = []
        self.checks = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 3:
            self.failures.append(message)

    def expect(self, ok: bool, message: str) -> None:
        """Count one check made outside the measured loop."""
        self.checks += 1
        if not ok:
            self.fail(message)

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def best(self, n_ops: int) -> list[float]:
        """Each op's fastest latency over the rounds (latencies are stored round after round)."""
        return [min(self.latencies[k::n_ops]) for k in range(n_ops)]

    def to_nominal(self) -> float:
        """Factor that takes the loop's fastest times to the nominal machine speed: the
        calibration's fastest time is, like each op's, the fastest state the run met."""
        return NOMINAL_CALIBRATION_S / min(self.calibrations)


def measure(wl, seconds: float, op) -> Loop:
    """Repeat whole rounds of the workload's ops, ending as near `seconds` as a round allows."""
    loop = Loop()
    start = perf_counter()
    while True:
        round_start = perf_counter()
        first = len(loop.latencies)
        for k in range(len(wl.ops)):
            wl.prepare(k)
            t0 = perf_counter()
            try:
                out = op(k)
            except Exception:  # a failed op is counted, and the loop goes on
                loop.latencies.append(perf_counter() - t0)
                loop.fail(f"op {k}: {traceback.format_exc(limit=3)}")
                continue
            loop.latencies.append(perf_counter() - t0)
            try:
                ok = wl.caches.uncounted(wl.check, k, out)
            except Exception:
                loop.fail(f"check {k}: {traceback.format_exc(limit=3)}")
                continue
            if not ok:
                loop.fail(f"op {k}: wrong output")
        loop.rounds += 1
        loop.round_seconds.append(sum(loop.latencies[first:]))
        loop.calibrations.append(calibrate())
        now = perf_counter()
        if now - start >= seconds - (now - round_start) / 2:
            return loop


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, which identifies the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "implementation": platform.python_implementation(), "nproc": nproc,
        "platform": platform.platform(), "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def run_untraced(wl, seconds: float, info: dict) -> tuple[dict, int, int]:
    """End-to-end metrics at the nominal machine speed.  Latencies are each op's fastest
    time over the run's rounds, which keeps the short bursts of a shared machine out of
    the figures; `ops_per_s` is one round of ops over the sum of those times.  Each
    set-up is scaled by a calibration taken right after it."""
    from workloads import CliCold

    setups, scaled_setups = [], []
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
        scaled_setups.append(setups[-1] * NOMINAL_CALIBRATION_S / calibrate())
    loop = measure(wl, seconds, wl.run)
    wall = loop.best(len(wl.ops))
    scale = loop.to_nominal()
    best = [x * scale for x in wall]
    lat = sorted(x * 1e3 for x in best)
    wall_lat = sorted(x * 1e3 for x in wall)
    attempted = len(loop.latencies)
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliCold) else resource.RUSAGE_SELF
    metrics = {
        "ops_per_s": metric(len(best) / sum(best), "1/s"),
        "op_ms.p50": metric(percentile(lat, 0.5), "ms"),
        "op_ms.p90": metric(percentile(lat, 0.9), "ms"),
        "setup_s": metric(statistics.median(scaled_setups), "s"),
        "ok_ratio": metric((attempted - loop.failed) / attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    info.update(wall={"ops_per_s": len(wall) / sum(wall),
                      "op_ms.p50": percentile(wall_lat, 0.5),
                      "op_ms.p90": percentile(wall_lat, 0.9),
                      "setup_s": statistics.median(setups)},
                to_nominal=scale, calibration_s=min(loop.calibrations),
                setup_s_each=setups, rounds=loop.rounds, ops=attempted,
                ops_per_round=len(wl.ops), round_seconds=loop.round_seconds,
                ops_per_s_all_rounds=loop.ops_per_s, fail_ratio=loop.failed / attempted,
                failures=loop.failures, **wl.vacuity())
    if len(lat) >= 1000:
        info["op_ms.p99"] = percentile(lat, 0.99)
    return metrics, attempted, loop.failed


def median_start(argv: list[str], env: dict) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, *argv], env=env, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def cli_probes(wl, seed: int, loop: Loop) -> dict:
    """Bare interpreter start, `import cartan.cli` on top of it, in-process main on cold caches."""
    from workloads import CliCold

    cli_wl = wl if isinstance(wl, CliCold) else CliCold(seed, str(ROOT))
    try:
        if cli_wl is not wl:
            cli_wl.setup()
        interpreter = median_start(["-c", "pass"], cli_wl.env)
        with_import = median_start(["-c", "import cartan.cli"], cli_wl.env)
        main_s = 0.0
        for k in range(len(cli_wl.ops)):
            cli_wl.prepare(k)
            t0 = perf_counter()
            out = cli_wl.run_in_process(k)
            main_s += perf_counter() - t0
            loop.expect(cli_wl.check(k, out), f"cli main probe {k}: wrong output")
    finally:
        if cli_wl is not wl:
            cli_wl.close()
    return {
        "cli.interpreter_s": metric(interpreter, "s"),
        "cli.import_s": metric(with_import - interpreter, "s"),
        "cli.main_s": metric(main_s / len(cli_wl.ops), "s"),
    }


def verify_probes(loop: Loop) -> dict:
    from cartan.verify import LEMMA_SUITES, STRUCTURAL_SUITES

    out = {}
    for name, suite in {**LEMMA_SUITES, **STRUCTURAL_SUITES}.items():
        t0 = perf_counter()
        report = suite()
        out[f"verify.{name}.s"] = metric(perf_counter() - t0, "s")
        loop.expect(report.ok, f"verify {name}: {len(report.failures)} failures")
    return out


def run_traced(wl, seconds: float, info: dict) -> tuple[dict, int, int]:
    from spans import Tracer
    from workloads import CliCold, build_probe, surjection_counts

    wl.setup()
    untraced = measure(wl, seconds, wl.run_in_process if isinstance(wl, CliCold) else wl.run)

    tr = Tracer()
    probe = Loop()
    for index, ok in build_probe(tr, wl.witness_indices, wl.cup_indices, wl.caches):
        probe.expect(ok, f"layer-by-layer rebuild of the {index} surjections differs")
    wl.caches.reset()
    tr.op = "setup"
    wl.setup_traced(tr)

    def traced_op(k):
        tr.op = k
        return tr.call("op", wl.traced, k, tr)

    traced = measure(wl, seconds, traced_op)
    hits, misses = wl.caches.totals()
    evaluations, plans = surjection_counts(tr.shapes)
    seconds_by_name, calls = tr.self_times()
    c = tr.counters
    metrics = {f"{name}.s": metric(seconds_by_name.get(name, 0.0), "s") for name in TIMED_LAYERS}
    metrics.update({f"{name}.calls": metric(calls.get(name, 0), "count")
                    for name in COUNTED_LAYERS})
    rows = c["table_reduction.rows"]
    metrics.update({
        "surjection.table_reduction.rows": metric(rows, "count"),
        "surjection.table_reduction.terms_out": metric(c["table_reduction.terms_out"], "count"),
        "surjection.table_reduction.yield": metric(
            c["table_reduction.terms_out"] / rows if rows else 0.0, "ratio"),
        "barratt_eccles.homotopy_terms": metric(c["homotopy_terms"], "count"),
        "cochains.apply_surjection.calls": metric(evaluations, "count"),
        "cochains.plans_per_face": metric(plans / evaluations if evaluations else 0.0,
                                          "plans/face"),
        "cochains.cut_plans.hits": metric(hits, "count"),
        "cochains.cut_plans.misses": metric(misses, "count"),
        "cochains.witness_nonzero_ratio": metric(
            c["witness_nonzero"] / c["witness_ops"] if c["witness_ops"] else 0.0, "ratio"),
        "cochains.output_nonzero_ratio": metric(
            c["output_nonzero"] / c["output_ops"] if c["output_ops"] else 0.0, "ratio"),
        "trace.overhead": metric(
            sum(untraced.best(len(wl.ops))) * untraced.to_nominal()
            / (sum(traced.best(len(wl.ops))) * traced.to_nominal()) - 1, "ratio"),
    })
    metrics.update(cli_probes(wl, wl.seed, probe))
    metrics.update(verify_probes(probe))

    OUT.mkdir(parents=True, exist_ok=True)
    trace_file = OUT / f"trace-{wl.name}-seed{wl.seed}.json"
    tr.dump(trace_file)
    attempted = len(untraced.latencies) + len(traced.latencies) + probe.checks
    failed = untraced.failed + traced.failed + probe.failed
    info.update(rounds=[untraced.rounds, traced.rounds],
                ops=[len(untraced.latencies), len(traced.latencies)],
                spans=len(tr.spans), trace_file=str(trace_file.relative_to(ROOT)),
                failures=untraced.failures + traced.failures + probe.failures)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli-cold", "cartan-warm", "squares-sparse", "operad-identities"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cartan" / "__init__.py").is_file():
        print(f"error: no cartan package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    info = environment(args)
    wl = WORKLOADS[args.workload](args.seed, str(ROOT))
    try:
        if args.trace:
            metrics, attempted, failed = run_traced(wl, args.seconds, info)
        else:
            metrics, attempted, failed = run_untraced(wl, args.seconds, info)
    finally:
        wl.close()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    info["result_file"] = str(result_file.relative_to(ROOT))
    result_file.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
