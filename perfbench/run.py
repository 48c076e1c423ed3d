#!/usr/bin/env python3
"""rivkit benchmark: one closed-loop client, one process, one thread.

Run from the root of a rivkit checkout:

    python3 perfbench/run.py --workload monitor-stream --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (machine facts, output digest, detection quality,
raw wall-clock figures). ``--trace 0`` reports the end-to-end metrics of an
untraced run, ``--trace 1`` the per-layer metrics of a traced one. README.md
in this directory describes the workloads and metrics.
"""

import os

# Pin the BLAS/OpenMP pools to one thread before numpy can load, in this
# process and in every child it starts.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from gauge import Sampler, own_seconds, reference_seconds, speedup  # noqa: E402
from tracer import AccountingError, Tracer, layer_metrics, summarize  # noqa: E402
from workloads import WORKLOADS, Outcome, digest  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


def check_sources() -> None:
    if not (SRC / "rivkit" / "__init__.py").is_file():
        raise BenchError(f"no rivkit sources under {SRC}; run from a rivkit checkout")


def import_rivkit() -> dict:
    """Import rivkit from this checkout's ``src``, never from elsewhere."""
    check_sources()
    sys.path.insert(0, str(SRC))
    import numpy
    import rivkit
    from rivkit import cli, detector, estimator, pipeline, samples, systems
    if Path(rivkit.__file__).resolve().parent != (SRC / "rivkit").resolve():
        raise BenchError(f"imported rivkit from {rivkit.__file__}, not from {SRC}")
    return {"numpy": numpy, "cli": cli, "detector": detector, "estimator": estimator,
            "pipeline": pipeline, "samples": samples, "systems": systems}


def run_child(args, role: str, inputs: Path) -> str:
    argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
            "--workload", args.workload, "--seed", str(args.seed), "--inputs", str(inputs)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"{role} child failed ({proc.returncode}): {proc.stderr.strip()}")
    return proc.stdout


def setup_seconds(args, inputs: Path) -> list:
    """(raw, scaled) seconds from a fresh interpreter to the end of warm-up.

    The child prints its CLOCK_MONOTONIC reading once warm-up is done; the
    clock is system-wide, so the difference from the spawn time includes
    interpreter start-up and excludes the child's exit. The child runs on
    this process's CPU, so the kernel runs on either side gauge its speed.
    """
    with Sampler(inside=False) as sampler:
        spawned = time.monotonic()
        ready = json.loads(run_child(args, "probe", inputs).splitlines()[-1])["ready"]
    raw = ready - spawned
    kernel = sum(end - start for start, end in sampler.marks) / len(sampler.marks)
    return [raw, raw * speedup(kernel)]


def machine_facts(np, seed: int) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }
    try:
        from threadpoolctl import threadpool_info
        facts["blas_pools"] = [{k: pool.get(k) for k in ("internal_api", "num_threads")}
                               for pool in threadpool_info()]
    except ImportError:
        facts["blas_pools"] = "threadpoolctl not installed"
    return facts


def run_operation(workload, cli, first_digest, sampler):
    """One operation: returns (outcome, problems, digest)."""
    outcome = Outcome(marks=sampler.marks)
    with sampler:
        outcome.start = perf_counter()
        try:
            workload.operation(cli, outcome)
        except Exception as exc:  # an operation that raises counts as failed
            return outcome, [f"{type(exc).__name__}: {exc}"], None
        finally:
            outcome.end = perf_counter()
    problems = workload.check(outcome)
    out_digest = digest(workload.digest_items(outcome))
    if first_digest is not None and out_digest != first_digest:
        problems.append("output digest differs from the first operation of the run")
    return outcome, problems, out_digest


class Run:
    """Closed loop: the next operation starts when the previous one ends.

    With a tracer, odd-numbered operations are traced and even-numbered
    ones are not, so the two kinds see the same machine. Traced runs gauge
    the speed only around each operation, so that no kernel time lands
    inside a span.
    """

    def __init__(self, workload, cli, tracer=None):
        self.workload, self.cli, self.tracer = workload, cli, tracer
        self.outcomes, self.traced, self.summaries = [], [], []
        self.problems, self.failed, self.digest = [], 0, None

    def loop(self, seconds: int) -> None:
        start = perf_counter()
        minimum = 2 if self.tracer else 1
        while len(self.outcomes) < minimum or perf_counter() - start < seconds:
            self.step(self.tracer is not None and len(self.outcomes) % 2 == 1)

    def step(self, traced: bool) -> None:
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            outcome, errs, out_digest = run_operation(
                self.workload, self.cli, self.digest, Sampler(inside=self.tracer is None))
        finally:
            if traced:
                self.tracer.uninstall()
        self.digest = self.digest or out_digest
        if traced and not errs:
            try:
                summary = summarize(self.tracer.spans, outcome.wall)
            except AccountingError as exc:
                errs = [f"accounting check: {exc}"]
            else:
                readings = summary["extras"].get("estimator.emi")
                if self.summaries and readings != self.summaries[0]["extras"].get(
                        "estimator.emi"):
                    errs = ["EMI readings differ from the first traced operation"]
                self.summaries.append(summary)
        self.outcomes.append(outcome)
        self.traced.append(traced)
        if errs:
            self.failed += 1
            self.problems.extend(errs[:5])

    def untraced(self):
        return [o for o, t in zip(self.outcomes, self.traced) if not t]


def window_latencies(workload, outcomes, convert) -> list:
    return [convert(o.marks, a, b) for o in outcomes for a, b in workload.gaps(o)]


def end_to_end(workload, outcomes, setup) -> dict:
    """Gated metrics, with every time scaled to the reference speed."""
    scaled = [o.reference for o in outcomes]
    latency = statistics.median(scaled)
    if hasattr(workload, "gaps"):
        latency = statistics.median(window_latencies(workload, outcomes, reference_seconds))
    return {
        "setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "throughput_per_s": {"value": workload.units_per_op / statistics.median(scaled),
                             "unit": "1/s"},
        "latency_p50_ms": {"value": latency * 1e3, "unit": "ms"},
    }


def run_details(workload, run, setup) -> dict:
    outcomes = run.outcomes
    walls = [o.wall for o in outcomes]
    details = {
        "operations": len(outcomes),
        "output_digest": run.digest,
        "setup_probes_raw_s": [raw for raw, _ in setup],
        "op_wall_raw_s": walls,
        "op_reference_s": [o.reference for o in outcomes],
        "kernel_runs_per_op": statistics.median(len(o.marks) for o in outcomes),
        "throughput_raw_per_s": workload.units_per_op / statistics.median(walls),
    }
    try:
        details["quality"] = workload.quality(outcomes[0])
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        details["quality"] = f"unavailable: {exc}"
    if hasattr(workload, "gaps"):
        raw = window_latencies(workload, outcomes, own_seconds)
        scaled = window_latencies(workload, outcomes, reference_seconds)
        if len(raw) >= 20:
            details["window_latency_ms"] = {
                "samples": len(raw),
                "p50": statistics.median(scaled) * 1e3,
                "p95": statistics.quantiles(scaled, n=20)[-1] * 1e3,
                "raw_p50": statistics.median(raw) * 1e3,
                "raw_p95": statistics.quantiles(raw, n=20)[-1] * 1e3,
            }
    if hasattr(workload, "family_rates"):
        details["family_rates"] = workload.family_rates(outcomes)
    return details


def traced_metrics(workload, run):
    if not run.summaries:
        raise BenchError("no traced operation succeeded: " + "; ".join(run.problems[:3]))
    traced = [o for o, t in zip(run.outcomes, run.traced) if t]
    untraced = [o.reference for o in run.untraced()]
    metrics = layer_metrics(run.summaries, workload.ingest())
    # trace.op_s and the overhead use scaled times, like the gated ones
    metrics["trace.op_s"] = (statistics.median(o.reference for o in traced), "s")
    metrics["trace.overhead_share"] = (
        metrics["trace.op_s"][0] / statistics.median(untraced) - 1.0, "share")
    details = {
        "operations": len(run.outcomes),
        "traced_operations": len(run.summaries),
        "output_digest": run.digest,
        # every EMI value and pruned leaf count the estimator returned, in order
        "emi_digest": digest(run.summaries[0]["extras"].get("estimator.emi", [])),
        "op_wall_raw_s": [o.wall for o in run.outcomes],
        "op_traced": run.traced,
        "layer_self_s_per_op": {
            layer: sum(s["self"][layer] for s in run.summaries) / len(run.summaries)
            for layer in run.summaries[0]["self"]},
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, details


def measure(args) -> int:
    check_sources()
    # One CPU for this process and its children: the gauge must run on the
    # CPU it gauges, and an operation must not migrate mid-way.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"perfbench: running unpinned, cannot set CPU affinity: {exc}",
              file=sys.stderr)
    inputs = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    inputs.mkdir(parents=True)
    try:
        run_child(args, "generate", inputs)
        setup = [] if args.trace else [setup_seconds(args, inputs)
                                       for _ in range(SETUP_PROBES)]
        mods = import_rivkit()
        workload = WORKLOADS[args.workload](inputs)
        workload.warm_up(mods["cli"])
        run = Run(workload, mods["cli"], Tracer(mods) if args.trace else None)
        run.loop(args.seconds)
        if args.trace:
            metrics, details = traced_metrics(workload, run)
        else:
            metrics = end_to_end(workload, run.outcomes, setup)
            details = run_details(workload, run, setup)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    details.update({"workload": args.workload, "seconds": args.seconds,
                    "trace": args.trace, "machine": machine_facts(mods["numpy"], args.seed),
                    "problems": run.problems[:20]})
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": run.failed == 0, "attempted": len(run.outcomes),
                      "failed": run.failed, "metrics": metrics}))
    return 0


def child_role(args) -> int:
    mods = import_rivkit()
    workload = WORKLOADS[args.workload](Path(args.inputs))
    if args.role == "generate":
        workload.generate(mods, args.seed)
    else:  # probe: import done, warm up, report readiness
        workload.warm_up(mods["cli"])
        print(json.dumps({"ready": time.monotonic()}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="rivkit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("measure", "generate", "probe"),
                        default="measure", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.role == "measure":
            return measure(args)
        return child_role(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
