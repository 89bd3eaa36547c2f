"""Benchmark of the pillowtiled batch pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/``;
nothing is installed.  Load model: one client in a closed loop, one op at
a time in this process, ``PILLOWTILED_THREADS`` unset, assertions on.
The op list is generated from ``--seed``; every output is checked against
the closed-form exponent oracle and the exact channels (``oracle.py``).

With ``--trace 0`` the result line carries the end-to-end metrics that
later changes are held to: set-up time, wall time, ops per second and
peak memory.  With ``--trace 1`` the op list runs twice, untraced and
then traced, and the result line carries the per-layer metrics and the
tracing overhead.  Before the result line, one JSON line gives the
details: environment, the median and tail op latency (failed ops rank
last), failures by cause, MC digits per second, and the sha256 of the
outputs in input order.  The latencies are reported but not held to a
bound: across seeds on a 2-core VM their spread between quartiles
reached 20% of the median, more than the wall time's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
PASS_DEADLINE_S = 80.0  # per pass, so that a traced run ends within 180 s
MC_COMMANDS = ("lyapunov", "certify")


def prepare(workload: str, seed: int, seconds: int, work: Path):
    """Set-up: import the program, generate the inputs, run the warm-up."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import harness
    import workloads

    ops = workloads.build(workload, seed, seconds)
    configs = harness.write_inputs(ops, work)
    warm_dir = work / "warm-up"
    warm_dir.mkdir()
    warm_ops = list(workloads.WORKLOADS[workload].warm_up)
    warm_configs = harness.write_inputs(warm_ops, warm_dir)
    warm, _ = harness.run_pass(warm_configs, 60.0, 60.0)
    harness.verify(warm_ops, warm)
    for op, res in zip(warm_ops, warm):
        if res.cause is not None:
            raise RuntimeError(f"warm-up op {op.command} {op.line!r} failed: {res.cause} {res.detail}")
    return ops, configs


def measure_setup(workload: str, seed: int, seconds: int) -> list[float]:
    """Set-up time of fresh interpreters, one per sample (see probe.py)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pillowtiled").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _os_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def environment(seed: int, threads_env: str | None) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "PILLOWTILED_THREADS": threads_env,
        "optimize": sys.flags.optimize,
        "os_threads": _os_threads(),
        "seed": seed,
    }


def summarize(ops, results, wall: float, budget_s: float) -> dict:
    import harness

    ok = [r.cause is None for r in results]
    lat = harness.latency_stats(results, budget_s)
    by_cause = {c: sum(r.cause == c for r in results) for c in harness.CAUSES}
    summary = {
        "wall_s": wall,
        "ops_per_s": sum(ok) / wall,
        "op_p50_s": {"value": lat["op_p50_s"], "unit": "s"},
        "op_tail_s": {"value": lat["op_tail_s"], "unit": "s",
                      "percentile": lat["tail_percentile"], "ops_beyond": lat["tail_ops_beyond"]},
        "attempted": len(results),
        "failed": len(results) - sum(ok),
        "failed_ratio": {c: {"value": n / len(results), "unit": "ratio", "ops": n}
                         for c, n in by_cause.items()},
        "failures": [f"{op.command} {op.line}: {r.cause}: {r.detail}"
                     for op, r in zip(ops, results) if r.cause][:20],
    }
    if any(op.command in MC_COMMANDS for op in ops):
        digits = sum(op.steps * len(op.seeds) for op, good in zip(ops, ok) if good)
        summary["mc_digits_per_s"] = {"value": digits / wall, "unit": "1/s"}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pillowtiled" / "__init__.py").is_file():
        print(f"no program sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("the load model needs assertions on; run without -O", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    threads_env = os.environ.pop("PILLOWTILED_THREADS", None)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    setup_samples = measure_setup(args.workload, args.seed, args.seconds)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        ops, configs = prepare(args.workload, args.seed, args.seconds, Path(tmp))
        import harness

        budget = workloads.WORKLOADS[args.workload].budget_s
        results, wall = harness.run_pass(configs, budget, PASS_DEADLINE_S)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digest = harness.verify(ops, results)
        summary = summarize(ops, results, wall, budget)
        if args.trace:
            import tracer

            with tracer.Tracer(harness.BudgetExceeded) as tr:
                traced, traced_wall = harness.run_pass(
                    configs, budget, PASS_DEADLINE_S, after_op=tr.reset_stack)
            traced_digest = harness.verify(ops, traced)
            traced_summary = summarize(ops, traced, traced_wall, budget)

    setup_s = statistics.median(setup_samples)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "wall_s": (summary["wall_s"], "s"),
        "ops_per_s": (summary["ops_per_s"], "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    passes = [summary]
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed, threads_env),
        "setup_samples_s": setup_samples,
        "untraced": summary,
        "output_sha256": digest,
    }
    if args.trace:
        units = tracer.metric_units()
        values = tr.metrics()
        values["trace.overhead_s"] = traced_wall - wall
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
        passes.append(traced_summary)
        detail["end_to_end"] = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
        detail["traced"] = traced_summary
        detail["traced_output_sha256"] = traced_digest
        detail["lead_self_s"] = sorted(
            ((k[: -len(".self_s")], v) for k, v in values.items() if k.endswith(".self_s")),
            key=lambda kv: -kv[1])[:6]
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}

    # crashes and overruns are counted failures; a wrong answer, or an exit
    # status (4 is a channel contradiction), makes the run incorrect
    correct = all(s["failed_ratio"]["wrong"]["ops"] == 0 and s["failed_ratio"]["exit"]["ops"] == 0
                  for s in passes)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": passes[-1]["attempted"],
        "failed": passes[-1]["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
