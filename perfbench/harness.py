"""Running ops one at a time, with a per-op budget, and classifying them.

An op is one input line passed through ``pillowtiled.cli.run`` with the
workload's flags.  Its output goes to stdout and is captured in memory:
creating an output file on the reference machine's disk costs about
0.8 ms, with a swing of half that, which would drown the variation of a
7 ms ekz line.  An op fails when it raises (``crash``), returns a non-zero
exit status (``exit``), outlives its budget (``budget``) or writes output
that fails the oracle check (``wrong``).  The budget is a SIGALRM timer
in this process, so a runaway Smith form is interrupted between two
big-integer operations.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from pillowtiled import cli
from pillowtiled.coverings import CyclicCoverSpec, is_determinant_locus

import oracle
from workloads import Op

CAUSES = ("crash", "exit", "budget", "wrong")


class BudgetExceeded(BaseException):
    """Raised by the alarm inside an op that outlived its budget.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


@dataclass
class OpResult:
    latency: float
    cause: str | None = None
    detail: str = ""
    output: str = ""


def write_inputs(ops: list[Op], work: Path) -> list[cli.RunConfig]:
    """One input file per op; returns the run configuration of each."""
    configs = []
    for i, op in enumerate(ops):
        path = work / f"op{i:05d}.in"
        path.write_text(op.line + "\n")
        configs.append(cli.RunConfig(
            command=op.command,
            input_path=str(path),
            steps=op.steps,
            seeds=op.seeds,
        ))
    return configs


def _on_alarm(signum, frame):
    raise BudgetExceeded


def run_op(config: cli.RunConfig, budget_s: float) -> OpResult:
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    out = io.StringIO()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            with contextlib.redirect_stdout(out):
                status = cli.run(config)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded:
        return OpResult(time.perf_counter() - start, "budget", f"over {budget_s:g} s")
    except Exception as exc:  # the op's crash is the measurement
        detail = f"{type(exc).__name__}: {exc}".splitlines()[0][:200]
        return OpResult(time.perf_counter() - start, "crash", detail)
    finally:
        signal.signal(signal.SIGALRM, previous)
    latency = time.perf_counter() - start
    if status != 0:
        return OpResult(latency, "exit", f"exit status {status}")
    return OpResult(latency, output=out.getvalue())


def run_pass(configs: list[cli.RunConfig], budget_s: float, deadline_s: float, after_op=None):
    """Run every op in order; returns (results, wall seconds).

    Ops still waiting when ``deadline_s`` has passed are not started and
    count as ``budget`` failures, so a run always ends in bounded time.
    ``after_op`` is called after each op.
    """
    results = []
    start = time.perf_counter()
    for config in configs:
        left = deadline_s - (time.perf_counter() - start)
        if left <= 0:
            results.append(OpResult(0.0, "budget", "not started: run deadline passed"))
            continue
        results.append(run_op(config, min(budget_s, left)))
        if after_op is not None:
            after_op()
    return results, time.perf_counter() - start


def check_output(op: Op, record: dict) -> list[str]:
    if op.command == "certify":
        N, a = oracle.parse_cyclic(op.line)
        return oracle.check_certify(op.line, record, bool(is_determinant_locus(CyclicCoverSpec(N, a))))
    return getattr(oracle, f"check_{op.command}")(op.line, record)


def verify(ops: list[Op], results: list[OpResult]) -> str:
    """Check every output against the oracle, mark wrong ones, and return
    the sha256 of all outputs in input order (failures enter by cause)."""
    digest = hashlib.sha256()
    for op, res in zip(ops, results):
        payload, res.output = res.output, ""
        if res.cause is None:
            try:
                records = json.loads(payload)
                problems = check_output(op, records[0]) if len(records) == 1 else ["expected one record"]
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if problems:
                res.cause, res.detail = "wrong", "; ".join(problems)[:300]
        digest.update(f"{op.command} {op.line} {res.cause or 'ok'}\n{payload}".encode())
    return digest.hexdigest()


def latency_stats(results: list[OpResult], budget_s: float) -> dict:
    """Median and tail latency over all ops, failed ops ranked last.

    The tail is the highest percentile with at least 10 ops beyond it.
    A failed op counts as missing every limit; should a rank land on one,
    the value reported is the op budget it missed.
    """
    ranked = sorted(r.latency if r.cause is None else math.inf for r in results)
    n = len(ranked)

    def at(i: int) -> float:
        return budget_s if ranked[i] == math.inf else ranked[i]

    p50 = (at((n - 1) // 2) + at(n // 2)) / 2
    tail_index = max(n - 11, 0)
    return {
        "op_p50_s": p50,
        "op_tail_s": at(tail_index),
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_ops_beyond": n - 1 - tail_index,
    }

