"""The repository benchmark: risk workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mc_grouped --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs its operations for ``--seconds`` with nothing wrapped,
checks every answer, and reports the end-to-end metrics.  ``--trace 1``
runs the same operations twice on fresh set-ups — for half of
``--seconds`` untraced, then the same operations with every layer call
wrapped (:mod:`layers`) — and reports the per-layer metrics, the share
of wall clock the spans cover, and the tracing overhead.  Spans are
written to ``.perfbench_out/`` at the end.

Every run ends by checking that it left no child process, thread,
socket or ``/dev/shm`` segment behind.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import multiprocessing
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
#: Set-up is repeated at least SETUP_MIN times and until SETUP_BUDGET
#: seconds went into it (at most SETUP_MAX times); setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET = 3, 100, 2.0
#: A run is aborted (and reported failed) after SOFT_LIMIT seconds and
#: killed outright after HARD_LIMIT seconds.
SOFT_LIMIT = 150.0
HARD_LIMIT = 172.0

#: End-to-end metrics every workload reports in its JSON line.
#: ``latency_s.p50`` is the median latency of the workload's headline
#: operation (``Workload.headline``); the report lines before the JSON
#: line break it down by operation kind.
E2E_UNITS = {"latency_s.p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live pool workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        kib += int(line.split()[1])
        except OSError:
            pass
    return kib / 1024.0


def run_plain(workload, seconds: float) -> dict:
    """Set up repeatedly, then time the last set-up's operations."""
    setups = []
    while True:
        # Like timeit: no garbage collection while set-up is timed, so a
        # collection of earlier set-ups' garbage does not land in it.
        gc.collect()
        with contextlib.ExitStack() as stack:
            gc.disable()
            try:
                start = time.perf_counter()
                system = stack.enter_context(workload.system())
                setups.append(time.perf_counter() - start)
            finally:
                gc.enable()
            if len(setups) < SETUP_MAX and (
                    len(setups) < SETUP_MIN or sum(setups) < SETUP_BUDGET):
                continue
            gc.collect()
            begin = time.perf_counter()
            ops = workload.drive(system, deadline=begin + seconds)
            elapsed = time.perf_counter() - begin
            rss = peak_rss_mb()
            break
    wrong = workload.check(ops)
    return {"setups": setups, "ops": ops, "elapsed": elapsed, "rss": rss,
            "wrong": wrong}


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


def run_traced(workload, seconds: float, seed: int) -> dict:
    """Untraced half, then the same operations traced on a fresh set-up."""
    from layers import TARGETS, layer_metrics
    from tracer import Tracer, coverage

    with workload.system() as system:
        begin = time.perf_counter()
        untraced_ops = workload.drive(system, deadline=begin + seconds / 2)
        untraced = time.perf_counter() - begin
    counts = [sum(1 for op in untraced_ops if op.client == client)
              for client in range(workload.clients)]

    looper_results = []
    tracer = Tracer(TARGETS, on_result={"gibbs_run": looper_results.append})
    with workload.system() as system:
        before = workload.counters(system)
        with tracer:
            begin = time.perf_counter()
            ops = workload.drive(system, counts=counts)
            end = time.perf_counter()
        after = workload.counters(system)
    wrong = workload.check(ops)

    records = []
    for op in ops:
        record = op.detail.get("record")
        if op.status == "ok" and record is not None:
            records.append(dict(record, overhead_s=op.seconds
                                - record["total_seconds"]))
    metrics = layer_metrics(
        tracer, looper_results,
        det_cache=_delta(after["det_cache"], before["det_cache"]),
        rows={"computed": sum(op.detail.get("computed", 0) for op in ops),
              "reused": sum(op.detail.get("reused", 0) for op in ops)},
        pool=_delta(after.get("pool", {}), before.get("pool", {})),
        records=records,
        rejected=after.get("rejected", 0) - before.get("rejected", 0),
        overhead=(end - begin) / untraced - 1.0,
        coverage=coverage(tracer.spans, begin, end))
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{workload.name}-seed{seed}.json",
                extra={"workload": workload.name, "seed": seed,
                       "metrics": metrics})
    return {"ops": ops, "wrong": wrong, "layer_metrics": metrics,
            "spans": len(tracer.spans)}


def end_to_end(workload, result: dict) -> tuple[dict, list]:
    """The JSON metrics and the full report rows (name, value, unit, n)."""
    ops = result["ops"]
    done = [op for op in ops if op.status in ("ok", "wrong")]
    by_kind: dict[str, list[float]] = {}
    for op in done:
        by_kind.setdefault(op.kind, []).append(op.seconds)
    if workload.clients > 1:
        by_kind["request"] = [op.seconds for op in done]
    if hasattr(workload, "cycle_seconds"):
        by_kind["cycle"] = workload.cycle_seconds(done)
    headline = by_kind.get(workload.headline, [])
    setups = result["setups"]
    metrics = {
        "latency_s.p50": statistics.median(headline) if headline else 0.0,
        "peak_rss_mb": result["rss"],
        "setup_s": statistics.median(setups),
    }
    bad = sum(1 for op in ops if op.status != "ok")
    rows = [("setup_s", metrics["setup_s"], "s", len(setups))]
    for kind, values in sorted(by_kind.items()):
        rows.append((f"{kind}_s.p50", statistics.median(values), "s",
                     len(values)))
        # A percentile needs at least ten samples beyond it.
        if len(values) >= 100:
            p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
            rows.append((f"{kind}_s.p90", p90, "s", len(values)))
    rows += [
        ("ops_per_s", len(done) / result["elapsed"], "1/s", len(done)),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB", 1),
        ("error_rate", bad / max(len(ops), 1), "ratio", len(ops)),
    ]
    for status in ("failed", "refused", "wrong"):
        rows.append((f"ops_{status}",
                     sum(1 for op in ops if op.status == status), "count",
                     len(ops)))
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: {source}/repro not found; run from the root of "
              "a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import hygiene
    from layers import UNITS
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    units = UNITS if args.trace else E2E_UNITS

    def killed():
        print(f"perfbench: run killed after {HARD_LIMIT:.0f} s",
              file=sys.stderr, flush=True)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {name: {"value": 0.0, "unit": unit}
                                      for name, unit in units.items()}}),
              flush=True)

    before = hygiene.snapshot()
    workload = WORKLOADS[args.workload](args.seed)
    result, problems = None, []
    with hygiene.Watchdog(SOFT_LIMIT, HARD_LIMIT, killed) as watchdog:
        try:
            if args.trace:
                result = run_traced(workload, args.seconds, args.seed)
            else:
                result = run_plain(workload, args.seconds)
        except hygiene.RunTimeout as exc:
            problems.append(f"aborted: {exc}")
        watchdog.disarm_soft()
    hygiene.stop_resource_tracker()
    problems += hygiene.residue(before, ports=getattr(workload, "ports", ()))

    ops = result["ops"] if result else []
    problems += result["wrong"] if result else []
    attempted = max(len(ops), 1)
    failed = sum(1 for op in ops if op.status != "ok")
    if result is None:
        failed = attempted
    if args.trace:
        values = result["layer_metrics"] if result else {}
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
        print(f"# {args.workload} seed {args.seed}: traced "
              f"{len(ops)} operations, {result['spans'] if result else 0} "
              "spans")
        for name, entry in metrics.items():
            print(f"{args.workload:16} {name:42} {entry['value']:>14.6g} "
                  f"{entry['unit']}")
    else:
        values, rows = end_to_end(workload, result) if result else ({}, [])
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in units.items()}
        print(f"# {args.workload} seed {args.seed}: {len(ops)} operations "
              f"in {result['elapsed'] if result else 0:.2f} s")
        for name, value, unit, count in rows:
            print(f"{args.workload:16} {name:20} {value:>14.6g} {unit:6} "
                  f"n={count}")
    errors = [op.detail["error"] for op in ops if "error" in op.detail]
    for message in problems + errors[:5]:
        print(f"perfbench: {message}", file=sys.stderr)
    # A failed or refused operation fails the run just as a wrong answer
    # does: error_rate must be 0.
    correct = result is not None and not problems and failed == 0 and all(
        math.isfinite(entry["value"]) for entry in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
