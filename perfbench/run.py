"""Layered solve benchmark for mbsn.

    python3 perfbench/run.py --workload k2-mid --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout: mbsn is imported from ./src and
from nowhere else.  One run is one process that solves one instance at a
time through ``mbsn.solver.solve`` (a closed loop with a single client; no
threads, no pools, numerical libraries held at one thread).  It repeats
passes over the workload's fixed instance set, at least two, until one more
pass would exceed ``--seconds``; with tracing off, a solve shorter than
REPEAT_S is repeated within a pass.  A solve's time is its fastest untraced
time over the run: on a shared machine the speed of the same code swings by
up to 1.5x, from one tenth of a second to the next and over tens of seconds
(CPU time swings with it), and only repeats spread over the run remove
that.  solve_s sums these times over one pass, solve_ms_p50 is their
median.

Every output is checked outside the timed region: ``validate()``, the
bottleneck against the recorded reference (for instances that have one),
against the first pass, against ``oracle_mbsn0`` at k = 0, and the
sandwich b2 <= b1 <= b0 + 1e-9 when an instance is solved at every k.

Standard output: one line per (instance, k) with its bottleneck, so two
commits can be diffed on any seed; one ``detail`` line; and last the
result line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1`` every
solve is made twice in a row, untraced and traced, the metrics are per
layer (per-pass means over the traced solves), and the spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# before anything imports numpy: keep every numerical library at one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracer import LAYERS, ROOT_SETUP, ROOT_SOLVE, Tracer, aggregate
from workloads import WORKLOADS, Workload, instances

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 9
REPEAT_S = 0.025  # with tracing off, least time spent on one solve per pass
BOTTLENECK_TOL = 1e-12  # reference and oracle_mbsn0 agreement
SANDWICH_TOL = 1e-9

END_TO_END = {
    "solve_s": "s",
    "solve_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "rng.build_2rng.calls": "count",
    "rng.build_2rng.self_s": "s",
    "rng.build_2rng.kept_frac": "ratio",
    "rng.threshold_subgraph.calls": "count",
    "rng.threshold_subgraph.self_s": "s",
    "graph.is_biconnected.calls": "count",
    "graph.is_biconnected.self_s": "s",
    "graph.is_connected.calls": "count",
    "graph.is_connected.self_s": "s",
    "graph.b_count.calls": "count",
    "graph.b_count.self_s": "s",
    "graph.block_cut_forest.calls": "count",
    "graph.block_cut_forest.self_s": "s",
    "graph.Graph.__post_init__.calls": "count",
    "graph.Graph.__post_init__.self_s": "s",
    "solver.probes": "count",
    "solver.feasible_frac": "ratio",
    "solver.self_s": "s",
    "scsd.context_global.calls": "count",
    "scsd.context_global.self_s": "s",
    "scsd.context_global.candidates": "count",
    "scsd.context_global.dist_mb": "MB",
    "scsd.context_local.calls": "count",
    "scsd.context_local.self_s": "s",
    "scsd.best_center.calls": "count",
    "scsd.best_center.self_s": "s",
    "scsd.smallest_color_spanning_disk.calls": "count",
    "scsd.smallest_color_spanning_disk.incl_s": "s",
    "scsd.coupled_two_disk.calls": "count",
    "scsd.coupled_two_disk.self_s": "s",
    "scsd.coupled_two_disk.incl_s": "s",
    "closure1.optimal_1block_closure.calls": "count",
    "closure1.optimal_1block_closure.self_s": "s",
    "closure2.optimal_2block_closure.calls": "count",
    "closure2.optimal_2block_closure.self_s": "s",
    "closure2.optimal_2block_closure.incl_s": "s",
    "closure2.partitions": "count",
    "closure2.classify.calls": "count",
    "closure2.classify.self_s": "s",
    "closure2.locate_case1.calls": "count",
    "closure2.locate_case1.incl_s": "s",
    "closure2.locate_case2.calls": "count",
    "closure2.locate_case2.incl_s": "s",
    "closure2.locate_case3.calls": "count",
    "closure2.locate_case3.incl_s": "s",
    "cli.generate_instance.self_s": "s",
    "rng.self_s": "s",
    "graph.self_s": "s",
    "scsd.self_s": "s",
    "closure1.self_s": "s",
    "closure2.self_s": "s",
    "gc.cycle_mb": "MB",
    "trace.solve_s": "s",
    "trace.layer_sum_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def _use_checkout_source() -> None:
    if not (SRC / "mbsn" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mbsn package under {SRC}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))


def setup(workload: Workload, seed: int, reference: Path):
    """Import mbsn, generate the instance set and load the references."""
    import mbsn.cli

    insts = instances(workload, seed)
    points = [mbsn.cli.generate_instance(i.n, i.seed, i.distribution) for i in insts]
    refs = json.loads(reference.read_text(encoding="utf-8"))["bottlenecks"]
    return insts, points, refs


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters, so that import costs
    (numpy and anything mbsn adds) are paid every time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _collect_cycles() -> float:
    """Collect the garbage that only the cycle collector can free and
    return the MB of numpy arrays it held.

    A solve can leave reference cycles behind (in ``closure2._locate_pair``
    a recursive closure keeps the solve's ScsdContext alive), and where the
    interpreter happens to collect them depends on the instance set, which
    made peak RSS range over 68-100 MB between seeds of one workload.
    Collecting after every solve keeps peak_rss_mb steady; this return value
    keeps what the cycles held visible as the per-layer metric gc.cycle_mb.
    """
    import numpy as np

    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what is collected in gc.garbage
    try:
        gc.collect()
        held = {id(o): o.nbytes for o in gc.get_referents(*gc.garbage)
                if isinstance(o, np.ndarray)}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    gc.collect()
    return sum(held.values()) / 2**20


def _check(net, pts, k: int, ref: float | None, first: float | None) -> str | None:
    """Reason the output is wrong, or None."""
    try:
        net.validate()
    except ValueError as exc:
        return f"validate: {exc}"
    if net.k != k or net.terminals != tuple(pts):
        return "wrong k or terminals"
    if ref is not None and abs(net.bottleneck - ref) > BOTTLENECK_TOL:
        return f"bottleneck {net.bottleneck!r} != reference {ref!r}"
    if first is not None and net.bottleneck != first:
        return f"bottleneck {net.bottleneck!r} != first pass {first!r}"
    return None


def _tail(times_ms: list[float]) -> dict | None:
    """Highest percentile with at least ten solve times beyond it; None
    below 20 times, where that would not be a tail."""
    n = len(times_ms)
    if n < 20:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2),
            "value_ms": sorted(times_ms)[n - 11], "samples": n}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 reference: Path = DEFAULT_REFERENCE,
                 spans_path: Path | None = None) -> dict:
    """One benchmark run in this process; returns the result fields, the
    per-(instance, k) bottlenecks and the detail record."""
    import mbsn.oracle
    import mbsn.solver

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.begin(ROOT_SETUP, None)
    try:
        insts, points, refs = setup(workload, seed, reference)
    finally:
        if tracer is not None:
            tracer.end()
            tracer.restore()

    # Freeze what exists now (modules, numpy, the instances), so that the
    # collections after each solve skip it: ~0.2 ms each instead of ~12 ms.
    gc.freeze()
    jobs = [(i, k) for i in range(len(insts)) for k in workload.ks]
    bottleneck: dict[tuple[int, int], float | None] = {}
    outcomes: list[tuple[tuple[int, int], str | None]] = []
    # per pass: untraced times, traced times and traced solve ids, one
    # entry per job (the traced lists stay empty with tracing off)
    passes: list[tuple[list[float], list[float], list[int]]] = []
    cycle_mb: list[float] = []  # per pass, untraced solves
    solve_id = 0
    t_start = perf_counter()
    while True:
        pass_start = perf_counter()
        times, traced_times, ids = [], [], []
        pass_cycle_mb = 0.0
        # With tracing on, every solve is made twice in a row, untraced and
        # traced, the order alternating between passes, so that
        # trace.overhead_frac compares solves made a moment apart.
        if tracer is None:
            modes = (False,)
        else:
            modes = (False, True) if len(passes) % 2 == 0 else (True, False)
        for job in jobs:
            i, k = job
            key = f"{insts[i].key}-k{k}"
            for traced in modes:
                if traced:
                    tracer.install()
                try:
                    # A solve is repeated until it has taken REPEAT_S in
                    # this pass: a millisecond solve needs many samples for a
                    # steady fastest time.  With tracing on it is made once,
                    # so that call counts do not depend on timing.
                    reps, spent, best = 0, 0.0, math.inf
                    while reps == 0 or (tracer is None and spent < REPEAT_S):
                        if traced:
                            tracer.begin(ROOT_SOLVE, solve_id)
                        t0 = perf_counter()
                        try:
                            net = mbsn.solver.solve(points[i], k)
                        except Exception:  # a failing solve is counted, not fatal
                            net = None
                            reason = traceback.format_exc(limit=3)
                        finally:
                            dt = perf_counter() - t0
                            if traced:
                                tracer.end()
                        reps += 1
                        spent += dt
                        best = min(best, dt)
                        if net is not None:
                            reason = _check(net, points[i], k, refs.get(key), bottleneck.get(job))
                            bottleneck.setdefault(job, net.bottleneck)
                        else:
                            bottleneck.setdefault(job, None)
                        outcomes.append((job, reason))
                finally:
                    if traced:
                        tracer.restore()
                mb = _collect_cycles() / reps  # the repeats leave the same garbage
                if traced:
                    traced_times.append(best)
                    ids.append(solve_id)
                    solve_id += 1
                else:
                    times.append(best)
                    pass_cycle_mb += mb
        passes.append((times, traced_times, ids))
        cycle_mb.append(pass_cycle_mb)
        now = perf_counter()
        if len(passes) >= 2 and now - t_start + (now - pass_start) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.unfreeze()

    # instance-level gates, after the timed loop
    bad: dict[tuple[int, int], str] = {}
    for i, pts in enumerate(points):
        b = {k: bottleneck[(i, k)] for k in workload.ks}
        if b.get(0) is not None:
            oracle = mbsn.oracle.oracle_mbsn0(pts)
            if abs(b[0] - oracle) > BOTTLENECK_TOL:
                bad[(i, 0)] = f"bottleneck {b[0]!r} != oracle_mbsn0 {oracle!r}"
        if {0, 1, 2} <= set(b) and None not in b.values() and not (
                b[2] <= b[1] + SANDWICH_TOL and b[1] <= b[0] + SANDWICH_TOL):
            for k in b:
                bad[(i, k)] = f"sandwich violated: {b}"
    failures = [reason or bad[job] for job, reason in outcomes if reason or job in bad]

    fastest = [min(ts) for ts in zip(*(times for times, _, _ in passes))]  # per job
    detail = {"workload": workload.name, "seed": seed, "instances": len(insts),
              "passes": len(passes), "solves": len(outcomes),
              "failed_frac": len(failures) / len(outcomes),
              "solve_ms_tail": _tail([1000.0 * t for t in fastest]),
              "failures": failures[:5]}
    if tracer is not None:
        # call sites the program no longer has: their metrics read zero
        detail["trace_skipped"] = tracer.skipped
    if tracer is None:
        metrics = {
            "solve_s": sum(fastest),
            "solve_ms_p50": 1000.0 * statistics.median(fastest),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics = _layer_metrics(tracer, passes)
        metrics["gc.cycle_mb"] = statistics.fmean(cycle_mb)
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans_path)
    return {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
        "bottlenecks": {(insts[i].key, k): b for (i, k), b in bottleneck.items()},
        "detail": detail,
    }


def _layer_metrics(tracer: Tracer, passes) -> dict[str, float]:
    per_pass = [aggregate(tracer.spans, set(ids)) for _, _, ids in passes]
    out = {name: statistics.fmean(agg.get(name, 0.0) for agg in per_pass)
           for name in PER_LAYER if not name.startswith("trace.")}
    out["trace.solve_s"] = statistics.fmean(sum(traced) for _, traced, _ in passes)
    out["trace.layer_sum_frac"] = statistics.fmean(
        sum(agg.get(f"{layer}.self_s", 0.0) for layer in LAYERS) for agg in per_pass
    ) / out["trace.solve_s"]
    # each solve's fastest traced time against its fastest untraced one,
    # summed; the first pass is left out, as its untraced solves run cold
    later = passes[1:]
    traced_fastest = sum(min(ts) for ts in zip(*(traced for _, traced, _ in later)))
    untraced_fastest = sum(min(ts) for ts in zip(*(times for times, _, _ in later)))
    out["trace.overhead_frac"] = traced_fastest / untraced_fastest - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print the seconds")
    args = ap.parse_args(argv)
    _use_checkout_source()
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        t0 = perf_counter()
        setup(workload, args.seed, DEFAULT_REFERENCE)
        print(perf_counter() - t0)
        return 0

    spans_path = HERE / "out" / f"spans-{args.workload}-{args.seed}.csv.gz"
    res = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                       spans_path=spans_path)
    for (key, k), b in res["bottlenecks"].items():
        print(json.dumps({"instance": key, "k": k, "bottleneck": b}))
    print(json.dumps({"detail": res["detail"]}))
    if args.trace:
        units, values = PER_LAYER, res["metrics"]
    else:
        units = END_TO_END
        values = dict(res["metrics"], setup_s=measure_setup(args.workload, args.seed))
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
