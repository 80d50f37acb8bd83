"""Write BENCH_<topic>.json: this checkout against a parent checkout.

    mkdir ../parent && git archive PARENT_COMMIT | tar -x -C ../parent
    python3 bench/bench_scsd.py ../parent                   # BENCH_scsd.json
    python3 bench/bench_scsd.py ../parent --topic k2pins    # BENCH_k2pins.json
    python3 bench/bench_scsd.py ../parent --topic k2closure # BENCH_k2closure.json
    python3 bench/bench_scsd.py ../parent --topic k0probes  # BENCH_k0probes.json
    python3 bench/bench_scsd.py ../parent --topic k1local   # BENCH_k1local.json
    python3 bench/bench_scsd.py ../parent --topic k2cut     # BENCH_k2cut.json
    python3 bench/bench_scsd.py ../parent --topic k2rows    # BENCH_k2rows.json
    python3 bench/bench_scsd.py ../parent --topic k2decide  # BENCH_k2decide.json
    python3 bench/bench_scsd.py ../parent --topic k2stop    # BENCH_k2stop.json
    python3 bench/bench_scsd.py ../parent --topic k2pair    # BENCH_k2pair.json
    python3 bench/bench_scsd.py ../parent --topic k2coupled # BENCH_k2coupled.json
    python3 bench/bench_scsd.py ../parent --topic k1probes  # BENCH_k1probes.json
    python3 bench/bench_scsd.py ../parent --topic 2rngcert  # BENCH_2rngcert.json
    python3 bench/bench_scsd.py ../parent --topic k0local   # BENCH_k0local.json
    python3 bench/bench_scsd.py ../parent --topic k0sq      # BENCH_k0sq.json
    python3 bench/bench_scsd.py ../parent --topic k0walk    # BENCH_k0walk.json

Run it from the root of this checkout; ``--output`` names another file.
Every topic makes, one process at a time:

* alternating parent/change pairs of ``perfbench/run.py --trace 0`` on
  k0-large, k1-large and k2-mid (seeds 11-20, 36 s each; pair i runs the
  parent first when i is even), with medians, quartiles and the spread
  (q3 - q1) / median of every end-to-end metric, and the per-instance
  bottlenecks of both sides compared;
* one ``--trace 1`` run per workload and side at seed 1, keeping the
  topic's layer metrics.

Then its own rows, each in a fresh interpreter capped at 3 GB of address
space:

* ``scsd``: k = 1 solves at n = 128 and 256 (uniform, the ``mbsn bench``
  instance seed n and seeds 1-3), with time, peak RSS, bottleneck and the
  largest number of classes of one disk query;
* ``k2pins`` and ``k2closure``: k = 2 solves at uniform n = 64 (seeds 1-3)
  and clustered n = 48 (seeds 1-2), the 64 k2-mid instances of seeds 1-2 in
  one process, and all five larger instances in one process, three times a
  side in alternating order (the fastest run counts, every run's time is
  kept as ``run_times_s``), with time, peak RSS,
  ``best_center`` calls, anchored solves of the coupled two-disk solver, and
  per instance whether the bottleneck (within 1e-12) and the whole answer
  (bottleneck, Steiner points and edges) equal the parent's;
* ``k0probes``: k = 0 solves at uniform n = 1024, 2048 and 4096 and
  clustered n = 2048 (seed 1), three times a side in alternating order (the
  fastest run counts), with time, peak RSS and whether the bottleneck, the
  threshold and the edges equal the parent's exactly;
* ``k1local``: k = 1 solves at uniform n = 256 (seed 256), n = 512 (seeds 1
  and 512) and n = 1024 (seed 1), three times a side in alternating order
  (the fastest run counts), with time, peak RSS, the largest number of
  classes of one disk query, the bottleneck, b0, the Steiner point and whether
  ``validate()`` passed; and the k2-mid instances of seeds 1-2 in one
  process, as in ``k2pins``, with per instance whether the bottleneck and
  the whole answer equal the parent's;
* ``k2cut``: as ``k2pins``, on the k2-mid instances of seeds 1-2 and of
  seeds 11-20 (each set in one process), uniform n = 64 and 128 (seeds 1-3)
  and clustered n = 48 and 128 (seed 1), the whole answer now with the
  threshold; plus, from one more run of the change alone, the k = 2 probes
  above their cutoff, the partitions skipped by their lower bound, the pair
  searches that returned nothing below their bound, the rows each side of a
  pair search dropped, and the coupled solves cut;
* ``k2rows``: the k2-mid instances of seeds 1-2 in one process, as in
  ``k2cut``, then clustered n = 96 and 128 (seeds 1-2) and uniform n = 64,
  128 and 256 (seed 1), one process per instance, so that its peak RSS is
  its own; plus the cut counts of the change on the k2-mid instances of
  seeds 1-2, whose rows are now those the pair search builds;
* ``k2decide``: as ``k2cut``, on the k2-mid instances of seeds 1-2 and of
  seeds 11-20, acceptance suites 1-2 (500 instances, n = 4..40), uniform
  n = 64 and 128 (seeds 1-3) and n = 256 (seed 1), and clustered n = 48
  and 128 (seed 1) and n = 128 (seed 2), each set in one process, the
  whole answer with the threshold; per set and side, from more untimed
  runs, the k = 2 evaluations: all, those at their own threshold's cutoff
  t+, those above t with an exact radius, and on the change side those of
  the pricing phase (the last feasible up-probe) and of the plateau walk;
  plus the whole answers of 48 lattice, collinear and integer-grid sets at
  k = 0, 1 and 2.
* ``k2stop``: the answer sets of ``k2decide`` and its 48 degenerate sets,
  with per set and side, from more runs, the k = 2 evaluations
  counted and timed by phase: decision (hit r <= t, ABOVE or r > t,
  infeasible), crossing (the last feasible up-probe), plateau walk (earlier
  up-probes) and re-pricing (the last down-probe, evaluated again); plus ten
  more alternating k2-mid pairs on seeds 21-30.
* ``k2pair``: the rows of ``k2stop`` (the same answer sets, phase counts
  and times, and held-out pairs), for a change to the pair search: its
  crossing and plateau phases are the evaluations that price exactly.
* ``k2coupled``: the answer sets of ``k2decide``, three runs a side in
  alternating order, with per set whether bottlenecks and thresholds are
  identical (within 1e-12), each instance whose whole answer moved, and
  the coupled two-disk solver's calls, anchored solves, contexts built
  inside it and seconds (least of three); the 144 degenerate solves; and
  200 direct coupled calls on random, lattice, collinear and cocircular
  colour systems, radius (within 1e-12) and pair compared.
* ``k1probes``: its pairs are three a seed on seeds 1-2 and 11-20, 12 s
  each (pair i runs the parent first when i is even); k = 1 solves at
  uniform n = 1024 and 4096 (seed 1), three times a side in alternating
  order as in ``k1local``; and the whole answers (bottleneck, Steiner
  points, edges, threshold) of one untimed run a side over the answer sets
  of ``k2decide`` at k = 2, acceptance suites 1-2 at k = 0 and 1, the
  k1-large instances of seeds 1-2 and 11-20 at k = 1, k = 1 at uniform
  n = 512 (seed 1), and the 48 degenerate sets at k = 0, 1 and 2.
* ``2rngcert``: ``build_2rng`` alone at uniform and clustered n = 256,
  512, 1024, 2048, 4096 and 8192 (instance seed 1000), one process per
  size and path: the parent, the change with the dense witness pass forced
  (switch above n) and the change with the sector certificate forced
  (switch at 0), with the fastest of several calls, every call's time,
  peak RSS and whether edges and lengths equal the parent's; the 2-RNG
  edges and lengths of the parent, the change and the change with the
  certificate forced, over every instance set listed in ``RNG_SETS``; the
  k = 0 solves of ``k0probes``; and the whole answers of ``k1probes``.
* ``k0local``: its pairs are 12 s each; k = 0 solves at uniform and
  clustered n = 1024, 2048, 4096 and 8192 (seed 1), three times a side in
  alternating order as in ``k0probes``; the 2-RNG edges and lengths of the
  parent and the change over ``RNG_SETS`` and over ``RNG_K0LOCAL`` (uniform
  and clustered n = 1024-8192 at seeds 1-3 and four n = 600 degenerate
  sets); and the whole k = 0 answers (bottleneck, edges, threshold) over
  the answer sets of ``k2decide``, the 48 degenerate sets and the k0-large
  instances of seeds 1 and 11-20.
* ``k0sq``: its pairs are 12 s each; ``build_2rng`` alone at uniform and
  clustered n = 1024 and 8192 (seed 1), three processes a side in
  alternating order, each the fastest of several calls with every private
  function of ``rng`` timed by its self seconds (the checkout's own
  function names); the 2-RNG edges and lengths of ``k0local``; k = 0
  solves at uniform n = 8192 and 16384 as in ``k0probes``; and the whole
  answers of ``k1probes``.
* ``k0walk``: its pairs are 12 s each; k = 0 solves of the k0-large
  instances of seeds 1-10 and of the valley line (points (x_i, 0) whose
  gaps are 1 + 1e-3 min(i, n - 2 - i)) at n = 1024 and 4096, one process
  per instance and three a side in alternating order, each solving its
  instance several times: the low-point passes of one solve (the parent's
  probes above its floor, the change's walk), the median, quartiles and
  spread of the solve times of the fastest process, that process's
  fastest solve split by layer (self seconds: the 2-RNG's lune tests in
  ``build_2rng``; the hand-off, which is the 2-RNG's ``Graph``, the
  evaluator's ordering and ``length_schedule``; the search, which is the
  floors, the passes and ``_binary_search``; the assembly), its peak RSS
  and whether the whole answer equals the parent's; the whole answers of
  ``k1probes``; and whole answers of k = 0 and 1 on the chunk-boundary
  sets of the tests, of k = 0, 1 and 2 on their degenerate and
  certificate sets, and of k = 0 on uniform and clustered n = 3-40 (seeds
  1-5), n = 64-2048 (seed 1) and the valley line at n = 1024 and 4096.

The evaluation counts and phase times of ``k2decide``, ``k2stop`` and
``k2pair`` come from three more runs a side in alternating order: the counts
repeat, and each phase's time is its least over the three (all three are
kept under ``runs_s``).

``all_bottlenecks_identical`` compares bottlenecks only; whole-answer
identity is reported per row as ``answers_identical``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("k0-large", "k1-large", "k2-mid")
SEEDS = range(11, 21)
METRICS = ("solve_s", "solve_ms_p50", "peak_rss_mb", "setup_s")
AS_LIMIT = 3 << 30

# the start of every row's interpreter: capped address space, mbsn from src/
PRELUDE = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
sys.path.insert(0, "src")
from mbsn import scsd
from mbsn.cli import generate_instance
from mbsn.solver import solve
""".format(limit=AS_LIMIT)

# one k = 1 solve; prints time, peak RSS, bottleneck and widest query
K1_SOLVE = PRELUDE + """
seen = {{"classes": 0}}
query = scsd.ScsdContext.best_center
def best_center(ctx, classes):
    seen["classes"] = max(seen["classes"], len(classes))
    return query(ctx, classes)
scsd.ScsdContext.best_center = best_center
pts = generate_instance({n}, {seed}, "uniform")
t0 = time.perf_counter()
try:
    b = solve(pts, 1).bottleneck
except MemoryError as exc:
    b = "MemoryError: " + str(exc)
seen.update(time_s=round(time.perf_counter() - t0, 4), bottleneck=b,
            peak_rss_mb=round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1))
print(json.dumps(seen))
"""


def run_bench(checkout: Path, workload: str, seed: int, trace: int, seconds: int = 36) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         cwd=checkout, capture_output=True, text=True, check=True).stdout
    lines = [json.loads(line) for line in out.splitlines() if line.startswith("{")]
    res = lines[-1]
    return {"metrics": {k: round(v["value"], 6) for k, v in res["metrics"].items()},
            "failed": res["failed"], "attempted": res["attempted"],
            "detail": next(x["detail"] for x in lines if "detail" in x),
            "bottlenecks": {f"{x['instance']}/k{x['k']}": x["bottleneck"]
                            for x in lines if "instance" in x}}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6),
            "spread": round((q3 - q1) / med, 6)}


def untraced(parent: Path, change: Path, workload: str, seeds=SEEDS, rounds: int = 1,
             seconds: int = 36) -> dict:
    runs = []
    sides = {"parent": parent, "change": change}
    for i, seed in enumerate(s for s in seeds for _ in range(rounds)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        res = {side: run_bench(sides[side], workload, seed, 0, seconds) for side in order}
        bp, bc = res["parent"]["bottlenecks"], res["change"]["bottlenecks"]
        runs.append({"seed": seed, "first": order[0],
                     **{side: dict(r["metrics"], failed=r["failed"], attempted=r["attempted"])
                        for side, r in res.items()},
                     "bottlenecks_identical": sum(bp[k] == bc.get(k) for k in bp),
                     "bottlenecks": len(bp)})
        print(workload, seed, {s: runs[-1][s]["solve_s"] for s in order}, flush=True)
    summary = {}
    for m in METRICS:
        p = [r["parent"][m] for r in runs]
        c = [r["change"][m] for r in runs]
        summary[m] = {"parent": quartiles(p), "change": quartiles(c),
                      "ratio_of_medians": round(statistics.median(c) / statistics.median(p), 4),
                      "pairs": len(runs), "change_better_in": sum(b < a for a, b in zip(p, c))}
    return {"seeds": list(seeds), "rounds": rounds, "seconds": seconds, "runs": runs,
            "summary": summary}


# counts the coupled two-disk solver's anchored solves in calls[1], through
# the name the checkout gives them (scsd._anchored, or _anchored_center
# before 2026-10)
ANCHORED = """
anchored_name = "_anchored" if hasattr(scsd, "_anchored") else "_anchored_center"
anchored = getattr(scsd, anchored_name)
def anchored_solve(*args):
    calls[1] += 1
    return anchored(*args)
setattr(scsd, anchored_name, anchored_solve)
"""

# k = 2 solves of (n, seed, distribution) instances; prints one line per
# instance and a total with the best_center calls, the anchored solves of
# the coupled two-disk solver and the peak RSS
K2_SOLVE = PRELUDE + """
calls = [0, 0]
query = scsd.ScsdContext.best_center
def best_center(ctx, classes):
    calls[0] += 1
    return query(ctx, classes)
scsd.ScsdContext.best_center = best_center
""" + ANCHORED + """
total = 0.0
for n, seed, dist in {shapes!r}:
    pts = generate_instance(n, seed, dist)
    t0 = time.perf_counter()
    net = solve(pts, 2)
    t = time.perf_counter() - t0
    total += t
    print(json.dumps({{"key": f"{{dist}}-n{{n}}-s{{seed}}", "time_s": round(t, 4),
                      "answer": [net.bottleneck, [p.as_tuple() for p in net.steiner],
                                 net.edges, net.threshold]}}))
print(json.dumps({{"time_s": round(total, 4), "best_center_calls": calls[0],
                  "anchored_solves": calls[1],
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}}))
"""


def run_code(checkout: Path, code: str) -> list[dict]:
    out = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                         capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def three_runs(parent: Path, change: Path, code: str) -> dict[str, list[list[dict]]]:
    """Three runs a side in alternating order (parent first in rounds 1 and 3)."""
    sides = {"parent": parent, "change": change}
    runs = {side: [] for side in sides}
    for order in (("parent", "change"), ("change", "parent"), ("parent", "change")):
        for side in order:
            runs[side].append(run_code(sides[side], code))
    return runs


def fastest_of_three(parent: Path, change: Path, code: str) -> dict[str, list[dict]]:
    """The fastest of ``three_runs`` a side; its last line lists every
    run's time in run order as ``run_times_s``."""
    out = {}
    for side, r in three_runs(parent, change, code).items():
        out[side] = min(r, key=lambda lines: lines[-1]["time_s"])
        out[side][-1]["run_times_s"] = [lines[-1]["time_s"] for lines in r]
    return out


def least(last: list[dict]) -> dict:
    """Last lines of repeated runs: every count must repeat, and each time
    (a key ending in ``_s``) is the least, with every run's value in run
    order under ``runs_s``."""
    times = [k for k in last[0] if k.endswith("_s")]
    counts = [{k: v for k, v in x.items() if k not in times} for x in last]
    assert counts[1:] == counts[:1] * (len(last) - 1), counts
    return dict(counts[0], **{k: min(x[k] for x in last) for k in times},
                runs_s={k: [x[k] for x in last] for k in times})


def least_of_three(parent: Path, change: Path, code: str) -> dict[str, dict]:
    """``least`` of the last lines of ``three_runs`` a side."""
    return {side: least([lines[-1] for lines in r])
            for side, r in three_runs(parent, change, code).items()}


def k1_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    rows = {}
    for n in (128, 256):
        for seed in (n, 1, 2, 3):
            code = K1_SOLVE.format(n=n, seed=seed)
            rows[f"uniform-n{n}-s{seed}"] = {side: run_code(path, code)[-1] for side, path
                                             in (("parent", parent), ("change", change))}
    solved = [v for v in rows.values() if all(isinstance(s["bottleneck"], float) for s in v.values())]
    return rows, all(v["parent"]["bottleneck"] == v["change"]["bottleneck"] for v in solved)


def k2_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    groups = {"k2-mid seeds 1-2": [(28, s * 1000 + i, "clusters") for s in (1, 2) for i in range(32)]}
    groups.update({f"uniform-n64-s{s}": [(64, s, "uniform")] for s in (1, 2, 3)})
    groups.update({f"clusters-n48-s{s}": [(48, s, "clusters")] for s in (1, 2)})
    groups["five larger, one process"] = [shape for name, shapes in groups.items()
                                          if not name.startswith("k2-mid") for shape in shapes]
    rows = {}
    for name, shapes in groups.items():
        res = fastest_of_three(parent, change, K2_SOLVE.format(shapes=shapes))
        pairs = list(zip(res["parent"][:-1], res["change"][:-1]))
        rows[name] = {side: lines[-1] for side, lines in res.items()}
        rows[name].update(instances=len(pairs),
                          bottlenecks_identical=sum(abs(a["answer"][0] - b["answer"][0]) <= 1e-12
                                                    for a, b in pairs),
                          answers_identical=sum(a["answer"] == b["answer"] for a, b in pairs))
        print(name, {side: lines[-1]["time_s"] for side, lines in res.items()}, flush=True)
    return rows, all(v["bottlenecks_identical"] == v["instances"] for v in rows.values())


# k = 2 solves of (n, seed, distribution) instances, untimed; prints what
# the certified cuts dropped: probes above their cutoff, partitions skipped,
# pair searches and coupled solves with nothing below their bound, and the
# rows of each pair-search side (its candidate rows within 2 bound) whose
# root value (every block whole) reaches the bound, out of all
K2_CUTS = PRELUDE + """
import functools, math
import numpy as np
from mbsn import closure2, solver
c = dict(probes=0, probes_above=0, partitions=0, partitions_skipped=0, pair_searches=0,
         pair_searches_cut=0, rows=0, rows_dropped=0, coupled=0, coupled_cut=0)
closure, enum, classify = solver.optimal_2block_closure, closure2.enumerate_partitions, closure2.classify
pair, coupled = closure2._locate_pair, closure2.coupled_two_disk
def optimal_2block_closure(*args):
    out = closure(*args)
    c["probes"] += 1
    c["probes_above"] += out is None
    return out
def enumerate_partitions(*args):
    out = enum(*args)
    c["partitions"] += len(out)
    c["partitions_skipped"] += len(out)
    return out
def classify_(*args):
    c["partitions_skipped"] -= 1
    return classify(*args)
def locate_pair(ctx, base1, base2, singles, zsets, bound=math.inf, *rest):
    for base in (base1, base2):
        classes = [tuple(x) for x in base] + [(v,) for v in singles] + [tuple(z) for z in zsets]
        rows = ctx.candidates(classes, bound)
        root = functools.reduce(np.maximum, (np.min([np.hypot(rows[:, 0] - ctx.points[v].x,
                                                              rows[:, 1] - ctx.points[v].y)
                                                     for v in cls], axis=0) for cls in classes))
        c["rows"] += len(root)
        c["rows_dropped"] += int((root >= bound).sum())
    out = pair(ctx, base1, base2, singles, zsets, bound, *rest)
    c["pair_searches"] += 1
    c["pair_searches_cut"] += out is None
    return out
def coupled_two_disk(*args):
    out = coupled(*args)
    c["coupled"] += 1
    c["coupled_cut"] += out is None
    return out
solver.optimal_2block_closure = optimal_2block_closure
closure2.enumerate_partitions, closure2.classify = enumerate_partitions, classify_
closure2._locate_pair, closure2.coupled_two_disk = locate_pair, coupled_two_disk
for n, seed, dist in {shapes!r}:
    solve(generate_instance(n, seed, dist), 2)
print(json.dumps(c))
"""


def k2cut_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    groups = {f"k2-mid seeds {a}-{b}": [(28, s * 1000 + i, "clusters")
                                        for s in range(a, b + 1) for i in range(32)]
              for a, b in ((1, 2), (11, 20))}
    groups.update({f"uniform-n{n}-s{s}": [(n, s, "uniform")] for n in (64, 128) for s in (1, 2, 3)})
    groups.update({f"clusters-n{n}-s1": [(n, 1, "clusters")] for n in (48, 128)})
    rows = {}
    for name, shapes in groups.items():
        res = fastest_of_three(parent, change, K2_SOLVE.format(shapes=shapes))
        pairs = list(zip(res["parent"][:-1], res["change"][:-1]))
        rows[name] = {side: lines[-1] for side, lines in res.items()}
        rows[name].update(instances=len(pairs),
                          bottlenecks_identical=sum(abs(a["answer"][0] - b["answer"][0]) <= 1e-12
                                                    for a, b in pairs),
                          answers_identical=sum(a["answer"] == b["answer"] for a, b in pairs),
                          cuts=run_code(change, K2_CUTS.format(shapes=shapes))[-1])
        print(name, {side: lines[-1]["time_s"] for side, lines in res.items()}, flush=True)
    return rows, all(v["answers_identical"] == v["instances"] for v in rows.values())


def k2rows_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    groups = {"k2-mid seeds 1-2": [(28, s * 1000 + i, "clusters") for s in (1, 2) for i in range(32)]}
    groups.update({f"clusters-n{n}-s{s}": [(n, s, "clusters")] for n in (96, 128) for s in (1, 2)})
    groups.update({f"uniform-n{n}-s1": [(n, 1, "uniform")] for n in (64, 128, 256)})
    rows = {}
    for name, shapes in groups.items():
        res = fastest_of_three(parent, change, K2_SOLVE.format(shapes=shapes))
        pairs = list(zip(res["parent"][:-1], res["change"][:-1]))
        rows[name] = {side: lines[-1] for side, lines in res.items()}
        rows[name].update(instances=len(pairs),
                          bottlenecks_identical=sum(abs(a["answer"][0] - b["answer"][0]) <= 1e-12
                                                    for a, b in pairs),
                          answers_identical=sum(a["answer"] == b["answer"] for a, b in pairs))
        print(name, {side: lines[-1]["time_s"] for side, lines in res.items()}, flush=True)
    rows["k2-mid seeds 1-2"]["cuts"] = run_code(change, K2_CUTS.format(shapes=groups["k2-mid seeds 1-2"]))[-1]
    return rows, all(v["bottlenecks_identical"] == v["instances"] for v in rows.values())


# k = 2 solves of (n, seed, distribution) instances, untimed; prints the
# k = 2 evaluations by kind: at the cutoff t+ (decided at their own
# threshold), with an exact radius above t, and repeats of a threshold the
# search has evaluated before: at its last feasible up-probe (pricing) or
# at an earlier one (plateau walk)
K2_PHASES = PRELUDE + """
import math
from mbsn import solver
c = dict(evaluations=0, at_own_threshold=0, exact_above_t=0, pricing=0, plateau=0)
make = solver._evaluator
def evaluator(r, pts, k):
    evaluate = make(r, pts, k)
    if k != 2:
        return evaluate
    def recording(t, cutoff=math.inf, *rest):
        out = evaluate(t, cutoff, *rest)
        calls.append((t, cutoff, out))
        return out
    return recording
solver._evaluator = evaluator
for n, seed, dist in {shapes!r}:
    calls = []
    solve(generate_instance(n, seed, dist), 2)
    firsts = dict()
    for t, cutoff, out in calls:
        firsts.setdefault(t, out)
    ups = [t for t, (f, r, p) in firsts.items() if f and (p is None or r > t)]
    c["evaluations"] += len(calls)
    c["at_own_threshold"] += sum(cutoff == math.nextafter(t, math.inf) for t, cutoff, _ in calls)
    c["exact_above_t"] += sum(f and p is not None and r > t for t, _, (f, r, p) in calls)
    for t, _, _ in calls[len(firsts):]:
        c["pricing" if t == ups[-1] else "plateau"] += 1
print(json.dumps(c))
"""

# 16 lattices, 8 collinear sets and 24 integer-grid subsets as ``sets``
DEGENERATE_SETS = PRELUDE + """
import random
from mbsn.geom import Point2
rng = random.Random(7)
sets = [[Point2(float(i), 1.5 * j) for i in range(a) for j in range(b)]
        for a in range(2, 6) for b in range(2, 6)]
sets += [[Point2(0.25 * t - 1.0, 0.5 - 0.5 * t) for t in sorted(rng.sample(range(40), m))]
         for m in range(3, 11)]
sets += [[Point2(float(x), float(y)) for x, y in rng.sample([(x, y) for x in range(6)
                                                             for y in range(6)], m)]
         for m in range(4, 16) for _ in range(2)]
"""

# whole answers at k = 0, 1 and 2 of the degenerate sets
DEGENERATE = DEGENERATE_SETS + """
for pts in sets:
    for k in (0, 1, 2):
        net = solve(pts, k)
        print(json.dumps([net.bottleneck, [p.as_tuple() for p in net.steiner], net.edges,
                          net.threshold]))
"""


def k2decide_groups() -> dict[str, list]:
    def suite(count, n_lo, n_hi, seed0):
        return [(n_lo + i % (n_hi - n_lo + 1), seed0 + i, "uniform" if i % 2 == 0 else "clusters")
                for i in range(count)]

    groups = {f"k2-mid seeds {a}-{b}": [(28, s * 1000 + i, "clusters")
                                        for s in range(a, b + 1) for i in range(32)]
              for a, b in ((1, 2), (11, 20))}
    groups["acceptance suites 1-2"] = suite(300, 4, 40, 10_000) + suite(200, 4, 12, 20_000)
    groups.update({f"uniform-n{n}-s{s}": [(n, s, "uniform")] for n in (64, 128) for s in (1, 2, 3)})
    groups["uniform-n256-s1"] = [(256, 1, "uniform")]
    groups.update({f"clusters-n{n}-s{s}": [(n, s, "clusters")]
                   for n, s in ((48, 1), (128, 1), (128, 2))})
    return groups


def k2decide_rows(parent: Path, change: Path, phases: str = K2_PHASES) -> tuple[dict, bool]:
    rows = {}
    sides = (("parent", parent), ("change", change))
    for name, shapes in k2decide_groups().items():
        res = fastest_of_three(parent, change, K2_SOLVE.format(shapes=shapes))
        pairs = list(zip(res["parent"][:-1], res["change"][:-1]))
        rows[name] = {side: lines[-1] for side, lines in res.items()}
        rows[name].update(instances=len(pairs),
                          bottlenecks_identical=sum(abs(a["answer"][0] - b["answer"][0]) <= 1e-12
                                                    for a, b in pairs),
                          answers_identical=sum(a["answer"] == b["answer"] for a, b in pairs),
                          evaluations=least_of_three(parent, change,
                                                     phases.format(shapes=shapes)))
        print(name, {side: lines[-1]["time_s"] for side, lines in res.items()}, flush=True)
    answers = {side: run_code(path, DEGENERATE) for side, path in sides}
    rows["lattice, collinear and integer-grid, k = 0-2"] = {
        "instances": len(answers["change"]),
        "answers_identical": sum(a == b for a, b in zip(answers["parent"], answers["change"]))}
    return rows, all(v["answers_identical"] == v["instances"] for v in rows.values())


# k = 2 solves of (n, seed, distribution) instances, untimed but for each
# evaluation; prints the k = 2 evaluations and their seconds by phase.  A
# threshold's first evaluation is its decision: a hit (r <= t), ABOVE (or
# r > t) or infeasible.  A repeat is the crossing (the last feasible
# up-probe), the plateau walk (an earlier up-probe) or a re-pricing (the
# last down-probe, when it is the answer)
K2_PHASE_TIMES = PRELUDE + """
import math
from mbsn import solver
kinds = ("decision_hit", "decision_above", "decision_infeasible", "crossing", "plateau",
         "repricing")
c = {{k: 0 for k in kinds}}
c.update({{k + "_s": 0.0 for k in kinds}})
make = solver._evaluator
def evaluator(r, pts, k):
    evaluate = make(r, pts, k)
    if k != 2:
        return evaluate
    def recording(t, *args):
        t0 = time.perf_counter()
        out = evaluate(t, *args)
        calls.append((t, out, time.perf_counter() - t0))
        return out
    return recording
solver._evaluator = evaluator
for n, seed, dist in {shapes!r}:
    calls = []
    solve(generate_instance(n, seed, dist), 2)
    firsts = dict()
    for t, (f, r, p), dt in calls:
        if t in firsts:
            kind = "crossing" if t == ups[-1] else "plateau" if t in ups else "repricing"
        else:
            firsts[t] = f, r, p
            kind = ("decision_infeasible" if not f else
                    "decision_hit" if p is not None and r <= t else "decision_above")
            ups = [u for u, (f, r, p) in firsts.items() if f and (p is None or r > u)]
        c[kind] += 1
        c[kind + "_s"] += dt
print(json.dumps({{k: round(v, 4) if isinstance(v, float) else v for k, v in c.items()}}))
"""


def k2stop_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    rows, same = k2decide_rows(parent, change, K2_PHASE_TIMES)
    held = rows["k2-mid held-out seeds 21-30"] = untraced(parent, change, "k2-mid", range(21, 31))
    return rows, same and all(r["bottlenecks_identical"] == r["bottlenecks"] for r in held["runs"])


# one k = 0 solve; prints time, peak RSS and the answer
K0_SOLVE = PRELUDE + """
pts = generate_instance({n}, 1, "{dist}")
t0 = time.perf_counter()
net = solve(pts, 0)
t = time.perf_counter() - t0
print(json.dumps({{"time_s": round(t, 4), "answer": [net.bottleneck, net.threshold, net.edges],
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}}))
"""


def k0_rows(parent: Path, change: Path, shapes=((1024, "uniform"), (2048, "uniform"),
                                                (4096, "uniform"), (2048, "clusters"))
            ) -> tuple[dict, bool]:
    rows = {}
    for n, dist in shapes:
        res = fastest_of_three(parent, change, K0_SOLVE.format(n=n, dist=dist))
        (p,), (c,) = res["parent"], res["change"]
        rows[f"{dist}-n{n}-s1"] = {
            **{side: {"time_s": r["time_s"], "peak_rss_mb": r["peak_rss_mb"]}
               for side, r in (("parent", p), ("change", c))},
            "bottleneck_identical": p["answer"][0] == c["answer"][0],
            "threshold_identical": p["answer"][1] == c["answer"][1],
            "edges_identical": p["answer"][2] == c["answer"][2]}
        print(n, dist, {side: r["time_s"] for side, r in (("parent", p), ("change", c))}, flush=True)
    return rows, all(v["bottleneck_identical"] and v["edges_identical"] for v in rows.values())


# one k = 1 solve, then validate() and a k = 0 solve; prints time, peak RSS
# (before the k = 0 solve), the widest query and the answer
K1_LOCAL = PRELUDE + """
widest = [0]
query = scsd.ScsdContext.best_center
def best_center(ctx, classes):
    widest[0] = max(widest[0], len(classes))
    return query(ctx, classes)
scsd.ScsdContext.best_center = best_center
pts = generate_instance({n}, {seed}, "uniform")
t0 = time.perf_counter()
try:
    net = solve(pts, 1)
    out = {{"time_s": round(time.perf_counter() - t0, 4), "bottleneck": net.bottleneck,
            "steiner": [p.as_tuple() for p in net.steiner]}}
except MemoryError as exc:
    net, out = None, {{"time_s": round(time.perf_counter() - t0, 4),
                       "bottleneck": "MemoryError: " + str(exc)}}
out.update(classes=widest[0],
           peak_rss_mb=round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1))
if net is not None:
    net.validate()
    out.update(validated=True, b0=solve(pts, 0).bottleneck)
print(json.dumps(out))
"""


def k1local_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    rows, same = {}, True
    for n, seed in ((256, 256), (512, 1), (512, 512), (1024, 1)):
        res = fastest_of_three(parent, change, K1_LOCAL.format(n=n, seed=seed))
        (p,), (c,) = res["parent"], res["change"]
        rows[f"uniform-n{n}-s{seed}"] = {"parent": p, "change": c}
        if isinstance(p["bottleneck"], float):
            same &= abs(p["bottleneck"] - c["bottleneck"]) <= 1e-12
        print(n, seed, {"parent": p["time_s"], "change": c["time_s"]}, flush=True)
    shapes = [(28, s * 1000 + i, "clusters") for s in (1, 2) for i in range(32)]
    res = fastest_of_three(parent, change, K2_SOLVE.format(shapes=shapes))
    pairs = list(zip(res["parent"][:-1], res["change"][:-1]))
    row = rows["k2-mid seeds 1-2"] = {side: lines[-1] for side, lines in res.items()}
    row.update(instances=len(pairs),
               bottlenecks_identical=sum(abs(a["answer"][0] - b["answer"][0]) <= 1e-12
                                         for a, b in pairs),
               answers_identical=sum(a["answer"] == b["answer"] for a, b in pairs))
    print("k2-mid seeds 1-2", {side: row[side]["time_s"] for side in res}, flush=True)
    return rows, same and row["bottlenecks_identical"] == row["instances"]


# k = 2 solves of (n, seed, distribution) instances; prints one line per
# instance with its whole answer, and a total with the coupled two-disk
# solver's calls, its anchored solves, the contexts built inside it and its
# seconds
K2_COUPLED = PRELUDE + """
from mbsn import closure2
calls, c, inside = [0, 0], dict(coupled=0, contexts=0, coupled_s=0.0), [False]
coupled, init = closure2.coupled_two_disk, scsd.ScsdContext.__init__
def coupled_two_disk(*args):
    inside[0], t0 = True, time.perf_counter()
    out = coupled(*args)
    c["coupled_s"] += time.perf_counter() - t0
    c["coupled"], inside[0] = c["coupled"] + 1, False
    return out
def context(self, *args):
    c["contexts"] += inside[0]
    init(self, *args)
closure2.coupled_two_disk, scsd.ScsdContext.__init__ = coupled_two_disk, context
""" + ANCHORED + """
for n, seed, dist in {shapes!r}:
    net = solve(generate_instance(n, seed, dist), 2)
    print(json.dumps({{"key": f"{{dist}}-n{{n}}-s{{seed}}",
                      "answer": [net.bottleneck, [p.as_tuple() for p in net.steiner],
                                 net.edges, net.threshold]}}))
print(json.dumps(dict(c, anchored=calls[1], coupled_s=round(c["coupled_s"], 4))))
"""

# direct coupled two-disk calls on 50 colour-system pairs of each kind, in
# either checkout's signature (colour systems of points, or a context and
# index classes); prints each call's radius and pair
COUPLED_DIRECT = PRELUDE + """
import inspect, math, random
from mbsn.geom import Point2
rng = random.Random(17)
points = {"random": lambda: (rng.random(), rng.random()),
          "lattice": lambda: (float(rng.randint(0, 4)), float(rng.randint(0, 4))),
          "collinear": lambda: (lambda t: (t, 0.5 * t + 0.25))(0.25 * rng.randint(0, 20)),
          "cocircular": lambda: (lambda a: (math.cos(a), math.sin(a)))(math.pi * rng.randrange(12) / 6)}
indexed = "ctx" in inspect.signature(scsd.coupled_two_disk).parameters
for kind, point in points.items():
    for _ in range(50):
        sides = [[[point() for _ in range(rng.randint(1, 4))] for _ in range(rng.randint(1, 3))]
                 for _ in range(2)]
        if indexed:
            index = {}
            for p in (p for side in sides for c in side for p in c):
                index.setdefault(p, len(index))
            ctx = scsd.ScsdContext([Point2(*p) for p in index])
            s1, s2, r = scsd.coupled_two_disk(ctx, *([[index[p] for p in c] for c in side]
                                                     for side in sides))
        else:
            s1, s2, r = scsd.coupled_two_disk(*(scsd.color_system([[Point2(*p) for p in c] for c in side])
                                                for side in sides))
        print(json.dumps({"kind": kind, "radius": r, "pair": [s1.as_tuple(), s2.as_tuple()]}))
"""


def k2coupled_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    rows, same = {}, True
    sides = (("parent", parent), ("change", change))
    for name, shapes in k2decide_groups().items():
        runs = three_runs(parent, change, K2_COUPLED.format(shapes=shapes))
        pairs = list(zip(runs["parent"][0][:-1], runs["change"][0][:-1]))
        moved = [{"key": a["key"], "bottleneck_diff": b["answer"][0] - a["answer"][0],
                  "steiner_identical": a["answer"][1] == b["answer"][1],
                  "edges_identical": a["answer"][2] == b["answer"][2]}
                 for a, b in pairs if a["answer"] != b["answer"]]
        rows[name] = {side: least([lines[-1] for lines in r]) for side, r in runs.items()}
        rows[name].update(
            instances=len(pairs),
            bottlenecks_identical=sum(abs(a["answer"][0] - b["answer"][0]) <= 1e-12 for a, b in pairs),
            thresholds_identical=sum(abs(a["answer"][3] - b["answer"][3]) <= 1e-12 for a, b in pairs),
            answers_identical=len(pairs) - len(moved), answers_moved=moved)
        same &= rows[name]["bottlenecks_identical"] == rows[name]["thresholds_identical"] == len(pairs)
        print(name, {side: rows[name][side]["coupled_s"] for side, _ in sides}, flush=True)
    answers = {side: run_code(path, DEGENERATE) for side, path in sides}
    pairs = list(zip(answers["parent"], answers["change"]))
    rows["lattice, collinear and integer-grid, k = 0-2"] = {
        "instances": len(pairs),
        "bottlenecks_identical": sum(abs(a[0] - b[0]) <= 1e-12 for a, b in pairs),
        "answers_identical": sum(a == b for a, b in pairs)}
    same &= all(abs(a[0] - b[0]) <= 1e-12 for a, b in pairs)
    calls = {side: run_code(path, COUPLED_DIRECT) for side, path in sides}
    for kind in dict.fromkeys(x["kind"] for x in calls["change"]):
        pairs = [(a, b) for a, b in zip(calls["parent"], calls["change"]) if a["kind"] == kind]
        rows[f"direct coupled calls, {kind}"] = {
            "calls": len(pairs),
            "radii_within_1e-12": sum(abs(a["radius"] - b["radius"]) <= 1e-12 for a, b in pairs),
            "largest_radius_diff": max(abs(a["radius"] - b["radius"]) for a, b in pairs),
            "pairs_identical": sum(a["pair"] == b["pair"] for a, b in pairs)}
        same &= all(abs(a["radius"] - b["radius"]) <= 1e-12 for a, b in pairs)
    return rows, same


# whole answers of every answer set, one line per solve
ANSWERS = DEGENERATE + """
def suite(count, n_lo, n_hi, seed0):
    return [(n_lo + i % (n_hi - n_lo + 1), seed0 + i, "uniform" if i % 2 == 0 else "clusters")
            for i in range(count)]
jobs = [(shape, (2,)) for shapes in {groups!r} for shape in shapes]
jobs += [(shape, (0, 1)) for shape in suite(300, 4, 40, 10_000) + suite(200, 4, 12, 20_000)]
jobs += [((96, s * 1000 + i, d), (1,)) for s in (1, 2, *range(11, 21))
         for i, d in enumerate(("uniform", "clusters") * 2)]
jobs.append(((512, 1, "uniform"), (1,)))
for (n, seed, dist), ks in jobs:
    pts = generate_instance(n, seed, dist)
    for k in ks:
        net = solve(pts, k)
        print(json.dumps([net.bottleneck, [p.as_tuple() for p in net.steiner], net.edges,
                          net.threshold]))
"""


def k1probes_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    rows, same = {}, True
    for n in (1024, 4096):
        res = fastest_of_three(parent, change, K1_LOCAL.format(n=n, seed=1))
        (p,), (c,) = res["parent"], res["change"]
        rows[f"uniform-n{n}-s1"] = {"parent": p, "change": c,
                                    "bottleneck_identical": p["bottleneck"] == c["bottleneck"]}
        same &= p["bottleneck"] == c["bottleneck"]
        print(n, {"parent": p["time_s"], "change": c["time_s"]}, flush=True)
    rows["answers"] = answers_rows(parent, change)
    print("answers", rows["answers"], flush=True)
    return rows, same and rows["answers"]["identical"] == rows["answers"]["solves"]


# build_2rng alone: the fastest of {reps} calls, with the switch at
# {certify_above} (None: the checkout's own)
BUILD_2RNG = PRELUDE + """
import hashlib
from mbsn import rng
if {certify_above!r} is not None:
    rng._CERTIFY_ABOVE = {certify_above!r}
pts = generate_instance({n}, 1000, "{dist}")
times = []
for _ in range({reps}):
    t0 = time.perf_counter()
    g = rng.build_2rng(pts)
    times.append(time.perf_counter() - t0)
print(json.dumps({{"time_s": round(min(times), 5), "runs_s": [round(t, 5) for t in times],
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "edges": len(g.edges),
                  "digest": hashlib.sha256(repr((g.edges, g.lengths)).encode()).hexdigest()}}))
"""

# the 2-RNG edges and lengths of every instance set, one digest per line,
# with the switch at {certify_above} (None: the checkout's own)
RNG_SETS = PRELUDE + """
import hashlib, math
from mbsn import rng
from mbsn.geom import Point2
if {certify_above!r} is not None:
    rng._CERTIFY_ABOVE = {certify_above!r}
def suite(count, n_lo, n_hi, seed0):
    return [(n_lo + i % (n_hi - n_lo + 1), seed0 + i, "uniform" if i % 2 == 0 else "clusters")
            for i in range(count)]
def sets():
    shapes = [(n, seed, d) for n in [*range(2, 40), 60, 96, 200, 257, 300, 511, 512, 513, 514,
                                     600, 800, 1024, 1500, 2048]
              for d in ("uniform", "clusters") for seed in (1, 2)]
    shapes += [(n, 7, d) for n in (513, 700, 1000, 2000, 3000, 4096) for d in ("uniform", "clusters")]
    shapes += suite(300, 4, 40, 10_000) + suite(200, 4, 12, 20_000)
    for s in (1, 2, *range(11, 21)):
        shapes += [(1024, s * 1000 + i, d) for i, d in enumerate(("uniform", "clusters"))]
        shapes += [(96, s * 1000 + i, d) for i, d in enumerate(("uniform", "clusters") * 2)]
        shapes += [(28, s * 1000 + i, "clusters") for i in range(32)]
    for n, seed, d in shapes:
        yield f"{{d}}-n{{n}}-s{{seed}}", generate_instance(n, seed, d)
    for m in (6, 17, 23, 24, 30):
        yield f"lattice-{{m}}", [Point2(i, j) for i in range(m) for j in range(m)]
        yield f"lattice-{{m}}-rect", [Point2(i, 1.5 * j) for i in range(m) for j in range(m)]
    yield "collinear-600", [Point2(0.5 * i, 0.25 * i) for i in range(600)]
    yield "cocircular-600", [Point2(math.cos(2 * math.pi * i / 600), math.sin(2 * math.pi * i / 600))
                             for i in range(600)]
    base = generate_instance(700, 5, "uniform")
    yield "shifted-anisotropic-700", [Point2(1e6 + 3 * p.x, -1e6 + 0.01 * p.y) for p in base]
    yield "near-duplicates-702", base + [Point2(base[0].x + 1e-10, base[0].y),
                                         Point2(base[1].x, base[1].y + 1e-8)]
for key, pts in sets():
    g = rng.build_2rng(pts)
    print(json.dumps([key, hashlib.sha256(repr((g.edges, g.lengths)).encode()).hexdigest()]))
"""


def answers_rows(parent: Path, change: Path) -> dict:
    """Whole answers of one untimed run a side over ``ANSWERS``."""
    code = ANSWERS.format(groups=list(k2decide_groups().values()))
    answers = {side: run_code(path, code) for side, path in (("parent", parent), ("change", change))}
    pairs = list(zip(answers["parent"], answers["change"]))
    return {"solves": len(pairs), "identical": sum(a == b for a, b in pairs)}


def rng2cert_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    rows, same = {"build_2rng": {}}, True
    paths = (("parent", parent, None), ("change dense", change, 1 << 30),
             ("change certified", change, 0))
    for dist in ("uniform", "clusters"):
        for n in (256, 512, 1024, 2048, 4096, 8192):
            reps = 9 if n <= 1024 else 3 if n <= 4096 else 2
            row = {side: run_code(path, BUILD_2RNG.format(n=n, dist=dist, reps=reps,
                                                          certify_above=above))[0]
                   for side, path, above in paths}
            row["identical"] = all(r["digest"] == row["parent"]["digest"] for r in row.values())
            same &= row["identical"]
            rows["build_2rng"][f"{dist}-n{n}"] = row
            print(dist, n, {side: row[side]["time_s"] for side, _, _ in paths}, flush=True)
    digests = {side: run_code(path, RNG_SETS.format(certify_above=above))
               for side, path, above in (("parent", parent, None), ("change", change, None),
                                         ("change certified", change, 0))}
    rows["rng_sets"] = {"sets": len(digests["parent"]),
                        **{f"{side}_identical": sum(a == b for a, b in zip(digests["parent"], d))
                           for side, d in digests.items() if side != "parent"}}
    same &= all(v == len(digests["parent"]) for k, v in rows["rng_sets"].items())
    print("rng sets", rows["rng_sets"], flush=True)
    rows["k0_solves"], k0_same = k0_rows(parent, change)
    rows["answers"] = answers_rows(parent, change)
    print("answers", rows["answers"], flush=True)
    return rows, same and k0_same and rows["answers"]["identical"] == rows["answers"]["solves"]


# the 2-RNG edges and lengths of the k0local sets, one digest per line:
# uniform and clustered n = 1024-8192 at seeds 1-3, and n = 600 collinear,
# cocircular, near-duplicate and far-cluster sets
RNG_K0LOCAL = PRELUDE + """
import hashlib, math, random
from mbsn import rng
from mbsn.geom import Point2, bbox_diagonal
def cluster(r, m, spread=0.01):
    pts = []
    while len(pts) < m:
        c = Point2(r.random() * spread, r.random() * spread)
        if all(math.dist(c.as_tuple(), p.as_tuple()) > 1e-6 for p in pts):
            pts.append(c)
    return pts
def sets():
    for n in (1024, 2048, 4096, 8192):
        for d in ("uniform", "clusters"):
            for seed in (1, 2, 3):
                yield f"{{d}}-n{{n}}-s{{seed}}", generate_instance(n, seed, d)
    yield "collinear-600", [Point2(0.5 * i, 0.25 * i) for i in range(600)]
    yield "cocircular-600", [Point2(math.cos(2 * math.pi * i / 600), math.sin(2 * math.pi * i / 600))
                             for i in range(600)]
    base = generate_instance(599, 13, "uniform")
    yield "near-duplicate-600", base + [Point2(base[0].x + 1e-10 * bbox_diagonal(base), base[0].y)]
    r = random.Random(2027)
    a = cluster(r, 300)
    yield "far-clusters-600", a + [Point2(p.x + 1000.0, p.y - 500.0) for p in cluster(r, 300)]
for key, pts in sets():
    g = rng.build_2rng(pts)
    print(json.dumps([key, hashlib.sha256(repr((g.edges, g.lengths)).encode()).hexdigest()]))
"""

# whole k = 0 answers of the answer sets of ``k2decide``, the degenerate
# sets and the k0-large instances of seeds 1 and 11-20, one line per solve
K0_ANSWERS = DEGENERATE_SETS + """
shapes = [shape for group in {groups!r} for shape in group]
shapes += [(1024, s * 1000 + i, d) for s in (1, *range(11, 21))
           for i, d in enumerate(("uniform", "clusters"))]
sets += [generate_instance(*shape) for shape in shapes]
for pts in sets:
    net = solve(pts, 0)
    print(json.dumps([net.bottleneck, net.edges, net.threshold]))
"""


def rng_digest_rows(parent: Path, change: Path, rows: dict) -> bool:
    """Compare the 2-RNG digests of ``RNG_SETS`` and ``RNG_K0LOCAL`` into rows."""
    same = True
    for key, code in (("rng_sets", RNG_SETS.format(certify_above=None)),
                      ("rng_k0local_sets", RNG_K0LOCAL)):
        digests = {side: run_code(path, code) for side, path in (("parent", parent),
                                                                 ("change", change))}
        rows[key] = {"sets": len(digests["parent"]),
                     "identical": sum(a == b for a, b in zip(digests["parent"], digests["change"]))}
        same &= rows[key]["identical"] == rows[key]["sets"] == len(digests["change"])
        print(key, rows[key], flush=True)
    return same


def k0local_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    rows = {}
    rows["k0_solves"], same = k0_rows(parent, change, [(n, d) for d in ("uniform", "clusters")
                                                       for n in (1024, 2048, 4096, 8192)])
    same &= rng_digest_rows(parent, change, rows)
    code = K0_ANSWERS.format(groups=list(k2decide_groups().values()))
    answers = {side: run_code(path, code) for side, path in (("parent", parent), ("change", change))}
    rows["k0_answers"] = {"solves": len(answers["parent"]),
                          "identical": sum(a == b for a, b in zip(answers["parent"],
                                                                  answers["change"]))}
    same &= rows["k0_answers"]["identical"] == rows["k0_answers"]["solves"]
    print("k0 answers", rows["k0_answers"], flush=True)
    return rows, same


# build_2rng alone with every private function of rng timed by its self
# seconds (nested calls subtracted): the fastest of {reps} calls, with that
# call's seconds per function; "(build_2rng itself)" is the rest
BUILD_STAGES = PRELUDE + """
import hashlib, types
from mbsn import rng
spent, stack = {{}}, []
def timed(name, f):
    def run(*args, **kwargs):
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            t = time.perf_counter() - t0
            spent[name] = spent.get(name, 0.0) + t - stack.pop()
            if stack:
                stack[-1] += t
    return run
for name, f in list(vars(rng).items()):
    if name.startswith("_") and isinstance(f, types.FunctionType):
        setattr(rng, name, timed(name, f))
pts = generate_instance({n}, 1, "{dist}")
best = None
for _ in range({reps}):
    spent.clear()
    t0 = time.perf_counter()
    g = rng.build_2rng(pts)
    t = time.perf_counter() - t0
    if best is None or t < best[0]:
        best = (t, dict(spent))
t, stages = best
stages["(build_2rng itself)"] = t - sum(stages.values())
print(json.dumps({{"time_s": round(t, 5),
                  "stages_s": {{k: round(v, 5) for k, v in sorted(stages.items(),
                                                                key=lambda kv: -kv[1])}},
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "digest": hashlib.sha256(repr((g.edges, g.lengths)).encode()).hexdigest()}}))
"""


def k0sq_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    rows, same = {"build_stages": {}}, True
    for dist in ("uniform", "clusters"):
        for n in (1024, 8192):
            code = BUILD_STAGES.format(n=n, dist=dist, reps=15 if n <= 1024 else 3)
            res = fastest_of_three(parent, change, code)
            (p,), (c,) = res["parent"], res["change"]
            row = {"parent": p, "change": c, "identical": p["digest"] == c["digest"]}
            same &= row["identical"]
            rows["build_stages"][f"{dist}-n{n}-s1"] = row
            print(dist, n, {side: r["time_s"] for side, r in (("parent", p), ("change", c))},
                  flush=True)
    same &= rng_digest_rows(parent, change, rows)
    rows["k0_solves"], k0_same = k0_rows(parent, change, [(8192, "uniform"), (16384, "uniform")])
    rows["answers"] = answers_rows(parent, change)
    print("answers", rows["answers"], flush=True)
    return rows, same and k0_same and rows["answers"]["identical"] == rows["answers"]["solves"]


# the valley line of ``k0walk``: points (x_i, 0) whose gaps are
# 1 + 1e-3 min(i, n - 2 - i), as ``valley(n)``
VALLEY = """
import itertools
from mbsn.geom import Point2
def valley(n):
    xs = itertools.accumulate((1 + 1e-3 * min(i, n - 2 - i) for i in range(n - 1)), initial=0.0)
    return [Point2(x, 0.0) for x in xs]
"""

# one instance solved at k = 0 {reps} times: its passes, solve times, the
# fastest solve's self seconds per layer and the answer; each layer is the
# self time of the functions listed, reached through the module that calls
# them, nested calls subtracted (a checkout without one of them skips it:
# rng.make_graph is imported but not called where build_2rng builds its
# Graph itself)
K0_WALK = PRELUDE + VALLEY + """
import statistics
from mbsn import graph, rng, solver
passes = [0]
closed_blocks = graph.closed_blocks
def counting(*args):
    passes[0] += 1
    return closed_blocks(*args)
graph.closed_blocks = counting
spent, stack = {{}}, []
def timed(layer, f):
    def run(*args, **kwargs):
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            t = time.perf_counter() - t0
            spent[layer] = spent.get(layer, 0.0) + t - stack.pop()
            if stack:
                stack[-1] += t
    return run
layers = {{"lune_tests": [(solver, "build_2rng")],
          "hand_off": [(rng, "make_graph"), (rng, "Graph"), (solver, "length_schedule"),
                       (solver, "_evaluator")],
          "search": [(solver, "connecting_prefix"), (solver, "degree_prefix"),
                     (solver, "is_biconnected_edges"), (solver, "least_biconnected_prefix"),
                     (solver, "_binary_search")],
          "assembly": [(solver, "_assemble")]}}
for layer, sites in layers.items():
    for module, name in sites:
        if hasattr(module, name):
            setattr(module, name, timed(layer, getattr(module, name)))
pts = valley({n}) if "{dist}" == "valley" else generate_instance({n}, {seed}, "{dist}")
times, best = [], None
for _ in range({reps}):
    spent.clear()
    passes[0] = 0
    t0 = time.perf_counter()
    net = solve(pts, 0)
    t = time.perf_counter() - t0
    times.append(t)
    if best is None or t < best[0]:
        best = (t, dict(spent))
t, layer_s = best
layer_s["(solve itself)"] = t - sum(layer_s.values())
q1, med, q3 = statistics.quantiles(times, n=4, method="inclusive")
print(json.dumps({{"time_s": round(t, 5), "median_s": round(med, 5), "q1_s": round(q1, 5),
                  "q3_s": round(q3, 5), "spread": round((q3 - q1) / med, 4),
                  "layers_s": {{k: round(v, 5) for k, v in layer_s.items()}},
                  "passes": passes[0],
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "answer": [net.bottleneck, net.threshold, net.edges]}}))
"""

# whole answers of the tests' point sets and of more k = 0 inputs, one line
# per solve
K0_WALK_ANSWERS = PRELUDE + VALLEY + """
sys.path.insert(0, "tests")
from conftest import chunk_boundary_instances
from test_rng import _certificate_instances
jobs = [(pts, (0, 1)) for pts in chunk_boundary_instances().values()]
jobs += [(pts, (0, 1, 2)) for pts in _certificate_instances().values()]
jobs += [(generate_instance(n, seed, d), (0,)) for n in range(3, 41) for seed in range(1, 6)
         for d in ("uniform", "clusters")]
jobs += [(generate_instance(n, 1, d), (0,)) for n in (64, 128, 256, 512, 1024, 2048)
         for d in ("uniform", "clusters")]
jobs += [(valley(n), (0,)) for n in (1024, 4096)]
for pts, ks in jobs:
    for k in ks:
        net = solve(pts, k)
        print(json.dumps([net.bottleneck, [p.as_tuple() for p in net.steiner], net.edges,
                          net.threshold]))
"""


def k0walk_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    rows, same = {"instances": {}}, True
    shapes = [(1024, s * 1000 + i, d) for s in range(1, 11)
              for i, d in enumerate(("uniform", "clusters"))]
    shapes += [(1024, 0, "valley"), (4096, 0, "valley")]
    totals = {"parent": 0, "change": 0}
    for n, seed, dist in shapes:
        code = K0_WALK.format(n=n, seed=seed, dist=dist, reps=15 if n <= 1024 else 5)
        res = fastest_of_three(parent, change, code)
        (p,), (c,) = res["parent"], res["change"]
        row = {side: {k: v for k, v in r.items() if k != "answer"}
               for side, r in (("parent", p), ("change", c))}
        row["answers_identical"] = p["answer"] == c["answer"]
        same &= row["answers_identical"]
        if dist != "valley":
            totals["parent"] += p["passes"]
            totals["change"] += c["passes"]
        rows["instances"][f"{dist}-n{n}-s{seed}"] = row
        print(dist, n, seed, {side: (r["time_s"], r["passes"]) for side, r in
                              (("parent", p), ("change", c))}, flush=True)
    rows["k0_large_passes"] = totals
    rows["answers"] = answers_rows(parent, change)
    print("answers", rows["answers"], flush=True)
    answers = {side: run_code(path, K0_WALK_ANSWERS) for side, path in (("parent", parent),
                                                                         ("change", change))}
    rows["test_set_answers"] = {
        "solves": len(answers["parent"]),
        "identical": sum(a == b for a, b in zip(answers["parent"], answers["change"]))}
    print("test set answers", rows["test_set_answers"], flush=True)
    return rows, (same and rows["answers"]["identical"] == rows["answers"]["solves"]
                  and rows["test_set_answers"]["identical"] == rows["test_set_answers"]["solves"]
                  == len(answers["change"]))


TOPICS = {
    "scsd": {
        "layer": "scsd.context_global",
        "what": "ScsdContext starts with the point and pair-midpoint rows and appends the "
                "triple-circumcentre rows once, on the first query with >= 3 classes or the "
                "first objective_values call; of their distances it keeps one minimum per "
                "class such a call names, and <= 2-class queries never evaluate them (was: "
                "all three families and every centre-to-point distance built up front)",
        "parent": "611fe00",
        "traced": ("scsd.context_global.calls", "scsd.context_global.self_s",
                   "scsd.context_global.candidates", "scsd.context_global.dist_mb",
                   "scsd.context_local.self_s", "scsd.best_center.calls",
                   "scsd.best_center.self_s", "scsd.self_s", "trace.solve_s"),
        "rows": ("k1_large_n", k1_rows),
    },
    "k2pins": {
        "layer": "closure2 pair search (closure2.locate_case1/3)",
        "what": "closure2._locate_pair is a depth-first branch-and-bound over s1's "
                "witness in each isolated multi-vertex block, each node bounded by its "
                "two disk queries with the free blocks whole, s1's pick tried first "
                "(was: greedy placement, then a search over pin choices with a "
                "per-call answer dict, raising past 20000 choices)",
        "parent": "d41b40d",
        "traced": ("scsd.best_center.calls", "scsd.best_center.self_s",
                   "scsd.coupled_two_disk.calls", "scsd.coupled_two_disk.self_s",
                   "scsd.coupled_two_disk.incl_s", "closure2.locate_case1.incl_s",
                   "closure2.locate_case3.incl_s", "closure2.self_s", "scsd.self_s",
                   "trace.solve_s"),
        "rows": ("k2_n", k2_rows),
    },
    "k2closure": {
        "layer": "closure2 pair search (closure2.locate_case1/3) and scsd.coupled_two_disk",
        "what": "closure2._locate_pair folds each node's radii from vectors built once per "
                "call (base classes, vertex columns, each block's minimum and runner-up, "
                "the free blocks' suffix maxima) instead of one best_center query per "
                "node; coupled_two_disk tries every anchor below the incumbent and skips "
                "one when max(f_a, f_b / 2) >= incumbent + eps (was: the first 64 anchors "
                "by f_a, the first always solved)",
        "parent": "39c9cb5",
        "traced": ("scsd.best_center.calls", "scsd.best_center.self_s",
                   "scsd.smallest_color_spanning_disk.calls",
                   "scsd.coupled_two_disk.calls", "scsd.coupled_two_disk.self_s",
                   "scsd.coupled_two_disk.incl_s", "closure2.locate_case1.incl_s",
                   "closure2.locate_case2.incl_s", "closure2.locate_case3.incl_s",
                   "closure2.self_s", "scsd.self_s", "trace.solve_s"),
        "rows": ("k2_n", k2_rows),
    },
    "k0probes": {
        "layer": "solver k = 0 probes, graph.is_biconnected and rng.build_2rng",
        "what": "k = 0 sorts the 2-RNG edges by length once and decides each probe on "
                "the edge prefix of length <= t with one early-exit low-point pass, "
                "which is also is_biconnected for every caller; build_2rng fills the "
                "distance matrix with one hypot per unordered pair, a row block at a "
                "time (was: a fresh, validated threshold Graph and a whole "
                "BlockCutForest per probe and per is_biconnected call, and one dense "
                "hypot over all ordered pairs)",
        "parent": "49d00cb",
        "traced": ("rng.build_2rng.self_s", "rng.threshold_subgraph.calls",
                   "graph.is_biconnected.calls", "graph.is_biconnected.self_s",
                   "graph.block_cut_forest.calls", "graph.block_cut_forest.self_s",
                   "graph.Graph.__post_init__.calls", "closure2.classify.self_s",
                   "solver.probes", "solver.self_s", "rng.self_s", "graph.self_s",
                   "trace.solve_s"),
        "rows": ("k0_n", k0_rows),
    },
    "k1local": {
        "layer": "scsd (ScsdContext.best_center) and the k >= 1 probes' block decomposition",
        "what": "ScsdContext.best_center evaluates only the query's own candidates: its "
                "points, the midpoints of class-distinct pairs within 2R (R the best point "
                "value, with two classes at most half the closest such pair's distance) and, "
                "with >= 3 classes, circumcentres of class-distinct triples pairwise within "
                "2R' (R' the best point or midpoint value), reading point values from the "
                "n x n matrix dist; the context keeps no (n + C(n,2)) x n block, builds its "
                "point and midpoint rows on first use, and class_vector builds per-vertex "
                "columns on demand; a k >= 1 probe builds one BlockCutForest for b_count "
                "and its closure (was: every candidate row's distances to every point built "
                "in ScsdContext.__init__, all C(n,3) circumcentre rows on the first query "
                "with >= 3 classes, and two decompositions per probe).  The tracer wraps no "
                "solver-level block_cut_forest site, so graph.block_cut_forest.calls counts "
                "only the closures' own calls on the change side",
        "parent": "c22555e",
        "traced": ("scsd.context_global.self_s", "scsd.context_global.candidates",
                   "scsd.context_global.dist_mb", "scsd.best_center.calls",
                   "scsd.best_center.self_s", "graph.block_cut_forest.calls",
                   "graph.block_cut_forest.self_s", "graph.b_count.calls", "scsd.self_s",
                   "graph.self_s", "solver.self_s", "trace.solve_s"),
        "rows": ("k1local_rows", k1local_rows),
    },
    "k2cut": {
        "layer": "solver k = 2 probes, closure2 (partition loop, pair search, case 2) and "
                 "scsd.coupled_two_disk",
        "what": "the k = 2 search is cut at a certified incumbent: solve finds b0, the k = 0 "
                "optimum on the same 2-RNG, and each probe gets the cutoff max(t+, min(best, "
                "b0+)), above which its closure may answer ABOVE; each partition is priced "
                "against min(cutoff, best partition so far) and skipped when half the least "
                "distance between two classes of one side reaches it; the pair search starts "
                "its incumbent there and drops each side's rows whose root value reaches it; "
                "coupled_two_disk starts its incumbent at min(bound, case 2_1's radius) and "
                "returns at once when max(f1, f2) reaches it; _distinct_disk asks no "
                "unconditioned query and skips a witness whose half nearest-neighbour "
                "distance is the least one + eps or more (was: every probe priced every "
                "partition in full, with incumbents starting at infinity)",
        "parent": "cd3c359",
        "traced": ("scsd.best_center.calls", "scsd.best_center.self_s",
                   "scsd.smallest_color_spanning_disk.calls",
                   "scsd.coupled_two_disk.calls", "scsd.coupled_two_disk.self_s",
                   "scsd.coupled_two_disk.incl_s", "closure2.partitions",
                   "closure2.classify.calls", "closure2.locate_case1.incl_s",
                   "closure2.locate_case2.incl_s", "closure2.locate_case3.incl_s",
                   "closure2.self_s", "scsd.self_s", "solver.self_s", "trace.solve_s"),
        "rows": ("k2_n", k2cut_rows),
    },
    "k2rows": {
        "layer": "scsd (ScsdContext.candidates, coupled_two_disk) and closure2._locate_pair",
        "what": "one query-local candidate set, ScsdContext.candidates(classes, R): the "
                "query's points, midpoints of differently labelled pairs within 2R and, past two "
                "classes, circumcentres of differently labelled non-obtuse triples pairwise "
                "within 2R; _locate_pair builds each side's rows with R = its bound and drops "
                "a row once one base class's distance (smallest class first) reaches the bound, "
                "before the block columns; coupled_two_disk its anchors with R = inf and one label per point, and "
                "best_center values the same families; the coupled solver has no "
                "cross-class-triple family, and the collinearity rule reads the rounding of "
                "the relative coordinates (was: every context row, all points, C(n,2) "
                "midpoints and C(n,3) circumcentres, with per-class vectors memoised up to "
                "4096 entries and 2^24 doubles, and a rule scaled by the largest coordinate)",
        "parent": "088fc9e",
        "traced": ("scsd.context_global.candidates", "scsd.best_center.calls",
                   "scsd.best_center.self_s", "scsd.smallest_color_spanning_disk.calls",
                   "scsd.coupled_two_disk.calls", "scsd.coupled_two_disk.self_s",
                   "scsd.coupled_two_disk.incl_s", "closure2.locate_case1.incl_s",
                   "closure2.locate_case2.incl_s", "closure2.locate_case3.incl_s",
                   "closure2.self_s", "scsd.self_s", "trace.solve_s"),
        "rows": ("k2_n", k2rows_rows),
    },
    "k2decide": {
        "layer": "solver._binary_search (the k = 2 probes and their closures)",
        "what": "every probe is decided with the cutoff t+, its own threshold's next float; "
                "then the last feasible up-probe is priced with the cutoff t_j+ (t_j the last "
                "down-probe) and, if its radius r is at most t_j, the earlier up-probes with "
                "the cutoff r+ in visit order until the first one not above r; k = 0 and 1 "
                "keep their exact decision results (was: the cutoff max(t+, min(best, b0+)) "
                "on every probe, with b0 found by a k = 0 search first)",
        "parent": "0cc18c6",
        "traced": ("solver.probes", "solver.feasible_frac", "solver.self_s",
                   "closure2.optimal_2block_closure.calls",
                   "closure2.optimal_2block_closure.incl_s", "closure2.partitions",
                   "closure2.classify.calls", "scsd.best_center.calls",
                   "scsd.coupled_two_disk.calls", "closure2.locate_case1.incl_s",
                   "closure2.locate_case2.incl_s", "closure2.locate_case3.incl_s",
                   "graph.is_biconnected.calls", "trace.solve_s"),
        "rows": ("k2_n", k2decide_rows),
    },
    "k2stop": {
        "layer": "solver._binary_search decisions and the closure searches (closure2 partition "
                 "loop, pair search, case 2 split scan, scsd.coupled_two_disk)",
        "what": "a k = 2 decision probe gets enough = t and its closure stops at the first result "
                "at most t - delta before the nudge (delta = closure2.nudge_growth, the nudge's "
                "certified growth), in the partition loop, the pair search's leaves, case 2's "
                "split scan (which then skips the coupled solver) and the coupled solver's "
                "consider; the search keeps no k = 2 decision payload and evaluates the last "
                "down-probe again with the cutoff t_j+ only when it is the answer; k = 0 and 1 "
                "ignore enough and keep theirs (was: every decision closure searched for the "
                "exact radius below t+)",
        "parent": "dc1f8e0",
        "traced": ("solver.probes", "solver.self_s",
                   "closure2.optimal_2block_closure.calls",
                   "closure2.optimal_2block_closure.incl_s", "closure2.partitions",
                   "closure2.classify.calls", "scsd.best_center.calls",
                   "scsd.coupled_two_disk.calls", "scsd.coupled_two_disk.incl_s",
                   "closure2.locate_case1.incl_s", "closure2.locate_case2.incl_s",
                   "closure2.locate_case3.incl_s", "trace.solve_s"),
        "rows": ("k2_n", k2stop_rows),
    },
    "k2pair": {
        "layer": "closure2._locate_pair (the case-1/3 pair search), closure2.partition_bounds",
        "what": "the pair search builds each side's arrays in _side: one |class| x rows distance "
                "matrix per base class (chunked) and per block, each block's minimum and "
                "runner-up by np.partition, and after the keep the block minus each vertex for "
                "every vertex at once; side 2 reuses side 1's arrays when their root classes are "
                "equal, side 1 keeps no minus matrices and side 2 no distance matrices otherwise; "
                "a node reads one row and takes one argmin a side; partition_bounds reduces one "
                "distance block over all leaf and isolated interiors with two "
                "np.minimum.reduceat; optimal_2block_closure reads connectivity from its "
                "components (was: one hypot call per vertex, each side built on its own, the "
                "block minus y made with np.where at every node, one np.ix_ gather per block "
                "pair, and a second component count by is_connected)",
        "parent": "b1900ca",
        "traced": ("solver.probes", "solver.self_s",
                   "closure2.optimal_2block_closure.calls",
                   "closure2.optimal_2block_closure.incl_s", "closure2.partitions",
                   "closure2.classify.calls", "graph.is_connected.calls",
                   "scsd.best_center.calls", "scsd.coupled_two_disk.incl_s",
                   "closure2.locate_case1.incl_s", "closure2.locate_case2.incl_s",
                   "closure2.locate_case3.incl_s", "closure2.self_s", "trace.solve_s"),
        "rows": ("k2_n", k2stop_rows),
    },
    "k2coupled": {
        "layer": "scsd.coupled_two_disk (case 2's adjacent Steiner pair) and ScsdContext.best_center",
        "what": "coupled_two_disk(ctx, classes1, classes2, bound, enough) runs on the probe's "
                "context with index classes: its independent and merged optima are three "
                "best_center calls, its anchors ctx.candidates rows, an anchored solve one "
                "best_center call on a context of the other side's points and the anchor, and "
                "every candidate is valued by ScsdContext.radii, one family at a time (three-leg, "
                "anchors, bisector and quartic families as arrays); best_center values its "
                "families with radii too (was: colour systems of points, three fresh contexts per "
                "call through smallest_color_spanning_disk and one more per anchored solve, a "
                "scalar objective class_radius and scalar loops per candidate)",
        "parent": "cde1b44",
        "traced": ("scsd.best_center.calls", "scsd.best_center.self_s",
                   "scsd.smallest_color_spanning_disk.calls", "scsd.context_local.calls",
                   "scsd.coupled_two_disk.calls", "scsd.coupled_two_disk.self_s",
                   "scsd.coupled_two_disk.incl_s", "closure2.locate_case2.calls",
                   "closure2.locate_case2.incl_s", "scsd.self_s", "trace.solve_s"),
        "rows": ("k2_n", k2coupled_rows),
    },
    "k1probes": {
        "layer": "solver k >= 1 probes (graph.block_cut_forest, closure1, closure2.classify and "
                 "the partition loop) and solver._binary_search's re-pricing",
        "what": "every k sorts the 2-RNG edges by (length, edge) once and takes G_t as a prefix; "
                "k = 1 finds the connectivity index (the least connected prefix) by one union-find "
                "pass and rejects every probe below it with no graph work; each distinct k >= 1 "
                "threshold gets one probe state (the prefix Graph and its forest, whose one "
                "low-point pass with a vertex stack also labels components, and for k = 2 the "
                "closure's memo of partition bounds and classified topologies), shared by the "
                "decision, crossing, plateau and re-pricing evaluations; closure1 reads "
                "connectivity and the one-block test from the forest, closure2 its components; "
                "classify decides case 1 on the raw edge list and builds the base topology Graph "
                "only for case 2's block path; a k = 2 decision whose closure never stopped at "
                "enough keeps its payload (was: threshold_subgraph, is_connected and a forest "
                "with an edge stack per evaluation, a BFS and a Graph per classify)",
        "parent": "f5d5c10",
        "seeds": (1, 2, *range(11, 21)),
        "rounds": 3,
        "seconds": 12,
        "traced": ("solver.probes", "solver.feasible_frac", "solver.self_s",
                   "rng.threshold_subgraph.calls", "graph.is_connected.calls",
                   "graph.block_cut_forest.calls", "graph.block_cut_forest.self_s",
                   "graph.Graph.__post_init__.calls", "graph.Graph.__post_init__.self_s",
                   "closure2.classify.calls", "closure2.classify.self_s", "graph.self_s",
                   "closure1.self_s", "closure2.self_s", "trace.solve_s"),
        "rows": ("k1probes_rows", k1probes_rows),
    },
    "2rngcert": {
        "layer": "rng.build_2rng",
        "what": "above n = 512, build_2rng drops a pair pq when |pq| >= 2 delta_2 (1 + 1e-12) "
                "in q's 60 degree sector about p or p's about q (delta_2 the second nearest of "
                "the point's 32 nearest neighbours in that sector at distance >= 16 eps, a "
                "law-of-cosines certificate that two points lie inside the lune), row block by "
                "row block, then runs the 8-witness test on the candidate pairs only and the "
                "exact count on the rest; nearest neighbours come from argpartition over row "
                "blocks, so the distance matrix is the only n x n array; up to n = 512 the "
                "dense witness pass stays (was: the dense witness pass over all n^2 ordered "
                "pairs at every n, with an n x n argpartition index array, an int8 count "
                "matrix and boolean n x n temporaries)",
        "parent": "3cc3e0a",
        "traced": ("rng.build_2rng.calls", "rng.build_2rng.self_s", "rng.build_2rng.kept_frac",
                   "rng.self_s", "solver.self_s", "graph.self_s", "scsd.self_s",
                   "closure2.self_s", "trace.solve_s"),
        "rows": ("rows", rng2cert_rows),
    },
    "k0local": {
        "layer": "rng.build_2rng (the exact count) and the solver's k = 0 probes",
        "what": "above n = 512, a 2-RNG survivor pq no longer than kd(p), the distance of p's "
                "farthest of its 32 nearest neighbours, is counted over those 32 points alone, "
                "else one no longer than kd(q) over q's, and only the rest against all n points; "
                "row blocks are 128 rows (was 256); a k = 0 probe below the least connecting "
                "prefix or the least prefix giving every vertex degree 2 is infeasible with no "
                "graph work (was: every survivor counted against all n points, and every k = 0 "
                "probe decided by a low-point pass)",
        "parent": "f861c3c",
        "seconds": 12,
        "traced": ("rng.build_2rng.calls", "rng.build_2rng.self_s", "rng.build_2rng.kept_frac",
                   "solver.self_s", "graph.self_s", "rng.self_s", "trace.solve_s"),
        "rows": ("rows", k0local_rows),
    },
    "k0sq": {
        "layer": "rng.build_2rng",
        "what": "build_2rng fills one n x n matrix of squared distances of the points times "
                "the power of two 2^k that puts the largest coordinate magnitude in "
                "[2^499, 2^500), and decides lune tests on it where the squares are sure "
                "(a relative margin of 2^-40), by hypot on a close call; hypot gives only the "
                "neighbour lengths, the exact count's cutoffs and the kept edges' lengths "
                "(was: one n x n hypot matrix read by every stage)",
        "parent": "978d441",
        "seconds": 12,
        "traced": ("rng.build_2rng.calls", "rng.build_2rng.self_s", "rng.build_2rng.kept_frac",
                   "solver.self_s", "graph.self_s", "rng.self_s", "trace.solve_s"),
        "rows": ("rows", k0sq_rows),
    },
    "k0walk": {
        "layer": "solver k = 0 search (graph.least_biconnected_prefix) and the 2-RNG hand-off "
                 "(rng.build_2rng's Graph, the evaluator's ordering, length_schedule, _assemble)",
        "what": "k = 0 finds the least 2-connected prefix once, by a walk from the floor: a "
                "failed low-point pass jumps past, for each leaf block, the first later edge "
                "that leaves it, and from the fourth pass on every second pass bisects, and every "
                "probe compares its prefix with it; build_2rng hands its row-major pairs to Graph "
                "as they are, the evaluator orders them by one stable argsort, length_schedule "
                "uses np.unique and _assemble neither reorients edges nor calls distance; the "
                "sector radii come from one lexsort per point by (sector, length), and a pair's "
                "second endpoint's witnesses are tried only on the pairs the first's leave (was: "
                "a low-point pass per probe above the floor, make_graph's re-sort, a sort by key, "
                "a set sort, per-edge min/max, six argpartition passes and both witness lists "
                "on every pair)",
        "parent": "cb8ef2f",
        "seconds": 12,
        "traced": ("rng.build_2rng.calls", "rng.build_2rng.self_s", "graph.is_biconnected.calls",
                   "graph.Graph.__post_init__.self_s", "solver.probes", "solver.self_s",
                   "graph.self_s", "rng.self_s", "trace.solve_s"),
        "rows": ("rows", k0walk_rows),
    },
}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="a checkout of the parent commit")
    ap.add_argument("--topic", choices=sorted(TOPICS), default="scsd")
    ap.add_argument("--output", type=Path, help="default: BENCH_<topic>.json")
    args = ap.parse_args(argv)
    topic = TOPICS[args.topic]
    output = args.output or Path(f"BENCH_{args.topic}.json")
    parent, change = args.parent.resolve(), Path.cwd()
    rows_key, make_rows = topic["rows"]
    doc = {
        "topic": args.topic,
        "layer": topic["layer"],
        "what": topic["what"],
        "parent": topic["parent"],
        "change": "the commit that adds this file",
        "machine": "shared 2-core x86-64 VM, Linux, Python 3.11.7, numpy 2.4.6; "
                   "one process at a time, numerical libraries at one thread",
        "command": f"python3 bench/bench_scsd.py ../parent --topic {args.topic} "
                   "(see its docstring)",
        "spread": "(q3 - q1) / median over the runs of one side; change_better_in "
                  "counts pairs where the change's value is lower",
        "untraced": {w: untraced(parent, change, w, topic.get("seeds", SEEDS),
                                 topic.get("rounds", 1), topic.get("seconds", 36))
                     for w in WORKLOADS},
        "traced_seed1": {},
    }
    for w in WORKLOADS:
        doc["traced_seed1"][w] = {}
        for side, path in (("parent", parent), ("change", change)):
            r = run_bench(path, w, 1, 1)
            doc["traced_seed1"][w][side] = dict({k: r["metrics"][k] for k in topic["traced"]},
                                                trace_skipped=r["detail"].get("trace_skipped"))
    doc[rows_key], rows_same = make_rows(parent, change)
    pairs = [r for w in WORKLOADS for r in doc["untraced"][w]["runs"]]
    doc["all_bottlenecks_identical"] = rows_same and all(
        r["bottlenecks_identical"] == r["bottlenecks"] for r in pairs)
    doc["failed"] = sum(r[s]["failed"] for r in pairs for s in ("parent", "change"))
    output.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {output}; bottlenecks identical:", doc["all_bottlenecks_identical"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
