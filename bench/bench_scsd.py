"""Write BENCH_<topic>.json: this checkout against a parent checkout.

    mkdir ../parent && git archive PARENT_COMMIT | tar -x -C ../parent
    python3 bench/bench_scsd.py ../parent                   # BENCH_scsd.json
    python3 bench/bench_scsd.py ../parent --topic k2pins    # BENCH_k2pins.json
    python3 bench/bench_scsd.py ../parent --topic k2closure # BENCH_k2closure.json
    python3 bench/bench_scsd.py ../parent --topic k0probes  # BENCH_k0probes.json

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
  instance seed n and seeds 1-3), with time, peak RSS, bottleneck, the
  largest number of classes of one disk query and the final candidate rows
  of the solver's context;
* ``k2pins`` and ``k2closure``: k = 2 solves at uniform n = 64 (seeds 1-3)
  and clustered n = 48 (seeds 1-2), the 64 k2-mid instances of seeds 1-2 in
  one process, and all five larger instances in one process, twice a side in
  alternating order (the faster run counts), with time, peak RSS,
  ``best_center`` calls, anchored solves of the coupled two-disk solver, and
  per instance whether the bottleneck (within 1e-12) and the whole answer
  (bottleneck, Steiner points and edges) equal the parent's;
* ``k0probes``: k = 0 solves at uniform n = 1024, 2048 and 4096 and
  clustered n = 2048 (seed 1), twice a side in alternating order (the
  faster run counts), with time, peak RSS and whether the bottleneck, the
  threshold and the edges equal the parent's exactly.

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

# one k = 1 solve; prints time, peak RSS, bottleneck, widest query and rows
K1_SOLVE = PRELUDE + """
seen = {{"classes": 0, "rows": 0}}
query = scsd.ScsdContext.best_center
def best_center(ctx, classes):
    out = query(ctx, classes)
    seen["classes"] = max(seen["classes"], len(classes))
    seen["rows"] = max(seen["rows"], len(ctx.cand))
    return out
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


def run_bench(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", "36", "--trace", str(trace)],
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


def untraced(parent: Path, change: Path, workload: str) -> dict:
    runs = []
    sides = {"parent": parent, "change": change}
    for i, seed in enumerate(SEEDS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        res = {side: run_bench(sides[side], workload, seed, 0) for side in order}
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
    return {"seeds": list(SEEDS), "runs": runs, "summary": summary}


# k = 2 solves of (n, seed, distribution) instances; prints one line per
# instance and a total with the best_center calls, the anchored solves of
# the coupled two-disk solver and the peak RSS
K2_SOLVE = PRELUDE + """
calls = [0, 0]
query, anchored = scsd.ScsdContext.best_center, scsd._anchored_center
def best_center(ctx, classes):
    calls[0] += 1
    return query(ctx, classes)
def anchored_center(cs, anchor):
    calls[1] += 1
    return anchored(cs, anchor)
scsd.ScsdContext.best_center = best_center
scsd._anchored_center = anchored_center
total = 0.0
for n, seed, dist in {shapes!r}:
    pts = generate_instance(n, seed, dist)
    t0 = time.perf_counter()
    net = solve(pts, 2)
    t = time.perf_counter() - t0
    total += t
    print(json.dumps({{"key": f"{{dist}}-n{{n}}-s{{seed}}", "time_s": round(t, 4),
                      "answer": [net.bottleneck, [p.as_tuple() for p in net.steiner],
                                 net.edges]}}))
print(json.dumps({{"time_s": round(total, 4), "best_center_calls": calls[0],
                  "anchored_solves": calls[1],
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}}))
"""


def run_code(checkout: Path, code: str) -> list[dict]:
    out = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                         capture_output=True, text=True, check=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def faster_of_two(parent: Path, change: Path, code: str) -> dict[str, list[dict]]:
    """Two runs a side, parent first then change first; the faster counts."""
    sides = {"parent": parent, "change": change}
    runs = {side: [] for side in sides}
    for order in (("parent", "change"), ("change", "parent")):
        for side in order:
            runs[side].append(run_code(sides[side], code))
    return {side: min(r, key=lambda lines: lines[-1]["time_s"]) for side, r in runs.items()}


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
        res = faster_of_two(parent, change, K2_SOLVE.format(shapes=shapes))
        pairs = list(zip(res["parent"][:-1], res["change"][:-1]))
        rows[name] = {side: lines[-1] for side, lines in res.items()}
        rows[name].update(instances=len(pairs),
                          bottlenecks_identical=sum(abs(a["answer"][0] - b["answer"][0]) <= 1e-12
                                                    for a, b in pairs),
                          answers_identical=sum(a["answer"] == b["answer"] for a, b in pairs))
        print(name, {side: lines[-1]["time_s"] for side, lines in res.items()}, flush=True)
    return rows, all(v["bottlenecks_identical"] == v["instances"] for v in rows.values())


# one k = 0 solve; prints time, peak RSS and the answer
K0_SOLVE = PRELUDE + """
pts = generate_instance({n}, 1, "{dist}")
t0 = time.perf_counter()
net = solve(pts, 0)
t = time.perf_counter() - t0
print(json.dumps({{"time_s": round(t, 4), "answer": [net.bottleneck, net.threshold, net.edges],
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}}))
"""


def k0_rows(parent: Path, change: Path) -> tuple[dict, bool]:
    rows = {}
    for n, dist in ((1024, "uniform"), (2048, "uniform"), (4096, "uniform"), (2048, "clusters")):
        res = faster_of_two(parent, change, K0_SOLVE.format(n=n, dist=dist))
        (p,), (c,) = res["parent"], res["change"]
        rows[f"{dist}-n{n}-s1"] = {
            **{side: {"time_s": r["time_s"], "peak_rss_mb": r["peak_rss_mb"]}
               for side, r in (("parent", p), ("change", c))},
            "bottleneck_identical": p["answer"][0] == c["answer"][0],
            "threshold_identical": p["answer"][1] == c["answer"][1],
            "edges_identical": p["answer"][2] == c["answer"][2]}
        print(n, dist, {side: r["time_s"] for side, r in (("parent", p), ("change", c))}, flush=True)
    return rows, all(v["bottleneck_identical"] and v["edges_identical"] for v in rows.values())


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
        "untraced": {w: untraced(parent, change, w) for w in WORKLOADS},
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
