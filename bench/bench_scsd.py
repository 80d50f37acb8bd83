"""Write BENCH_scsd.json: the lazily grown ScsdContext against its parent.

    mkdir ../parent && git archive 611fe00 | tar -x -C ../parent
    python3 bench/bench_scsd.py ../parent

Run it from the root of this checkout.  It makes, one process at a time:

* alternating parent/change pairs of ``perfbench/run.py --trace 0`` on
  k0-large, k1-large and k2-mid (seeds 11-20, 36 s each; pair i runs the
  parent first when i is even), with medians, quartiles and the spread
  (q3 - q1) / median of every end-to-end metric, and the per-instance
  bottlenecks of both sides compared;
* one ``--trace 1`` run per workload and side at seed 1, keeping the
  ``scsd`` layer metrics;
* k = 1 solves at n = 128 and 256 (uniform, the ``mbsn bench`` instance
  seed n and seeds 1-3), each in a fresh interpreter capped at 3 GB of
  address space, with time, peak RSS, bottleneck, the largest number of
  classes of one disk query and the final candidate rows of the solver's
  context.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("k0-large", "k1-large", "k2-mid")
SEEDS = range(11, 21)
METRICS = ("solve_s", "solve_ms_p50", "peak_rss_mb", "setup_s")
TRACED = ("scsd.context_global.calls", "scsd.context_global.self_s",
          "scsd.context_global.candidates", "scsd.context_global.dist_mb",
          "scsd.context_local.self_s", "scsd.best_center.calls", "scsd.best_center.self_s",
          "scsd.self_s", "trace.solve_s")
AS_LIMIT = 3 << 30

# one k = 1 solve; prints time, peak RSS, bottleneck, widest query and rows
K1_SOLVE = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
sys.path.insert(0, "src")
from mbsn import scsd
from mbsn.cli import generate_instance
from mbsn.solver import solve
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


def k1_row(checkout: Path, n: int, seed: int) -> dict:
    code = K1_SOLVE.format(limit=AS_LIMIT, n=n, seed=seed)
    out = subprocess.run([sys.executable, "-c", code], cwd=checkout,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = Path(argv[0]).resolve(), Path.cwd()
    doc = {
        "topic": "scsd",
        "layer": "scsd.context_global",
        "what": "ScsdContext starts with the point and pair-midpoint rows and appends the "
                "triple-circumcentre rows once, on the first query with >= 3 classes or the "
                "first objective_values call; of their distances it keeps one minimum per "
                "class such a call names, and <= 2-class queries never evaluate them (was: "
                "all three families and every centre-to-point distance built up front)",
        "parent": "611fe00",
        "change": "the commit that adds this file",
        "machine": "shared 2-core x86-64 VM, Linux, Python 3.11.7, numpy 2.4.6; "
                   "one process at a time, numerical libraries at one thread",
        "command": "python3 bench/bench_scsd.py ../parent (see its docstring)",
        "spread": "(q3 - q1) / median over the runs of one side; change_better_in "
                  "counts pairs where the change's value is lower",
        "untraced": {w: untraced(parent, change, w) for w in WORKLOADS},
        "traced_seed1": {},
        "k1_large_n": {},
    }
    for w in WORKLOADS:
        doc["traced_seed1"][w] = {}
        for side, path in (("parent", parent), ("change", change)):
            r = run_bench(path, w, 1, 1)
            doc["traced_seed1"][w][side] = dict({k: r["metrics"][k] for k in TRACED},
                                                trace_skipped=r["detail"].get("trace_skipped"))
    for n in (128, 256):
        for seed in (n, 1, 2, 3):
            doc["k1_large_n"][f"uniform-n{n}-s{seed}"] = {
                side: k1_row(path, n, seed) for side, path in (("parent", parent), ("change", change))}
    pairs = [r for w in WORKLOADS for r in doc["untraced"][w]["runs"]]
    rows = [v for v in doc["k1_large_n"].values()
            if all(isinstance(s["bottleneck"], float) for s in v.values())]
    doc["all_bottlenecks_identical"] = (
        all(r["bottlenecks_identical"] == r["bottlenecks"] for r in pairs)
        and all(v["parent"]["bottleneck"] == v["change"]["bottleneck"] for v in rows))
    doc["failed"] = sum(r[s]["failed"] for r in pairs for s in ("parent", "change"))
    Path("BENCH_scsd.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print("wrote BENCH_scsd.json; bottlenecks identical:", doc["all_bottlenecks_identical"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
