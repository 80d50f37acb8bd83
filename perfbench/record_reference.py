"""Record the reference bottlenecks that the benchmark checks outputs against.

    python3 perfbench/record_reference.py [--seed 1]

Solves every benchmark workload's instance set once at the given base seed
and writes ``perfbench/reference.json``.  Run it only on a commit whose
outputs are trusted: later commits must reproduce these values to 1e-12.
"""

from __future__ import annotations

import argparse
import json

import run
from workloads import WORKLOADS, instances


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    run._use_checkout_source()
    from mbsn.cli import generate_instance
    from mbsn.solver import solve

    bottlenecks = {}
    for workload in WORKLOADS.values():
        if workload.name == "smoke":
            continue
        for inst in instances(workload, args.seed):
            pts = generate_instance(inst.n, inst.seed, inst.distribution)
            for k in workload.ks:
                bottlenecks[f"{inst.key}-k{k}"] = solve(pts, k).bottleneck
    doc = {"seed": args.seed, "bottlenecks": bottlenecks}
    run.DEFAULT_REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(bottlenecks)} reference bottlenecks to {run.DEFAULT_REFERENCE}")


if __name__ == "__main__":
    main()
