"""Command-line surface: solve instances, verify against the oracles,
generate instances, benchmark scaling, and render SVG pictures.

Instance files are ``{"points": [[x, y], ...]}``; solutions are
``{"k", "bottleneck", "threshold", "steiner", "edges"}`` where indices
0..n-1 are terminals in input order and n..n+k-1 the Steiner points.
Exit codes: 0 ok, 2 validation failure, 3 oracle bracket failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Sequence

from .geom import Point2, bbox_diagonal, distance
from .oracle import domain_contains, oracle_k1, oracle_k2, oracle_mbsn0
from .solver import SolutionNetwork, solve

log = logging.getLogger("mbsn")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BRACKET = 3


def _setup_logging() -> None:
    level = os.environ.get("STEINER_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def load_instance(path: str | Path) -> list[Point2]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    raw = doc.get("points")
    if not isinstance(raw, list) or len(raw) < 2:
        raise ValueError("instance needs a 'points' list with at least 2 entries")
    pts = []
    for entry in raw:
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool)
                           for c in entry)):
            raise ValueError(f"bad point entry {entry!r}")
        pts.append(Point2(float(entry[0]), float(entry[1])))
    if len({p.as_tuple() for p in pts}) != len(pts):
        raise ValueError("duplicate points")
    return pts


def save_instance(path: str | Path, points: Sequence[Point2]) -> None:
    doc = {"points": [[p.x, p.y] for p in points]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def solution_to_doc(net: SolutionNetwork) -> dict:
    return {
        "k": net.k,
        "bottleneck": net.bottleneck,
        "threshold": net.threshold,
        "steiner": [[p.x, p.y] for p in net.steiner],
        "edges": [[u, v] for u, v in net.edges],
    }


def save_solution(path: str | Path, net: SolutionNetwork) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution_to_doc(net), fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def load_solution(path: str | Path, terminals: Sequence[Point2]) -> SolutionNetwork:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    steiner = tuple(Point2(x, y) for x, y in doc["steiner"])
    edges = tuple(tuple(e) for e in doc["edges"])
    return SolutionNetwork(tuple(terminals), steiner, edges, int(doc["k"]),
                           float(doc["threshold"]), float(doc["bottleneck"]))


def render_svg(path: str | Path, net: SolutionNetwork, size: int = 640) -> None:
    """Terminals as filled dots, Steiner points as open circles, the
    bottleneck edge highlighted."""
    pts = net.all_points()
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    w = max(xs) - min(xs) or 1.0
    h = max(ys) - min(ys) or 1.0
    margin = 0.08 * max(w, h)
    scale = size / (max(w, h) + 2 * margin)

    def sx(x: float) -> float:
        return (x - min(xs) + margin) * scale

    def sy(y: float) -> float:
        return size - (y - min(ys) + margin) * scale  # y grows upwards

    lens = [distance(pts[u], pts[v]) for u, v in net.edges]
    bottleneck_edge = net.edges[lens.index(max(lens))] if net.edges else None
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">']
    for (u, v), ln in zip(net.edges, lens):
        hot = (u, v) == bottleneck_edge
        stroke = "#d62728" if hot else "#555555"
        width = 2.5 if hot else 1.2
        parts.append(f'<line x1="{sx(pts[u].x):.2f}" y1="{sy(pts[u].y):.2f}" '
                     f'x2="{sx(pts[v].x):.2f}" y2="{sy(pts[v].y):.2f}" '
                     f'stroke="{stroke}" stroke-width="{width}"/>')
    for i, p in enumerate(pts):
        if i < len(net.terminals):
            parts.append(f'<circle cx="{sx(p.x):.2f}" cy="{sy(p.y):.2f}" r="4" '
                         f'fill="#111111"/>')
        else:
            parts.append(f'<circle cx="{sx(p.x):.2f}" cy="{sy(p.y):.2f}" r="5" '
                         f'fill="white" stroke="#111111" stroke-width="1.5"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")


def generate_instance(n: int, seed: int, distribution: str) -> list[Point2]:
    """Deterministic instances; ``clusters`` places ceil(n/4)-point groups
    far apart so mid-range thresholds decompose into several components."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = random.Random(seed)
    pts: dict[tuple[float, float], Point2] = {}  # insertion-ordered; drops repeats
    if distribution == "uniform":
        while len(pts) < n:
            cand = Point2(rng.random(), rng.random())
            pts.setdefault(cand.as_tuple(), cand)
    elif distribution == "clusters":
        group = max(2, math.ceil(n / 4))
        ngroups = math.ceil(n / group)
        centers = [(0.5 + 0.38 * math.cos(2 * math.pi * i / ngroups),
                    0.5 + 0.38 * math.sin(2 * math.pi * i / ngroups))
                   for i in range(ngroups)]
        while len(pts) < n:
            cx, cy = centers[len(pts) // group % ngroups]
            cand = Point2(cx + rng.gauss(0.0, 0.035), cy + rng.gauss(0.0, 0.035))
            pts.setdefault(cand.as_tuple(), cand)
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    return list(pts.values())


def _load_and_solve(args: argparse.Namespace) -> tuple[list[Point2], SolutionNetwork] | None:
    """Load, solve and validate ``args.input`` at ``args.k``; on failure
    report the error and return None."""
    try:
        pts = load_instance(args.input)
        net = solve(pts, args.k)
        net.validate()
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        log.error("%s failed: %s", args.command, exc)
        print(f"error: {exc}", file=sys.stderr)
        return None
    return pts, net


def cmd_solve(args: argparse.Namespace) -> int:
    solved = _load_and_solve(args)
    if solved is None:
        return EXIT_VALIDATION
    _, net = solved
    if args.output:
        save_solution(args.output, net)
    if args.svg:
        render_svg(args.svg, net)
    print(f"k={net.k} bottleneck={net.bottleneck!r} threshold={net.threshold!r}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    solved = _load_and_solve(args)
    if solved is None:
        return EXIT_VALIDATION
    pts, net = solved
    tol = args.resolution
    # brackets scale with the instance, like geometry_eps: the bounding-box
    # diagonal in units of the unit square's, so 1e-12 and 1e-9 there
    unit = bbox_diagonal(pts) / math.sqrt(2.0)
    lo, hi = 1e-12 * unit, 1e-9 * unit
    if args.k == 0:
        oracle_val = oracle_mbsn0(pts)
        err = 0.0
        ok = abs(net.bottleneck - oracle_val) <= lo
    else:
        oracle_val, *_, err = (oracle_k1 if args.k == 1 else oracle_k2)(pts, tol)
        ok = (oracle_val - err - lo <= net.bottleneck <= oracle_val + hi)
        ok = ok and all(domain_contains(pts, sp) for sp in net.steiner)
    verdict = "pass" if ok else "FAIL"
    print(f"k={args.k} solver={net.bottleneck!r} oracle={oracle_val!r} "
          f"error_bound={err!r} bracket={verdict}")
    return EXIT_OK if ok else EXIT_BRACKET


def cmd_gen(args: argparse.Namespace) -> int:
    try:
        pts = generate_instance(args.n, args.seed, args.distribution)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    save_instance(args.output, pts)
    print(f"wrote {args.n} points to {args.output}")
    return EXIT_OK


def _bench_row(n: int, args: argparse.Namespace) -> tuple[int, float, float]:
    """Median solve time in ms and the bottleneck of one generated instance."""
    pts = generate_instance(n, args.seed + n, "uniform")
    times = []
    for _ in range(args.repeats):
        t0 = time.perf_counter()
        net = solve(pts, args.k)
        times.append((time.perf_counter() - t0) * 1000.0)
    ms = statistics.median(times)
    log.info("bench k=%d n=%d median=%.2f ms bottleneck=%r", args.k, n, ms, net.bottleneck)
    return n, ms, net.bottleneck


def cmd_bench(args: argparse.Namespace) -> int:
    # sizes ascend, so a size below 2 fails in generate_instance and a bad
    # k in solve before any instance is timed
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
        if sizes != sorted(sizes):
            raise ValueError("sizes must ascend")
        if args.repeats < 1:
            raise ValueError("repeats must be at least 1")
        rows = [_bench_row(n, args) for n in sizes]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if len(rows) >= 2:
        lx = [math.log(r[0]) for r in rows]
        ly = [math.log(max(r[1], 1e-9)) for r in rows]
        mx = sum(lx) / len(lx)
        my = sum(ly) / len(ly)
        num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
        den = sum((a - mx) ** 2 for a in lx)
        if den > 0:
            exp = num / den
            log.warning("bench k=%d fitted time exponent ~ n^%.2f", args.k, exp)
            print(f"fitted exponent: n^{exp:.2f}", file=sys.stderr)
    with open(args.csv, "w", encoding="utf-8") as fh:
        fh.write("n,time_ms,bottleneck\n")
        for n, ms, b in rows:
            fh.write(f"{n},{ms:.3f},{b!r}\n")
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mbsn",
                                 description="Bottleneck 2-connected Steiner network solver")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve an instance")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--output")
    sp.add_argument("--svg")
    sp.set_defaults(func=cmd_solve)

    vp = sub.add_parser("verify", help="solve and check against the oracle")
    vp.add_argument("--input", required=True)
    vp.add_argument("--k", type=int, required=True)
    vp.add_argument("--resolution", type=float, default=1e-3,
                    help="oracle target error (absolute)")
    vp.set_defaults(func=cmd_verify)

    gp = sub.add_parser("gen", help="generate a deterministic instance")
    gp.add_argument("--n", type=int, required=True)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--distribution", choices=("uniform", "clusters"),
                    default="uniform")
    gp.add_argument("--output", required=True)
    gp.set_defaults(func=cmd_gen)

    bp = sub.add_parser("bench", help="time the solver over instance sizes")
    bp.add_argument("--sizes", required=True, help="comma-separated ascending sizes")
    bp.add_argument("--repeats", type=int, default=3)
    bp.add_argument("--k", type=int, required=True)
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--csv", required=True)
    bp.set_defaults(func=cmd_bench)
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
