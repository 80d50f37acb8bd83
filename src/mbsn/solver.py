"""Top-level solver: minimum bottleneck 2-connected networks with
k = 0, 1 or 2 Steiner points.

Every k runs one pipeline: a binary search with incumbent tracking over the
ordered edge lengths of the 2-relative neighbourhood graph, pricing each
threshold graph G_t, then one assembly of G_t* plus the k Steiner points
and their edges.  The 2-RNG edges are sorted by (length, edge) once, so
G_t is a prefix of them.  For k = 0 a threshold is feasible exactly when
the prefix is 2-connected; no ``Graph`` is built.  For k >= 1 it is
infeasible when the leaf/isolated-block counter exceeds 5k (plus, for
k = 1, below the connectivity index: the least prefix that connects,
from one union-find pass); otherwise the optimal k-block closure of G_t
prices it at max(closure radius, t).  Each distinct k >= 1 threshold has
one probe state, shared by all its evaluations until the solve ends: the
prefix ``Graph``, which keeps its forest (``Graph.forest``, with its
components) once built, and the k = 2 closure's memo.  The k = 2
schedule is prepended with 0 because an optimal network minus its Steiner
points may be edgeless.

A k = 2 probe's closure may report it ABOVE its cutoff: each probe is
decided at its own threshold and only the crossing is priced
(``_binary_search``); ``threshold_scan`` is uncut.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Sequence

from .closure1 import optimal_1block_closure
# separate_coincident: unused, but perfbench's tracer wraps it
from .closure2 import nudge_growth, optimal_2block_closure, separate_coincident  # noqa: F401
from .geom import Point2, distance, geometry_eps
# is_connected and threshold_subgraph: unused, but perfbench's tracer wraps them
from .graph import (Graph, b_count, connecting_prefix, is_biconnected,  # noqa: F401
                    is_biconnected_edges, is_connected, make_graph)
from .rng import build_2rng, length_schedule, threshold_subgraph  # noqa: F401
from .scsd import ScsdContext

# (feasible, closure radius, (edges of G_t, Steiner points, Steiner edges));
# Steiner point i has index n + i in the edges; no payload when the radius
# is not below the cutoff (ABOVE) or the closure stopped at ``enough``
Evaluation = tuple[bool, float, object]
ABOVE: Evaluation = (True, math.inf, None)  # feasible, radius not below the cutoff
Evaluate = Callable[[float, float, float], Evaluation]  # (t, cutoff, enough)


def _max_edge(points: Sequence[Point2], edges: Sequence[tuple[int, int]]) -> float:
    return max(distance(points[u], points[v]) for u, v in edges)


@dataclass(frozen=True)
class SolutionNetwork:
    """A 2-connected network spanning the terminals plus k Steiner points.

    Edge indices 0..n-1 are terminals in input order, n..n+k-1 the Steiner
    points; the threshold is the winning schedule value."""

    terminals: tuple[Point2, ...]
    steiner: tuple[Point2, ...]
    edges: tuple[tuple[int, int], ...]
    k: int
    threshold: float
    bottleneck: float

    def all_points(self) -> tuple[Point2, ...]:
        return self.terminals + self.steiner

    def recomputed_bottleneck(self) -> float:
        return _max_edge(self.all_points(), self.edges)

    def as_graph(self) -> Graph:
        pts = self.all_points()
        return make_graph(len(pts), self.edges,
                          [distance(pts[u], pts[v]) for u, v in self.edges])

    def validate(self) -> None:
        """Raise ValueError on any violated structural invariant."""
        if len(self.steiner) != self.k:
            raise ValueError("wrong number of Steiner points")
        pts = self.all_points()
        if len({p.as_tuple() for p in pts}) != len(pts):
            raise ValueError("Steiner points must be distinct from all other points")
        if not is_biconnected(self.as_graph()):
            raise ValueError("network is not 2-connected")
        eps = geometry_eps(pts)
        if abs(self.recomputed_bottleneck() - self.bottleneck) > eps:
            raise ValueError("recorded bottleneck disagrees with the edge list")


@dataclass(frozen=True)
class ThresholdEval:
    threshold: float
    feasible: bool
    radius: float | None
    objective: float | None


def _binary_search(lengths: Sequence[float], evaluate: Evaluate):
    """Classical lo/hi index search for the best feasible (objective,
    threshold, payload); the first probe visited wins a tie.

    Infeasibility is monotone below (the block counter only grows on edge
    subgraphs) and the closure radius monotone above, so the search ends at
    t_j, the first threshold with r <= t, after an up-probe at t_{j-1}: the
    optimum is min(t_j, r(t_{j-1})).  A probe is decided with the cutoff t+
    (x+ the next float above x) and ``enough`` = t: its verdict (infeasible,
    above t, or r <= t) is exact, so it moves as uncut; on r <= t the
    evaluator returns a payload only when it is the one ``enough`` = -inf
    gives (always for k = 0 and 1, which ignore ``enough``).  Then only the
    crossing is priced: the last feasible up-probe with the cutoff t_j+ and,
    if r <= t_j, the earlier ones in visit order with the cutoff r+, up to
    the first not above r: it starts r's plateau.  When t_j wins with no
    payload, it is evaluated once more with the cutoff t_j+."""
    lo, hi = 0, len(lengths) - 1
    (ups_before, t_j, payload), ups = (0, math.inf, None), []  # last down-probe; feasible up-probes
    while lo <= hi:
        mid = (lo + hi) // 2
        t = lengths[mid]
        ev = evaluate(t, math.nextafter(t, math.inf), t)
        if ev[0] and ev[1] <= t:
            (ups_before, t_j, payload), hi = (len(ups), t, ev[2]), mid - 1
        else:
            if ev[0]:
                ups.append([t, ev])
            lo = mid + 1
    assert ups or t_j < math.inf, "no feasible threshold (the full 2-RNG is always feasible)"

    def radius(i: int, cutoff: float) -> float:
        if ups[i][1][2] is None:  # ABOVE its own threshold (k = 2 only): price it again
            ups[i][1] = evaluate(ups[i][0], cutoff)
        return ups[i][1][1]  # inf if ABOVE the cutoff too

    r = radius(-1, math.nextafter(t_j, math.inf)) if ups else math.inf
    if r <= t_j:
        first = next(i for i in range(len(ups)) if radius(i, math.nextafter(r, math.inf)) <= r)
        if r < t_j or first < ups_before:
            return r, ups[first][0], ups[first][1][2]
    return t_j, t_j, payload or evaluate(t_j, math.nextafter(t_j, math.inf))[2]


def _evaluator(r: Graph, pts: tuple[Point2, ...], k: int) -> Evaluate:
    """Prices one threshold of the 2-RNG ``r``; for k >= 1 every probe shares
    one global colour-disk context.  k = 2 returns ABOVE when the closure
    cannot go strictly below the cutoff, or any closure at most ``enough``:
    the first one found at most ``enough`` - ``nudge_growth`` before the
    nudge, without a payload.  k = 0 and 1 ignore both."""
    n = len(pts)
    order = sorted(range(len(r.edges)), key=r.lengths.__getitem__)  # stable: ties by edge
    edges = [r.edges[i] for i in order]
    lengths = [r.lengths[i] for i in order]
    if k == 0:
        def evaluate(t: float, cutoff: float = math.inf, enough: float = -math.inf) -> Evaluation:
            prefix = edges[:bisect_right(lengths, t)]
            return is_biconnected_edges(n, prefix), 0.0, (prefix, (), ())

        return evaluate

    ctx = ScsdContext(pts)
    # k = 1: G_t is connected from this prefix length on
    connected_at = connecting_prefix(n, edges) if k == 1 else 0
    states: dict[int, tuple[Graph, dict]] = {}  # G_t (its forest kept on it), closure memo

    def evaluate(t: float, cutoff: float = math.inf, enough: float = -math.inf) -> Evaluation:
        p = bisect_right(lengths, t)
        if p < connected_at:
            return False, math.inf, None
        if p not in states:
            states[p] = Graph(n, tuple(edges[:p]), tuple(lengths[:p])), {}
        g, memo = states[p]
        if b_count(g) > 5 * k:
            return False, math.inf, None
        if k == 1:
            clo = optimal_1block_closure(g, pts, ctx)
        else:
            # the cutoff bounds the radius before the nudge, which only grows it (+ eps: rounding),
            # and by at most nudge_growth: a closure at most enough minus that stays at most enough
            stop = enough - nudge_growth(pts, enough) if math.isfinite(enough) else enough
            clo = optimal_2block_closure(g, pts, ctx, cutoff + ctx.eps, stop, memo)
            if clo is None:
                return ABOVE
            if clo.stopped:  # at most enough, but maybe not the least: the search prices it again
                return True, clo.radius, None
        return True, clo.radius, (g.edges, clo.steiner, clo.edges)

    return evaluate


def _pipeline(points: Sequence[Point2], k: int) -> tuple[
        tuple[Point2, ...], tuple[float, ...], Evaluate]:
    """The terminals, the threshold schedule of their 2-RNG and the evaluator."""
    if k not in (0, 1, 2):
        raise ValueError("k must be 0, 1 or 2")
    pts = tuple(points)
    r = build_2rng(pts)  # raises on fewer than 2 or duplicate points
    return pts, length_schedule(r, include_zero=k == 2), _evaluator(r, pts, k)


def _assemble(pts: tuple[Point2, ...], t: float, payload) -> SolutionNetwork:
    """The edges of G_t plus the Steiner points and their edges."""
    g_edges, steiner, steiner_edges = payload
    edges = tuple(sorted((min(e), max(e)) for e in (*g_edges, *steiner_edges)))
    return SolutionNetwork(pts, steiner, edges, len(steiner), t,
                           _max_edge(pts + steiner, edges))


def solve(points: Sequence[Point2], k: int) -> SolutionNetwork:
    """Minimum bottleneck 2-connected network on the points plus k Steiner
    points; raises ValueError for k outside 0..2, fewer than 2 points or
    duplicate points."""
    pts, lengths, evaluate = _pipeline(points, k)
    _, t_star, payload = _binary_search(lengths, evaluate)
    return _assemble(pts, t_star, payload)


def mbsn0(points: Sequence[Point2]) -> SolutionNetwork:
    """Minimum bottleneck 2-connected spanning network (no Steiner points):
    the least threshold at which the 2-RNG threshold subgraph is 2-connected."""
    return solve(points, 0)


def mbsn1(points: Sequence[Point2]) -> SolutionNetwork:
    return solve(points, 1)


def mbsn2(points: Sequence[Point2]) -> SolutionNetwork:
    return solve(points, 2)


def threshold_scan(points: Sequence[Point2], k: int) -> list[ThresholdEval]:
    """Exhaustive per-threshold evaluation over the whole schedule; used to
    verify that the binary search returns the same objective."""
    _, lengths, evaluate = _pipeline(points, k)
    out = []
    for t in lengths:
        feasible, radius, _ = evaluate(t)
        out.append(ThresholdEval(t, feasible, radius if feasible else None,
                                 max(radius, t) if feasible else None))
    return out
