"""Optimal 2-block closure: partition the leaf blocks between two Steiner
points, classify the resulting base topology, and optimally embed the
cheapest critical topology.

Case 1: the base topology is already 2-connected; the two centres are
located by independent colour-spanning disks that must reach distinct
vertices of every multi-vertex isolated block, found exactly by a
branch-and-bound over s1's witness vertex in each such block.

Case 2 (connected input, base topology a path of blocks): either two
crossing Steiner edges chosen by scanning a split index along the block
path, or a direct Steiner-Steiner edge placed by the coupled two-disk
solver; the cheaper wins.  The block path is read off one low-point pass
(``graph.closed_blocks``) over the base topology's raw edges.

Case 3 (disconnected input with covered components): components reachable
from only one Steiner point receive one extra edge from the other, and
the Case 1 discipline runs with those components as additional colours.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geom import Point2, distance, geometry_eps
# block_cut_forest, connected_components, is_biconnected and is_connected: unused,
# but perfbench's tracer wraps them
from .graph import (Graph, BlockCutForest, block_cut_forest, closed_blocks,  # noqa: F401
                    connected_components, is_biconnected, is_biconnected_edges, is_connected,
                    make_graph)
from .scsd import ScsdContext, coupled_two_disk


@dataclass(frozen=True)
class Partition:
    """Leaf-block ids assigned to each Steiner point."""

    side1: tuple[int, ...]
    side2: tuple[int, ...]


@dataclass(frozen=True)
class BlockPath:
    """Path structure of the base topology for Case 2.

    ``blocks`` are sorted vertex sets of the abstract topology in path order
    with the first Steiner point interior to the first block; ``junctions``
    are the cut vertices between consecutive blocks; ``cells`` partition
    its vertices (first cell equals the first block, later cells drop the
    preceding junction).
    """

    blocks: tuple[tuple[int, ...], ...]
    junctions: tuple[int, ...]
    cells: tuple[tuple[int, ...], ...]
    single_edge_first: bool
    single_edge_last: bool


@dataclass(frozen=True)
class CriticalTopology:
    partition: Partition
    case_tag: str  # 'case1' | 'case2' | 'case3'
    side1_classes: tuple[tuple[int, ...], ...]  # leaf-block interiors per side
    side2_classes: tuple[tuple[int, ...], ...]
    isolated_vertices: tuple[int, ...]
    isolated_multis: tuple[tuple[int, ...], ...]
    covered_by_s1: tuple[tuple[int, ...], ...]  # component vertex sets
    covered_by_s2: tuple[tuple[int, ...], ...]
    block_path: BlockPath | None
    base_size: int  # G_t's vertices plus the two Steiner points, n and n + 1
    base_edges: tuple[tuple[int, int], ...]  # G_t's, then the Steiner points'

    @functools.cached_property
    def base_topology(self) -> Graph:
        return make_graph(self.base_size, self.base_edges)


@dataclass(frozen=True)
class EmbeddedClosure:
    """The result of a 1- or 2-block closure of a graph on n vertices:
    Steiner point i is vertex n + i of ``edges``, the sorted vertex pairs of
    the Steiner points' edges; ``radius`` is the longest of them once
    ``separate_embedding`` has nudged the points (before it, inside the
    closures' searches)."""

    radius: float
    steiner: tuple[Point2, ...]
    edges: tuple[tuple[int, int], ...]
    case_tag: str  # 'block' | 'star' (k = 1) | 'case1' | 'case2_1' | 'case2_2' | 'case3'
    partition: Partition | None = None
    chosen_index: int | None = None  # split index for case2_1
    stopped: bool = False  # a search stopped at its first result at most ``enough``


def enumerate_partitions(bcf: BlockCutForest) -> tuple[Partition, ...]:
    """All unordered 2-partitions of the leaf blocks; an empty side is
    allowed only for disconnected graphs."""
    connected = len(bcf.components) <= 1
    leafs = list(bcf.leaf_blocks)
    q = len(leafs)
    if q == 0:
        return (Partition((), ()),) if not connected else ()
    parts = []
    for mask in range(1 << q):
        if not mask & 1:  # canonical orientation: first leaf block on side 1
            continue
        side1 = tuple(leafs[i] for i in range(q) if mask >> i & 1)
        side2 = tuple(leafs[i] for i in range(q) if not mask >> i & 1)
        if connected and not side2:
            continue
        parts.append(Partition(side1, side2))
    return tuple(parts)


def _block_path(m0: Sequence[tuple[int, int]], n: int) -> BlockPath:
    """The block path of a case-2 base topology with edges ``m0``.  There
    s1 = n is no cut vertex (G_t is connected and holds all its
    neighbours), so one pass from s1 closes the blocks from s2's end back to
    s1's: reversed, they are the path.  Each later block closes at its
    junction, the vertex it shares with the block before it, and is its
    cell once that vertex is dropped."""
    path = list(closed_blocks(n + 2, m0, (n,)))[::-1]
    assert len(path) >= 2 and n + 1 in path[-1], "base topology decomposition is not a path"
    blocks = tuple(tuple(sorted(blk)) for blk in path)
    return BlockPath(
        blocks=blocks,
        junctions=tuple(blk[-1] for blk in path[1:]),
        cells=blocks[:1] + tuple(tuple(sorted(blk[:-1])) for blk in path[1:]),
        single_edge_first=len(path[0]) == 2,
        single_edge_last=len(path[-1]) == 2,
    )


def classify(g: Graph, partition: Partition) -> CriticalTopology:
    """Build the abstract base topology for one partition, from g's forest,
    and tag the case.  Case 1 and case 2's block path are decided on the
    base topology's raw edge list; no base topology ``Graph`` is built."""
    bcf = g.forest
    leaf_ids = set(bcf.leaf_blocks)
    s1set, s2set = set(partition.side1), set(partition.side2)
    if s1set | s2set != leaf_ids or s1set & s2set:
        raise ValueError("partition does not match the leaf blocks")
    comps = bcf.components
    connected = len(comps) <= 1
    if connected and (not partition.side1 or not partition.side2):
        raise ValueError("one-sided partition on a connected graph")

    n = g.vertex_count
    s1, s2 = n, n + 1
    isolated = [bcf.blocks[bid] for bid in bcf.isolated_blocks]
    isolated_vertices = [blk[0] for blk in isolated if len(blk) == 1]
    isolated_multis = [blk for blk in isolated if len(blk) > 1]

    e0 = [(s1, min(bcf.interiors[bid])) for bid in partition.side1]
    e0 += [(s2, min(bcf.interiors[bid])) for bid in partition.side2]
    e0 += [e for v in isolated_vertices for e in ((s1, v), (s2, v))]
    e0 += [e for blk in isolated_multis for e in ((s1, blk[0]), (s2, blk[1]))]
    m0 = g.edges + tuple(e0)

    # a component is covered by one side when all its leaf blocks are on it;
    # block components have none and are never covered
    comp_of = {v: ci for ci, comp in enumerate(comps) for v in comp}
    sides_per_comp: dict[int, set[int]] = {}
    for bid in bcf.leaf_blocks:
        ci = comp_of[bcf.blocks[bid][0]]
        sides_per_comp.setdefault(ci, set()).add(1 if bid in s1set else 2)
    covered1 = [comps[ci] for ci, sides in sorted(sides_per_comp.items()) if sides == {1}]
    covered2 = [comps[ci] for ci, sides in sorted(sides_per_comp.items()) if sides == {2}]

    if is_biconnected_edges(n + 2, m0):
        tag, bp = "case1", None
    elif covered1 or covered2:
        tag, bp = "case3", None
    else:
        assert connected, "uncovered disconnected base topology must be 2-connected"
        tag, bp = "case2", _block_path(m0, n)

    return CriticalTopology(
        partition=partition,
        case_tag=tag,
        side1_classes=tuple(bcf.interiors[bid] for bid in partition.side1),
        side2_classes=tuple(bcf.interiors[bid] for bid in partition.side2),
        isolated_vertices=tuple(isolated_vertices),
        isolated_multis=tuple(isolated_multis),
        covered_by_s1=tuple(covered1),
        covered_by_s2=tuple(covered2),
        block_path=bp,
        base_size=n + 2,
        base_edges=m0,
    )


_CHUNK = 1 << 20  # most distances of one base class held at once in the row drop


def _distances(ctx: ScsdContext, rows: np.ndarray, vs: Sequence[int]) -> np.ndarray:
    """|vs| x len(rows): the distance from every row to each vertex of vs."""
    p = ctx._pts.take(vs, 0)
    d = rows[:, 0] - p[:, :1]
    return np.hypot(d, rows[:, 1] - p[:, 1:], out=d)


def _side(ctx: ScsdContext, base: tuple[tuple[int, ...], ...],
          zsets: Sequence[tuple[int, ...]], bound: float,
          columns: bool = True, minus: bool = True):
    """One side of the pair search: its kept rows, the fold of its base
    classes over them, per block its distance matrix (``columns``) and the
    block minus each vertex (``minus``; row y: the runner-up where y's
    distance is the minimum, else the minimum), and the blocks' suffix
    maxima; None when no row goes below ``bound``."""
    rows = ctx.candidates(base + tuple(zsets), bound)
    fold = np.zeros(len(rows))
    for c in sorted(base, key=len):  # one class at a time, at most _CHUNK distances
        step = max(1, _CHUNK // max(len(rows), 1))
        near = functools.reduce(np.minimum, (_distances(ctx, rows, c[a:a + step]).min(axis=0)
                                             for a in range(0, len(c), step)))
        fold = np.maximum(fold, near)
        live = fold < bound
        rows, fold = rows[live], fold[live]
    mats = [_distances(ctx, rows, z) for z in zsets]
    # each block's minimum and runner-up (equal when two vertices tie)
    ends = [np.partition(d, 1, axis=0)[:2].copy() for d in mats]
    tail = list(itertools.accumulate((e[0] for e in ends[::-1]), np.maximum))[::-1] + [None]
    keep = np.flatnonzero((fold if tail[0] is None else np.maximum(fold, tail[0])) < bound)
    if not len(keep):
        return None
    blocks = []
    for whole, second in ends:  # each full matrix goes once its kept rows are taken
        d, whole, second = mats.pop(0).take(keep, 1), whole[keep], second[keep]
        blocks.append((d if columns else None,
                       np.where(d == whole, second, whole) if minus else None))
    return rows[keep], fold[keep], blocks, [None if t is None else t[keep] for t in tail]


def _locate_pair(ctx: ScsdContext,
                 base1: Sequence[Sequence[int]],
                 base2: Sequence[Sequence[int]],
                 singles: Sequence[int],
                 zsets: Sequence[Sequence[int]],
                 bound: float = math.inf, enough: float = -math.inf):
    """Two independent disks whose chosen neighbours must differ inside every
    multi-vertex isolated block Z_1..Z_m; None when no pair goes strictly
    below ``bound``.

    Exact by conditioning on s1's witness, as in ``_distinct_disk``: s1
    reaches y_j and s2 reaches Z_j minus y_j, so the answer is the minimum
    over y in Z_1 x ... x Z_m of max(r(base1 + {y_j}), r(base2 + Z_j - {y_j})).
    A depth-first branch-and-bound fixes y_1, y_2, ... in turn.  A node
    leaves its free blocks whole on both sides, and shrinking a class never
    lowers r, so its two radii bound every leaf below it; it is pruned when
    that bound reaches the incumbent.  Children try s1's pick at the node
    first (its disk stays optimal there, so it is passed down unasked), then
    the rest of the block in ascending order: the first leaf is the greedy
    pair that places s1 first and gives s2 the rest of every block.

    Tie rule: the first optimal witness vector in this order wins.  Radii
    are ``best_center``'s, folded over each side's own candidate rows, built
    once per call (``_side``).  At most five blocks keep the search finite;
    it has no cap.  The incumbent starts at ``bound``, so a leaf that can win
    has both radii below it, and each side needs only
    ``ScsdContext.candidates`` of its root classes (every block whole) with
    R = ``bound``.  A side then drops its rows whose root value reaches the
    bound, a base class at a time (smallest first, each one's distance
    bounds the root value) before the block matrices are built: node values
    only grow down the tree, so those rows never win, and the kept rows keep
    their order, and so the tie rule.  A class or block is one
    |class| x rows distance matrix; a block's minimum and runner-up give
    the block minus each vertex exactly, once per call, so a node costs one
    ``np.maximum`` and one ``argmin`` a side.  When both sides have the same
    root classes (no leaf blocks and nothing covered, as when G_t is only
    isolated blocks) side 2 reads side 1's arrays, which the search never
    writes.  The search stops at the first leaf whose radius is at most
    ``enough``.
    """
    zsets = [tuple(sorted(z)) for z in zsets]
    shared = tuple((v,) for v in singles)
    base1 = tuple(tuple(c) for c in base1) + shared
    base2 = tuple(tuple(c) for c in base2) + shared
    same = base1 == base2
    side = _side(ctx, base1, zsets, bound, minus=same)
    if side is None:
        return None
    rows1, fold1, blocks1, tail1 = side
    if not same:
        side = _side(ctx, base2, zsets, bound, columns=False)
        if side is None:
            return None
    rows2, fold2, blocks2, tail2 = side
    best_r, best = bound, None
    stack = [((), fold1, fold2, None)]  # (witness positions, parent's prefixes, s1's answer)
    while stack:
        ts, q1, q2, side1 = stack.pop()
        i = len(ts)
        if i:
            q1 = np.maximum(q1, blocks1[i - 1][0][ts[-1]])
        if side1 is None:
            f = q1 if tail1[i] is None else np.maximum(q1, tail1[i])
            a = int(f.argmin())
            side1 = float(f[a]), a
        if side1[0] >= best_r:
            continue
        if i:
            q2 = np.maximum(q2, blocks2[i - 1][1][ts[-1]])
        f = q2 if tail2[i] is None else np.maximum(q2, tail2[i])
        a = int(f.argmin())
        r = max(side1[0], float(f[a]))
        if r >= best_r:
            continue
        if i == len(zsets):
            best_r, best = r, (side1[1], a, ts)
            if r <= enough:
                break
            continue
        pick = zsets[i].index(ctx.nearest_in_class(Point2(*rows1[side1[1]].tolist()), zsets[i]))
        rest = [(ts + (t,), q1, q2, None) for t in range(len(zsets[i])) if t != pick]
        stack.extend(reversed([(ts + (pick,), q1, q2, side1)] + rest))
    if best is None:
        return None
    c1, c2, ts = Point2(*rows1[best[0]].tolist()), Point2(*rows2[best[1]].tolist()), best[2]
    rests = tuple(z[:t] + z[t + 1:] for z, t in zip(zsets, ts))
    picks1 = tuple(ctx.nearest_in_class(c1, c) for c in base1) + tuple(z[t] for z, t in zip(zsets, ts))
    picks2 = tuple(ctx.nearest_in_class(c2, c) for c in base2 + rests)
    return best_r, c1, c2, picks1, picks2


def locate_case1(g: Graph, points: Sequence[Point2], topo: CriticalTopology,
                 ctx: ScsdContext | None = None, bound: float = math.inf,
                 enough: float = -math.inf) -> EmbeddedClosure | None:
    """Cases 1 and 3: two independent disks, each also reaching the
    components covered only by the other Steiner point; None when the
    radius cannot go strictly below ``bound``; ``enough`` as in ``_locate_pair``."""
    assert topo.case_tag in ("case1", "case3")
    base1 = topo.side1_classes + topo.covered_by_s2
    base2 = topo.side2_classes + topo.covered_by_s1
    pair = _locate_pair(ctx or ScsdContext(points), base1, base2,
                        topo.isolated_vertices, topo.isolated_multis, bound, enough)
    if pair is None:
        return None
    r, c1, c2, picks1, picks2 = pair
    n = g.vertex_count
    edges = {(v, n) for v in picks1} | {(v, n + 1) for v in picks2}
    return EmbeddedClosure(r, (c1, c2), tuple(sorted(edges)), topo.case_tag, topo.partition)


# one body serves both tags; optimal_2block_closure still dispatches case 3
# through its own name
locate_case3 = locate_case1


def _distinct_disk(ctx: ScsdContext, cls: list[int], h: list[int]):
    """best_center of [cls, h], cls a subset of h, with the extra requirement
    that the disk reaches two distinct vertices; exact by conditioning on the
    witness x of cls (forcing the class to one vertex loses no solution).
    Unconditioned, the answer is r = 0 on a vertex both picks share, so it is
    not asked.  Conditioned, it is half the distance from x to its nearest
    other vertex of h; an x where that is the least one + eps or more cannot
    win the strict <."""
    d = ctx.dist[np.ix_(cls, h)]
    d[np.asarray(cls)[:, None] == np.asarray(h)[None, :]] = np.inf
    half = d.min(axis=1) / 2.0
    skip, best = half.min() + ctx.eps, None
    for x, hx in zip(cls, half):
        if hx >= skip:
            continue
        r2, c2, p2 = ctx.best_center([[x], [v for v in h if v != x]])
        if best is None or r2 < best[0]:
            best = (r2, c2, p2)
    return best


def locate_case2(g: Graph, points: Sequence[Point2], topo: CriticalTopology,
                 ctx: ScsdContext | None = None, bound: float = math.inf,
                 enough: float = -math.inf) -> EmbeddedClosure | None:
    """Better of: crossing-edge topologies scanned along the block path
    (no Steiner-Steiner edge), and the adjacent-Steiner topology embedded
    by the coupled two-disk solver; None when neither goes strictly below
    ``bound``.  A split whose first disk reaches the best so far asks no
    second disk; one at most ``enough`` ends the scan and skips the coupled
    solver, which stops at its own first pair at most ``enough``."""
    assert topo.case_tag == "case2" and topo.block_path is not None
    if ctx is None:
        ctx = ScsdContext(points)
    bp = topo.block_path
    n = g.vertex_count
    p = len(bp.blocks)
    cells_x = [tuple(v for v in cell if v < n) for cell in bp.cells]
    static_cell = {v: i + 1 for i, cell in enumerate(cells_x) for v in cell}
    side1 = [list(c) for c in topo.side1_classes]
    side2 = [list(c) for c in topo.side2_classes]

    i0 = [i for i in range(1, p + 1)
          if not (i == 1 and bp.single_edge_first) and not (i == p and bp.single_edge_last)]
    best21, limit = None, bound
    for a in i0:
        corner1 = len(side1) == 1 and a == 2
        if corner1:
            h1 = list(range(n))  # whole vertex set; attachment excluded via distinctness
            res = _distinct_disk(ctx, side1[0], h1)
        else:
            h1 = sorted(v for cell in cells_x[a - 1:] for v in cell)
            if not h1:
                continue
            res = ctx.best_center(side1 + [h1])
        if res is None:
            continue
        r1, c1, picks1 = res
        if r1 >= limit:
            continue
        hpick = picks1[-1]
        if corner1 and static_cell[hpick] == 1:
            b = 2  # the embedded attachment shifts the first cell boundary
        else:
            b = static_cell[hpick]
        if b == p:
            # reachable only when the far end block is fat, so the second
            # Steiner point keeps at least two edges of its own
            assert len(side2) >= 2
            r2, c2, picks2 = ctx.best_center(side2)
        elif len(side2) == 1 and b == p - 1:
            res2 = _distinct_disk(ctx, side2[0], list(range(n)))
            if res2 is None:
                continue
            r2, c2, picks2 = res2
        else:
            tau_b = bp.junctions[b - 1] if b < p else None
            h2 = sorted(v for cell in cells_x[:b] for v in cell if v != tau_b)
            if not h2:
                continue
            r2, c2, picks2 = ctx.best_center(side2 + [h2])
        r = max(r1, r2)
        if r < limit:
            edges = {(v, n) for v in picks1} | {(v, n + 1) for v in picks2}
            best21, limit = (r, (c1, c2), tuple(sorted(edges)), a), r
            if r <= enough:
                break

    # case 2_2 wins only strictly below case 2_1
    coupled = coupled_two_disk(ctx, side1, side2, limit, enough) if limit > enough else None
    if coupled is None:
        return best21 and EmbeddedClosure(*best21[:3], "case2_1", topo.partition,
                                          chosen_index=best21[3])
    s1c, s2c, rc = coupled
    edges22 = {(n, n + 1)} | {(ctx.nearest_in_class(s1c, cls), n) for cls in side1}
    edges22 |= {(ctx.nearest_in_class(s2c, cls), n + 1) for cls in side2}
    return EmbeddedClosure(rc, (s1c, s2c), tuple(sorted(edges22)), "case2_2", topo.partition)


_ANGLES = [2.0 * math.pi * k / 16.0 for k in range(16)]


def _shift(p: Point2, ang: float, d: float) -> Point2:
    return Point2(p.x + d * math.cos(ang), p.y + d * math.sin(ang))


def _nudge_eps(points: Sequence[Point2]) -> float:
    return max(geometry_eps(points), 4.0 * math.ulp(max(max(abs(p.x), abs(p.y)) for p in points)))


def nudge_growth(points: Sequence[Point2], reach: float) -> float:
    """A certified bound on how much ``separate_coincident`` lengthens an edge
    of a closure whose Steiner points lie within ``reach`` of a terminal: its
    eps, taken on points all inside the terminals' box grown by ``reach``, is
    at most that box's.  In each of at most 8 rounds a point moves by eps (off
    its partner) and by 1.2 eps (off a terminal), and rounding each moved
    coordinate to half an ulp of twice the largest, eps / 4, adds eps / 2 per
    move: 8 (2.2 + 1) eps = 25.6 eps a point, twice that for the Steiner edge,
    and one more eps for the relative rounding of the two radii compared."""
    xs, ys = [p.x for p in points], [p.y for p in points]
    box = (Point2(min(xs) - reach, min(ys) - reach), Point2(max(xs) + reach, max(ys) + reach))
    return 52.2 * _nudge_eps(box)


def separate_coincident(points: Sequence[Point2], steiner: list[Point2],
                        neighbors: list[list[Point2]],
                        linked: list[tuple[int, int]]) -> list[Point2]:
    """Nudge Steiner points apart from terminals and each other by the
    instance tolerance, along the direction that least stretches their
    planned edges; at least 4 ulps of the largest coordinate, so that a nudge
    moves a point also where the tolerance is below the coordinates' ulp."""
    eps = _nudge_eps(list(points) + steiner)
    terminal_set = {p.as_tuple() for p in points}
    out = list(steiner)

    def stretch(i: int, cand: Point2) -> float:
        worst = max((distance(cand, q) for q in neighbors[i]), default=0.0)
        for a, b in linked:
            other = out[b] if a == i else out[a] if b == i else None
            if other is not None:
                worst = max(worst, distance(cand, other))
        return worst

    for _ in range(8):
        dirty = False
        # coincident Steiner pairs move a full eps apart in opposite
        # directions so the re-check definitely clears
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if distance(out[i], out[j]) < eps:
                    best = None
                    for ang in _ANGLES:
                        ci = _shift(out[i], ang, eps)
                        cj = _shift(out[j], ang + math.pi, eps)
                        val = max(stretch(i, ci), stretch(j, cj))
                        if best is None or val < best[0]:
                            best = (val, ci, cj)
                    assert best is not None
                    out[i], out[j] = best[1], best[2]
                    dirty = True
        # Steiner points sitting on terminals move away
        for i in range(len(out)):
            if out[i].as_tuple() in terminal_set or any(
                    distance(out[i], p) < eps for p in points):
                best = None
                for ang in _ANGLES:
                    ci = _shift(out[i], ang, 1.2 * eps)
                    if any(distance(ci, p) < eps for p in points):
                        continue
                    val = stretch(i, ci)
                    if best is None or val < best[0]:
                        best = (val, ci)
                assert best is not None
                out[i] = best[1]
                dirty = True
        if not dirty:
            break
    return out


def separate_embedding(emb: EmbeddedClosure, points: Sequence[Point2]) -> EmbeddedClosure:
    """``emb`` with its Steiner points nudged off the terminals and each
    other (``separate_coincident``, each point's planned edges read from
    ``emb.edges``) and its radius the longest Steiner edge after the nudge."""
    n = len(points)
    nbrs = [[points[u] for u, v in emb.edges if v == s and u < n]
            for s in range(n, n + len(emb.steiner))]
    links = [(u - n, v - n) for u, v in emb.edges if u >= n]
    steiner = tuple(separate_coincident(points, list(emb.steiner), nbrs, links))
    at = [*points, *steiner]
    return dataclasses.replace(emb, steiner=steiner,
                               radius=max(distance(at[u], at[v]) for u, v in emb.edges))


def partition_bounds(ctx: ScsdContext, bcf: BlockCutForest):
    """A lower bound on each partition's closure radius, as a function of the
    partition: a side's disk reaches every class on its side (its leaf-block
    interiors and every isolated block, whole), so its radius is at least
    half the least distance between any two of them, read from one distance
    block over all of them."""
    ids = bcf.leaf_blocks + bcf.isolated_blocks
    pos = {b: i for i, b in enumerate(ids)}
    starts = [0, *itertools.accumulate(len(bcf.interiors[b]) for b in ids[:-1])]
    members = [v for b in ids for v in bcf.interiors[b]]
    d = np.minimum.reduceat(ctx.dist[np.ix_(members, members)], starts, axis=0)
    half = np.minimum.reduceat(d, starts, axis=1) / 2.0
    return lambda part: max((half[pos[a], pos[b]] for side in (part.side1, part.side2)
                             for a, b in itertools.combinations(side + bcf.isolated_blocks, 2)),
                            default=0.0)


def optimal_2block_closure(g: Graph, points: Sequence[Point2],
                           ctx: ScsdContext | None = None,
                           bound: float = math.inf,
                           enough: float = -math.inf,
                           memo: dict | None = None) -> EmbeddedClosure | None:
    """Minimum over all partitions and applicable cases; Steiner points are
    nudged apart when the optimiser returns coincident locations; the
    partitions are those of g's forest.  Exact when the radius before
    the nudge is below ``bound``, else possibly None: each partition is
    priced against min(bound, best so far), since only a strictly lower
    radius replaces the best, or skipped when its lower bound reaches that
    + eps.  The first partition at most ``enough`` before the nudge ends the
    loop and is returned instead of the minimum, marked ``stopped``; every
    stop inside a partition's search returns such a result too, so a result
    not marked is the one ``enough`` = -inf gives.  ``memo``, a dict the
    caller keeps for one g and ctx, holds the partitions' lower bound (key
    None) and each classified topology between calls."""
    n = g.vertex_count
    if n < 1:
        raise ValueError("empty instance")
    if ctx is None:
        ctx = ScsdContext(points)
    bcf = g.forest
    if len(bcf.blocks) == 1:  # g is 2-connected, K1 and K2 included
        if not g.edges:
            # single vertex: a 4-cycle through two zero-cost Steiner points
            emb = EmbeddedClosure(0.0, (points[0], points[0]), ((0, 1), (0, 2), (1, 2)), "block")
            return separate_embedding(emb, points)
        assert g.lengths is not None
        ln, (u, v) = min(zip(g.lengths, g.edges))
        pu, pv = points[u], points[v]
        s1 = Point2(pu.x + (pv.x - pu.x) / 3.0, pu.y + (pv.y - pu.y) / 3.0)
        s2 = Point2(pu.x + 2.0 * (pv.x - pu.x) / 3.0, pu.y + 2.0 * (pv.y - pu.y) / 3.0)
        emb = EmbeddedClosure(ln / 3.0, (s1, s2), ((u, n), (v, n + 1), (n, n + 1)), "block")
        return separate_embedding(emb, points)

    memo = {} if memo is None else memo
    lower = memo.get(None) or memo.setdefault(None, partition_bounds(ctx, bcf))
    best: EmbeddedClosure | None = None
    for part in enumerate_partitions(bcf):
        limit = bound if best is None else min(bound, best.radius)
        if lower(part) >= limit + ctx.eps:
            continue
        topo = memo.get(part) or memo.setdefault(part, classify(g, part))
        locate = {"case1": locate_case1, "case2": locate_case2}.get(topo.case_tag, locate_case3)
        emb = locate(g, points, topo, ctx, limit, enough)
        if emb is not None:
            best = emb
            if emb.radius <= enough:
                break
    assert best is not None or bound < math.inf, "no partition produced a closure"
    if best is None:
        return None
    return dataclasses.replace(separate_embedding(best, points), stopped=best.radius <= enough)
