"""Per-layer tracing of mbsn from outside the package.

The tracer replaces functions at the names their callers look up (for
example ``mbsn.solver.build_2rng``, not only ``mbsn.rng.build_2rng``,
because ``solver`` imported it with ``from .rng import build_2rng``) and a
few methods on their classes.  Each call records a span: name, parent
span, solve id, start and end.  Spans stay in memory until ``dump``.
``restore`` puts every replaced attribute back.

Layers are the package modules.  A span's self time is its duration minus
the durations of its direct children, so the self times of all spans of
one solve add up to the solve's root span.
"""

from __future__ import annotations

import gzip
from collections import defaultdict
from time import perf_counter

ROOT_SOLVE = "solver.solve"
ROOT_SETUP = "setup"
CONTEXT_GLOBAL = "scsd.context_global"
CONTEXT_LOCAL = "scsd.context_local"
LAYERS = ("rng", "graph", "scsd", "closure1", "closure2", "solver")

# (module, attribute, span name): every name through which one mbsn module
# calls a function of another layer, or of its own layer where the issue
# asks for that function's time
_FUNCTION_SITES = (
    ("solver", "build_2rng", "rng.build_2rng"),
    ("solver", "length_schedule", "rng.length_schedule"),
    ("solver", "threshold_subgraph", "rng.threshold_subgraph"),
    ("solver", "is_biconnected", "graph.is_biconnected"),
    ("solver", "is_connected", "graph.is_connected"),
    ("solver", "b_count", "graph.b_count"),
    ("solver", "make_graph", "graph.make_graph"),
    ("solver", "optimal_1block_closure", "closure1.optimal_1block_closure"),
    ("solver", "optimal_2block_closure", "closure2.optimal_2block_closure"),
    ("solver", "separate_coincident", "closure2.separate_coincident"),
    ("rng", "make_graph", "graph.make_graph"),
    ("graph", "make_graph", "graph.make_graph"),
    ("graph", "connected_components", "graph.connected_components"),
    ("graph", "is_connected", "graph.is_connected"),
    ("graph", "block_cut_forest", "graph.block_cut_forest"),
    ("closure1", "is_connected", "graph.is_connected"),
    ("closure1", "is_biconnected", "graph.is_biconnected"),
    ("closure1", "block_cut_forest", "graph.block_cut_forest"),
    ("closure2", "block_cut_forest", "graph.block_cut_forest"),
    ("closure2", "connected_components", "graph.connected_components"),
    ("closure2", "is_biconnected", "graph.is_biconnected"),
    ("closure2", "is_connected", "graph.is_connected"),
    ("closure2", "make_graph", "graph.make_graph"),
    ("closure2", "enumerate_partitions", "closure2.enumerate_partitions"),
    ("closure2", "classify", "closure2.classify"),
    ("closure2", "locate_case1", "closure2.locate_case1"),
    ("closure2", "locate_case2", "closure2.locate_case2"),
    ("closure2", "locate_case3", "closure2.locate_case3"),
    ("closure2", "separate_coincident", "closure2.separate_coincident"),
    ("closure2", "coupled_two_disk", "scsd.coupled_two_disk"),
    ("scsd", "smallest_color_spanning_disk", "scsd.smallest_color_spanning_disk"),
    ("cli", "generate_instance", "cli.generate_instance"),
)

# (module, class, method, span name); ScsdContext.__init__ is named by its
# caller: contexts built directly by the solver are global, the rest local
_METHOD_SITES = (
    ("graph", "Graph", "__post_init__", "graph.Graph.__post_init__"),
    ("scsd", "ScsdContext", "__init__", None),
    ("scsd", "ScsdContext", "best_center", "scsd.best_center"),
)


def _build_2rng_extra(args, result):
    n = len(args[0])
    return (len(result.edges), n * (n - 1) // 2)


def _context_extra(args, result):
    ctx = args[0]
    return (len(ctx.cand), ctx.dist.nbytes / 2**20)


_EXTRAS = {
    "rng.build_2rng": _build_2rng_extra,
    "graph.is_biconnected": lambda args, result: bool(result),
    "closure2.enumerate_partitions": lambda args, result: len(result),
    CONTEXT_GLOBAL: _context_extra,
}


class Tracer:
    """Span collector; spans are lists [id, parent, solve, name, start, end, extra]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.skipped: list[str] = []  # call sites not found at install

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        import importlib

        if self._saved:
            raise RuntimeError("tracer already installed")
        # a call site the program no longer has is skipped and listed in
        # self.skipped: its metrics then read zero instead of failing the
        # traced run, and its time moves into the caller's self time
        self.skipped = []
        for mod, attr, name in _FUNCTION_SITES:
            owner = importlib.import_module(f"mbsn.{mod}")
            if attr in owner.__dict__:
                self._patch(owner, attr, self._wrap(owner.__dict__[attr], name))
            else:
                self.skipped.append(f"mbsn.{mod}.{attr}")
        for mod, cls, meth, name in _METHOD_SITES:
            owner = getattr(importlib.import_module(f"mbsn.{mod}"), cls, None)
            if owner is not None and meth in owner.__dict__:
                fn = owner.__dict__[meth]
                self._patch(owner, meth, self._wrap(fn, name) if name else self._wrap_context(fn))
            else:
                self.skipped.append(f"mbsn.{mod}.{cls}.{meth}")

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        extra = _EXTRAS.get(name)

        def traced(*args, **kwargs):
            if not stack:  # outside any solve or set-up: not measured
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1], spans[stack[0]][2], name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[6] = extra(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _wrap_context(self, init):
        as_global = self._wrap(init, CONTEXT_GLOBAL)
        as_local = self._wrap(init, CONTEXT_LOCAL)
        spans, stack = self.spans, self.stack

        def traced_init(ctx, *args, **kwargs):
            by_solver = bool(stack) and spans[stack[-1]][3] == ROOT_SOLVE
            return (as_global if by_solver else as_local)(ctx, *args, **kwargs)

        traced_init.__wrapped__ = init
        return traced_init

    # -- root spans -----------------------------------------------------------

    def begin(self, name: str, solve: int | None) -> None:
        if self.stack:
            raise RuntimeError("root span opened inside another span")
        rec = [len(self.spans), None, solve, name, 0.0, 0.0, None]
        self.spans.append(rec)
        self.stack.append(rec[0])
        rec[4] = perf_counter()

    def end(self) -> None:
        rec = self.spans[self.stack.pop()]
        rec[5] = perf_counter()
        if self.stack:
            raise RuntimeError("root span closed with open children")

    # -- results --------------------------------------------------------------

    def dump(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,solve,name,start,end\n")
            for sid, parent, solve, name, start, end, _ in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},"
                         f"{'' if solve is None else solve},{name},{start!r},{end!r}\n")


def aggregate(spans: list[list], solve_ids: set[int]) -> dict[str, float]:
    """Sums over the spans of the given solves (plus set-up spans, which
    have no solve id): ``<name>.calls``, ``.self_s`` and ``.incl_s`` for every
    span name, ``<layer>.self_s`` for every layer, and the derived ratios.
    The solve root spans appear as ``solver``."""
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, solve, name, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    kept = pairs = 0
    probes = feasible = 0
    for sid, parent, solve, name, start, end, extra in spans:
        if solve is not None and solve not in solve_ids:
            continue
        incl = end - start
        self_s = incl - child_time[sid]
        if name == ROOT_SOLVE:
            name = "solver"  # root self time is the solver layer's own time
        elif name != ROOT_SETUP:
            out[f"{name.split('.', 1)[0]}.self_s"] += self_s
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name}.incl_s"] += incl
        by_solver = parent is not None and spans[parent][3] == ROOT_SOLVE
        if extra is None:  # no extra recorded, or the call raised
            pass
        elif name == "rng.build_2rng":
            kept += extra[0]
            pairs += extra[1]
        elif name == CONTEXT_GLOBAL:
            out[f"{CONTEXT_GLOBAL}.candidates"] += extra[0]
            out[f"{CONTEXT_GLOBAL}.dist_mb"] += extra[1]
        elif name == "closure2.enumerate_partitions":
            out["closure2.partitions"] += extra
        if by_solver:
            if name == "rng.threshold_subgraph":
                probes += 1
            elif (name == "graph.is_biconnected" and extra) or name in (
                    "closure1.optimal_1block_closure", "closure2.optimal_2block_closure"):
                feasible += 1
    out["rng.build_2rng.kept_frac"] = kept / pairs if pairs else 0.0
    out["solver.probes"] = probes
    out["solver.feasible_frac"] = feasible / probes if probes else 0.0
    return out
