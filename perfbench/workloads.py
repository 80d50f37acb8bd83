"""Workload definitions: which instances each workload solves, at which k.

Every instance comes from ``mbsn.cli.generate_instance(n, seed, dist)``.
Instance ``i`` of a workload run with base seed ``s`` uses instance seed
``s * 1000 + i``, so the same base seed always gives the same instances.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """A fixed instance set, each instance solved once per pass at every k."""

    name: str
    ks: tuple[int, ...]
    shapes: tuple[tuple[int, str], ...]  # (n, distribution) per instance


@dataclass(frozen=True)
class Instance:
    key: str
    n: int
    distribution: str
    seed: int


def _suite_shapes(count: int, n_lo: int, n_hi: int) -> tuple[tuple[int, str], ...]:
    # the acceptance suite's pattern: n cycles over [n_lo, n_hi] while the
    # distribution alternates, so 2 * (n_hi - n_lo + 1) instances hold every
    # (n, distribution) pair once
    return tuple((n_lo + i % (n_hi - n_lo + 1), "uniform" if i % 2 == 0 else "clusters")
                 for i in range(count))


WORKLOADS: dict[str, Workload] = {
    # 2-RNG construction is ~90 % of a k = 0 solve at this size; the solve
    # time hardly depends on the instance, so two instances suffice
    "k0-large": Workload("k0-large", (0,), ((1024, "uniform"), (1024, "clusters"))),
    # the global ScsdContext precompute (C(n,3) x n distances) dominates
    # time and memory; it depends on n only
    "k1-large": Workload("k1-large", (1,), ((96, "uniform"), (96, "clusters")) * 2),
    # k = 2: best_center queries from the case-1/3 pair search, plus
    # coupled two-disk solves and local ScsdContext rebuilds when case 2
    # occurs.  k = 2 solve times are heavy-tailed, so a sum over a few
    # instances spreads widely between seeds: over 40-80 seeds the
    # coefficient of variation of one solve was 0.56 for clustered n = 40
    # (0.4-2.3 s), 0.38 at n = 32, 0.27 at n = 28 (0.15 s mean, none over
    # 0.3 s), and 0.92 for uniform n = 28; uniform n = 48-64 ranged over
    # 0.4-8.5 s.  32 clustered n = 28 instances give a per-pass sum whose
    # seed-to-seed spread is ~3x narrower than 12 at n = 40, in less time.
    # Case 2 is common at this size, so coupled_two_disk and the local
    # contexts it rebuilds are timed here too.  A suite-style workload (every
    # n in 4..40 at k = 0, 1 and 2) was tried as well and left out: its sum
    # and median spread by 0.22-0.29 over ten seeds, from a few heavy-tailed
    # k = 2 solves at n >= 30 and from millisecond solves whose time follows
    # the machine's speed
    "k2-mid": Workload("k2-mid", (2,), ((28, "clusters"),) * 32),
    # tiny instances for the benchmark's own smoke test; not a benchmark
    # workload
    "smoke": Workload("smoke", (0, 1, 2), _suite_shapes(4, 5, 8)),
}


def instances(workload: Workload, seed: int) -> list[Instance]:
    out = []
    for i, (n, dist) in enumerate(workload.shapes):
        iseed = seed * 1000 + i
        out.append(Instance(f"{dist}-n{n}-s{iseed}", n, dist, iseed))
    return out
