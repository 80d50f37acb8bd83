"""Whole solves under exact maps of the input: power-of-two scaling,
translation by up to 1e6, 90 degree rotation, reflection and permutation.

Coordinates are multiples of 2^-12 in [0, 1], scaled down by up to 2^-12,
so every map is exact in floating point and the instance it gives is the
same geometry.  The k = 0,
1 and 2 bottlenecks must then agree to relative 1e-9, plus a few units in
the last place of the largest mapped coordinate: a centre computed at 1e6
is rounded to ulp(1e6) = 1.2e-10, whatever the solver.  Every answer also
passes ``validate()`` and b2 <= b1 <= b0.
"""

import math
import random

from hypothesis import HealthCheck, example, given, settings, strategies as st

from mbsn.geom import Point2
from mbsn.solver import solve

GRID = 2 ** 12

instances = st.lists(st.tuples(st.integers(0, GRID), st.integers(0, GRID)),
                     min_size=2, max_size=10, unique=True)


def _bottlenecks(points):
    nets = [solve(points, k) for k in (0, 1, 2)]
    for net in nets:
        net.validate()
    b0, b1, b2 = (net.bottleneck for net in nets)
    assert b2 <= b1 * (1 + 1e-9) and b1 <= b0 * (1 + 1e-9), (b0, b1, b2)
    return b0, b1, b2


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cells=instances, size=st.integers(0, 12), exponent=st.integers(-10, 20),
       shift=st.tuples(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6)),
       seed=st.integers(0, 2 ** 32))
# two points 2^-22 apart, shifted by (1, 3): the k = 2 Steiner points meet at
# the midpoint, where a nudge of 1e-9 times the diagonal is below ulp(3)
@example(cells=[(0, 0), (1, 0)], size=10, exponent=0, shift=(1, 3), seed=0)
def test_bottlenecks_are_invariant_under_exact_maps(cells, size, exponent, shift, seed):
    points = [Point2(x / GRID / 2 ** size, y / GRID / 2 ** size) for x, y in cells]
    want = _bottlenecks(points)
    order = list(range(len(points)))
    random.Random(seed).shuffle(order)
    scale = 2.0 ** exponent
    maps = {
        "scale": (lambda p: Point2(p.x * scale, p.y * scale), scale),
        "translate": (lambda p: Point2(p.x + shift[0], p.y + shift[1]), 1.0),
        "rotate": (lambda p: Point2(-p.y, p.x), 1.0),
        "reflect": (lambda p: Point2(-p.x, p.y), 1.0),
        "transpose": (lambda p: Point2(p.y, p.x), 1.0),
    }
    cases = {name: ([f(p) for p in points], factor) for name, (f, factor) in maps.items()}
    cases["permute"] = ([points[i] for i in order], 1.0)
    for name, (mapped, factor) in cases.items():
        slack = 4.0 * math.ulp(max(max(abs(p.x), abs(p.y)) for p in mapped))
        for k, (b, got) in enumerate(zip(want, _bottlenecks(mapped))):
            assert abs(got - factor * b) <= 1e-9 * factor * b + slack, (name, k, b, got)
