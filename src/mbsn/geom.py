"""Planar primitives: points, circles, circumcentres, real quartic roots.

Coordinates are plain floats.  Tolerances are scaled to the extent of the
data (1e-9 times a bounding-box diagonal, or the rounding of a triangle's
own relative coordinates), so unit-box and kilometre-scale instances agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

EPS_SCALE = 1e-9

# a bound, with room, on the relative rounding error of a sum of two products
# of coordinate differences: each difference, product and the sum is rounded
# once, 4u in all (u = eps / 2)
_ROUNDING = 4.0 * np.finfo(float).eps


@dataclass(frozen=True, slots=True)
class Point2:
    """A point in the Euclidean plane."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x!r}, {self.y!r})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class Circle:
    """A disk given by centre and radius."""

    center: Point2
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius >= 0.0):
            raise ValueError(f"invalid radius {self.radius!r}")


def distance(p: Point2, q: Point2) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def bbox_diagonal(points: Iterable[Point2]) -> float:
    xs, ys = [], []
    for p in points:
        xs.append(p.x)
        ys.append(p.y)
    if not xs:
        return 0.0
    return math.hypot(max(xs) - min(xs), max(ys) - min(ys))


def geometry_eps(points: Iterable[Point2]) -> float:
    """Scale-relative geometric tolerance for an instance."""
    diag = bbox_diagonal(points)
    return EPS_SCALE * diag if diag > 0.0 else 1e-15


def circumcenter(p1: Point2, p2: Point2, p3: Point2) -> Point2 | None:
    """Centre equidistant from three points, or None when they are collinear:
    the colour-disk candidates' rule, a cross product of relative
    coordinates within the rounding of its two products."""
    ax, ay = p1.x, p1.y
    bx, by = p2.x - ax, p2.y - ay
    cx, cy = p3.x - ax, p3.y - ay
    cross = bx * cy - by * cx
    if abs(cross) <= _ROUNDING * (abs(bx * cy) + abs(by * cx)):
        return None
    d = 2.0 * cross
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (cy * b2 - by * c2) / d
    uy = (bx * c2 - cx * b2) / d
    return Point2(ax + ux, ay + uy)


def _poly_val(coeffs: list[float], x: float) -> float:
    v = 0.0
    for c in coeffs:
        v = v * x + c
    return v


def _poly_der(coeffs: list[float], x: float) -> float:
    n = len(coeffs) - 1
    v = 0.0
    for i, c in enumerate(coeffs[:-1]):
        v = v * x + c * (n - i)
    return v


def real_quartic_roots(c4: float, c3: float, c2: float, c1: float, c0: float) -> tuple[float, ...]:
    """Real roots of a degree-at-most-4 polynomial, ascending, multiplicities collapsed.

    Roots come from the companion-matrix solve, are Newton-polished, and are
    kept only if the residual is small on the polynomial's own scale.  A zero
    leading coefficient is solved as the lower-degree polynomial it is.
    """
    coeffs = [float(c4), float(c3), float(c2), float(c1), float(c0)]
    if max(abs(c) for c in coeffs) == 0.0:
        raise ValueError("all polynomial coefficients are zero")
    while coeffs and coeffs[0] == 0.0:
        coeffs.pop(0)
    deg = len(coeffs) - 1
    if deg <= 0:
        return ()
    top = max(abs(c) for c in coeffs)
    raw = np.roots(coeffs)
    polished: list[tuple[float, float]] = []
    for z in raw:
        if abs(z.imag) > 1e-9 * max(1.0, abs(z)):
            continue
        r = float(z.real)
        for _ in range(12):
            f = _poly_val(coeffs, r)
            fp = _poly_der(coeffs, r)
            if fp == 0.0:
                break
            step = f / fp
            r -= step
            if abs(step) <= 1e-16 * max(1.0, abs(r)):
                break
        resid = abs(_poly_val(coeffs, r))
        scale = top * max(1.0, abs(r)) ** deg
        if resid <= 1e-9 * scale:
            polished.append((r, resid))
    polished.sort()
    out: list[float] = []
    best_resid = math.inf
    for r, resid in polished:
        if out and abs(r - out[-1]) <= 1e-6 * max(1.0, abs(r)):
            if resid < best_resid:
                out[-1] = r
                best_resid = resid
        else:
            out.append(r)
            best_resid = resid
    return tuple(out)
