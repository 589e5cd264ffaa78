"""SVG rendering of rank-2 complexes and archimedean membership scans.

Everything is drawn by clipping cells to a square viewport.  Every cell of
a rank-2 corner locus states its tie equality, so its clip lies on a line
and is read off it: empty, one point or a segment.  Rationals are converted
to floats at render time only.  Output is deterministic text.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction

from .classify import INSIDE, LOPSIDED, TRIANGLE, _Part
from .errors import DimensionMismatch
from .lattices import identity
from .polyhedral import (
    PolyhedralComplex,
    _end,
    _frame,
    _on_line,
    _point_on,
    intersect,
    polyhedron,
)

# Points per side of an archimedean scan, which tests grid_n squared points.
MAX_GRID_N = 201


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _box(rank, extent):
    eye = identity(rank)
    rows = eye + [[-x for x in r] for r in eye]
    return polyhedron(rank, (), [(r, extent) for r in rows])


def render_complex_svg(C: PolyhedralComplex, extent=4, size=480) -> str:
    """Cells of a corner locus drawn in black on a light grid; extent is the
    half-width of the viewport in lattice units."""
    if C.rank != 2:
        raise DimensionMismatch("can only draw rank-2 complexes")
    extent = Fraction(extent)
    # the viewport's float width and pixel scale must be finite and positive:
    # float(extent) overflows past the floats and is 0.0 below them
    width = 2 * float(extent) if 0 < extent <= sys.float_info.max else 0.0
    if not 0 < width < math.inf or not size / width < math.inf:
        raise ValueError("the viewport half-width must be positive, with a finite float scale")
    scale = size / width

    def sx(x):
        return (float(x) + float(extent)) * scale

    def sy(y):
        return (float(extent) - float(y)) * scale

    box = _box(2, extent)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="{_fmt(sx(-extent))}" y1="{_fmt(sy(0))}" x2="{_fmt(sx(extent))}" '
        f'y2="{_fmt(sy(0))}" stroke="#dddddd" stroke-width="1"/>',
        f'<line x1="{_fmt(sx(0))}" y1="{_fmt(sy(-extent))}" x2="{_fmt(sx(0))}" '
        f'y2="{_fmt(sy(extent))}" stroke="#dddddd" stroke-width="1"/>',
    ]
    for cell in C.cells:
        P = intersect(cell.polyhedron, box)
        frame, st, bounds = _on_line(P, _frame(P, 1))
        if bounds is None:
            continue
        p, q = (_point_on(frame, *_end(st, i)) for i in bounds)
        if p == q:
            parts.append(
                f'<circle cx="{_fmt(sx(p[0]))}" cy="{_fmt(sy(p[1]))}" r="3" fill="black"/>'
            )
            continue
        # first the end where (-b, a) . v is least, for the tie row (a, b)
        (a, b), col = P.eqs[0][0], frame[1]
        if a * col[1] - b * col[0] < 0:
            p, q = q, p
        parts.append(
            f'<line x1="{_fmt(sx(p[0]))}" y1="{_fmt(sy(p[1]))}" '
            f'x2="{_fmt(sx(q[0]))}" y2="{_fmt(sy(q[1]))}" '
            f'stroke="black" stroke-width="2"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_arch_scan_svg(f, center=(0, 0), radius=3, grid_n=41, size=480) -> str:
    """Membership heat scan at the archimedean place over a square grid.

    Certified-inside points (trinomial test) are dark, certified-outside
    white, undecided gray: the point decision of classify_arch_point,
    without the sampler.
    """
    if f.rank != 2:
        raise DimensionMismatch("can only scan rank-2 hypersurfaces")
    if grid_n < 2:
        raise ValueError("a scan needs at least 2 grid points per side")
    if grid_n > MAX_GRID_N:
        raise ValueError(f"a scan takes at most {MAX_GRID_N} grid points per side")
    cx, cy = (Fraction(c) for c in center)
    radius = Fraction(radius)
    part = _Part(f, None, None)
    cellpx = size / grid_n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i in range(grid_n):
        for j in range(grid_n):
            vx = cx - radius + 2 * radius * Fraction(i, grid_n - 1)
            vy = cy - radius + 2 * radius * Fraction(j, grid_n - 1)
            kind = part.outside((vx, vy), None)
            if kind in (TRIANGLE, LOPSIDED):
                continue
            color = "#1f4f8f" if kind == INSIDE else "#bbbbbb"
            x = i * cellpx
            y = (grid_n - 1 - j) * cellpx
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cellpx)}" '
                f'height="{_fmt(cellpx)}" fill="{color}"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
