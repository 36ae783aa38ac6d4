"""Exact oracles for the ``large`` workload.

Each check takes the inputs of one char1 call and its output and returns
True when the output is right.  The checks read only the public fields of
the results (``breakpoints``/``pieces`` of a PAF, ``vertices`` of a
polygon, ``pos``/``neg`` of a fraction body) and never call the char1
function they check: values, supports, hulls and sums are recomputed here
with plain integer and ``Fraction`` arithmetic.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

# -- piecewise-affine functions -------------------------------------------------


def paf_at(f, t):
    """The value of a PAF at t, read from its breakpoints and pieces."""
    bps = f.breakpoints
    i = min(max(bisect.bisect_right(bps, t) - 1, 0), len(f.pieces) - 1)
    a, b = f.pieces[i]
    return a * t + b


def paf_canonical(f) -> bool:
    """Strictly increasing breakpoints, continuity, no two equal neighbours."""
    bps, pcs = f.breakpoints, f.pieces
    if len(bps) < 2 or len(pcs) != len(bps) - 1:
        return False
    if any(u >= v for u, v in zip(bps, bps[1:])):
        return False
    for i in range(1, len(pcs)):
        (a0, b0), (a1, b1) = pcs[i - 1], pcs[i]
        if (a0, b0) == (a1, b1) or a0 * bps[i] + b0 != a1 * bps[i] + b1:
            return False
    return True


def piece_at(f, t):
    i = min(max(bisect.bisect_right(f.breakpoints, t) - 1, 0), len(f.pieces) - 1)
    return f.pieces[i]


def crossing(f, g, u, v) -> list:
    """The point strictly inside (u, v) where f = g, if their pieces cross there."""
    (a1, b1), (a2, b2) = piece_at(f, (u + v) / 2), piece_at(g, (u + v) / 2)
    if a1 == a2:
        return []
    x = (b2 - b1) / (a1 - a2)
    return [x] if u < x < v else []


def _grid(*fs):
    return sorted(set().union(*(f.breakpoints for f in fs)))


def _refine(grid, level_points):
    """Add, inside each grid cell, the points returned by level_points(u, v)."""
    out = set(grid)
    for u, v in zip(grid, grid[1:]):
        for x in level_points(u, v):
            if u < x < v:
                out.add(x)
    return sorted(out)


def _same_domain(h, *fs) -> bool:
    return all((h.breakpoints[0], h.breakpoints[-1]) == (f.breakpoints[0], f.breakpoints[-1])
               for f in fs)


def check_oplus(f, g, h) -> bool:
    """h = max(f, g): exact, because between consecutive points of the
    breakpoint grid refined by the f = g crossings every function involved
    is affine, so agreement at the grid points is agreement everywhere."""
    if not (paf_canonical(h) and _same_domain(h, f, g)):
        return False
    return all(paf_at(h, t) == max(paf_at(f, t), paf_at(g, t))
               for t in _refine(_grid(f, g, h), lambda u, v: crossing(f, g, u, v)))


def check_add(f, g, h) -> bool:
    if not (paf_canonical(h) and _same_domain(h, f, g)):
        return False
    return all(paf_at(h, t) == paf_at(f, t) + paf_at(g, t) for t in _grid(f, g, h))


def check_scale(f, q, h) -> bool:
    if not (paf_canonical(h) and _same_domain(h, f)):
        return False
    return all(paf_at(h, t) == q * paf_at(f, t) for t in _grid(f, h))


def check_clamp(f, c, h) -> bool:
    """h = max(min(f, c), -c), checked on the grid refined by f = +-c."""
    if not (paf_canonical(h) and _same_domain(h, f)):
        return False

    def levels(u, v):
        a, b = piece_at(f, (u + v) / 2)
        return [(lv - b) / a for lv in (c, -c)] if a != 0 else []

    return all(paf_at(h, t) == max(min(paf_at(f, t), c), -c)
               for t in _refine(_grid(f, h), levels))


def check_eval(f, t, out) -> bool:
    return out == paf_at(f, t)


def paf_sup_abs(f):
    return max(abs(paf_at(f, t)) for t in f.breakpoints)


def check_r_norm(f, out) -> bool:
    return out == paf_sup_abs(f)


def check_quotient_norm(f, k, out) -> bool:
    best = Fraction(0)
    for a, b in k.intervals:
        pts = [a, b] + [t for t in f.breakpoints if a < t < b]
        best = max(best, max(abs(paf_at(f, t)) for t in pts))
    return out == best


def check_convexity(f, out) -> bool:
    slopes = [a for a, _ in f.pieces]
    return out == all(s <= t for s, t in zip(slopes, slopes[1:]))


def check_attain_paf(f, phi) -> bool:
    t = phi.t
    lo, hi = f.breakpoints[0], f.breakpoints[-1]
    return lo <= t <= hi and abs(paf_at(f, t)) == paf_sup_abs(f)


# -- polygons --------------------------------------------------------------------

AXES = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1))


def _to_ints(*vertex_lists):
    """All vertex lists over one common denominator, as integer pairs."""
    den = 1
    for verts in vertex_lists:
        for x, y in verts:
            den = math.lcm(den, Fraction(x).denominator, Fraction(y).denominator)
    return den, [[(int(x * den), int(y * den)) for x, y in verts] for verts in vertex_lists]


def _supp(ipts, d) -> int:
    p, q = d
    return max(p * x + q * y for x, y in ipts)


def _normals(ipts):
    """Outward edge normals of a CCW integer polygon, both sides of a segment."""
    n = len(ipts)
    out = []
    for i in range(n if n > 2 else n - 1):
        (x0, y0), (x1, y1) = ipts[i], ipts[(i + 1) % n]
        out.append((y1 - y0, x0 - x1))
        if n == 2:
            out.append((y0 - y1, x1 - x0))
    return out


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(ipts):
    """Convex hull of integer points: CCW from the lexicographic minimum,
    collinear points dropped (Andrew's monotone chain)."""
    pts = sorted(set(ipts))
    if len(pts) <= 2:
        return pts
    chain = []
    for seq in (pts, pts[::-1]):
        part = []
        for p in seq:
            while len(part) >= 2 and _cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        chain += part[:-1]
    return chain


def msum(ia, ib):
    return hull([(x1 + x2, y1 + y2) for x1, y1 in ia for x2, y2 in ib])


def polygon_canonical(verts) -> bool:
    """Distinct vertices, CCW from the lexicographic minimum, strictly convex."""
    n = len(verts)
    if n == 0 or len(set(verts)) != n or verts[0] != min(verts):
        return False
    if n >= 3:
        return all(_cross(verts[i], verts[(i + 1) % n], verts[(i + 2) % n]) > 0
                   for i in range(n))
    return True


def check_minkowski(a, b, c) -> bool:
    """Support of c equals the sum of supports on every edge normal of a, b
    and c; the normals of a + b are among those of a and b, so this pins c."""
    if not polygon_canonical(c.vertices):
        return False
    _, (ia, ib, ic) = _to_ints(a.vertices, b.vertices, c.vertices)
    dirs = set(AXES) | set(_normals(ia)) | set(_normals(ib)) | set(_normals(ic))
    return all(_supp(ic, d) == _supp(ia, d) + _supp(ib, d) for d in dirs)


def check_hull_union(a, b, c) -> bool:
    """Vertices of c come from a or b, and its support is the max of theirs
    on every edge normal of a, b and c."""
    if not polygon_canonical(c.vertices):
        return False
    if not set(c.vertices) <= set(a.vertices) | set(b.vertices):
        return False
    _, (ia, ib, ic) = _to_ints(a.vertices, b.vertices, c.vertices)
    dirs = set(AXES) | set(_normals(ia)) | set(_normals(ib)) | set(_normals(ic))
    return all(_supp(ic, d) == max(_supp(ia, d), _supp(ib, d)) for d in dirs)


def check_support(a, psi, out) -> bool:
    p, q = Fraction(psi[0]), Fraction(psi[1])
    return out == max(p * x + q * y for x, y in a.vertices)


def check_r_norm_body_square(a, out) -> bool:
    """With E = [-1, 1]^2 the gauge of a point is max(|x|, |y|)."""
    return out == max(max(abs(x), abs(y)) for x, y in a.vertices)


def _contains_origin(ipts) -> bool:
    if len(ipts) == 1:
        return ipts[0] == (0, 0)
    if len(ipts) == 2:
        (ax, ay), (bx, by) = ipts
        return ax * by == ay * bx and min(ax, bx) <= 0 <= max(ax, bx) \
            and min(ay, by) <= 0 <= max(ay, by)
    return all(_cross(ipts[i], ipts[(i + 1) % len(ipts)], (0, 0)) >= 0
               for i in range(len(ipts)))


def check_frac_oplus(x, y, z) -> bool:
    """z equals (hull((Xp+Yn) u (Yp+Xn)), Xn+Yn) as a difference of bodies:
    Zp + Wn = Wp + Zn, every sum and hull computed here."""
    for side in (z.pos, z.neg):
        if not polygon_canonical(side.vertices):
            return False
    _, (xp, xn, yp, yn, zp, zn) = _to_ints(
        x.pos.vertices, x.neg.vertices, y.pos.vertices, y.neg.vertices,
        z.pos.vertices, z.neg.vertices)
    if not (_contains_origin(zp) and _contains_origin(zn)):
        return False
    wp = hull(msum(xp, yn) + msum(yp, xn))
    wn = msum(xn, yn)
    return msum(zp, wn) == msum(wp, zn)


def frac_norm_square(x) -> Fraction:
    """r(Xp - Xn) against E = [-1, 1]^2, whose support is |p| + |q|.

    On each edge of the diamond |p| + |q| = 1 the difference of supports is
    piecewise linear with kinks only at edge normals of Xp and Xn, so the
    maximum of its modulus sits at one of those or at a diamond vertex.
    """
    den, (ip, ineg) = _to_ints(x.pos.vertices, x.neg.vertices)
    dirs = {(1, 0), (-1, 0), (0, 1), (0, -1)} | set(_normals(ip)) | set(_normals(ineg))
    return max(Fraction(abs(_supp(ip, d) - _supp(ineg, d)), den * (abs(d[0]) + abs(d[1])))
               for d in dirs)


def check_r_norm_frac_square(x, out) -> bool:
    return out == frac_norm_square(x)


def check_attain_frac(x, phi) -> bool:
    """|l_Xp(psi) - l_Xn(psi)| / l_E(psi) at the returned direction is the norm."""
    p, q = phi.psi.p, phi.psi.q
    lp = max(p * vx + q * vy for vx, vy in x.pos.vertices)
    ln = max(p * vx + q * vy for vx, vy in x.neg.vertices)
    return abs(lp - ln) / (abs(p) + abs(q)) == frac_norm_square(x)
