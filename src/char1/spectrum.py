"""Characters and the evaluation map into (R, max, +).

A normalized character sends the tropical sum to max, addition to
addition, and the unit E to 1.  In the piecewise-affine model every point
of the domain evaluates to one; in the convex model every direction does,
after dividing by the support of the unit body.  This module certifies
soundness (the axioms, |phi(X)| <= r(X)), exact norm attainment,
separation of distinct characters, and two prescribed values at two
characters (``prescribe``); completeness of the spectrum is a
theorem about the models, not a runtime check.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from .errors import PreconditionError
from .paf import PAF
from .scalars import Value, as_pair, as_rat, check_model, fmt_rat
from .semifield import CharOneSemifield


def __getattr__(name):  # ``char_eval`` of the convex model, re-exported on first use
    if name != "char_eval":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .convex import char_eval
    return char_eval


class PointEval(Value):
    """Evaluation at a point of the interval (the PAF model)."""

    t: Fraction

    def __post_init__(self, t):
        return {"t": as_rat(t)}

    def to_json(self) -> dict:
        return {"kind": "point", "t": fmt_rat(self.t)}


class SupportDir(Value):
    """Support evaluation along a direction, normalized by the unit body."""

    psi: Direction
    unit: Polygon

    def to_json(self) -> dict:
        return {"kind": "dir", "psi": self.psi.to_json()}


Character = PointEval | SupportDir


def apply_char(phi: Character, x) -> Fraction:
    """phi(x); raises on a model mismatch."""
    if isinstance(phi, PointEval):
        if not isinstance(x, PAF):
            raise PreconditionError("point characters apply to piecewise-affine functions")
        return x.eval(phi.t)
    if isinstance(phi, SupportDir):
        from .convex import FracBody, Polygon, char_eval
        if not isinstance(x, (Polygon, FracBody)):
            raise PreconditionError("direction characters apply to convex bodies")
        return char_eval(phi.psi, x, phi.unit)
    raise PreconditionError(f"not a character: {phi!r}")


def attain_norm(x, unit: Polygon | None = None) -> Character:
    """A character with |phi(x)| = r(x), chosen deterministically.

    PAF: the smallest breakpoint where |x| peaks.  Convex body or fraction
    pair: the first candidate direction (facet normals of the unit, then
    edge normals of the body) realizing the norm.  For x = 0 any character
    attains the norm; a designated default is returned under a warning.
    """
    if isinstance(x, PAF):
        i, peak = x._peak()
        if peak == 0:
            warnings.warn("norm attainment on the zero element is degenerate")
        return PointEval(x.breakpoints[i])

    from .convex import DEFAULT_UNIT, Direction, FracBody, Polygon, facets, norm_ray
    e = unit if unit is not None else DEFAULT_UNIT
    facets(e)  # reject a bad unit body before looking at x
    if isinstance(x, Polygon):
        x = FracBody.of(x)
    if not isinstance(x, FracBody):
        raise PreconditionError(f"no norm-attainment rule for {type(x).__name__}")
    ray, peak = norm_ray(x, e)
    if peak == 0:
        warnings.warn("norm attainment on the zero element is degenerate")
    return SupportDir(Direction(*ray), e)


class Classification(Value):
    nonneg: bool
    regular: bool
    absorbing: bool
    epsilon: Fraction | None


def classify(f: PAF) -> Classification:
    """Geometric classification in the PAF model.

    Nonnegative iff the minimum value is >= 0; regular iff the function
    never vanishes (by continuity: 0 is not between min and max);
    absorbing iff the minimum is strictly positive, and then every
    character value is at least that minimum.
    """
    check_model(f, PAF)
    m, big = f.min_value(), f.max_value()
    return Classification(
        nonneg=m >= 0,
        regular=not (m <= 0 <= big),
        absorbing=m > 0,
        epsilon=m if m > 0 else None,
    )


def separate(phi1: Character, phi2: Character, domain=(0, 1)):
    """An element on which the two characters disagree.

    Point characters are separated by the identity function; direction
    characters by one of the four axis segments [0, +-e1], [0, +-e2]
    (four probes pin down a ray up to positive scaling).
    """
    if isinstance(phi1, PointEval) and isinstance(phi2, PointEval):
        if phi1 == phi2:
            raise PreconditionError("characters coincide")
        lo, hi = as_pair(domain, "a domain")
        if not (lo <= phi1.t <= hi and lo <= phi2.t <= hi):
            raise PreconditionError("characters live outside the requested domain")
        return PAF.affine(1, 0, lo, hi)
    if isinstance(phi1, SupportDir) and isinstance(phi2, SupportDir):
        if phi1.unit != phi2.unit:
            raise PreconditionError("characters normalized against different units")
        if phi1 == phi2:
            raise PreconditionError("characters coincide")
        from .convex import _AXIS_PROBES
        for a in _AXIS_PROBES:
            if apply_char(phi1, a) != apply_char(phi2, a):
                return a
        raise AssertionError("unreachable: axis probes separate distinct rays")
    raise PreconditionError("characters from different models cannot be separated")


def prescribe(ops, phi1: Character, phi2: Character, z, alpha, beta):
    """The element lambda*z + mu*E sending (phi1, phi2) to (alpha, beta).

    Requires phi1(z) != phi2(z); the coefficients solve the 2x2 rational
    system, so the prescribed values are exact.
    """
    if not isinstance(ops, CharOneSemifield):
        raise PreconditionError(f"expected a semifield's operation table, got {type(ops).__name__}")
    a1, a2 = apply_char(phi1, z), apply_char(phi2, z)
    if a1 == a2:
        raise PreconditionError("z does not separate the characters")
    alpha, beta = as_rat(alpha), as_rat(beta)
    lam = (alpha - beta) / (a1 - a2)
    mu = (-a2 * alpha + a1 * beta) / (a1 - a2)
    return ops.plus(ops.scale(lam, z), ops.scale(mu, ops.unit))
