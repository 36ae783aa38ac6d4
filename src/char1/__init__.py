"""Exact models of commutative perfect semifields of characteristic 1.

Two laws everywhere: an idempotent tropical sum (pointwise max, hull of
union) and an abelian addition (function sum, Minkowski sum), with exact
rational arithmetic throughout.  See the README for the module map.

The package loads its submodules on first use: ``import char1`` imports
none of them, and ``char1.PAF`` imports ``char1.paf`` (PEP 562).
"""

import importlib

# exported name -> the submodule that defines it
_SUBMODULE = {
    **dict.fromkeys(("ClosedSet", "FractionRestriction", "RestrictionCongruence",
                     "class_of_zero_contains", "join", "meet", "min_representative",
                     "quotient_norm", "related", "zariski_laws"), "congruence"),
    **dict.fromkeys(("Direction", "FracBody", "Polygon", "PolygonFractionSemifield",
                     "char_eval", "frac_equal", "frac_oplus", "hull_union", "i_invariant",
                     "i_symmetrize", "minkowski", "polar", "r_norm_body", "r_norm_euclidean",
                     "r_norm_frac"), "convex"),
    **dict.fromkeys(("Char1Error", "PreconditionError", "SchemaError"), "errors"),
    **dict.fromkeys(("PAF", "PAFSemifield", "convex_split"), "paf"),
    **dict.fromkeys(("fmt_rat", "parse_rat"), "scalars"),
    **dict.fromkeys(("SCALAR", "CharOneSemifield", "ScalarTrop"), "semifield"),
    **dict.fromkeys(("Character", "Classification", "PointEval", "SupportDir", "apply_char",
                     "attain_norm", "classify", "prescribe", "separate"), "spectrum"),
    **dict.fromkeys(("ArcSection", "CirclePAF", "Quad", "SQRT2", "circle_section_valid",
                     "convexity_criterion", "germ", "glue", "is_local_unit", "kink",
                     "restrict_to_arc", "smooth_neighborhood", "valuation_at"), "valuation"),
}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    # Not cached in the module namespace: every read goes to the submodule,
    # so a name rebound there is seen here too.
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
