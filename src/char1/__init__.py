"""Exact models of commutative perfect semifields of characteristic 1.

Two laws everywhere: an idempotent tropical sum (pointwise max, hull of
union) and an abelian addition (function sum, Minkowski sum), with exact
rational arithmetic throughout.  See the README for the module map.
"""

from .congruence import (
    ClosedSet,
    FractionRestriction,
    RestrictionCongruence,
    class_of_zero_contains,
    join,
    meet,
    min_representative,
    quotient_norm,
    related,
    sandwich,
    zariski_laws,
)
from .convex import (
    Direction,
    FracBody,
    Polygon,
    PolygonFractionSemifield,
    char_eval,
    frac_equal,
    frac_oplus,
    hull_union,
    i_invariant,
    i_symmetrize,
    minkowski,
    polar,
    r_norm_body,
    r_norm_euclidean,
    r_norm_frac,
)
from .errors import Char1Error, PreconditionError, SchemaError
from .paf import PAF, PAFSemifield, convex_split
from .scalars import fmt_rat, parse_rat
from .semifield import SCALAR, CharOneSemifield, ScalarTrop
from .spectrum import (
    Character,
    Classification,
    PointEval,
    SupportDir,
    apply_char,
    attain_norm,
    classify,
    prescribe,
    separate,
)
from .valuation import (
    ArcSection,
    CirclePAF,
    Quad,
    SQRT2,
    circle_global_sections_are_constant,
    circle_section_valid,
    convexity_criterion,
    germ,
    glue,
    is_local_unit,
    k_defined_check,
    kink,
    local_morphism_check,
    restrict_to_arc,
    smooth_neighborhood,
    valuation_at,
)

__version__ = "0.1.0"
