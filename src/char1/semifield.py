"""Core contract: commutative perfect semifields of characteristic 1.

An instance carries two laws on one set of elements: an idempotent
"tropical sum" ``oplus`` (max-like) and an abelian group law ``plus``.
Multiplication by every positive natural is a bijection, which extends to
an exact action of the rationals on every instance; a distinguished
absorbing unit E pins down the spectral norm ``r_norm`` (the least
``t >= 0`` with ``-tE <= X <= tE``).

The derived operations below (order, decomposition, tropical min, the
n-th power identity) are written once against the primitive hooks and
shared by the scalar, piecewise-affine and convex models.  ``LAWS`` states
the laws of the contract once, as predicates on an instance.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError
from .scalars import as_nat, as_rat, check_model


class CharOneSemifield:
    """Operation table for one semifield instance.

    The primitive laws check that x is of the class of ``zero``, then call
    the element's own ``x.oplus(y)``, ``x + y``, ``-x`` or ``x.scale(q)``,
    which checks the other operand; a model whose elements lack them
    overrides the hook.  Each model sets ``zero`` and the absorbing unit E,
    with r_norm(E) = 1, as plain attributes, and supplies canonical-form
    equality and (optionally) an exact ``r_norm``; everything else is
    derived.  Elements are immutable and every operation is a pure
    function, so instances are safe for unrestricted concurrent use.
    """

    name = "abstract"
    zero: object
    unit: object

    # -- primitive hooks ---------------------------------------------------

    def oplus(self, x, y):
        check_model(x, self.zero.__class__)
        return x.oplus(y)

    def plus(self, x, y):
        check_model(x, self.zero.__class__)
        return x + y

    def neg(self, x):
        check_model(x, self.zero.__class__)
        return -x

    def scale(self, q, x):
        """Exact action of the rational q (the Frobenius for q > 0):
        multiplicative in q, additive over +."""
        check_model(x, self.zero.__class__)
        return x.scale(q)

    def eq(self, x, y) -> bool:
        return x == y

    def r_norm(self, x) -> Fraction:
        """Least t >= 0 with -tE <= x <= tE; r(E) = 1, r(x) = 0 iff x = 0."""
        raise PreconditionError(f"{self.name}: no exact norm procedure")

    def random(self, rng):
        """Draw a random element (used by the law suites)."""
        raise NotImplementedError

    # -- derived operations --------------------------------------------------

    def minus(self, x, y):
        return self.plus(x, self.neg(y))

    def leq(self, x, y) -> bool:
        """Canonical partial order: x <= y iff x oplus y = y."""
        return self.eq(self.oplus(x, y), y)

    def pos_part(self, x):
        return self.oplus(self.zero, x)

    def neg_part(self, x):
        return self.oplus(self.zero, self.neg(x))

    def decompose(self, x):
        """Split x into (pos, neg) with x = pos - neg and pos, neg >= 0."""
        return self.pos_part(x), self.neg_part(x)

    def tropical_min(self, x, y):
        """The lower envelope -((-x) oplus (-y))."""
        return self.neg(self.oplus(self.neg(x), self.neg(y)))

    def nat_mul(self, n: int, x):
        return self.scale(Fraction(as_nat(n, 0)), x)

    def div_by_nat(self, n: int, x):
        """Inverse of x -> n*x; exact because the action is perfect."""
        return self.scale(Fraction(1, as_nat(n, 1)), x)

    def power_identity_check(self, n: int, x, y) -> bool:
        """Does n*(x oplus y) equal the oplus-fold of k*x + (n-k)*y, k = 0..n?

        Holds in every lawful instance; exposed so the law suites can
        exercise it on random pairs.
        """
        n = as_nat(n, 1)
        left = self.scale(Fraction(n), self.oplus(x, y))
        right = None
        for k in range(n + 1):
            term = self.plus(self.scale(Fraction(k), x), self.scale(Fraction(n - k), y))
            right = term if right is None else self.oplus(right, term)
        return self.eq(left, right)


class ScalarTrop(CharOneSemifield):
    """The rational scalars under (max, +) with unit E = 1.

    The simplest lawful model; its norm is plain absolute value.  Its
    elements are ``Fraction``s, read by ``as_rat``, so it has its own hooks.
    """

    name = "scalar"
    zero = Fraction(0)
    unit = Fraction(1)

    def oplus(self, x, y):
        return max(as_rat(x), as_rat(y))

    def plus(self, x, y):
        return as_rat(x) + as_rat(y)

    def neg(self, x):
        return -as_rat(x)

    def scale(self, q, x):
        return as_rat(q) * as_rat(x)

    def r_norm(self, x):
        return abs(as_rat(x))

    def random(self, rng):
        return Fraction(rng.randint(-24, 24), rng.randint(1, 8))


SCALAR = ScalarTrop()


# -- the laws every instance satisfies ---------------------------------------------
#
# Each law is a predicate law(ops, *args) on one instance's operation table.
# Arguments follow one naming convention: x y z x2 y2 are elements, n is a
# natural >= 1, q a rational, t > 0 and dt >= 0 rationals.  The semifield,
# decomposition and norm suites of ``char1.laws`` check every law on every
# model; the hypothesis tests check them on the scalars.


def _decomposition(ops, x) -> bool:
    pos, neg = ops.decompose(x)
    return ops.eq(ops.minus(pos, neg), x) and ops.leq(ops.zero, pos) and ops.leq(ops.zero, neg)


def _order_monotonicity(ops, x, y, y2, t) -> bool:
    big = ops.oplus(x, y)  # x <= big
    return (ops.leq(ops.plus(x, y2), ops.plus(big, y2))
            and ops.leq(ops.oplus(x, y2), ops.oplus(big, y2))
            and ops.leq(ops.scale(t, x), ops.scale(t, big)))


def _scaling_monotonicity(ops, t, dt, x) -> bool:
    pos = ops.pos_part(x)
    return ops.leq(ops.scale(t, pos), ops.scale(t + dt, pos))


LAWS = {
    # ⊕ is commutative, associative and idempotent, + is an abelian group
    # law, and + distributes over ⊕
    "semifield law": lambda ops, x, y, z: (
        ops.eq(ops.oplus(x, y), ops.oplus(y, x))
        and ops.eq(ops.oplus(ops.oplus(x, y), z), ops.oplus(x, ops.oplus(y, z)))
        and ops.eq(ops.oplus(x, x), x)
        and ops.eq(ops.plus(x, y), ops.plus(y, x))
        and ops.eq(ops.plus(ops.plus(x, y), z), ops.plus(x, ops.plus(y, z)))
        and ops.eq(ops.plus(x, ops.zero), x)
        and ops.eq(ops.plus(x, ops.neg(x)), ops.zero)
        and ops.eq(ops.plus(x, ops.oplus(y, z)), ops.oplus(ops.plus(x, y), ops.plus(x, z)))),
    # characteristic 1: n(x ⊕ y) is the ⊕-fold of kx + (n-k)y, k = 0..n
    "power identity": lambda ops, n, x, y: ops.power_identity_check(n, x, y),
    # perfect: multiplication by n is a bijection
    "perfectness": lambda ops, n, x: (ops.eq(ops.div_by_nat(n, ops.nat_mul(n, x)), x)
                                      and ops.eq(ops.nat_mul(n, ops.div_by_nat(n, x)), x)),
    "decomposition": _decomposition,
    "sum = max + min": lambda ops, x, y: ops.eq(
        ops.plus(x, y), ops.plus(ops.oplus(x, y), ops.tropical_min(x, y))),
    "r(E) = 1": lambda ops: ops.r_norm(ops.unit) == 1,
    "r(0) = 0": lambda ops: ops.r_norm(ops.zero) == 0,
    "subadditivity": lambda ops, x, y: (
        ops.r_norm(ops.plus(x, y)) <= ops.r_norm(x) + ops.r_norm(y)),
    "homogeneity": lambda ops, q, x: ops.r_norm(ops.scale(q, x)) == abs(q) * ops.r_norm(x),
    "ultrametric": lambda ops, x, y, x2, y2: (
        ops.r_norm(ops.minus(ops.oplus(x, y), ops.oplus(x2, y2)))
        <= max(ops.r_norm(ops.minus(x, x2)), ops.r_norm(ops.minus(y, y2)))),
    "spectral split": lambda ops, x: (
        ops.r_norm(x) == max(ops.r_norm(ops.pos_part(x)), ops.r_norm(ops.neg_part(x)))),
    "order monotonicity": _order_monotonicity,
    "scaling monotonicity": _scaling_monotonicity,
}
