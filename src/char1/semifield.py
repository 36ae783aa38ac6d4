"""Core contract: commutative perfect semifields of characteristic 1.

An instance carries two laws on one set of elements: an idempotent
"tropical sum" ``oplus`` (max-like) and an abelian group law ``plus``.
Multiplication by every positive natural is a bijection, which extends to
an exact action of the rationals on every instance; a distinguished
absorbing unit E pins down the spectral norm ``r_norm`` (the least
``t >= 0`` with ``-tE <= X <= tE``).

The derived operations below (order, decomposition, tropical min, the
n-th power identity) are written once against the primitive hooks and
shared by the scalar, piecewise-affine and convex models.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PreconditionError


class CharOneSemifield:
    """Operation table for one semifield instance.

    Subclasses supply the primitive laws plus canonical-form equality and
    (optionally) an exact ``r_norm``; everything else is derived.
    Elements are immutable and every operation is a pure function, so
    instances are safe for unrestricted concurrent use.
    """

    name = "abstract"

    # -- primitive hooks ---------------------------------------------------

    def oplus(self, x, y):
        raise NotImplementedError

    def plus(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def scale(self, q, x):
        """Exact action of the rational q (the Frobenius for q > 0):
        multiplicative in q, additive over +."""
        raise NotImplementedError

    @property
    def zero(self):
        raise NotImplementedError

    @property
    def unit(self):
        """The absorbing unit E, with r_norm(E) = 1."""
        raise NotImplementedError

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
        if n < 0:
            raise PreconditionError(f"nat_mul wants n >= 0, got {n}")
        return self.scale(Fraction(n), x)

    def div_by_nat(self, n: int, x):
        """Inverse of x -> n*x; exact because the action is perfect."""
        if n < 1:
            raise PreconditionError(f"div_by_nat wants n >= 1, got {n}")
        return self.scale(Fraction(1, n), x)

    def power_identity_check(self, n: int, x, y) -> bool:
        """Does n*(x oplus y) equal the oplus-fold of k*x + (n-k)*y, k = 0..n?

        Holds in every lawful instance; exposed so the law suites can
        exercise it on random pairs.
        """
        if n < 1:
            raise PreconditionError(f"power identity wants n >= 1, got {n}")
        left = self.scale(Fraction(n), self.oplus(x, y))
        right = None
        for k in range(n + 1):
            term = self.plus(self.scale(Fraction(k), x), self.scale(Fraction(n - k), y))
            right = term if right is None else self.oplus(right, term)
        return self.eq(left, right)


class ScalarTrop(CharOneSemifield):
    """The rational scalars under (max, +) with unit E = 1.

    The simplest lawful model; its norm is plain absolute value.
    """

    name = "scalar"

    def oplus(self, x, y):
        return max(x, y)

    def plus(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def scale(self, q, x):
        return Fraction(q) * x

    @property
    def zero(self):
        return Fraction(0)

    @property
    def unit(self):
        return Fraction(1)

    def r_norm(self, x):
        return abs(x)

    def random(self, rng):
        return Fraction(rng.randint(-24, 24), rng.randint(1, 8))


SCALAR = ScalarTrop()
