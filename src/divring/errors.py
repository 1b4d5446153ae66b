"""Exception hierarchy shared by all divring modules."""

from __future__ import annotations


class DivRingError(Exception):
    """Base class for all domain errors raised by this package."""


# ---------------------------------------------------------------------------
# algebra construction and arithmetic


class AssociativityViolation(DivRingError):
    """The structural-constant tensor fails the associativity constraint.

    Carries the free indices (i, m, n, k) of the failing contraction
    sum_j C[i][m][j] C[j][n][k] = sum_j C[m][n][j] C[i][j][k], that is
    the e_k coefficient of (e_i e_m) e_n versus e_i (e_m e_n).
    """

    def __init__(self, i, m, n, k):
        self.indices = (i, m, n, k)
        super().__init__(
            f"associativity constraint fails at indices (i={i}, m={m}, n={n}, k={k})"
        )


class UnitViolation(DivRingError):
    """The designated unit basis vector is not a two-sided unit."""


class AlgebraMismatch(DivRingError):
    """Operands belong to different algebras."""


class ZeroElement(DivRingError):
    """Inversion of the zero element was requested."""


class NotInvertible(DivRingError):
    """The element has no two-sided inverse in its algebra."""


class SingularBasisChange(DivRingError):
    """The basis-change matrix is not invertible over the rationals."""


# ---------------------------------------------------------------------------
# bilinear / quadratic forms


class DimensionMismatch(DivRingError):
    """Coordinate or matrix dimensions do not agree."""


class PivotConditionFailed(DivRingError):
    """Completing the square is blocked: the pivot's two-sided multiplication
    equation has no solution for some cross coefficient."""

    def __init__(self, pivot_index, other_index):
        self.pivot_index = pivot_index
        self.other_index = other_index
        super().__init__(
            f"no completion covector for pivot variable {pivot_index} "
            f"against variable {other_index}"
        )


class ZeroDiagonalEntry(DivRingError):
    """A sign is required for a diagonal entry that is zero."""


# ---------------------------------------------------------------------------
# universal-algebra representations


class NotEndomorphism(DivRingError):
    """An action transformation does not respect the acted algebra's operations."""

    def __init__(self, actor, op, arguments):
        # the witness is not kept in `args`: BaseException owns that field
        # and its __str__ reads the message from it
        self.actor = actor
        self.op = op
        self.arguments = arguments
        super().__init__(
            f"transformation of {actor!r} breaks operation {op!r} at {arguments!r}"
        )


class LawViolation(DivRingError):
    """A declared representation-kind law fails on a concrete witness."""

    def __init__(self, law, witness=None):
        self.law = law
        self.witness = witness
        super().__init__(f"law {law!r} fails at {witness!r}")


class MissingGenerator(DivRingError):
    """Word evaluation met a generator with no assigned image."""


class NotGenerating(DivRingError):
    """The supplied set does not generate the whole carrier."""


class NotRepEndomorphism(DivRingError):
    """The map is not an endomorphism of the representation."""


class GeneratorMismatch(DivRingError):
    """Coordinate families are not relative to the same generating set."""


class NotMorphism(DivRingError):
    """The map pair is not a morphism of representations."""


class NotSingleTransitive(DivRingError):
    """The operation requires a single transitive representation."""


# ---------------------------------------------------------------------------
# towers


class ChainMismatch(DivRingError):
    """Adjacent tower levels do not share the intermediate algebra."""

    def __init__(self, level):
        self.level = level
        super().__init__(
            f"acted algebra of level {level} differs from acting algebra "
            f"of level {level + 1}"
        )


class NoIdentityPreimage(DivRingError):
    """The supplied element does not act as the identity transformation."""


# ---------------------------------------------------------------------------
# affine geometry


class SingularLinearPart(DivRingError):
    """The linear part of an affine map is not invertible over the ring."""


class NotDivisionRing(DivRingError):
    """Row elimination met a nonzero entry without an inverse."""


# ---------------------------------------------------------------------------
# polynomial calculus


class NoInverseChart(DivRingError):
    """The chart has no stored inverse and none could be derived."""


# ---------------------------------------------------------------------------
# parsing


class ParseError(DivRingError):
    """Malformed textual input (element literal, polynomial or file)."""
