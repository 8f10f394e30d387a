"""Exception taxonomy for the library.

Each failure mode a caller can reasonably branch on gets its own class.
The command line front end maps these onto its exit codes; everything
derives from GrsDualError so blanket handling stays easy.
"""


class GrsDualError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------- fields

class TableLimitExceeded(GrsDualError):
    """Field order is above the configured discrete-log table limit."""


class ZeroArgument(GrsDualError):
    """Operation (character, inverse, ...) is undefined at zero."""


class NotASubfield(GrsDualError):
    """Requested subfield order is not p**d with d dividing m."""


class DependentBasis(GrsDualError):
    """Subspace basis vectors are linearly dependent over the subfield."""


# ---------------------------------------------------------------- codes

class DuplicatePoints(GrsDualError):
    """Evaluation points are not pairwise distinct."""


class OddLength(GrsDualError):
    """Operation requires an even number of evaluation points."""


class EvenLength(GrsDualError):
    """Operation requires an odd number of evaluation points."""


class ShapeMismatch(GrsDualError):
    """Matrix shape is not the k x 2k of a self-dual candidate."""


class EnumerationTooLarge(GrsDualError):
    """Requested exhaustive check exceeds its enumeration limit."""


class SchemaError(GrsDualError):
    """Serialized object does not match the expected wire format."""


# ---------------------------------------------------------------- lifts

class HypothesisViolated(GrsDualError):
    """A construction precondition fails; the message names it.

    The specific precondition errors below subclass this, so callers
    that only care about "the parameters do not qualify" can catch the
    whole family here.
    """


class CompositeCharacteristic(HypothesisViolated):
    """Characteristic is not an odd prime, or an order no prime power."""


class NonPositiveDegree(HypothesisViolated):
    """Extension degree of a field is below 1."""


def _require(cond, message):
    """Raise HypothesisViolated(message) unless cond holds."""
    if not cond:
        raise HypothesisViolated(message)


class BasePointsNotInSubfield(HypothesisViolated):
    """Lift base points must lie in the stated subfield."""


class ShiftInSubspace(HypothesisViolated):
    """Coset shift must lie outside the spanned subspace."""


class BaseNotSelfDual(HypothesisViolated):
    """Lift input does not satisfy the multiplier criterion."""


class ParityCondition(HypothesisViolated):
    """Extended lift needs q = 1 (mod 4) or even subspace dimension."""


class NotInSubgroup(HypothesisViolated):
    """Coset lift base points must lie in the index-e1 subgroup."""


class E1NotOdd(HypothesisViolated):
    """Multiplicative coset expansion requires an odd index e1."""


class CharacterCondition(HypothesisViolated):
    """Required quadratic-character value is -1."""


class TooManyCosets(HypothesisViolated):
    """More cosets requested than distinct ones exist."""


class GreedyFailed(GrsDualError):
    """Greedy clique extension ran out of candidates."""


class VerificationFailed(GrsDualError):
    """A constructed object failed its own verification: a bug signal."""
