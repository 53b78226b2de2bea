"""Exception hierarchy for the certified-geometry engine."""


class ArchpiError(Exception):
    """Base class for all engine errors."""


class DivByZeroInterval(ArchpiError):
    """Division by an interval whose hull contains zero."""


class NegativeSqrt(ArchpiError):
    """Square root of an interval with a negative lower endpoint."""


class UnsupportedSeed(ArchpiError):
    """Seed edge requested for a base polygon outside {3, 4, 6}."""


class InvalidChord(ArchpiError):
    """Chord length outside the open interval (0, 2)."""


class InvalidEdge(ArchpiError):
    """Nonpositive circumscribed edge length."""


class IterationCapExceeded(ArchpiError):
    """Adaptive refinement loop hit its iteration cap."""


class AntipodalTangents(ArchpiError):
    """Tangent lines at (possibly) antipodal points do not certifiably meet."""


class BisectionStall(ArchpiError):
    """Certified bisection stopped shrinking before reaching tolerance."""


class NonCoprime(ArchpiError):
    """Winding step count and closure count share a common factor."""


class ChordTooLong(ArchpiError):
    """Requested winding chord spans at least half of the polygon."""


class ClosureFailure(ArchpiError):
    """Closed chord-stepping path certifiably fails to return to its start."""


class HypothesisUnordered(ArchpiError):
    """The two chords being compared cannot be certifiably ordered."""


class ThetaOutOfRange(ArchpiError):
    """Arclength argument outside the supported range."""


class PreconditionViolation(ArchpiError):
    """Operation called with arguments violating a stated precondition."""


class PrecisionCeiling(PreconditionViolation):
    """Working precision above the most an algorithm takes."""


class AmbiguousCrossing(PreconditionViolation):
    """A winding crossing test cannot be certified at this precision."""


#: errors that mean the working precision was too low for the operands, not
#: that an input was bad: a run that meets one is inconclusive
SHORTFALLS = (
    AmbiguousCrossing,
    AntipodalTangents,
    BisectionStall,
    DivByZeroInterval,
    HypothesisUnordered,
    InvalidChord,
    IterationCapExceeded,
    NegativeSqrt,
)
