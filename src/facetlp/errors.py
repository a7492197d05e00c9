"""Exception hierarchy for facetlp."""


class FacetLPError(Exception):
    """Base class for all facetlp errors."""


class DimensionMismatch(FacetLPError):
    """Vector or matrix dimensions are inconsistent with the problem."""


class MalformedInput(FacetLPError):
    """A problem file or document that cannot be read: bytes that are not
    text, text that is not JSON, or a field missing or of the wrong type."""


class NonFiniteData(FacetLPError):
    """NaN (or an infinity outside the bound vectors) found in problem data."""


class InconsistentBounds(FacetLPError):
    """A lower bound exceeds the matching upper bound."""


class NumericalBreakdown(FacetLPError):
    """A singular base, no leaving candidate or an Optimal answer not finite."""


class SingularMatrix(NumericalBreakdown):
    """A square system was (numerically) singular.

    Carries the offending pivot index when known.
    """

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


class NoLeavingCandidate(NumericalBreakdown):
    """No admissible leaving facet or row existed: in the facet solver an
    internal inconsistency, because the infeasibility test runs first; in
    the Dantzig baseline a NaN ratio test."""


class SizeOutOfRange(FacetLPError):
    """Requested generator size falls outside the supported range."""


class UnknownFixture(FacetLPError):
    """Requested cycling fixture id is not bundled."""


class TooLarge(FacetLPError):
    """Brute-force enumeration would exceed the configured cap."""


class MpsSyntaxError(FacetLPError):
    """Malformed MPS input; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownRowLabel(MpsSyntaxError):
    """A COLUMNS/RHS/RANGES entry referenced an undeclared row."""


class UnknownSection(MpsSyntaxError):
    """Unrecognized MPS section header."""


class ConflictingBounds(FacetLPError):
    """BOUNDS entries for one column contradict each other."""
