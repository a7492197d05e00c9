"""Exception hierarchy for facetlp."""


class FacetLPError(Exception):
    """Base class for all facetlp errors."""


class DimensionMismatch(FacetLPError):
    """Vector or matrix dimensions are inconsistent with the problem."""


class MalformedInput(FacetLPError):
    """A problem file or document that cannot be read: bytes that are not
    text, text that is not JSON, a field missing or of the wrong type, or a
    JSON bound string that is not an infinity sentinel."""


class NonFiniteData(FacetLPError):
    """NaN (or an infinity outside the bound vectors) found in problem data,
    or data so large that an infinite bound's big-M artificial bound
    overflows (``to_standard_general``)."""


class InconsistentBounds(FacetLPError):
    """A lower bound exceeds the matching upper bound, or a lower bound of
    +inf or an upper bound of -inf leaves no finite value; from MPS, the
    message names the column whose BOUNDS entries conflict."""


class NumericalBreakdown(FacetLPError):
    """A singular base, no leaving candidate, an Optimal answer not finite,
    or an Optimal basic solution of ``dantzig_solve`` that is not feasible."""


class SingularMatrix(NumericalBreakdown):
    """A square system was (numerically) singular.

    Carries the offending pivot index when known.
    """

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


class NoLeavingCandidate(NumericalBreakdown):
    """No admissible leaving facet or row existed: a NaN ratio test, in
    either solver, or in the facet solver a NaN expansion entry on an
    inequality slot, which fails both the ratio and infeasibility tests."""


class SizeOutOfRange(FacetLPError):
    """Requested generator size falls outside the supported range."""


class UnknownFixture(FacetLPError):
    """Requested cycling fixture id is not bundled."""


class TooLarge(FacetLPError):
    """Brute-force enumeration would exceed the configured cap."""


class MpsSyntaxError(FacetLPError):
    """Malformed MPS input, an unknown section or row label included;
    carries the 1-based line number when there is one."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

