"""Netlib-style MPS reader.

Lines are tokenized on whitespace, which accepts both free-format files and
the classic fixed-column layout (whose fields are whitespace-separated
anyway). Supported sections: NAME, ROWS, COLUMNS (with MARKER pass-through),
RHS, RANGES, BOUNDS, ENDATA. The first N row is the objective; an RHS entry
on it becomes a constant term of the reported objective (negated, following
the usual solver convention). Writing MPS is out of scope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from facetlp.errors import InconsistentBounds, MalformedInput, MpsSyntaxError
from facetlp.model import GeneralLP

_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_ROW_TYPES = {"N", "E", "L", "G"}
_VALUE = "value"  # the bound line's own value
# the (lower, upper) each bound type sets; None leaves that side as it is
_BOUND_SETS = {
    "UP": (None, _VALUE),
    "LO": (_VALUE, None),
    "FX": (_VALUE, _VALUE),
    "FR": (-np.inf, np.inf),
    "MI": (-np.inf, None),
    "PL": (None, np.inf),
    "BV": (0.0, 1.0),
}
_MARKER_WARNING = "MARKER integrality sections present; continuous relaxation is used"


@dataclass
class MpsDocument:
    """Faithful token capture of one MPS file."""

    name: str = ""
    row_types: dict[str, str] = field(default_factory=dict)  # in file order
    objective_row: str | None = None
    column_order: list[str] = field(default_factory=list)
    entries: dict[tuple[str, str], float] = field(default_factory=dict)
    rhs: dict[str, float] = field(default_factory=dict)
    objective_rhs: float = 0.0
    ranges: dict[str, float] = field(default_factory=dict)
    bounds: list[tuple[str, str, float | None]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def extra_objective_rows(self) -> list[str]:
        """The N rows after the first, which the conversion ignores."""
        return [r for r, t in self.row_types.items() if t == "N" and r != self.objective_row]


def _number(token: str, lineno: int, section: str) -> float:
    """The token's value; an infinity leaves a side open in RANGES and BOUNDS."""
    try:
        value = float(token)
    except ValueError:
        raise MpsSyntaxError(f"bad numeric value {token!r}", lineno) from None
    if math.isnan(value) or (math.isinf(value) and section in ("COLUMNS", "RHS")):
        raise MpsSyntaxError(f"{section} value {token!r} is not finite", lineno)
    return value


def _row_values(doc: MpsDocument, payload: list[str], section: str, lineno: int):
    """The (row, value) pairs of a data line, each row a declared one."""
    if not payload or len(payload) % 2:
        raise MpsSyntaxError(f"{section} line needs (row, value) pairs", lineno)
    for rlabel, value in zip(payload[0::2], payload[1::2]):
        if rlabel not in doc.row_types:
            raise MpsSyntaxError(f"unknown row {rlabel!r}", lineno)
        yield rlabel, _number(value, lineno, section)


def parse_mps(text: str) -> MpsDocument:
    doc = MpsDocument()
    section = None
    # rows and columns are separate name spaces: a column may share a row's name
    columns: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        tokens = raw.split()

        if is_header:
            head = tokens[0].upper()
            if head not in _SECTIONS:
                raise MpsSyntaxError(f"unknown section {tokens[0]!r}", lineno)
            if head == "NAME":
                doc.name = tokens[1] if len(tokens) > 1 else ""
                continue
            if head == "ENDATA":
                break
            section = head
            continue

        if section == "ROWS":
            if len(tokens) != 2:
                raise MpsSyntaxError("ROWS line needs a type and a label", lineno)
            rtype, label = tokens[0].upper(), tokens[1]
            if rtype not in _ROW_TYPES:
                raise MpsSyntaxError(f"unknown row type {tokens[0]!r}", lineno)
            if label in doc.row_types:
                raise MpsSyntaxError(f"duplicate row label {label!r}", lineno)
            if rtype == "N" and doc.objective_row is None:
                doc.objective_row = label
            doc.row_types[label] = rtype

        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1] == "'MARKER'":
                # integrality is ignored; warned once at the first MARKER
                if _MARKER_WARNING not in doc.warnings:
                    doc.warnings.append(_MARKER_WARNING)
                continue
            col = tokens[0]
            if col not in columns:
                columns.add(col)
                doc.column_order.append(col)
            for rlabel, v in _row_values(doc, tokens[1:], section, lineno):
                key = (col, rlabel)
                if key in doc.entries:
                    doc.warnings.append(
                        f"duplicate entry for column {col!r} row {rlabel!r}; summed"
                    )
                    doc.entries[key] += v
                else:
                    doc.entries[key] = v

        elif section in ("RHS", "RANGES"):
            # an optional set name leads the (row, value) pairs, so an odd
            # token count means it is present
            payload = tokens[len(tokens) % 2:]
            is_rhs = section == "RHS"
            values = doc.rhs if is_rhs else doc.ranges
            for rlabel, v in _row_values(doc, payload, section, lineno):
                if is_rhs and rlabel == doc.objective_row:
                    doc.objective_rhs = v
                elif doc.row_types[rlabel] == "N":
                    spare = "spare " if is_rhs else ""
                    doc.warnings.append(f"{section} on {spare}N row {rlabel!r} ignored")
                else:
                    values[rlabel] = v

        elif section == "BOUNDS":
            btype = tokens[0].upper()
            if btype not in _BOUND_SETS:
                raise MpsSyntaxError(f"unknown bound type {tokens[0]!r}", lineno)
            takes_value = _VALUE in _BOUND_SETS[btype]
            # an optional set name leads the column: one field more
            if len(tokens) - takes_value not in (2, 3):
                needs = "a column and value" if takes_value else "a column"
                raise MpsSyntaxError(f"{btype} bound needs {needs}", lineno)
            col = tokens[-1 - takes_value]
            value = _number(tokens[-1], lineno, section) if takes_value else None
            lo, hi = _BOUND_SETS[btype]
            # a lower bound of +inf or an upper one of -inf leaves no finite point
            if (lo is _VALUE and value == math.inf) or (hi is _VALUE and value == -math.inf):
                raise MpsSyntaxError(
                    f"{btype} bound {tokens[-1]!r} leaves column {col!r} no finite value", lineno)
            doc.bounds.append((btype, col, value))

        elif section is None:
            raise MpsSyntaxError("data line before any section header", lineno)

    if doc.objective_row is None:
        raise MpsSyntaxError("no N (objective) row declared")
    return doc


def _interval_for_row(rtype: str, b: float, r: float | None) -> tuple[float, float]:
    """(lo, hi) feasible interval for a row, applying the RANGES convention."""
    if rtype == "E":
        if r is None:
            return b, b
        return b + min(0.0, r), b + max(0.0, r)
    if rtype == "G":
        return b, (b + abs(r)) if r is not None else np.inf
    return (b - abs(r)) if r is not None else -np.inf, b  # L


def to_general_lp(doc: MpsDocument) -> GeneralLP:
    """Assemble the parsed document into a GeneralLP.

    E rows become equality rows (an E row with a range becomes an interval,
    hence two inequality rows); G rows map directly; L rows are negated into
    the uniform >= sense. Default bounds are [0, +inf); MI lowers to -inf
    with the classic implied upper bound of 0 unless another bound type sets
    one; BV relaxes to [0, 1] with a warning.

    The document is left unchanged. Its parse warnings, followed by the
    conversion's own, are returned in ``names["warnings"]``. Bounds that
    leave a column no value are ``InconsistentBounds`` naming the column.
    """
    warnings = list(doc.warnings)
    cols = doc.column_order
    col_pos = {c: i for i, c in enumerate(cols)}
    d = len(cols)

    # a vector per row, N rows included: the objective row's is c
    vectors = {label: np.zeros(d) for label in doc.row_types}
    for (col, row), v in doc.entries.items():
        vectors[row][col_pos[col]] = v
    c = vectors[doc.objective_row]
    for spare in doc.extra_objective_rows:
        if any(row == spare for (_, row) in doc.entries):
            warnings.append(f"spare objective row {spare!r} ignored")

    eq, ineq = [], []  # (row vector, rhs, name) per class
    for label, rtype in doc.row_types.items():
        if rtype == "N":
            continue
        a = vectors[label]
        lo, hi = _interval_for_row(rtype, doc.rhs.get(label, 0.0), doc.ranges.get(label))
        if lo == hi:
            eq.append((a, lo, label))
            continue
        if np.isfinite(lo):
            ineq.append((a, lo, label))
        if np.isfinite(hi):
            ineq.append((-a, -hi, f"{label}(ub)"))

    lower = np.zeros(d)
    upper = np.full(d, np.inf)
    explicit_upper = set()
    mi_cols = set()
    for btype, col, value in doc.bounds:
        if col not in col_pos:
            warnings.append(f"bound on unknown column {col!r} ignored")
            continue
        i = col_pos[col]
        lo, hi = _BOUND_SETS[btype]
        if lo is not None:
            lower[i] = value if lo is _VALUE else lo
        if hi is not None:
            upper[i] = value if hi is _VALUE else hi
            explicit_upper.add(i)
        if btype == "MI":
            mi_cols.add(i)
        elif btype == "UP" and value < 0 and lower[i] == 0.0 and i not in mi_cols:
            # legacy convention: a negative upper bound on a default
            # column frees the lower bound
            lower[i] = -np.inf
            warnings.append(f"negative UP bound on {col!r} lowers its bound to -inf")
        elif btype == "BV":
            warnings.append(f"binary bound on {col!r} relaxed to [0, 1] (LP relaxation)")
    for i in mi_cols - explicit_upper:
        upper[i] = 0.0

    if np.any(lower > upper):
        i = int(np.argmax(lower > upper))
        raise InconsistentBounds(
            f"bounds for column {cols[i]!r} conflict: [{lower[i]}, {upper[i]}]")

    A_eq, b_eq, eq_names = _stack(eq, d)
    A_ineq, b_ineq, ineq_names = _stack(ineq, d)
    names = {
        "problem": doc.name,
        "objective": doc.objective_row,
        "columns": list(cols),
        "eq_rows": eq_names,
        "ineq_rows": ineq_names,
        "warnings": warnings,
    }
    return GeneralLP(
        c=c, A_eq=A_eq, b_eq=b_eq, A_ineq=A_ineq, b_ineq=b_ineq,
        lower=lower, upper=upper, names=names, objective_offset=-doc.objective_rhs,
    )


def _stack(rows: list[tuple[np.ndarray, float, str]], d: int):
    """The matrix, rhs and names of (row vector, rhs, name) triples."""
    A = np.array([a for a, _, _ in rows]) if rows else np.zeros((0, d))
    return A, np.array([b for _, b, _ in rows]), [name for _, _, name in rows]


def read_text(path) -> str:
    """The text of an MPS file; a file that is not text is ``MalformedInput``."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedInput(f"not a text file: {exc}") from None


def read_mps(path) -> GeneralLP:
    """Parse an MPS file and convert it in one step; the warnings of both
    steps are in the result's ``names["warnings"]``."""
    return to_general_lp(parse_mps(read_text(path)))
