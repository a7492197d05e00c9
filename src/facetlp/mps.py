"""Netlib-style MPS reader.

Lines are tokenized on whitespace, which accepts both free-format files and
the classic fixed-column layout (whose fields are whitespace-separated
anyway). Supported sections: NAME, ROWS, COLUMNS (with MARKER pass-through),
RHS, RANGES, BOUNDS, ENDATA. The first N row is the objective; an RHS entry
on it becomes a constant term of the reported objective (negated, following
the usual solver convention). Writing MPS is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from facetlp.errors import (
    ConflictingBounds,
    MalformedInput,
    MpsSyntaxError,
    UnknownRowLabel,
    UnknownSection,
)
from facetlp.model import GeneralLP

_SECTIONS = {"NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"}
_ROW_TYPES = {"N", "E", "L", "G"}
_BOUND_TYPES_VALUE = {"UP", "LO", "FX"}
_BOUND_TYPES_FLAG = {"FR", "MI", "PL", "BV"}
_MARKER_WARNING = "MARKER integrality sections present; continuous relaxation is used"


@dataclass
class MpsDocument:
    """Faithful token capture of one MPS file."""

    name: str = ""
    row_types: dict[str, str] = field(default_factory=dict)
    row_order: list[str] = field(default_factory=list)
    objective_row: str | None = None
    extra_objective_rows: list[str] = field(default_factory=list)
    column_order: list[str] = field(default_factory=list)
    entries: dict[tuple[str, str], float] = field(default_factory=dict)
    rhs: dict[str, float] = field(default_factory=dict)
    objective_rhs: float = 0.0
    ranges: dict[str, float] = field(default_factory=dict)
    bounds: list[tuple[str, str, float | None]] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        """Constraint rows, excluding every N row."""
        return sum(1 for t in self.row_types.values() if t != "N")

    @property
    def num_columns(self) -> int:
        return len(self.column_order)


def _number(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MpsSyntaxError(f"bad numeric value {token!r}", lineno) from None


def _row_values(doc: MpsDocument, payload: list[str], section: str, lineno: int):
    """The (row, value) pairs of a data line, each row a declared one."""
    if not payload or len(payload) % 2:
        raise MpsSyntaxError(f"{section} line needs (row, value) pairs", lineno)
    for rlabel, value in zip(payload[0::2], payload[1::2]):
        if rlabel not in doc.row_types:
            raise UnknownRowLabel(f"unknown row {rlabel!r}", lineno)
        yield rlabel, _number(value, lineno)


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
                raise UnknownSection(f"unknown section {tokens[0]!r}", lineno)
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
            if rtype == "N":
                if doc.objective_row is None:
                    doc.objective_row = label
                else:
                    doc.extra_objective_rows.append(label)
            doc.row_types[label] = rtype
            if rtype != "N":
                doc.row_order.append(label)

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
            for rlabel, v in _row_values(doc, payload, section, lineno):
                if section == "RHS":
                    if rlabel == doc.objective_row:
                        doc.objective_rhs = v
                    elif doc.row_types[rlabel] == "N":
                        doc.warnings.append(f"RHS on spare N row {rlabel!r} ignored")
                    else:
                        doc.rhs[rlabel] = v
                else:
                    if doc.row_types[rlabel] == "N":
                        doc.warnings.append(f"RANGES on N row {rlabel!r} ignored")
                    else:
                        doc.ranges[rlabel] = v

        elif section == "BOUNDS":
            btype = tokens[0].upper()
            if btype in _BOUND_TYPES_VALUE:
                if len(tokens) == 4:
                    _, col, value = tokens[1], tokens[2], tokens[3]
                elif len(tokens) == 3:
                    col, value = tokens[1], tokens[2]
                else:
                    raise MpsSyntaxError(f"{btype} bound needs a column and value", lineno)
                doc.bounds.append((btype, col, _number(value, lineno)))
            elif btype in _BOUND_TYPES_FLAG:
                if len(tokens) == 3:
                    col = tokens[2]
                elif len(tokens) == 2:
                    col = tokens[1]
                else:
                    raise MpsSyntaxError(f"{btype} bound needs a column", lineno)
                doc.bounds.append((btype, col, None))
            else:
                raise MpsSyntaxError(f"unknown bound type {tokens[0]!r}", lineno)

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
    if rtype == "L":
        return (b - abs(r)) if r is not None else -np.inf, b
    raise ValueError(rtype)


def to_general_lp(doc: MpsDocument) -> GeneralLP:
    """Assemble the parsed document into a GeneralLP.

    E rows become equality rows (an E row with a range becomes an interval,
    hence two inequality rows); G rows map directly; L rows are negated into
    the uniform >= sense. Default bounds are [0, +inf); MI lowers to -inf
    with the classic implied upper bound of 0 unless another bound type sets
    one; BV relaxes to [0, 1] with a warning.

    The document is left unchanged. Its parse warnings, followed by the
    conversion's own, are returned in ``names["warnings"]``.
    """
    warnings = list(doc.warnings)
    cols = doc.column_order
    col_pos = {c: i for i, c in enumerate(cols)}
    d = len(cols)

    c = np.zeros(d)
    for (col, row), v in doc.entries.items():
        if row == doc.objective_row:
            c[col_pos[col]] = v
    for spare in doc.extra_objective_rows:
        if any(row == spare for (_, row) in doc.entries):
            warnings.append(f"spare objective row {spare!r} ignored")

    row_vectors: dict[str, np.ndarray] = {
        label: np.zeros(d) for label in doc.row_order
    }
    for (col, row), v in doc.entries.items():
        if row in row_vectors:
            row_vectors[row][col_pos[col]] = v

    eq_rows, eq_rhs, eq_names = [], [], []
    ineq_rows, ineq_rhs, ineq_names = [], [], []

    def add_ge(a: np.ndarray, rhs: float, name: str) -> None:
        ineq_rows.append(a)
        ineq_rhs.append(rhs)
        ineq_names.append(name)

    for label in doc.row_order:
        rtype = doc.row_types[label]
        a = row_vectors[label]
        b = doc.rhs.get(label, 0.0)
        r = doc.ranges.get(label)
        lo, hi = _interval_for_row(rtype, b, r)
        if lo == hi:
            eq_rows.append(a)
            eq_rhs.append(lo)
            eq_names.append(label)
            continue
        if np.isfinite(lo):
            add_ge(a, lo, label)
        if np.isfinite(hi):
            add_ge(-a, -hi, f"{label}(ub)")

    lower = np.zeros(d)
    upper = np.full(d, np.inf)
    explicit_upper = set()
    mi_cols = set()
    for btype, col, value in doc.bounds:
        if col not in col_pos:
            warnings.append(f"bound on unknown column {col!r} ignored")
            continue
        i = col_pos[col]
        if btype == "LO":
            lower[i] = value
        elif btype == "UP":
            upper[i] = value
            explicit_upper.add(i)
            if value < 0 and lower[i] == 0.0 and i not in mi_cols:
                # legacy convention: a negative upper bound on a default
                # column frees the lower bound
                lower[i] = -np.inf
                warnings.append(
                    f"negative UP bound on {col!r} lowers its bound to -inf"
                )
        elif btype == "FX":
            lower[i] = value
            upper[i] = value
            explicit_upper.add(i)
        elif btype == "FR":
            lower[i] = -np.inf
            upper[i] = np.inf
            explicit_upper.add(i)
        elif btype == "MI":
            lower[i] = -np.inf
            mi_cols.add(i)
        elif btype == "PL":
            upper[i] = np.inf
            explicit_upper.add(i)
        elif btype == "BV":
            lower[i] = 0.0
            upper[i] = 1.0
            explicit_upper.add(i)
            warnings.append(
                f"binary bound on {col!r} relaxed to [0, 1] (LP relaxation)"
            )
    for i in mi_cols - explicit_upper:
        upper[i] = 0.0

    if np.any(lower > upper):
        i = int(np.argmax(lower > upper))
        raise ConflictingBounds(
            f"bounds for column {cols[i]!r} conflict: [{lower[i]}, {upper[i]}]"
        )

    names = {
        "problem": doc.name,
        "objective": doc.objective_row,
        "columns": list(cols),
        "eq_rows": eq_names,
        "ineq_rows": ineq_names,
        "warnings": warnings,
    }
    return GeneralLP(
        c=c,
        A_eq=np.array(eq_rows) if eq_rows else np.zeros((0, d)),
        b_eq=np.array(eq_rhs),
        A_ineq=np.array(ineq_rows) if ineq_rows else np.zeros((0, d)),
        b_ineq=np.array(ineq_rhs),
        lower=lower,
        upper=upper,
        names=names,
        objective_offset=-doc.objective_rhs,
    )


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
