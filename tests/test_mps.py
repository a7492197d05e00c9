import gzip

import numpy as np
import pytest

from facetlp.cli import main
from facetlp.errors import InconsistentBounds, MalformedInput, MpsSyntaxError
from facetlp.facet import Status, solve
from facetlp.model import (
    general_lp_from_dict,
    general_lp_to_dict,
    to_standard_general,
)
from facetlp.mps import parse_mps, read_mps, to_general_lp

MINIMAL = """\
NAME          MINI
ROWS
 N  OBJ
 E  R1
COLUMNS
    X1        OBJ       1.0        R1        2.0
RHS
    RHS       R1        4.0
ENDATA
"""


class TestParse:
    def test_minimal_document(self):
        doc = parse_mps(MINIMAL)
        assert doc.name == "MINI"
        assert doc.row_types == {"OBJ": "N", "R1": "E"}
        assert doc.column_order == ["X1"]
        assert doc.entries == {("X1", "OBJ"): 1.0, ("X1", "R1"): 2.0}
        assert doc.rhs == {"R1": 4.0}

    def test_bounds_recorded_per_column(self):
        text = MINIMAL.replace(
            "ENDATA",
            "BOUNDS\n UP BND       X1        9.0\n LO BND       X1        1.0\nENDATA",
        )
        doc = parse_mps(text)
        assert ("UP", "X1", 9.0) in doc.bounds
        assert ("LO", "X1", 1.0) in doc.bounds

    def test_kb2_shaped_fixture_counts(self, fixtures_dir):
        doc = parse_mps((fixtures_dir / "kb2_shape.mps").read_text())
        assert sum(t != "N" for t in doc.row_types.values()) == 43
        assert len(doc.column_order) == 68

    def test_duplicate_entries_are_summed_with_warning(self):
        text = MINIMAL.replace(
            "RHS\n",
            "    X1        R1        3.0\nRHS\n",
        )
        doc = parse_mps(text)
        assert doc.entries[("X1", "R1")] == 5.0
        assert any("summed" in w for w in doc.warnings)

    def test_unknown_row_label(self):
        with pytest.raises(MpsSyntaxError, match="^line 8: unknown row 'R9'$"):
            parse_mps(MINIMAL.replace("RHS       R1", "RHS       R9"))

    def test_unknown_section(self):
        with pytest.raises(MpsSyntaxError, match="^line 2: unknown section 'ROWZ'$"):
            parse_mps(MINIMAL.replace("ROWS", "ROWZ"))

    def test_syntax_error_carries_line_number(self):
        bad = MINIMAL.replace("    X1        OBJ       1.0        R1        2.0",
                              "    X1        OBJ       one")
        with pytest.raises(MpsSyntaxError) as err:
            parse_mps(bad)
        assert err.value.line == 6

    def test_column_may_share_a_row_name(self, column_named_as_row):
        # rows and columns are separate name spaces; such a column used to
        # be dropped, and the conversion failed on it with a bare KeyError
        doc = parse_mps(column_named_as_row)
        assert doc.column_order == ["X1", "X2"]
        p = to_general_lp(doc)
        np.testing.assert_array_equal(p.c, [1.0, -1.0])
        np.testing.assert_array_equal(p.A_ineq, [[-1.0, -1.0]])
        out = solve(to_standard_general(p))
        assert out.status is Status.OPTIMAL and out.objective == -4.0

    def test_file_that_is_not_text_rejected(self, tmp_path):
        path = tmp_path / "x.mps"
        path.write_bytes(gzip.compress(MINIMAL.encode()))
        with pytest.raises(MalformedInput, match="not a text file"):
            read_mps(path)

    def test_marker_sections_skip_with_warning(self):
        text = MINIMAL.replace(
            "COLUMNS\n",
            "COLUMNS\n    M1        'MARKER'   'INTORG'\n",
        )
        doc = parse_mps(text)
        assert any("relaxation" in w for w in doc.warnings)


def _with_bounds(*lines):
    return MINIMAL.replace("ENDATA", "BOUNDS\n" + "".join(f" {ln}\n" for ln in lines) + "ENDATA")


# each refusal: the text, its line (None when it has none) and its message
REFUSALS = [
    (MINIMAL.replace(" E  R1", " Q  R1"), 4, "unknown row type 'Q'"),
    (MINIMAL.replace(" E  R1", " E"), 4, "ROWS line needs a type and a label"),
    (MINIMAL.replace(" E  R1", " E  R1\n L  R1"), 5, "duplicate row label 'R1'"),
    (" X1  OBJ  1.0\n" + MINIMAL, 1, "data line before any section header"),
    (MINIMAL.replace("OBJ       1.0        R1        2.0", "R1")
     .replace("RHS\n    RHS       R1        4.0\n", ""), 6,
     "COLUMNS line needs (row, value) pairs"),
    (_with_bounds("ZZ BND X1 1.0"), 10, "unknown bound type 'ZZ'"),
    (_with_bounds("UP X1"), 10, "UP bound needs a column and value"),
    (_with_bounds("UP BND X1 1.0 2.0"), 10, "UP bound needs a column and value"),
    (_with_bounds("MI"), 10, "MI bound needs a column"),
    (_with_bounds("MI BND X1 extra"), 10, "MI bound needs a column"),
    (MINIMAL.replace("R1        4.0", "R1        four"), 8, "bad numeric value 'four'"),
    (_with_bounds("UP BND X1 x"), 10, "bad numeric value 'x'"),
    # NaN on any line, and an infinity in COLUMNS or RHS, is refused where it is read
    (MINIMAL.replace("R1        2.0", "R1        NaN"), 6, "COLUMNS value 'NaN' is not finite"),
    (MINIMAL.replace("OBJ       1.0", "OBJ       -inf"), 6, "COLUMNS value '-inf' is not finite"),
    (MINIMAL.replace("R1        4.0", "R1        nan"), 8, "RHS value 'nan' is not finite"),
    (MINIMAL.replace("R1        4.0", "R1        inf"), 8, "RHS value 'inf' is not finite"),
    (MINIMAL.replace("R1        4.0", "R1        4.0   OBJ  1e999"), 8,
     "RHS value '1e999' is not finite"),
    (MINIMAL.replace("ENDATA", "RANGES\n    RNG       R1        nan\nENDATA"), 10,
     "RANGES value 'nan' is not finite"),
    (_with_bounds("UP BND X1 -nan"), 10, "BOUNDS value '-nan' is not finite"),
    # an infinite bound that leaves its column no finite point
    (_with_bounds("UP BND X1 -inf"), 10, "UP bound '-inf' leaves column 'X1' no finite value"),
    (_with_bounds("LO BND X1 inf"), 10, "LO bound 'inf' leaves column 'X1' no finite value"),
    (_with_bounds("FX X1 inf"), 10, "FX bound 'inf' leaves column 'X1' no finite value"),
    (_with_bounds("LO BND X1 1.0", "FX BND X1 -Infinity"), 11,
     "FX bound '-Infinity' leaves column 'X1' no finite value"),
    (MINIMAL.replace(" N  OBJ\n", "").replace("OBJ       1.0        ", ""), None,
     "no N (objective) row declared"),
]


@pytest.mark.parametrize("text, line, message", REFUSALS)
def test_each_refusal_names_its_line_and_cause(text, line, message):
    with pytest.raises(MpsSyntaxError) as err:
        parse_mps(text)
    assert type(err.value) is MpsSyntaxError
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_each_warning_in_order():
    text = MINIMAL.replace(" E  R1", " E  R1\n N  FREE2")
    text = text.replace("R1        2.0", "R1        2.0\n    X1        FREE2     1.0")
    text = text.replace("R1        4.0", "R1        4.0        FREE2     1.0")
    text = text.replace("ENDATA", "RANGES\n    RNG       OBJ       1.0\nENDATA")
    text = text.replace("ENDATA", "BOUNDS\n UP BND X1 -1.0\n UP BND ZZ 1.0\nENDATA")
    p = to_general_lp(parse_mps(text))
    assert p.names["warnings"] == [
        "RHS on spare N row 'FREE2' ignored",
        "RANGES on N row 'OBJ' ignored",
        "spare objective row 'FREE2' ignored",
        "negative UP bound on 'X1' lowers its bound to -inf",
        "bound on unknown column 'ZZ' ignored",
    ]
    assert p.lower[0] == -np.inf and p.upper[0] == -1.0


def test_infinite_bounds_and_ranges_leave_a_side_open():
    p = to_general_lp(parse_mps(_with_bounds("LO BND X1 -inf", "UP BND X1 inf")))
    assert p.lower[0] == -np.inf and p.upper[0] == np.inf
    # an E row with an infinite range is the one-sided interval from its rhs
    for r, a, b in (("inf", 2.0, 4.0), ("-inf", -2.0, -4.0)):
        text = MINIMAL.replace("ENDATA", f"RANGES\n    RNG       R1        {r}\nENDATA")
        p = to_general_lp(parse_mps(text))
        assert p.num_eq == 0 and p.names["ineq_rows"] == ["R1" if a > 0 else "R1(ub)"]
        np.testing.assert_array_equal(p.A_ineq, [[a]])
        np.testing.assert_array_equal(p.b_ineq, [b])


@pytest.mark.parametrize("line, triple", [
    ("UP X1 9.0", ("UP", "X1", 9.0)),
    ("LO X1 9.0", ("LO", "X1", 9.0)),
    ("FX X1 9.0", ("FX", "X1", 9.0)),
    ("FR X1", ("FR", "X1", None)),
    ("MI X1", ("MI", "X1", None)),
    ("PL X1", ("PL", "X1", None)),
    ("BV X1", ("BV", "X1", None)),
])
def test_bound_set_name_is_optional(line, triple):
    btype, rest = line.split(" ", 1)
    for form in (line, f"{btype} BND {rest}"):
        assert parse_mps(_with_bounds(form)).bounds == [triple], form


class TestConvert:
    def test_le_row_is_negated(self):
        text = """\
NAME T
ROWS
 N  OBJ
 L  CAP
COLUMNS
    X1        OBJ       1.0        CAP       2.0
RHS
    RHS       CAP       5.0
ENDATA
"""
        p = to_general_lp(parse_mps(text))
        np.testing.assert_array_equal(p.A_ineq, [[-2.0]])
        np.testing.assert_array_equal(p.b_ineq, [-5.0])

    def test_fx_bound_pins_both_sides(self):
        text = MINIMAL.replace("ENDATA", "BOUNDS\n FX BND       X1        3.0\nENDATA")
        p = to_general_lp(parse_mps(text))
        assert p.lower[0] == p.upper[0] == 3.0

    def test_mi_default_upper_is_zero_unless_overridden(self):
        base = MINIMAL.replace("ENDATA", "BOUNDS\n MI BND       X1\nENDATA")
        p = to_general_lp(parse_mps(base))
        assert p.lower[0] == -np.inf and p.upper[0] == 0.0
        overridden = MINIMAL.replace(
            "ENDATA", "BOUNDS\n MI BND       X1\n UP BND       X1        7.0\nENDATA"
        )
        q = to_general_lp(parse_mps(overridden))
        assert q.lower[0] == -np.inf and q.upper[0] == 7.0

    def test_bv_relaxes_to_unit_box_with_warning(self):
        text = MINIMAL.replace("ENDATA", "BOUNDS\n BV BND       X1\nENDATA")
        doc = parse_mps(text)
        p = to_general_lp(doc)
        assert p.lower[0] == 0.0 and p.upper[0] == 1.0
        assert any("relaxation" in w for w in p.names["warnings"])

    def test_conflicting_bounds_raise(self):
        text = MINIMAL.replace(
            "ENDATA",
            "BOUNDS\n LO BND       X1        5.0\n UP BND       X1        1.0\nENDATA",
        )
        with pytest.raises(InconsistentBounds,
                           match=r"^bounds for column 'X1' conflict: \[5\.0, 1\.0\]$"):
            to_general_lp(parse_mps(text))

    def test_objective_rhs_becomes_offset(self):
        text = MINIMAL.replace("    RHS       R1        4.0",
                               "    RHS       R1        4.0        OBJ       2.5")
        p = to_general_lp(parse_mps(text))
        assert p.objective_offset == -2.5

    def test_spare_objective_rows_ignored(self):
        text = MINIMAL.replace(" E  R1", " E  R1\n N  FREE2")
        doc = parse_mps(text)
        p = to_general_lp(doc)
        assert p.num_eq == 1
        assert doc.extra_objective_rows == ["FREE2"]

    def test_range_semantics_on_g_row(self):
        text = """\
NAME T
ROWS
 N  OBJ
 G  FLR
COLUMNS
    X1        OBJ       1.0        FLR       1.0
RHS
    RHS       FLR       2.0
RANGES
    RNG       FLR       3.0
ENDATA
"""
        p = to_general_lp(parse_mps(text))
        # 2 <= x1 <= 5 encoded as x1 >= 2 and -x1 >= -5
        np.testing.assert_array_equal(p.A_ineq, [[1.0], [-1.0]])
        np.testing.assert_array_equal(p.b_ineq, [2.0, -5.0])


class TestFixtures:
    FROZEN_OBJECTIVES = {
        "tiny_eq.mps": 8.0,
        "bounds_all.mps": -9.0,
        "ranges_all.mps": -2.0,
        "fixed_format.mps": 1.0,
        "kb2_shape.mps": -1059.1503425961173,
        "recipe_shape.mps": -266.616,
    }

    def test_every_bound_type_is_exercised_by_the_bundle(self, fixtures_dir):
        seen = set()
        for path in fixtures_dir.glob("*.mps"):
            for btype, _, _ in parse_mps(path.read_text()).bounds:
                seen.add(btype)
        assert {"UP", "LO", "FX", "FR", "MI", "PL", "BV"} <= seen

    def test_bundled_fixtures_solve_to_frozen_objectives(self, fixtures_dir):
        for name, want in self.FROZEN_OBJECTIVES.items():
            p = read_mps(fixtures_dir / name)
            out = solve(to_standard_general(p))
            assert out.status is Status.OPTIMAL, name
            assert out.objective == pytest.approx(want, rel=1e-9), name

    def test_recipe_shaped_instance_value(self, fixtures_dir):
        out = solve(to_standard_general(read_mps(fixtures_dir / "recipe_shape.mps")))
        assert out.objective == pytest.approx(-266.6160, rel=1e-4)

    def test_parse_convert_serialize_reload_resolve_roundtrip(self, fixtures_dir):
        """JSON round-trip must not perturb a single bit of the solve."""
        for path in sorted(fixtures_dir.glob("*.mps")):
            p = read_mps(path)
            first = solve(to_standard_general(p))
            q = general_lp_from_dict(general_lp_to_dict(p))
            second = solve(to_standard_general(q))
            assert first.status == second.status, path.name
            assert first.objective == second.objective, path.name  # bitwise
            np.testing.assert_array_equal(first.x_opt, second.x_opt)


class TestWarnings:
    def test_conversion_leaves_its_document_unchanged(self, fixtures_dir):
        doc = parse_mps((fixtures_dir / "bounds_all.mps").read_text())
        assert doc.warnings == []
        first = to_general_lp(doc)
        second = to_general_lp(doc)
        assert doc.warnings == []
        assert first.names["warnings"] == second.names["warnings"]
        assert len(first.names["warnings"]) == 1
        assert "relaxation" in first.names["warnings"][0]  # the BV bound

    def test_read_mps_returns_the_warnings_solve_prints(self, fixtures_dir, capsys):
        path = fixtures_dir / "bounds_all.mps"
        assert read_mps(path).names["warnings"] == [
            "binary bound on 'XBV' relaxed to [0, 1] (LP relaxation)"
        ]
        main(["solve", str(path)])
        printed = [line.removeprefix(f"warning: {path}: ")
                   for line in capsys.readouterr().err.splitlines()]
        assert printed == read_mps(path).names["warnings"]

    def test_parse_warnings_come_first(self):
        text = MINIMAL.replace("COLUMNS\n", "COLUMNS\n    M1        'MARKER'   'INTORG'\n")
        text = text.replace("ENDATA", "BOUNDS\n BV BND       X1\nENDATA")
        doc = parse_mps(text)
        warnings = to_general_lp(doc).names["warnings"]
        assert warnings[0] == doc.warnings[0] and "MARKER" in warnings[0]
        assert "binary bound" in warnings[1] and len(warnings) == 2
