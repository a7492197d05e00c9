import csv
import dataclasses
import gzip
import json
import time
import warnings

import numpy as np
import pytest

from facetlp import cli, generators
from facetlp.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_ITERATION_LIMIT,
    EXIT_NUMERICAL,
    EXIT_OPTIMAL,
    EXIT_UNBOUNDED,
    EXIT_VERIFY_MISMATCH,
    main,
)
from facetlp.errors import NoLeavingCandidate, SingularMatrix
from facetlp.facet import PivotRule, Status
from facetlp.generators import (
    cycling_fixture,
    klee_minty_v1,
    klee_minty_v2,
    random_instance,
)
from facetlp.model import GeneralLP, general_lp_to_dict, save_general_lp, to_standard_general
from facetlp.reference import brute_force_optimal


@pytest.fixture
def km2_d10(tmp_path):
    path = tmp_path / "km2_d10.json"
    save_general_lp(klee_minty_v2(10), path)
    return path


def _read_csv(path):
    comments, rows = [], []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line)
        fh.seek(0)
        rows = list(csv.DictReader(l for l in fh if not l.startswith("#")))
    return comments, rows


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["solve", "km2.json", "--rule", "bogus"],
        ["solve", "km2.json", "--max-iter", "1.5"],
        ["bench", "--suite", "km1", "--sizes", "a:b"],
    ], ids=["rule", "max-iter", "sizes"])
    def test_usage_error_is_input_error_not_infeasible(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INPUT_ERROR != EXIT_INFEASIBLE
        assert captured.out == "" and "error: argument" in captured.err

    @pytest.mark.parametrize("argv", [
        ["solve", "KM2"],
        ["bench", "--suite", "km2", "--sizes", "3:3"],
        ["verify", "--count", "1", "--d", "3", "--n", "4"],
    ], ids=["solve", "bench", "verify"])
    def test_tolerance_flag_is_a_usage_error(self, capsys, km2_d10, argv):
        # tolerances are pinned in code; an absolute width on every row once
        # made solve answer Unbounded on the km2 cube at --tol-feas=1e99
        argv = [str(km2_d10) if a == "KM2" else a for a in argv]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol-feas=1e-6"])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert "unrecognized arguments: --tol-feas=1e-6" in captured.err

    @pytest.mark.parametrize("argv", [
        ["solve", "KM2", "--max-iter", "-5"],
        ["bench", "--suite", "km1", "--max-iter", "-1"],
        ["verify", "--max-iter", "-1"],
    ], ids=["solve", "bench", "verify"])
    def test_negative_max_iter_is_input_error(self, capsys, km2_d10, argv):
        # it used to be taken as a limit of 0 pivots
        argv = [str(km2_d10) if a == "KM2" else a for a in argv]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --max-iter must be nonnegative, got " + argv[-1] + "\n"

    @pytest.mark.parametrize("argv", [
        ["generate", "random", "--d", "0"],
        ["generate", "random", "--d", "9"],
        ["generate", "random", "--n", "-1"],
        ["verify", "--count", "1", "--d", "0"],
        ["verify", "--count", "1", "--m", "-1"],
        ["verify", "--count", "1", "--n", "-1"],
    ], ids=["generate-d0", "generate-d9", "generate-n-1", "verify-d0", "verify-m-1",
            "verify-n-1"])
    def test_random_size_out_of_range_is_input_error(self, capsys, argv):
        # d = 0 used to hang and a negative m to end in an internal error
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and "error: random instances need 1 <= d <= 8" in captured.err

    def test_unknown_generate_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "mystery"])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "invalid choice: 'mystery'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [[], ["solve"], ["verify"]])
    def test_help_exits_zero(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def test_warnings_other_than_runtime_ones_pass_through_the_solve(capsys):
    with pytest.warns(UserWarning, match="kept"):
        with cli._float_warnings_reported():
            warnings.warn("kept", UserWarning)
    assert capsys.readouterr().err == ""


def _overflow_reproducer(tmp_path):
    """An LP whose solves overflow under every solver."""
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "c": [-1, 1e-300, 1e-300],
        "A_ineq": [[2, 1e300, 2], [1, 1e300, 1e300], [1e300, 2, 2]],
        "b_ineq": [1e300, 1, -1],
    }))
    return path


# c.x of the optimum overflows: every solver once answered Optimal inf
_OVERFLOWING_OPTIMUM = {
    "c": [2, 1, 1e300],
    "A_ineq": [[2, 1, -1], [1e-300, -1, 1], [1, 1e-300, -1]],
    "b_ineq": [1, 1e300, 1e300],
}

_OVERFLOWING_OPTIMUM_MPS = """\
NAME          OVF
ROWS
 N  COST
 G  R1
 G  R2
 G  R3
COLUMNS
    X1  COST  2      R1  2
    X1  R2    1e-300 R3  1
    X2  COST  1      R1  1
    X2  R2    -1     R3  1e-300
    X3  COST  1e300  R1  -1
    X3  R2    1      R3  -1
RHS
    RHS  R1  1  R2  1e300
    RHS  R3  1e300
ENDATA
"""


class TestSolveCommand:
    def test_km2_d10_facet(self, km2_d10, capsys):
        code = main(["solve", str(km2_d10)])
        out = capsys.readouterr().out
        assert code == EXIT_OPTIMAL
        assert "status=Optimal" in out
        assert "objective=-1023" in out
        assert "iterations=10" in out

    def test_infeasible_exit_code_and_certificate(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        save_general_lp(random_instance(0, 3, 1, 4, "infeasible"), path)
        code = main(["solve", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_INFEASIBLE
        assert "infeasibility certificate: entering facet" in out

    def test_unbounded_exit_code(self, tmp_path, capsys):
        path = tmp_path / "unb.json"
        save_general_lp(random_instance(0, 3, 0, 4, "unbounded"), path)
        code = main(["solve", str(path)])
        assert code == EXIT_UNBOUNDED
        assert "artificial bound facet" in capsys.readouterr().out

    def test_iteration_limit_exit_code(self, tmp_path, capsys):
        path = tmp_path / "km1_d5.json"
        save_general_lp(klee_minty_v1(5), path)
        assert main(["solve", str(path), "--max-iter", "1"]) == EXIT_ITERATION_LIMIT
        capsys.readouterr()

    def test_missing_file_is_input_error(self, capsys):
        assert main(["solve", "/nonexistent.json"]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    @pytest.mark.parametrize("error", [
        SingularMatrix("pivot 3<->7 produced a singular base", 2),
        NoLeavingCandidate("no positive expansion entry for facet 5"),
    ])
    def test_numerical_breakdown_is_not_an_input_error(
        self, km2_d10, capsys, monkeypatch, error
    ):
        def breaking_solve(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "solve", breaking_solve)
        assert main(["solve", str(km2_d10)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == f"numerical breakdown: {error}\n"

    def test_dantzig_nan_ratio_is_numerical_breakdown(self, tmp_path, capsys):
        # a NaN least ratio in the Dantzig baseline once raised a bare
        # IndexError, which main reported as an internal error (exit 1)
        path = _overflow_reproducer(tmp_path)
        assert main(["solve", str(path), "--solver", "dantzig"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.err == (
            "warning: floating-point trouble in the solve, its result may be unreliable: "
            "invalid value encountered in multiply; invalid value encountered in subtract; "
            "overflow encountered in multiply\n"
            "numerical breakdown: the ratio test of column 3 is NaN\n"
        )

    @pytest.mark.parametrize("solver, code, stdout", [
        ("facet", EXIT_UNBOUNDED,
         "status=Unbounded objective= iterations=0 (solver=facet rule=max-dev)\n"
         "unboundedness certificate: artificial bound facet 3\n"),
        ("dantzig", EXIT_NUMERICAL, ""),
        ("oracle", EXIT_UNBOUNDED,
         "status=Unbounded objective= iterations=84 (solver=oracle)\n"
         "unboundedness certificate: artificial bound facet 3\n"),
    ])
    def test_floating_point_warnings_are_one_line_of_its_own(
        self, tmp_path, capsys, solver, code, stdout
    ):
        # numpy's RuntimeWarnings (errors under this suite's filter) are
        # recorded during the solve and reported as one stderr line
        path = _overflow_reproducer(tmp_path)
        assert main(["solve", str(path), "--solver", solver]) == code
        captured = capsys.readouterr()
        assert captured.out == stdout
        first, *rest = captured.err.splitlines()
        assert first.startswith("warning: floating-point trouble in the solve")
        assert "overflow encountered in" in first
        assert rest == ([] if code != EXIT_NUMERICAL
                        else ["numerical breakdown: the ratio test of column 3 is NaN"])

    def test_dantzig_optimum_off_its_rows_is_numerical_breakdown(self, tmp_path, capsys):
        # the km1 dual at d=6 with dual variable k scaled by 0.01^k, boxed
        # at 1e13: the tableau's basic solution ends with an entry of -1
        lp = klee_minty_v1(6)
        r = 0.01 ** np.arange(6)
        path = tmp_path / "scaled.json"
        save_general_lp(GeneralLP(c=-r * lp.b_ineq, A_ineq=-(r[:, None] * lp.A_ineq).T,
                                  b_ineq=-lp.c, lower=np.zeros(6), upper=np.full(6, 1e13)),
                        path)
        assert main(["solve", str(path), "--solver", "dantzig"]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            "numerical breakdown: the optimal basic solution is not feasible")

    @pytest.mark.parametrize("solver", ["facet", "dantzig", "oracle"])
    def test_optimum_that_is_not_finite_is_numerical_breakdown(
        self, tmp_path, capsys, solver
    ):
        path = tmp_path / "ovf.json"
        path.write_text(json.dumps(_OVERFLOWING_OPTIMUM))
        assert main(["solve", str(path), "--solver", solver]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "numerical breakdown: the optimal objective inf is not finite")

    def test_oracle_least_objective_that_overflows_is_numerical_breakdown(
        self, tmp_path, capsys
    ):
        # the NaN-free tie test once found no base and raised a bare
        # IndexError, which main reported as an internal error (exit 1)
        path = tmp_path / "ovf.json"
        path.write_text(json.dumps({
            "c": [-1e300, -1e-300, 1e-300],
            "A_ineq": [[1e300, -1, 1e-300], [1e-300, 1, -1], [2, -1, 1]],
            "b_ineq": [1, 1e300, 1e300],
        }))
        assert main(["solve", str(path), "--solver", "oracle"]) == EXIT_NUMERICAL
        assert capsys.readouterr().err.splitlines()[-1] == (
            "numerical breakdown: the optimal objective -inf is not finite")

    @pytest.mark.parametrize("solver", ["facet", "dantzig", "oracle"])
    def test_every_solver_agrees_on_infinite_bounds(self, tmp_path, capsys, solver):
        # min x over x <= 1 is unbounded below; a --big-m of 1e6 once made
        # Dantzig alone answer Optimal -1e6
        path = tmp_path / "free.json"
        path.write_text('{"c": [1], "lower": ["-inf"], "upper": [1]}')
        assert main(["solve", str(path), "--solver", solver]) == EXIT_UNBOUNDED
        assert capsys.readouterr().out.startswith("status=Unbounded objective= ")
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(path), "--solver", solver, "--big-m", "1e6"])
        assert exc.value.code == EXIT_INPUT_ERROR
        assert "unrecognized arguments: --big-m" in capsys.readouterr().err

        # no bound is infinite, so no artificial bound is made, however large
        # the data; conversion once refused it over a --big-m never given
        path.write_text('{"c": [1], "A_ineq": [[1]], "b_ineq": [1e302], "upper": [5e302]}')
        assert main(["solve", str(path), "--solver", solver]) == EXIT_OPTIMAL
        assert capsys.readouterr().out.startswith("status=Optimal objective=1e+302 ")

    @pytest.mark.parametrize("solver", ["facet", "oracle"])
    def test_infinite_bound_whose_artificial_bound_overflows_is_input_error(
        self, tmp_path, capsys, solver
    ):
        path = tmp_path / "huge.json"
        path.write_text('{"c": [1], "A_ineq": [[1]], "b_ineq": [1e302]}')
        assert main(["solve", str(path), "--solver", solver]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "too large for an infinite bound" in captured.err

    @pytest.mark.parametrize("solver", ["dantzig", "oracle"])
    def test_tol_feas_with_a_solver_that_ignores_it_is_input_error(
        self, tmp_path, capsys, solver
    ):
        # no solver takes --tol-feas any more, so argparse refuses it
        # before the solver is even looked at
        path = tmp_path / "km2.json"
        save_general_lp(klee_minty_v2(3), path)
        for value in ("nan", "1e-6"):
            with pytest.raises(SystemExit) as exc:
                main(["solve", str(path), "--solver", solver, f"--tol-feas={value}"])
            captured = capsys.readouterr()
            assert exc.value.code == EXIT_INPUT_ERROR
            assert captured.out == ""
            assert f"unrecognized arguments: --tol-feas={value}" in captured.err

    @pytest.mark.parametrize("solver, flag", [
        ("dantzig", "--rule=least-index"),
        ("oracle", "--rule=least-index"),
        ("oracle", "--max-iter=0"),
    ])
    def test_flag_a_solver_ignores_is_input_error(self, tmp_path, capsys, solver, flag):
        path = tmp_path / "km2.json"
        save_general_lp(klee_minty_v2(3), path)
        code = main(["solve", str(path), "--solver", solver, flag])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert f"{flag.split('=')[0]} applies to the " in captured.err
        assert captured.err.rstrip().endswith(f"only, not {solver}")

    @pytest.mark.parametrize("solver", ["dantzig", "oracle"])
    def test_trace_with_a_solver_that_ignores_it_is_input_error(
        self, tmp_path, capsys, solver
    ):
        path, trace = tmp_path / "km2.json", tmp_path / "t.jsonl"
        save_general_lp(klee_minty_v2(3), path)
        code = main(["solve", str(path), "--solver", solver, "--trace", str(trace)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert f"--trace applies to the facet solver only, not {solver}" in captured.err
        assert not trace.exists()

    @pytest.mark.parametrize("solver", ["facet", "dantzig", "oracle"])
    def test_lp_without_variables_is_input_error(self, tmp_path, capsys, solver):
        path = tmp_path / "empty.json"
        path.write_text('{"c": []}')
        assert main(["solve", str(path), "--solver", solver]) == EXIT_INPUT_ERROR
        assert "at least one variable" in capsys.readouterr().err

    @pytest.mark.parametrize("solver", ["facet", "dantzig", "oracle"])
    @pytest.mark.parametrize("bounds", ['"lower": ["inf"]', '"upper": ["-inf"]'])
    def test_bound_with_no_finite_value_is_input_error(
        self, tmp_path, capsys, solver, bounds
    ):
        # every solver refuses it alike; run, the three gave three statuses
        path = tmp_path / "no_finite_x.json"
        path.write_text('{"c": [1.0], %s}' % bounds)
        assert main(["solve", str(path), "--solver", solver]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "admit no finite x[0]" in captured.err

    @pytest.mark.parametrize("text", [
        '{"c": 5}', '{"c": ["a"]}', '[1, 2]', '{"c": [1.0], "lower": [null]}',
    ])
    def test_malformed_json_is_input_error(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["solve", str(path)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: malformed problem document: ")
        assert "internal error" not in captured.err

    @pytest.mark.parametrize("name", ["x.json", "x.mps"])
    def test_file_that_is_not_text_is_input_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(gzip.compress(b'{"c": [1.0]}'))
        assert main(["solve", str(path)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {path}: ")
        assert "internal error" not in captured.err

    @pytest.mark.parametrize("solver", ["facet", "dantzig"])
    def test_rhs_that_is_not_a_vector_is_input_error(self, tmp_path, capsys, solver):
        # the facet solver used to fail on it (exit 1) and Dantzig to solve it
        path = tmp_path / "matrix_rhs.json"
        path.write_text('{"c": [1.0, 1.0], "A_eq": [[1.0, 1.0]], "b_eq": [[1.0]]}')
        assert main(["solve", str(path), "--solver", solver]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: b_eq has shape (1, 1), expected a vector\n"

    def test_mps_column_may_share_a_row_name(self, tmp_path, capsys, column_named_as_row):
        path = tmp_path / "colrow.mps"
        path.write_text(column_named_as_row)
        assert main(["solve", str(path)]) == EXIT_OPTIMAL
        assert "status=Optimal objective=-4 " in capsys.readouterr().out

    def test_parse_error_reports_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.mps"
        bad.write_text("NAME X\nROWS\n Q  R1\nENDATA\n")
        assert main(["solve", str(bad), "--format", "mps"]) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert str(bad) in err and "line 3" in err

    def test_mps_format_autodetected(self, fixtures_dir, capsys):
        code = main(["solve", str(fixtures_dir / "tiny_eq.mps")])
        out = capsys.readouterr().out
        assert code == EXIT_OPTIMAL
        assert "objective=8" in out

    def test_mps_warnings_reach_stderr(self, fixtures_dir, capsys):
        code = main(["solve", str(fixtures_dir / "bounds_all.mps")])
        captured = capsys.readouterr()
        assert code == EXIT_OPTIMAL
        assert "relaxation" in captured.err  # the BV bound warns

    def test_dantzig_and_oracle_solvers(self, km2_d10, tmp_path, capsys):
        assert main(["solve", str(km2_d10), "--solver", "dantzig"]) == EXIT_OPTIMAL
        small = tmp_path / "km2_d4.json"
        save_general_lp(klee_minty_v2(4), small)
        assert main(["solve", str(small), "--solver", "oracle"]) == EXIT_OPTIMAL
        out = capsys.readouterr().out
        assert "objective=-15" in out

    def test_dantzig_solves_variables_unbounded_below(self, fixtures_dir, capsys):
        # bounds_all's FR and MI columns have lower bound -inf
        path = str(fixtures_dir / "bounds_all.mps")
        for solver in ("dantzig", "facet", "oracle"):
            assert main(["solve", path, "--solver", solver]) == EXIT_OPTIMAL
            assert "status=Optimal objective=-9 " in capsys.readouterr().out

    def test_trace_file_is_jsonl(self, km2_d10, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["solve", str(km2_d10), "--trace", str(trace)])
        capsys.readouterr()
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(records) == 10
        assert all({"k", "p", "q", "objective", "max_violation", "rule"} <= set(r)
                   for r in records)
        assert records[-1]["objective"] == -1023.0

    @pytest.mark.parametrize("problem, note", [
        (None, "entering equality depends only on base equalities, rhs inconsistent"),
        (GeneralLP(c=[1.0], A_ineq=[[1.0], [-1.0]], b_ineq=[2.0, -1.0]), "infeasible"),
    ], ids=["equality-note", "plain"])
    def test_infeasible_stop_is_the_trace_s_last_record(self, tmp_path, capsys, problem, note):
        # the stop record makes no pivot (q = -1), and only it carries a note
        path, trace = tmp_path / "f.json", tmp_path / "t.jsonl"
        if problem is None:
            assert main(["generate", "random", "--d", "4", "--m", "1", "--n", "6",
                         "--seed", "7", "--kind", "infeasible", "-o", str(path)]) == 0
        else:
            save_general_lp(problem, path)
        assert main(["solve", str(path), "--trace", str(trace)]) == EXIT_INFEASIBLE
        capsys.readouterr()
        *pivots, stop = [json.loads(line) for line in trace.read_text().splitlines()]
        assert pivots and all(r["q"] >= 0 and "note" not in r for r in pivots)
        assert stop["q"] == -1 and stop["note"] == note


class TestGenerateCommand:
    def test_emits_loadable_json(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        code = main(["generate", "km1", "--d", "4", "-o", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert len(doc["c"]) == 4
        capsys.readouterr()

    def test_cycling_fixture_generation(self, capsys):
        assert main(["generate", "cycling", "--fixture", "chvatal"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["c"]) == 4

    def test_bad_size_is_input_error(self, capsys):
        assert main(["generate", "km1", "--d", "1"]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    @pytest.mark.parametrize("argv, want", [
        (["km2", "--d", "5"], klee_minty_v2(5)),
        (["cycling"], cycling_fixture("beale")),
        (["random", "--d", "3", "--seed", "7", "--m", "1", "--n", "4"],
         random_instance(7, 3, 1, 4)),
    ], ids=["km2", "cycling-default-beale", "random"])
    def test_each_family_emits_its_builder_s_problem(self, capsys, argv, want):
        outputs = []
        for _ in range(2):
            assert main(["generate", *argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0]) == json.loads(json.dumps(general_lp_to_dict(want)))


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["generate", "km1", "-o", "OUT"],
        ["solve", "KM2", "--trace", "OUT"],
        ["bench", "--suite", "km2", "--sizes", "3:3", "--csv", "OUT"],
    ], ids=["generate", "solve-trace", "bench-csv"])
    def test_output_into_a_missing_directory_is_input_error(
        self, tmp_path, capsys, km2_d10, argv
    ):
        out = tmp_path / "missing" / "out"
        argv = [{"OUT": str(out), "KM2": str(km2_d10)}.get(a, a) for a in argv]
        assert main(argv) == EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err
        assert "internal error" not in err

    @pytest.mark.parametrize("argv", [
        ["solve", "KM2", "--trace", "OUT"],
        ["bench", "--suite", "km2", "--sizes", "3:3", "--csv", "OUT"],
    ], ids=["solve-trace", "bench-csv"])
    def test_output_into_a_missing_directory_fails_before_any_solve(
        self, tmp_path, capsys, monkeypatch, km2_d10, argv
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("solved before opening the output")

        monkeypatch.setattr(cli, "_run_solver", refuse)
        out = tmp_path / "missing" / "out"
        argv = [{"OUT": str(out), "KM2": str(km2_d10)}.get(a, a) for a in argv]
        assert main(argv) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        # no status line from solve, no table from bench
        assert captured.out == ""
        assert captured.err.startswith("error: ") and str(out) in captured.err


class TestBenchCommand:
    def test_km2_iteration_columns(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        code = main(["bench", "--suite", "km2", "--sizes", "3:6",
                     "--solvers", "facet,dantzig", "--csv", str(out_csv)])
        assert code == 0
        capsys.readouterr()
        _, rows = _read_csv(out_csv)
        facet = {r["name"]: r for r in rows if r["solver"] == "facet"}
        for d in range(3, 7):
            row = facet[f"km2_d{d}"]
            assert int(row["iterations"]) == d
            assert row["status"] == "Optimal"
            assert float(row["objective"]) == -(2.0**d - 1)
        dantzig = {r["name"]: r for r in rows if r["solver"] == "dantzig"}
        for d in range(3, 7):
            assert dantzig[f"km2_d{d}"]["status"] == "Optimal"
            assert float(dantzig[f"km2_d{d}"]["objective"]) == -(2.0**d - 1)

    def test_km1_dantzig_counts_are_exponential(self, tmp_path, capsys):
        out_csv = tmp_path / "bench.csv"
        main(["bench", "--suite", "km1", "--sizes", "3:5",
              "--solvers", "dantzig", "--csv", str(out_csv)])
        capsys.readouterr()
        _, rows = _read_csv(out_csv)
        got = [int(r["iterations"]) for r in rows]
        assert got == [7, 15, 31]

    def test_km1_top_sizes_are_solved(self, tmp_path, capsys):
        # every facet row of km1 reaches the cube's optimum -5^d in d pivots
        out_csv = tmp_path / "bench.csv"
        code = main(["bench", "--suite", "km1", "--sizes", "20:25",
                     "--solvers", "facet", "--csv", str(out_csv)])
        assert code == 0
        capsys.readouterr()
        _, rows = _read_csv(out_csv)
        assert [r["name"] for r in rows] == [f"km1_d{d}" for d in range(20, 26)]
        for d, row in zip(range(20, 26), rows):
            assert row["status"] == "Optimal"
            assert int(row["iterations"]) == d
            assert float(row["objective"]) == pytest.approx(-(5.0**d), rel=1e-9)

    def test_cycling_suite_all_optimal_under_least_index(self, tmp_path, capsys):
        out_csv = tmp_path / "cyc.csv"
        code = main(["bench", "--suite", "cycling", "--rule", "least-index",
                     "--csv", str(out_csv)])
        assert code == 0
        capsys.readouterr()
        _, rows = _read_csv(out_csv)
        assert len(rows) == 5
        assert all(r["status"] == "Optimal" for r in rows)

    def test_csv_stable_modulo_wall_time(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["bench", "--suite", "km2", "--sizes", "3:5",
                  "--solvers", "facet", "--csv", str(path)])
            capsys.readouterr()

        def normalized(path):
            _, rows = _read_csv(path)
            for r in rows:
                r.pop("wall_ms")
            return rows

        assert normalized(a) == normalized(b)

    def test_wall_time_excludes_loading(self, tmp_path, capsys, monkeypatch):
        def slow_cube(d):
            time.sleep(0.25)
            return klee_minty_v2(d)

        monkeypatch.setattr(generators, "klee_minty_v2", slow_cube)
        out_csv = tmp_path / "slow.csv"
        main(["bench", "--suite", "km2", "--sizes", "3:3",
              "--solvers", "facet,dantzig", "--csv", str(out_csv)])
        capsys.readouterr()
        _, rows = _read_csv(out_csv)
        assert [r["status"] for r in rows] == ["Optimal", "Optimal"]
        assert all(float(r["wall_ms"]) < 250.0 for r in rows)

    def test_each_instance_loaded_once_for_all_solvers(
        self, fixtures_dir, tmp_path, capsys, monkeypatch
    ):
        loaded = []
        real_load_problem = cli._load_problem

        def counting_load_problem(path, fmt):
            loaded.append(path)
            return real_load_problem(path, fmt)

        monkeypatch.setattr(cli, "_load_problem", counting_load_problem)
        out_csv = tmp_path / "once.csv"
        code = main(["bench", "--suite", "netlib", "--netlib-dir", str(fixtures_dir),
                     "--solvers", "facet,dantzig", "--csv", str(out_csv)])
        assert code == 0
        capsys.readouterr()
        _, rows = _read_csv(out_csv)
        assert len(loaded) == len(set(loaded)) == 6
        assert len(rows) == 12

    def test_failed_load_gives_an_error_row_per_solver(self, tmp_path, capsys):
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        (suite_dir / "broken.mps").write_text("GARBAGE\n")
        out_csv = tmp_path / "broken.csv"
        code = main(["bench", "--suite", "netlib", "--netlib-dir", str(suite_dir),
                     "--solvers", "facet,dantzig", "--csv", str(out_csv)])
        assert code == 0
        capsys.readouterr()
        _, rows = _read_csv(out_csv)
        assert [r["solver"] for r in rows] == ["facet", "dantzig"]
        assert all(r["status"].startswith("error:") for r in rows)
        assert all(float(r["wall_ms"]) == 0.0 for r in rows)

    @pytest.mark.parametrize("flags", [
        ["--sizes", "5:3"],
        ["--sizes", "3:3", "--solvers", ","],
        ["--sizes", "3:3", "--solvers", "facet,foo"],
    ])
    def test_empty_or_unknown_selection_is_input_error_before_any_solve(
        self, flags, capsys
    ):
        code = main(["bench", "--suite", "km1", *flags])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("solvers, flag, ignored_by", [
        ("facet,dantzig", "--rule=least-index", "dantzig"),
        ("dantzig,oracle", "--max-iter=5", "oracle"),
    ])
    def test_flag_a_solver_ignores_is_input_error_before_any_solve(
        self, tmp_path, capsys, solvers, flag, ignored_by
    ):
        out_csv = tmp_path / "refused.csv"
        code = main(["bench", "--suite", "km2", "--sizes", "3:3",
                     "--solvers", solvers, flag, "--csv", str(out_csv)])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == "" and not out_csv.exists()
        assert captured.err.rstrip().endswith(f"only, not {ignored_by}")

    def test_max_iter_reaches_facet_and_dantzig(self, tmp_path, capsys):
        out_csv = tmp_path / "limited.csv"
        code = main(["bench", "--suite", "km2", "--sizes", "3:3",
                     "--solvers", "facet,dantzig", "--max-iter", "1", "--csv", str(out_csv)])
        assert code == 0
        capsys.readouterr()
        _, rows = _read_csv(out_csv)
        assert [r["status"] for r in rows] == ["IterationLimit", "IterationLimit"]
        assert "max_iter=1\n" in out_csv.read_text()

    def test_floating_point_warnings_are_one_line_per_row(self, tmp_path, capsys):
        # numpy's raw RuntimeWarning lines once went to stderr before the table
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        (suite_dir / "ovf.mps").write_text(_OVERFLOWING_OPTIMUM_MPS)
        code = main(["bench", "--suite", "netlib", "--netlib-dir", str(suite_dir),
                     "--solvers", "facet,dantzig"])
        assert code == 0
        captured = capsys.readouterr()
        where = [line.partition(": floating-point trouble in the solve, ")[0]
                 for line in captured.err.splitlines()]
        assert where == ["warning: ovf (facet)", "warning: ovf (dantzig)"]
        rows = captured.out.splitlines()[1:]
        assert [r.split()[-1] for r in rows] == ["error:NumericalBreakdown"] * 2

    def test_netlib_suite_requires_directory(self, capsys, monkeypatch):
        monkeypatch.delenv("FACETLP_NETLIB_DIR", raising=False)
        assert main(["bench", "--suite", "netlib"]) == EXIT_INPUT_ERROR
        capsys.readouterr()

    def test_netlib_suite_refuses_a_directory_without_mps_files(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("not a problem\n")
        assert main(["bench", "--suite", "netlib", "--netlib-dir", str(tmp_path)]) == \
            EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no .mps or .sif files under {tmp_path}\n"

    @pytest.mark.parametrize("make", [lambda path: None, lambda path: path.write_text("x\n")],
                             ids=["missing", "file"])
    def test_netlib_suite_refuses_a_path_that_is_not_a_directory(self, tmp_path, capsys, make):
        target = tmp_path / "suite"
        make(target)
        assert main(["bench", "--suite", "netlib", "--netlib-dir", str(target)]) == \
            EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {target} is not a directory\n"

    def test_netlib_suite_names_a_shared_stem_by_file_name(self, fixtures_dir, tmp_path, capsys):
        tiny = (fixtures_dir / "tiny_eq.mps").read_text()
        for name in ("a.mps", "a.SIF", "b.mps"):
            (tmp_path / name).write_text(tiny)
        assert main(["bench", "--suite", "netlib", "--netlib-dir", str(tmp_path)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split()[0] for r in rows] == ["a.SIF", "a.mps", "b"]
        assert all(" Optimal " in r for r in rows)

    def test_netlib_suite_reads_sif_files_as_solve_does(self, fixtures_dir, tmp_path, capsys):
        tiny = (fixtures_dir / "tiny_eq.mps").read_text()
        (tmp_path / "a.SIF").write_text(tiny)
        (tmp_path / "b.mps").write_text(tiny)
        assert main(["bench", "--suite", "netlib", "--netlib-dir", str(tmp_path)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split()[0] for r in rows] == ["a", "b"]
        assert all(" Optimal " in r for r in rows)

    def test_broken_instance_recorded_in_row_and_suite_continues(
        self, fixtures_dir, tmp_path, capsys
    ):
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        (suite_dir / "good.mps").write_text(
            (fixtures_dir / "tiny_eq.mps").read_text()
        )
        (suite_dir / "broken.mps").write_text("GARBAGE\n")
        out_csv = tmp_path / "mixed.csv"
        code = main(["bench", "--suite", "netlib",
                     "--netlib-dir", str(suite_dir), "--csv", str(out_csv)])
        assert code == 0
        capsys.readouterr()
        _, rows = _read_csv(out_csv)
        by_name = {r["name"]: r for r in rows}
        assert by_name["broken"]["status"].startswith("error:")
        assert by_name["good"]["status"] == "Optimal"

    def test_mps_column_sharing_a_row_name_does_not_stop_the_suite(
        self, fixtures_dir, tmp_path, capsys, column_named_as_row
    ):
        suite_dir = tmp_path / "suite"
        suite_dir.mkdir()
        (suite_dir / "colrow.mps").write_text(column_named_as_row)
        (suite_dir / "tiny_eq.mps").write_text((fixtures_dir / "tiny_eq.mps").read_text())
        assert main(["bench", "--suite", "netlib", "--netlib-dir", str(suite_dir)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split()[0] for r in rows] == ["colrow", "tiny_eq"]
        assert all(" Optimal " in r for r in rows)

    def test_netlib_suite_reads_mps_directory(self, fixtures_dir, tmp_path, capsys):
        out_csv = tmp_path / "netlib.csv"
        code = main(["bench", "--suite", "netlib",
                     "--netlib-dir", str(fixtures_dir), "--csv", str(out_csv)])
        assert code == 0
        capsys.readouterr()
        _, rows = _read_csv(out_csv)
        names = {r["name"] for r in rows}
        assert "kb2_shape" in names and "recipe_shape" in names
        assert all(r["status"] == "Optimal" for r in rows)

    def test_netlib_suite_reports_mps_warnings(self, fixtures_dir, tmp_path, capsys):
        # bench loads MPS files as solve does, warnings included
        code = main(["bench", "--suite", "netlib", "--netlib-dir", str(fixtures_dir),
                     "--solvers", "facet"])
        assert code == 0
        err = capsys.readouterr().err
        assert f"warning: {fixtures_dir / 'bounds_all.mps'}: " in err
        assert "relaxation" in err  # the BV bound warns


class TestVerifyCommand:
    def test_clean_batches_exit_zero(self, capsys):
        code = main(["verify", "--count", "20", "--d", "3", "--m", "1", "--n", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 mismatches" in out
        assert "verified 60 instances" in out

    @pytest.mark.parametrize("flags, flag", [
        (["--kinds", "bogus"], "--kinds"),
        (["--kinds", ","], "--kinds"),
        (["--count", "0"], "--count"),
    ], ids=["unknown-kind", "no-kind", "no-seed"])
    def test_selection_that_checks_nothing_valid_is_input_error(self, capsys, flags, flag):
        code = main(["verify", "--d", "3", "--n", "4", *flags])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT_ERROR
        assert captured.out == "" and captured.err.startswith(f"error: {flag} ")

    def test_rule_and_max_iter_steer_the_facet_solves(self, capsys, monkeypatch):
        seen = []
        real = cli.solve

        def recording(sp, **kwargs):
            seen.append((kwargs["rule"], kwargs["max_iter"]))
            return real(sp, **kwargs)

        monkeypatch.setattr(cli, "solve", recording)
        assert main(["verify", "--count", "1", "--d", "3", "--n", "4"]) == 0
        assert main(["verify", "--count", "1", "--d", "3", "--n", "4",
                     "--rule", "least-index", "--max-iter", "50"]) == 0
        capsys.readouterr()
        assert seen == [(PivotRule.MAX_DEVIATION, 10_000)] * 3 + [
            (PivotRule.LEAST_INDEX, 50)] * 3

    @pytest.mark.parametrize("wrong, what", [
        (lambda out: dataclasses.replace(out, objective=out.objective + 1.0),
         lambda got, want: f"objective {got.objective + 1.0!r} != {want.objective!r}"),
        (lambda out: dataclasses.replace(out, status=Status.UNBOUNDED, objective=None),
         lambda got, want: "status Unbounded != Optimal"),
    ], ids=["objective", "status"])
    def test_mismatch_names_a_command_that_reproduces_it(self, capsys, monkeypatch,
                                                         wrong, what):
        real, calls = cli.solve, []

        def wrong_on_seed_1(sp, **kwargs):
            calls.append(sp)
            out = real(sp, **kwargs)
            return wrong(out) if len(calls) == 2 else out

        monkeypatch.setattr(cli, "solve", wrong_on_seed_1)
        code = main(["verify", "--count", "3", "--d", "3", "--m", "1", "--n", "4",
                     "--kinds", "feasible"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_VERIFY_MISMATCH
        p = random_instance(1, 3, 1, 4, "feasible")
        sp = to_standard_general(p)
        got, want = real(sp), brute_force_optimal(sp)
        assert got.status is want.status is Status.OPTIMAL
        command = "generate random --d 3 --m 1 --n 4 --kind feasible --seed 1"
        assert lines == [
            f"MISMATCH kind=feasible seed=1: {what(got, want)}   (reproduce: facetlp {command})",
            "verified 3 instances (d=3, m=1, n=4, kinds=feasible): 1 mismatches",
        ]
        assert main(command.split()) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(
            json.dumps(general_lp_to_dict(p)))
