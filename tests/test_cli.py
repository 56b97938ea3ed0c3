import json
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import orbitadm as oa
import orbitadm.cli as cli
from orbitadm import moment

from conftest import (CORPUS_NAMES, ORACLES, load_bench_families,
                      moment_matrix, moment_reference, run_cli)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

_families = load_bench_families()
# reports frozen before the structure constants became sparse
LARGE_FROZEN = [_families.heisenberg(4, "lagrangian"),
                _families.borel(5, "cartan"), _families.borel(6, "nilradical"),
                _families.diagonal(12, 12)]


def _frozen_points():
    """(name, label, point): the benchmark's point of each corpus file and
    one rational point, whose `rank` and `jacobian` reports are frozen in
    fixtures/points/NAME.COMMAND.LABEL.txt; and two points of
    fixtures/rational_scales.alg, whose pencil entries are rational."""
    cases = []
    for name in CORPUS_NAMES:
        point = _families.CORPUS[name][3]
        rational = ("3/2", "-2/3", "5/4")[:len(point.split(","))]
        cases += [(name, "bench", point),
                  (name, "rational", ",".join(rational))]
    return cases + [("rational_scales", "p1", "3/2,-2/3,5/4"),
                    ("rational_scales", "p2", "1/7,2,-3/5")]


FROZEN_POINTS = _frozen_points()
FROZEN_IDS = [f"{name}-{label}" for name, label, _ in FROZEN_POINTS]

# a subalgebra that is not closed and a functional that is not a character,
# each as written and in a random rational basis of g and of h
DATUM_ERROR_DIR = FIXTURES / "datum_errors"
DATUM_ERRORS = ["not_closed", "not_closed_random", "not_character",
                "not_character_random"]


@pytest.fixture(autouse=True)
def _no_inherited_seed(monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)


def corpus_file(name: str) -> str:
    return str(cli.corpus_dir() / f"{name}.alg")


def problem_file(name: str) -> str:
    """A problem file under fixtures/, else the corpus file of that name."""
    fixture = FIXTURES / f"{name}.alg"
    return str(fixture) if fixture.exists() else corpus_file(name)


class TestUsage:
    def test_help_exits_zero(self):
        code, out, err = run_cli("--help")
        assert (code, err) == (0, "")
        assert out.startswith("usage: orbitadm")
        assert all(name in out for name in cli.COMMANDS)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_subcommand_help_exits_zero(self, command):
        code, out, err = run_cli(command, "--help")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: orbitadm {command} ")
        assert all(option in out for option in cli.COMMANDS[command][2])

    def test_no_arguments_is_usage_error(self):
        code, _out, err = run_cli()
        assert code == 1
        assert "error:" in err

    def test_unknown_subcommand(self):
        code, _out, err = run_cli("frobnicate")
        assert code == 1

    def test_missing_file_argument(self):
        code, _out, err = run_cli("validate")
        assert code == 1

    def test_unreadable_file(self):
        code, _out, err = run_cli("validate", "/no/such/file.alg")
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("command", ["validate", "verdict", "rank"])
    def test_file_that_is_not_utf8(self, tmp_path, command):
        # read as UTF-8 whatever the locale; the first bad byte is a parse
        # error at its line and column, lines ending at LF, CR LF or CR
        extra = ("--point", "0") if command == "rank" else ()
        for data, where in (
                (b"\xff\xfealgebra g\n", "line 1, column 1: invalid UTF-8 "
                                         "byte 0xff"),
                (b"algebra g\r\ndim 1\rbasis T \xe9\n",
                 "line 3, column 9: invalid UTF-8 byte 0xe9"),
                ("algebra \u00e9\n".encode() + b"dim 1\nbasis \xc3(\n",
                 "line 3, column 7: invalid UTF-8 byte 0xc3")):
            path = tmp_path / "latin.alg"
            path.write_bytes(data)
            assert run_cli(command, str(path), *extra) \
                == (1, "", f"parse error: {where}\n")

    def test_runs_as_a_module(self, tmp_path):
        # python -m orbitadm.cli must run main, not import and exit 0
        src = pathlib.Path(oa.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "orbitadm.cli", "verdict",
             corpus_file("axb_f1")], capture_output=True, text=True,
            cwd=tmp_path, env={"PYTHONPATH": str(src)}, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) \
            == run_cli("verdict", corpus_file("axb_f1"))
        assert proc.stdout.startswith("structure.algebra: ")

    def test_module_run_imports_no_second_cli(self, tmp_path):
        # under -m, cli.py runs once, as __main__: pointwise takes what it
        # shares with cli from problemfile, so orbitadm.cli is never
        # imported as well
        src = pathlib.Path(oa.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "orbitadm.cli",
             "rank", corpus_file("grelaud"), "--point", "1,2"],
            capture_output=True, text=True, cwd=tmp_path,
            env={"PYTHONPATH": str(src)}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        imported = [line.rpartition("|")[2].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")]
        assert "orbitadm.pointwise" in imported
        assert "orbitadm.cli" not in imported

    @pytest.mark.parametrize("point", ["1,2", "1"])
    def test_rank_runs_as_a_module(self, tmp_path, point):
        # rank runs in pointwise, which raises the usage errors that
        # cli.main catches: under -m they are caught all the same
        src = pathlib.Path(oa.__file__).parents[1]
        argv = ("rank", corpus_file("grelaud"), "--point", point)
        proc = subprocess.run(
            [sys.executable, "-m", "orbitadm.cli", *argv],
            capture_output=True, text=True, cwd=tmp_path,
            env={"PYTHONPATH": str(src)}, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(*argv)


class TestValidate:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_corpus_files_validate(self, name):
        code, out, err = run_cli("validate", corpus_file(name))
        assert code == 0, err
        assert out.endswith("ok\n")
        assert "is_solvable: true" in out
        uni = "true" if ORACLES[name][4] else "false"
        assert f"is_unimodular: {uni}" in out

    def test_broken_jacobi_exits_one_naming_triple(self):
        code, _out, err = run_cli("validate",
                                  str(FIXTURES / "broken_jacobi.alg"))
        assert code == 1
        assert "invalid:" in err
        assert "Jacobi identity fails at (X,Y,Z)" in err
        assert "(0, 0, -1)" in err

    def test_motion_exits_two_with_witness(self):
        code, out, err = run_cli("validate", str(FIXTURES / "motion.alg"))
        assert (code, out) == (2, "")
        assert err.startswith("precondition failed: the algebra is not "
                              "exponential")
        assert "check (i) fails on V_0/V_1" in err
        assert "for X = A\n" in err

    @pytest.mark.parametrize("command", ["validate", "verdict"])
    def test_assume_exponential_flag_is_usage_error(self, command):
        code, out, err = run_cli(command, str(FIXTURES / "motion.alg"),
                                 "--assume-exponential")
        assert (code, out) == (1, "")
        assert err.startswith("error: unrecognized arguments: "
                              "--assume-exponential")

    def test_seed_changes_nothing(self):
        runs = {run_cli("validate", corpus_file("grelaud"), "--seed", str(s))
                for s in range(3)}
        assert len(runs) == 1
        code, out, _err = runs.pop()
        assert code == 0 and "exponentiality: Exponential\n" in out

    def test_sl2_exits_two_not_solvable(self):
        code, _out, err = run_cli("validate", str(FIXTURES / "sl2.alg"))
        assert code == 2
        assert "not solvable" in err
        assert "[3]" in err  # derived series stalls at full dimension

    def test_parse_error_carries_position(self, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra g\ndim 3\nbasis X Y Z\nbracket X X = Z\n")
        code, _out, err = run_cli("validate", str(bad))
        assert code == 1
        assert "parse error: line 4" in err

    def test_thousand_name_basis_exits_one_quickly(self, tmp_path):
        # a dense table for this line would hold 10^9 entries
        names = " ".join(f"Z_{i}" for i in range(1000))
        bad = tmp_path / "huge.alg"
        bad.write_text(f"algebra g\ndim 1000\nbasis {names}\n")
        assert len(bad.read_bytes()) > 5000
        start = time.perf_counter()
        code, out, err = run_cli("verdict", str(bad))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err.startswith("parse error: line 3, column 1:")
        assert "Traceback" not in err

    def test_bad_character_exits_one(self, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra h3\ndim 3\nbasis X Y Z\nbracket X Y = Z\n"
                       "subalgebra X; Y; Z\nfunctional 0, 0, 1\n")
        code, _out, err = run_cli("validate", str(bad))
        assert code == 1
        assert "invalid:" in err

    @pytest.mark.parametrize("command", ["validate", "verdict"])
    @pytest.mark.parametrize("name", DATUM_ERRORS)
    def test_datum_error_matches_frozen_fixture(self, name, command):
        # fixtures/datum_errors/NAME.COMMAND.txt: "exit N", then the stderr
        code, out, err = run_cli(command, str(DATUM_ERROR_DIR / f"{name}.alg"))
        assert out == ""
        assert f"exit {code}\n{err}" == (
            DATUM_ERROR_DIR / f"{name}.{command}.txt").read_text()

    def test_rank_deficient_subalgebra_exits_one(self, tmp_path):
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra g\ndim 2\nbasis A X\nsubalgebra X; X\n")
        code, _out, err = run_cli("validate", str(bad))
        assert code == 1

    @pytest.mark.parametrize("command", ["validate", "verdict"])
    def test_input_errors_come_before_a_bad_env_seed(self, command, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "banana")
        code, _out, err = run_cli(command,
                                  str(FIXTURES / "broken_jacobi.alg"))
        assert code == 1
        assert "invalid:" in err and "must be an integer" not in err
        bad = tmp_path / "bad.alg"
        bad.write_text("algebra h3\ndim 3\nbasis X Y Z\nbracket X Y = Z\n"
                       "subalgebra X; Y; Z\nfunctional 0, 0, 1\n")
        code, _out, err = run_cli(command, str(bad))
        assert code == 1
        assert "invalid:" in err and "must be an integer" not in err
        code, _out, err = run_cli(command, str(FIXTURES / "sl2.alg"))
        assert code == 2
        assert "not solvable" in err and "must be an integer" not in err
        code, _out, err = run_cli(command, corpus_file("axb_f1"))
        assert code == 1
        assert "must be an integer" in err

    @pytest.mark.parametrize("key", ["trials", "bound"])
    def test_settings_verdict_refuses_fail_validate(self, key, tmp_path):
        path = tmp_path / "zero.alg"
        path.write_text("algebra axb\ndim 2\nbasis A X\nbracket A X = X\n"
                        f"subalgebra X\nfunctional 1\nconfig {key} 0\n")
        expected = (1, "", f"error: config {key} in {path} must be at "
                           "least 1\n")
        assert run_cli("validate", str(path)) == expected
        assert run_cli("verdict", str(path)) == expected

    @pytest.mark.parametrize("key", ["trials", "bound"])
    def test_a_zero_flag_is_named_as_the_flag(self, key, tmp_path):
        # the file's own value is fine; the flag that overrides it is not
        path = tmp_path / "three.alg"
        path.write_text("algebra axb\ndim 2\nbasis A X\nbracket A X = X\n"
                        f"subalgebra X\nfunctional 1\nconfig {key} 3\n")
        assert run_cli("verdict", str(path), f"--{key}", "0") == (
            1, "", f"error: --{key} must be at least 1\n")

    @pytest.mark.parametrize("key", ["trials", "bound"])
    def test_a_zero_config_line_is_named_as_the_line(self, key, tmp_path):
        # a flag that overrides it clears it; without one, the line is named
        path = tmp_path / "zero.alg"
        path.write_text("algebra axb\ndim 2\nbasis A X\nbracket A X = X\n"
                        f"subalgebra X\nfunctional 1\nconfig {key} 0\n")
        assert run_cli("verdict", str(path), f"--{key}", "3")[0] == 0
        code, out, err = run_cli("verdict", str(path), "--seed", "4")
        assert (code, out) == (1, "")
        assert err == f"error: config {key} in {path} must be at least 1\n"

    @pytest.mark.parametrize("name", [
        "broken_jacobi", "sl2", "motion", "twist1", "twist2", "twist3",
        *(f"datum_errors/{path.stem}"
          for path in sorted(DATUM_ERROR_DIR.glob("*.alg")))])
    def test_validate_and_verdict_refuse_alike(self, name, tmp_path):
        path = FIXTURES / f"{name}.alg"
        if name.startswith("twist"):
            path = tmp_path / f"{name}.alg"
            path.write_text(_families.twist(int(name[-1])).text)
        code, out, err = run_cli("validate", str(path))
        assert code != 0 and out == ""
        assert run_cli("verdict", str(path)) == (code, out, err)


class TestVerdict:
    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_matches_frozen_fixture(self, name):
        code, out, err = run_cli("verdict", corpus_file(name),
                                 "--seed", "7", "--json")
        assert code == 0, err
        assert out == (FIXTURES / f"{name}.verdict.json").read_text()

    @pytest.mark.parametrize("problem", LARGE_FROZEN, ids=lambda p: p.name)
    @pytest.mark.parametrize("extra, suffix", [((), "txt"),
                                               (("--json",), "json")])
    def test_large_reports_match_frozen_fixture(self, problem, extra, suffix,
                                                tmp_path):
        path = tmp_path / f"{problem.name}.alg"
        path.write_text(problem.text)
        code, out, err = run_cli("verdict", str(path), "--seed", "5", *extra)
        assert code == 0, err
        frozen = FIXTURES / f"{problem.name}.seed5.verdict.{suffix}"
        assert out == frozen.read_text()

    def test_text_mode_flattens_same_fields(self):
        code, out, _err = run_cli("verdict", corpus_file("heisenberg_yz"),
                                  "--seed", "7")
        assert code == 0
        assert "spectral: Singular\n" in out
        assert "admissibility.status: NotAdmissible\n" in out
        assert "d_tau: 1\n" in out
        assert "m: 2\n" in out
        assert "structure.derived_series_dims: [3, 1, 0]\n" in out

    def test_runs_are_byte_identical(self):
        first = run_cli("verdict", corpus_file("grelaud"), "--seed", "7",
                        "--json")
        second = run_cli("verdict", corpus_file("grelaud"), "--seed", "7",
                         "--json")
        assert first == second

    def test_symbolic_flag_same_verdict(self):
        code, out, _err = run_cli("verdict", corpus_file("grelaud"),
                                  "--symbolic", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["spectral"] == "AbsolutelyContinuous"
        assert doc["d_tau"] == 1

    @pytest.mark.parametrize("name", CORPUS_NAMES)
    def test_symbolic_flag_changes_nothing(self, name):
        # kept for compatibility: the one witness is always the sampled one
        for seed in ("0", "5"):
            for extra in ((), ("--json",)):
                argv = ("verdict", corpus_file(name), "--seed", seed, *extra)
                assert run_cli(*argv, "--symbolic") == run_cli(*argv)

    @pytest.mark.parametrize("problem", LARGE_FROZEN, ids=lambda p: p.name)
    def test_symbolic_flag_changes_no_large_report(self, problem, tmp_path):
        path = tmp_path / f"{problem.name}.alg"
        path.write_text(problem.text)
        for extra, suffix in (((), "txt"), (("--json",), "json")):
            argv = ("verdict", str(path), *extra, "--symbolic")
            frozen = FIXTURES / f"{problem.name}.seed5.verdict.{suffix}"
            assert run_cli(*argv, "--seed", "5") == (0, frozen.read_text(),
                                                     "")
            assert run_cli(*argv, "--seed", "0") == run_cli(*argv[:-1],
                                                            "--seed", "0")

    def test_motion_exits_two(self):
        code, _out, err = run_cli("verdict", str(FIXTURES / "motion.alg"))
        assert code == 2
        assert "precondition failed" in err

    @pytest.mark.parametrize("name", ["twist1", "twist2", "twist3"])
    def test_twists_exit_two_at_every_seed(self, name, tmp_path):
        # R^2 x| R^(2j) with ad A = I + J, ad B = I - J: ad(A - B) = 2J has
        # eigenvalues +-2i, and only check (ii) sees it
        problem = _families.twist(int(name[-1]))
        path = tmp_path / f"{name}.alg"
        path.write_text(problem.text)
        for seed in range(8):
            code, out, err = run_cli("verdict", str(path), "--seed",
                                     str(seed))
            assert (code, out) == (2, "")
            assert "not exponential" in err and "check (ii)" in err

    def test_broken_jacobi_exits_one(self):
        code, _out, err = run_cli("verdict",
                                  str(FIXTURES / "broken_jacobi.alg"))
        assert code == 1
        assert "invalid:" in err

    def test_a_missed_sample_is_a_settings_error(self):
        # heisenberg_x has d_tau = 1; one draw from {-1, 0, 1} at these
        # seeds lands where the moment matrix vanishes
        for seed in ("0", "4", "5"):
            code, out, err = run_cli("verdict", corpus_file("heisenberg_x"),
                                     "--trials", "1", "--bound", "1",
                                     "--seed", seed)
            assert (code, out) == (1, "")
            assert err == ("error: the sampled rank 0 is below the certified "
                           "generic rank 1: trials 1 and bound 1 are too "
                           "small for this problem; raise either\n")

    def test_trials_must_be_positive(self):
        code, _out, err = run_cli("verdict", corpus_file("axb_f1"),
                                  "--trials", "0")
        assert code == 1
        assert "--trials" in err

    def test_bound_must_be_positive(self):
        code, _out, err = run_cli("verdict", corpus_file("axb_f1"),
                                  "--bound", "0")
        assert code == 1
        assert "--bound" in err

    def test_disagreement_exits_three(self, monkeypatch):
        # heisenberg_yz samples rank 1; a Bareiss rank below it is a bug
        monkeypatch.setattr(moment, "_proof", lambda D, columns, rank: None)
        monkeypatch.setattr(moment, "symbolic_generic_rank", lambda D: 0)
        code, out, err = run_cli("verdict", corpus_file("heisenberg_yz"))
        assert (code, out) == (3, "")
        assert err == ("internal disagreement: generic rank mismatch: "
                       "probabilistic 1 vs certified 0\n")

    def test_disagreement_exits_three_above_dimension_eight(self, monkeypatch,
                                                             tmp_path):
        # A x| R^9, [A, X_i] = i X_i, h = span{X_i}, f = 1: n = 10, d_tau = 1
        xs = [f"X{i}" for i in range(1, 10)]
        path = tmp_path / "diag9.alg"
        path.write_text(
            "algebra diag9\ndim 10\nbasis A " + " ".join(xs) + "\n"
            + "".join(f"bracket A {x} = {i} * {x}\n"
                      for i, x in enumerate(xs, 1))
            + "subalgebra " + "; ".join(xs) + "\n"
            + "functional " + ", ".join(["1"] * 9) + "\n")
        assert run_cli("verdict", str(path))[0] == 0

        # a sampled rank above the Bareiss one: every drawn point gives a
        # block of rank 2
        monkeypatch.setattr(moment, "_block_at",
                            lambda D, x: ([{0: 1}, {1: 1}], 1))
        monkeypatch.setattr(moment, "_proof", lambda D, columns, rank: None)
        code, _out, err = run_cli("verdict", str(path))
        assert code == 3
        assert err == ("internal disagreement: generic rank mismatch: "
                       "probabilistic 2 vs certified 1\n")

    def test_a_certificate_with_a_wrong_gap_exits_three(self, monkeypatch):
        proof = moment._proof

        def wrong_gap(D, columns, rank):
            dim_u, dim_w, steps = proof(D, columns, rank)
            return dim_u, dim_w + 1, steps
        monkeypatch.setattr(moment, "_proof", wrong_gap)
        code, out, err = run_cli("verdict", corpus_file("heisenberg_yz"))
        assert (code, out) == (3, "")
        assert err == ("internal disagreement: generic rank mismatch: "
                       "probabilistic 1 vs certified 2\n")


class TestSeedPrecedence:
    def seed_of(self, *argv, **kw):
        code, out, err = run_cli(*argv, "--json", **kw)
        assert code == 0, err
        return json.loads(out)["seed"]

    def test_default_seed_is_zero(self):
        assert self.seed_of("verdict", corpus_file("axb_f1")) == 0

    def test_env_seed_honored(self, monkeypatch):
        got = self.seed_of("verdict", corpus_file("axb_f1"),
                           env_seed=9, monkeypatch=monkeypatch)
        assert got == 9

    def test_file_config_beats_env(self, tmp_path, monkeypatch):
        f = tmp_path / "seeded.alg"
        f.write_text("algebra axb\ndim 2\nbasis A X\nbracket A X = X\n"
                     "subalgebra X\nfunctional 1\nconfig seed 5\n")
        got = self.seed_of("verdict", str(f),
                           env_seed=9, monkeypatch=monkeypatch)
        assert got == 5

    def test_flag_beats_file_config(self, tmp_path, monkeypatch):
        f = tmp_path / "seeded.alg"
        f.write_text("algebra axb\ndim 2\nbasis A X\nbracket A X = X\n"
                     "subalgebra X\nfunctional 1\nconfig seed 5\n")
        got = self.seed_of("verdict", str(f), "--seed", "3",
                           env_seed=9, monkeypatch=monkeypatch)
        assert got == 3

    def test_invalid_env_seed_is_usage_error(self, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "banana")
        code, _out, err = run_cli("verdict", corpus_file("axb_f1"))
        assert code == 1
        assert "must be an integer" in err

    def test_file_config_trials_flows_through(self, tmp_path):
        f = tmp_path / "t.alg"
        f.write_text("algebra axb\ndim 2\nbasis A X\nbracket A X = X\n"
                     "subalgebra X\nfunctional 1\nconfig trials 3\n")
        code, out, _err = run_cli("verdict", str(f), "--json")
        assert code == 0
        assert json.loads(out)["trials"] == 3


class TestRank:
    def test_heisenberg_stabilizers(self):
        code, out, _err = run_cli("rank", corpus_file("heisenberg_yz"),
                                  "--point", "5")
        assert code == 0
        assert "rank_M: 1\n" in out
        assert "dim_H_orbit: 1\n" in out
        assert 'h_stab_basis: ["Z"]' in out
        assert "dim_G_orbit: 2\n" in out
        assert 'g_stab_basis: ["Z"]' in out

    def test_rational_point(self):
        code, out, _err = run_cli("rank", corpus_file("grelaud"),
                                  "--point", "2,1/2")
        assert code == 0
        # the echoed point is l in original (A, X, Y) coordinates:
        # l(X) = f(X) = 1, and the chart supplies l(A) = 2, l(Y) = 1/2
        assert 'point: ["2", "1", "1/2"]' in out
        assert 'g_stab_basis: ["-3 * X + Y"]' in out

    @pytest.mark.parametrize("name,label,point", FROZEN_POINTS,
                             ids=FROZEN_IDS)
    def test_matches_frozen_fixture(self, name, label, point):
        code, out, err = run_cli("rank", problem_file(name), "--point", point)
        assert (code, err) == (0, "")
        assert out == (FIXTURES / "points" / f"{name}.rank.{label}.txt"
                       ).read_text()

    def test_negative_point_as_a_separate_argument(self):
        # a valued option takes the next word, "-1,2" and "-inf" included
        path = corpus_file("grelaud")
        for point in ("-1,2", "-1/2,2"):
            bound = run_cli("rank", path, f"--point={point}")
            assert bound[0] == 0
            assert run_cli("rank", path, "--point", point) == bound
        code, out, err = run_cli("jacobian", path, "--point", "-1,2",
                                 "--step", "-inf")
        assert (code, out, err) == (
            1, "", "error: --step must be positive and finite\n")

    def test_rational_fixture_matches_the_definition(self):
        # rational constants and functional give the pencil a denominator
        # above 1 over its int entries (M has entries -1/10, 1/2, 2/3,
        # 5/18 and 7/6); at both frozen points the moment matrix is exact
        pf = oa.parse((FIXTURES / "rational_scales.alg").read_text())
        assert oa.validate(pf.algebra) == []
        D = oa.build_datum(pf.algebra, pf.generator_terms, pf.functional_vals)
        entries = [c for coefficient in D.pencil for pairs in coefficient
                   for _, c in pairs]
        assert all(type(c) is int for c in entries)
        assert D.denominator == 90
        assert sorted(Fraction(c, D.denominator) for c in entries) == [
            Fraction(-1, 10), Fraction(5, 18), Fraction(1, 2),
            Fraction(2, 3), Fraction(7, 6)]
        for _, label, point in FROZEN_POINTS:
            if label in ("p1", "p2"):
                x = [Fraction(v) for v in point.split(",")]
                assert moment_matrix(D, x) == moment_reference(
                    D, oa.point_on_variety(D, x))

    def test_skips_structural_screens(self):
        # rank is a pointwise computation; it must work on the motion
        # algebra even though verdict refuses it
        code, out, _err = run_cli("rank", str(FIXTURES / "motion.alg"),
                                  "--point", "0,0")
        assert code == 0
        assert "rank_M:" in out

    def test_wrong_arity(self):
        code, _out, err = run_cli("rank", corpus_file("heisenberg_yz"),
                                  "--point", "1,2")
        assert code == 1
        assert "needs 1 coordinates" in err

    def test_garbage_point(self):
        code, _out, err = run_cli("rank", corpus_file("heisenberg_yz"),
                                  "--point", "one")
        assert code == 1
        assert "--point" in err

    def test_dashes_as_a_value(self):
        # '--' after a valued option is its value: a point and a step that
        # do not parse, not a traceback
        path = corpus_file("grelaud")
        for argv in (("rank", path, "--point", "--"),
                     ("rank", path, "--point=--"),
                     ("jacobian", path, "--point", "--")):
            code, out, err = run_cli(*argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: --point") and err.count("\n") == 1
        assert run_cli("jacobian", path, "--point", "1,2", "--step", "--") \
            == (1, "", "error: argument --step: invalid float value: '--'\n")

    def test_point_is_required(self):
        code, _out, err = run_cli("rank", corpus_file("heisenberg_yz"))
        assert code == 1

    def test_empty_point_when_h_is_g(self, tmp_path):
        # h = g leaves the chart no coordinates: "" is the one point
        path = tmp_path / "axb_whole.alg"
        path.write_text("algebra axb\ndim 2\nbasis A B\nbracket A B = B\n"
                        "subalgebra A; B\nfunctional 1, 0\n")
        code, out, err = run_cli("rank", str(path), "--point", "")
        assert (code, err) == (0, "")
        assert out.startswith('point: ["1", "0"]\nrank_M: 0\n')
        assert run_cli("rank", str(path), "--point=")[1] == out
        code, out, err = run_cli("jacobian", str(path), "--point", "")
        assert (code, err) == (0, "")
        assert "rank_matches: true\n" in out
        assert run_cli("rank", str(path), "--point", "1") == (
            1, "", "error: --point needs 0 coordinates for this datum, "
                   "got 1\n")


    def test_a_number_too_long_to_print_is_an_error(self, tmp_path):
        # a functional value of 4,300 digits parses, and validate and
        # verdict print it, but the stabilizer basis at -1/2 holds a
        # longer number than Python converts to text
        text = pathlib.Path(corpus_file("diag_2d")).read_text().replace(
            "functional 1, 1", "functional 1, " + "9" * 4300)
        path = tmp_path / "diag_2d_long.alg"
        path.write_text(text)
        for command in ("validate", "verdict"):
            assert run_cli(command, str(path))[0] == 0
        assert run_cli("rank", str(path), "--point", "-1/2") == (
            1, "", "error: a number in the report at this --point has too "
                   "many digits to print\n")


# N has 4,300 digits, as many as Python reads as an int; each file below
# parses, but its report or refusal holds a number of more digits than
# Python writes as text
N = "9" * 4300
TOO_LONG_TO_PRINT = {
    # a Jacobi residual of about N^2
    "jacobi": f"bracket X Y = {N} * Y\nbracket Y Z = {N} * X\n",
    # [N X, N Y] = N^2 Z leaves h
    "not_closed": f"bracket X Y = Z\nsubalgebra {N} * X; {N} * Y\n",
    # f([X, Y]) = f(2 Z) = 2N
    "not_a_character": f"bracket X Y = 2 * Z\nsubalgebra X; Y; Z\n"
                       f"functional 0, 0, {N}\n",
    # the generator 2N Z, printed by the summary and the report
    "generator": f"bracket X Y = Z\nsubalgebra {N} * Z + {N} * Z\n",
}


@pytest.mark.parametrize("command", [("validate",), ("verdict",),
                                     ("verdict", "--json")],
                         ids=" ".join)
@pytest.mark.parametrize("case", list(TOO_LONG_TO_PRINT))
def test_a_number_too_long_to_print_is_refused(case, command, tmp_path):
    path = tmp_path / f"{case}.alg"
    path.write_text("algebra g\ndim 3\nbasis X Y Z\n"
                    + TOO_LONG_TO_PRINT[case])
    assert run_cli(*command, str(path)) == (
        1, "", "error: a number in the output has too many digits to "
               "print\n")


class TestJacobian:
    def test_grelaud_report(self):
        code, out, _err = run_cli("jacobian", corpus_file("grelaud"),
                                  "--point", "2,1/2")
        assert code == 0
        assert "numerical_rank_J: 3\n" in out
        assert "expected_rank: 3\n" in out
        assert "rank_matches: true\n" in out

    def test_deviations_within_advertised_tolerances(self):
        code, out, _err = run_cli("jacobian", corpus_file("h5_y1y2"),
                                  "--point", "1,2,-1/2")
        assert code == 0
        devs = {}
        for line in out.splitlines():
            key, _, val = line.partition(": ")
            if key.startswith("max_dev"):
                devs[key] = float(val)
        assert devs["max_dev_topleft"] < 1e-6
        assert devs["max_dev_topright"] < 1e-6
        assert devs["max_dev_bottomright"] < 1e-9

    @pytest.mark.parametrize("name,label,point", FROZEN_POINTS,
                             ids=FROZEN_IDS)
    def test_matches_frozen_fixture(self, name, label, point):
        # the max_dev_* lines are floats that depend on the BLAS build, so
        # they are held to the advertised tolerances instead
        code, out, err = run_cli("jacobian", problem_file(name),
                                 "--point", point)
        assert (code, err) == (0, "")
        frozen = (FIXTURES / "points" / f"{name}.jacobian.{label}.txt"
                  ).read_text().splitlines()
        lines = out.splitlines()
        assert len(lines) == len(frozen)
        bounds = {"max_dev_topleft": 1e-6, "max_dev_topright": 1e-6,
                  "max_dev_bottomright": 1e-9}
        for line, expected in zip(lines, frozen):
            key, _, value = line.partition(": ")
            assert key == expected.partition(": ")[0]
            if key in bounds:
                assert float(value) < bounds[key]
            else:
                assert line == expected
        assert out.endswith("\n")

    def test_step_must_be_positive(self):
        # and finite; 1e10 is, but exp(1e10 ad A) overflows
        for step in ("0", "nan", "inf", "-inf", "1e10"):
            code, out, err = run_cli("jacobian", corpus_file("grelaud"),
                                     "--point", "2,1/2", f"--step={step}")
            assert (code, out) == (1, "")
            assert err.startswith("error: --step") and err.count("\n") == 1

    def test_oversized_point_is_a_point_error(self):
        # a coordinate beyond the float range is the point's fault, not
        # the step's
        code, out, err = run_cli("jacobian", corpus_file("grelaud"),
                                 "--point", "9" * 400 + ",1")
        assert (code, out) == (1, "")
        assert err == ("error: --point: a coordinate is too large for "
                       "floating point\n")

    def test_a_problem_past_the_float_range_is_not_the_step(self,
                                                            tmp_path):
        # the generator 2N Z floats to no number, whatever the step; a step
        # that overflows the difference quotients is still named
        path = tmp_path / "generator.alg"
        path.write_text("algebra g\ndim 3\nbasis X Y Z\n"
                        + TOO_LONG_TO_PRINT["generator"])
        for step in ("1e-4", "1e300"):
            assert run_cli("jacobian", str(path), "--point", "0,0",
                           "--step", step) == (
                1, "", "error: a number of the problem at this --point is "
                       "too large for floating point: int too large to "
                       "convert to float\n")
        code, out, err = run_cli("jacobian", corpus_file("grelaud"),
                                 "--point", "1,2", "--step", "1e300")
        assert (code, out) == (1, "")
        assert err.startswith("error: --step is too large: ")

    def test_step_below_float_spacing_is_a_usage_error(self):
        # where x_r + step or x_r - step rounds to x_r, the chart columns
        # of the difference quotient vanish or halve, and the report would
        # read as a failed derivative check; 2^53 + 1 rounds, 2^53 - 1
        # does not
        for point, step in (("1" + "0" * 300 + ",1", "1e-4"),
                            ("2,1/2", "1e-17"),
                            ("1," + str(2 ** 53), "1")):
            code, out, err = run_cli("jacobian", corpus_file("grelaud"),
                                     "--point", point, "--step", step)
            assert (code, out) == (1, "")
            assert err == ("error: --step is below the spacing of floating "
                           "point at a --point coordinate\n")
        code, _out, _err = run_cli("jacobian", corpus_file("grelaud"),
                                   "--point", "1," + str(2 ** 53),
                                   "--step", "2")
        assert code == 0

    def test_tol_must_be_positive(self):
        for tol in ("-1", "nan", "inf", "1", "2"):
            code, out, err = run_cli("jacobian", corpus_file("grelaud"),
                                     "--point", "2,1/2", f"--tol={tol}")
            assert (code, out) == (1, "")
            assert err.startswith("error: --tol") and err.count("\n") == 1

    def test_skips_structural_screens(self):
        code, out, _err = run_cli("jacobian", str(FIXTURES / "motion.alg"),
                                  "--point", "1,0")
        assert code == 0
        assert "rank_matches: true\n" in out


class TestCorpus:
    def test_lists_all_bundled_examples(self):
        code, out, _err = run_cli("corpus")
        assert code == 0
        lines = out.splitlines()
        names = [line.split()[0] for line in lines]
        assert names == CORPUS_NAMES  # sorted
        for line in lines:
            assert line.split()[-1].endswith(".alg")

    def test_listed_paths_parse(self):
        _code, out, _err = run_cli("corpus")
        for line in out.splitlines():
            path = pathlib.Path(line.split()[-1])
            assert path.exists()
            oa.parse(path.read_text())

    def test_reads_files_as_utf8(self, tmp_path, monkeypatch):
        # corpus reads each file as the other commands do, whatever the
        # locale: a non-ASCII comment lists as its ASCII twin does
        text = (cli.corpus_dir() / "grelaud.alg").read_text()
        (tmp_path / "ascii.alg").write_bytes(f"# g\n{text}".encode())
        (tmp_path / "utf8.alg").write_bytes(f"# é—\n{text}".encode())
        monkeypatch.setattr(cli, "corpus_dir", lambda: tmp_path)
        code, out, err = run_cli("corpus")
        assert (code, err) == (0, "")
        assert out == (f"ascii            dim 3  m 1  {tmp_path / 'ascii.alg'}\n"
                       f"utf8             dim 3  m 1  {tmp_path / 'utf8.alg'}\n")

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path,
                                                     monkeypatch):
        (tmp_path / "latin.alg").write_bytes(b"algebra g\ndim 1\nbasis \xe9\n")
        monkeypatch.setattr(cli, "corpus_dir", lambda: tmp_path)
        assert run_cli("corpus") == (
            1, "", "parse error: line 3, column 7: invalid UTF-8 byte 0xe9\n")
