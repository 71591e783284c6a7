import csv
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import smoothed_pnt
from smoothed_pnt import cli, goldbach, sieve
from smoothed_pnt.errors import ToleranceError
from smoothed_pnt.zeros import load_zeros

GAMMA1 = 14.134725141734693

HEADER = "x,psi,baseline,delta,S,D,W,omega,omega_S,omega_D,omega_W,psi_over_x"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMetricsCommand:
    def test_header_and_row_count(self, capsys):
        code, out, _ = run(
            capsys, "metrics", "--x", "10:1e3:5", "--zeros", "builtin", "--tol", "1e-6"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == HEADER
        assert len(lines) == 6

    def test_omega_column_matches_first_zero(self, capsys):
        code, out, _ = run(capsys, "metrics", "--x", "100:100:1", "--zeros", "builtin")
        assert code == 0
        header, row = out.strip().split("\n")
        vals = dict(zip(header.split(","), map(float, row.split(","))))
        expected = 0.5 * math.log(100.0) + math.log(GAMMA1)
        assert abs(vals["omega"] - expected) <= 1e-6

    def test_log_ratio_columns_consistent(self, capsys):
        code, out, _ = run(capsys, "metrics", "--x", "200:200:1")
        header, row = out.strip().split("\n")
        vals = dict(zip(header.split(","), map(float, row.split(","))))
        assert vals["omega_S"] == pytest.approx(math.log(200.0 / vals["S"]), rel=1e-12)
        assert vals["omega_D"] == pytest.approx(math.log(200.0 / vals["D"]), rel=1e-12)
        assert vals["omega_W"] == pytest.approx(math.log(200.0 / vals["W"]), rel=1e-12)
        assert vals["S"] >= vals["D"] - 1e-9

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["metrics", "--x", "10:1e3:5", "--tol", "1e-6"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "metrics", "--x", "50:50:1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 1
        assert data["rows"][0]["x"] == 50.0


class TestDeltaCommand:
    def test_residual_column(self, capsys):
        code, out, _ = run(
            capsys, "delta", "--x", "100:1000:2", "--constant", "derived"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,psi,baseline,delta,explicit_delta,residual"
        row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
        assert row["residual"] == pytest.approx(
            row["delta"] - row["explicit_delta"], rel=1e-12
        )


class TestGoldbachCommand:
    def test_k1_column_matches_psi(self, capsys):
        code, out, _ = run(capsys, "goldbach", "--k", "1", "--x", "20:100:3")
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, map(float, line.split(","))))
            psi = row["psi_pow_k"]
            assert abs(row["F_k"] - psi) <= 1e-12 * abs(psi)

    def test_k2_reports_contour_check(self, capsys):
        code, out, err = run(capsys, "goldbach", "--k", "2", "--x", "20:50:2")
        assert code == 0
        assert "contour identity check" in err

    def test_k_range(self, capsys):
        code, _, err = run(capsys, "goldbach", "--k", "7", "--x", "20:50:2")
        assert code == 2

    @staticmethod
    def _assert_fk_is_psi_power(out, rows):
        body = list(csv.DictReader(io.StringIO(out)))
        assert len(body) == rows
        for r in body:
            psi_k = float(r["psi_pow_k"])
            assert abs(float(r["F_k"]) - psi_k) <= 1e-11 * psi_k, r["x"]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_default_grid_sizes_its_own_table(self, capsys, k):
        # the convolution limit is the smallest one goldbach.fk_cutoff
        # certifies, and F_k at the grid's small x keeps its accuracy
        code, out, _ = run(capsys, "goldbach", "--k", str(k))
        assert code == 0
        self._assert_fk_is_psi_power(out, 7)

    def test_tight_tol_sizes_its_own_table(self, capsys):
        code, out, _ = run(capsys, "goldbach", "--k", "2", "--tol", "1e-12")
        assert code == 0
        self._assert_fk_is_psi_power(out, 7)

    def test_takes_no_zero_table(self, capsys):
        code, _, _ = run(capsys, "goldbach", "--zeros", "builtin")
        assert code == 2

    def test_one_smooth_fk_call_per_table(self, capsys, monkeypatch):
        # F_k and Psi each sum the whole grid in one call
        grids = []
        smooth_Fk = goldbach.smooth_Fk

        def recording(conv, x, tol):
            grids.append((conv.k, np.shape(x)))
            return smooth_Fk(conv, x, tol=tol)

        monkeypatch.setattr(goldbach, "smooth_Fk", recording)
        code, _, _ = run(capsys, "goldbach", "--k", "3", "--x", "10:1e3:7")
        assert code == 0
        assert grids == [(3, (7,)), (1, (7,))]


class TestZerosCommand:
    def test_single_zero_file(self, capsys, tmp_path):
        out_path = tmp_path / "z.txt"
        code, out, err = run(capsys, "zeros", "--T", "20", "--out", str(out_path))
        assert code == 0
        assert "found 1 zeros" in err
        zs = load_zeros(out_path)
        assert len(zs) == 1
        assert abs(zs.gammas[0] - 14.1347) <= 5e-4

    def test_empty_below_first_zero(self, capsys, tmp_path):
        out_path = tmp_path / "z.txt"
        code, _, err = run(capsys, "zeros", "--T", "10", "--out", str(out_path))
        assert code == 0
        assert "found 0 zeros" in err

    def test_roundtrip_matches_memory(self, capsys, tmp_path):
        from smoothed_pnt.zeros import find_zeros

        out_path = tmp_path / "z.txt"
        code, _, _ = run(capsys, "zeros", "--T", "30", "--out", str(out_path))
        assert code == 0
        back = load_zeros(out_path)
        mem = find_zeros(30.0)
        assert np.max(np.abs(back.gammas - mem.gammas)) <= 1e-12

    def test_env_var_source(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "z.txt"
        p.write_text("10.0\n")  # a synthetic "zero" below gamma_1
        monkeypatch.setenv(cli.ENV_ZEROS, str(p))
        code, out, _ = run(capsys, "metrics", "--x", "100:100:1")
        assert code == 0
        row = dict(
            zip(HEADER.split(","), map(float, out.strip().split("\n")[1].split(",")))
        )
        assert row["omega"] == pytest.approx(
            0.5 * math.log(100.0) + math.log(10.0), rel=1e-9
        )


class TestTuranCommand:
    def test_seeded_run_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["turan", "--seed", "3", "--instances", "50"]
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("k", [0, 7, 19])
    def test_violation_names_the_first_violating_instance(self, capsys, monkeypatch, k):
        batch = cli.pintz.turan_bounds

        def violated(instances):
            grid_max, bound = batch(instances)
            for i in (k, len(instances) - 1):  # a later one too, unnamed
                bound[i] = grid_max[i] / 0.98
            return grid_max, bound

        monkeypatch.setattr(cli.pintz, "turan_bounds", violated)
        code, out, err = run(capsys, "turan", "--seed", "0", "--instances", "20")
        assert code == 4
        assert out == "" and f"power-sum bound violated at instance {k}:" in err

    def test_bad_instance_fails_before_any_output(self, capsys, monkeypatch, tmp_path):
        batch = cli.pintz.turan_bounds

        def corrupted(instances):
            alphas, _, b = instances[3]
            instances[3] = (alphas, 0.0, b)
            return batch(instances)

        monkeypatch.setattr(cli.pintz, "turan_bounds", corrupted)
        path = tmp_path / "t.csv"
        for out_args in ([], ["--out", str(path)]):
            code, out, err = run(capsys, "turan", "--instances", "20", *out_args)
            assert code == 2
            assert out == "" and "a, b must lie in (0, 100]" in err
        assert not path.exists()


class TestExitCodes:
    def test_config_error(self, capsys):
        code, _, err = run(capsys, "metrics", "--x", "oops")
        assert code == 2
        assert "error" in err

    def test_zeros_range_config_error(self, capsys):
        code, _, _ = run(capsys, "zeros", "--T", "2000")
        assert code == 2

    def test_capacity_error(self, capsys, monkeypatch):
        # each certified table is past the sieve's range: refused before any tile is sieved
        def sieved(*args):
            raise AssertionError("the table was sieved")

        monkeypatch.setattr(sieve, "_segments", sieved)
        for argv in (
            ["metrics", "--x", "1e7:1e7:1"],
            ["delta", "--x", "5e6:5e6:1"],
            ["pintz", "--mu-scale", "1e6"],
        ):
            code, out, err = run(capsys, *argv)
            assert code == 3, argv
            assert out == "" and "capacity" in err and "outside supported range" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["metrics", "--limit", "5"],
            ["delta", "--limit", "5"],
            ["goldbach", "--limit", "5"],
            ["pintz", "--limit", "5"],
            ["metrics", "--s-grid", "64"],
        ],
    )
    def test_sizes_come_only_from_certificates(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "unrecognized arguments" in err

    @pytest.mark.parametrize("grid", ["nan:100:3", "10:inf:3"])
    def test_non_finite_grid(self, capsys, grid):
        code, _, err = run(capsys, "delta", "--x", grid)
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize(
        "flags",
        [["--mu-scale", "0"], ["--mu-scale", "-5"], ["--mu-scale", "nan"], ["--k", "nan"]],
    )
    def test_bad_pintz_parameters(self, capsys, flags):
        code, _, err = run(capsys, "pintz", *flags)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "flags",
        [["--mu-scale", "1e299"], ["--mu-scale", "1e307"], ["--k", "100", "--mu-scale", "1e280"]],
    )
    def test_pintz_window_past_int64(self, capsys, flags):
        code, out, err = run(capsys, "pintz", *flags)
        assert code == 2
        assert out == "" and err.count("\n") == 1 and "int64" in err

    def test_goldbach_past_the_sieve_is_a_capacity_error(self, capsys):
        # the convolution limit at x = 1e16 is 1.0e18: inside int64, past MAX_LIMIT
        code, out, err = run(capsys, "goldbach", "--x", "10:1e16:2")
        assert code == 3
        assert out == "" and err.startswith("capacity error") and err.count("\n") == 1

    def test_unreadable_zero_table(self, capsys, tmp_path):
        code, _, err = run(capsys, "delta", "--x", "10:100:3", "--zeros", str(tmp_path / "absent.txt"))
        assert code == 2
        assert "cannot read zero table" in err

    def test_non_finite_zero(self, capsys, tmp_path):
        path = tmp_path / "z.txt"
        path.write_text("14.134725\nnan\n25.0\n")
        code, out, err = run(capsys, "delta", "--x", "10:100:3", "--zeros", str(path))
        assert code == 2
        assert out == "" and "finite" in err

    def test_tolerance_error_mapping(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ToleranceError("forced")

        monkeypatch.setattr(cli.pintz, "U_integral", boom)
        code, _, err = run(capsys, "pintz", "--mu-scale", "5")
        assert code == 4
        assert "tolerance" in err

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_turan_needs_an_instance(self, capsys, count):
        code, out, err = run(capsys, "turan", "--instances", count)
        assert code == 2
        assert out == "" and "instances" in err

    @pytest.mark.parametrize(
        "argv, name",
        [(["metrics", "--x", "10:100:3"], "m.csv"), (["zeros", "--T", "30"], "z.txt")],
    )
    def test_unwritable_out(self, capsys, tmp_path, argv, name):
        path = tmp_path / "missing" / name
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == "" and "error:" in err and str(path) in err
        assert not path.parent.exists()


    def test_unwritable_out_fails_before_sieving(self, capsys, tmp_path, monkeypatch):
        def sieved(*args):
            raise AssertionError("the table was sieved")

        monkeypatch.setattr(sieve, "_segments", sieved)
        path = tmp_path / "missing" / "m.csv"
        code, out, err = run(capsys, "metrics", "--x", "10:1e6:25", "--out", str(path))
        assert code == 2
        assert out == "" and f"cannot write {str(path)!r}" in err

    def test_out_directory_without_write_access(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
        path = tmp_path / "t.csv"
        code, out, err = run(capsys, "turan", "--instances", "2", "--out", str(path))
        assert code == 2
        assert out == "" and "Permission denied" in err
        assert not path.exists()

    def test_negative_turan_seed(self, capsys):
        code, out, err = run(capsys, "turan", "--seed", "-1", "--instances", "2")
        assert code == 2
        assert out == "" and "seed" in err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["metrics", "--tol", "0"], "tol must lie in (0, 1), got 0.0"),
            (["delta", "--tol", "1"], "tol must lie in (0, 1), got 1.0"),
            (["goldbach", "--tol=-1"], "tol must lie in (0, 1), got -1.0"),
            (["pintz", "--tol", "nan"], "tol must lie in (0, 1), got nan"),
            (["metrics", "--x", "a:100:3"], "could not convert string to float: 'a'"),
            (["delta", "--x", "0.5:100:3"], "grid needs start >= 1"),
            (["goldbach", "--x", "100:10:3"], "stop >= start"),
            (["metrics", "--x", "10:100:0"], "points >= 1"),
        ],
    )
    def test_bad_tol_or_grid_fails_before_sieving(self, capsys, monkeypatch, argv, reason):
        def sieved(*args):
            raise AssertionError("a tile was sieved")

        monkeypatch.setattr(sieve, "_segment", sieved)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and err.startswith("error: ") and reason in err


def _strict_json(text):
    """json.loads, refusing the NaN and Infinity tokens that JSON does not have."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestJsonOutput:
    # every command with --format; zeros has no --format, it writes one
    # gamma per line
    @pytest.mark.parametrize(
        "argv",
        [
            ["metrics", "--x", "1:10:2"],  # omega is NaN at x = 1
            ["delta", "--x", "10:100:3"],
            ["goldbach", "--k", "2", "--x", "20:50:2"],
            ["pintz", "--mu-scale", "20", "--k", "0.5", "--tol", "0.2"],
            ["turan", "--seed", "3", "--instances", "5"],
        ],
    )
    def test_json_parses_strictly_and_matches_csv(self, capsys, argv):
        code, out_csv, _ = run(capsys, *argv)
        assert code == 0
        code, out_json, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        rows = _strict_json(out_json)["rows"]
        body = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(rows) == len(body) > 0
        for row, line in zip(rows, body):
            assert list(row) == list(line)
            for name, text in line.items():
                value = float(text)
                if math.isfinite(value):
                    assert row[name] == value, name
                else:
                    assert row[name] is None, name

    def test_non_finite_is_null(self, capsys):
        code, out, _ = run(capsys, "metrics", "--x", "1:10:2", "--format", "json")
        assert code == 0
        assert "NaN" not in out
        assert _strict_json(out)["rows"][0]["omega"] is None

    def test_zeros_takes_no_format(self, capsys):
        code, _, _ = run(capsys, "zeros", "--T", "20", "--format", "json")
        assert code == 2


class TestPintzCommand:
    def test_small_scale_run(self, capsys):
        # small mu keeps the table tiny; checks the pipeline end to end
        code, out, _ = run(
            capsys, "pintz", "--mu-scale", "20", "--k", "0.5", "--tol", "0.2"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("mu,k,U_integral_re")
        assert len(lines) == 2


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
def test_pintz_streams_its_table(tmp_path):
    # --mu-scale 100 sizes a table of 26,082,600 entries (209 MB held
    # whole, 233 MB peak when pintz held it).  The march holds the
    # 1.6e6 entries it reads and the envelope probes stream the rest.
    # A child's ru_maxrss counts the memory of the process it was forked
    # from, so pintz is started from a bare interpreter, not from pytest.
    launcher = textwrap.dedent(
        """
        import os, subprocess, sys
        child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
        """
    )
    src = str(Path(smoothed_pnt.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)), OPENBLAS_NUM_THREADS="1")
    argv = ["pintz", "--mu-scale", "100", "--k", "1", "--tol", "0.1"]
    proc = subprocess.run(
        [sys.executable, "-c", launcher, sys.executable, "-m", "smoothed_pnt.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, maxrss_kib = map(int, proc.stdout.split())
    assert code == 0, proc.stderr
    assert maxrss_kib / 1024 < 120


def test_all_commands_run_without_scipy(tmp_path):
    # numpy is the only runtime dependency: a child that cannot import
    # scipy still imports the package and runs every command (the goldbach
    # grid reaches the FFT convolution branch: fk_cutoff(2, 600, 1e-6) is
    # 21282 > DIRECT_LIMIT = 20000)
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        sys.modules["scipy"] = None
        from smoothed_pnt import cli
        runs = [
            ["metrics", "--x", "10:100:3"],
            ["delta", "--x", "10:100:3"],
            ["goldbach", "--k", "2", "--x", "10:600:3"],
            ["zeros", "--T", "30"],
            ["pintz", "--mu-scale", "60", "--k", "0.6", "--tol", "0.1"],
            ["turan", "--seed", "0", "--instances", "20"],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            print(argv[0], code)
        """
    )
    src = str(Path(smoothed_pnt.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        w for c in ("metrics", "delta", "goldbach", "zeros", "pintz", "turan") for w in (c, "0")
    ]


def test_no_command_imports_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on numpy 2.4 (~20 ms a run); no command
    # needs it, so none may import it, the metrics grids included.  Nor
    # fractions or decimal (exact Bernoulli numbers once took them), and
    # json only with --format json
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        from smoothed_pnt import cli
        runs = [
            ["metrics", "--x", "10:1e4:5"],
            ["delta", "--x", "10:100:3"],
            ["goldbach", "--k", "2", "--x", "10:600:3"],
            ["zeros", "--T", "250"],
            ["pintz", "--mu-scale", "60", "--k", "0.6", "--tol", "0.1"],
            ["turan", "--seed", "0", "--instances", "20"],
        ]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            loaded = [m in sys.modules for m in ("numpy.ma", "fractions", "decimal", "json")]
            print(argv[0], code, *loaded)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["turan", "--instances", "3", "--format", "json"])
        print("json", code, "json" in sys.modules)
        """
    )
    src = str(Path(smoothed_pnt.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        w
        for c in ("metrics", "delta", "goldbach", "zeros", "pintz", "turan")
        for w in (c, "0", "False", "False", "False", "False")
    ] + ["json", "0", "True"]


_REPO = Path(__file__).resolve().parents[1]
_WORKFLOW = _REPO / ".github" / "workflows" / "tier1.yml"


def _workflow_commands():
    """(argv, line) for each smoothed-pnt command of tier1.yml, argv up to its first shell operator."""
    commands = []
    for line in _WORKFLOW.read_text().splitlines():
        code = line.split("#")[0]
        if "smoothed-pnt " in code:
            lex = shlex.shlex(code.split("smoothed-pnt ", 1)[1], posix=True, punctuation_chars=True)
            lex.whitespace_split = True
            argv = list(itertools.takewhile(lambda word: word not in (">", ";", "||"), lex))
            commands.append((argv, line))
    return commands


class TestTier1Workflow:
    # The workflow runs only on a CI runner, so its lines are checked
    # here as text: the files it compares with, the commands it runs,
    # and its benchmark line.  Nothing is run or written.
    def test_compared_files_exist(self):
        targets = re.findall(r'cmp \S+ "\$GITHUB_WORKSPACE/([^"]+)"', _WORKFLOW.read_text())
        assert len(targets) >= 6
        assert [t for t in targets if not (_REPO / t).is_file()] == []

    def test_commands_parse_but_the_limit_line(self):
        commands = _workflow_commands()
        assert len(commands) >= 10
        refused = []
        for argv, line in commands:
            try:
                cli.build_parser().parse_args(argv)
            except SystemExit:
                refused.append(argv)
        assert refused == [["metrics", "--limit", "5"]]

    def test_pintz_bench_line_is_the_benchmark_step(self):
        index = json.loads((_REPO / "perfbench" / "reference" / "index.json").read_text())
        bench = [argv for argv, line in _workflow_commands() if "> pintz_bench.txt" in line]
        assert bench == [index["workloads"]["lower_bound"]["0"]["argv"]]

    def test_demos_run_from_the_installed_package(self):
        demos = re.findall(r'python "\$GITHUB_WORKSPACE/(demos/[^"]+)"', _WORKFLOW.read_text())
        assert sorted(demos) == [
            "demos/03_goldbach_convolutions.py",
            "demos/04_metric_family.py",
            "demos/05_lower_bound_machinery.py",
        ]
        assert [d for d in demos if not (_REPO / d).is_file()] == []


def test_readme_cli_lines_parse():
    # README's CLI examples, every smoothed-pnt line of its code blocks,
    # one per subcommand, must parse as they are printed
    blocks = re.findall(r"^```\n(.*?)^```", (_REPO / "README.md").read_text(), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("smoothed-pnt ")]
    commands = [shlex.split(line)[1:] for line in lines]
    assert sorted(argv[0] for argv in commands) == [
        "delta", "goldbach", "metrics", "pintz", "turan", "zeros"
    ]
    for argv in commands:
        cli.build_parser().parse_args(argv)
