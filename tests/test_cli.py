import csv
import io
import math
import os
import subprocess
import sys

import pytest

from shufflebandit import harness
from shufflebandit.cli import main

CONFIG = """\
k = 2
means = 1.0, 0.0
horizon = 100
variants = ae-baseline
seeds = 1
master_seed = 3
checkpoints = 50, 100
output = {out}
baseline_m = 10
"""


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAudit:
    def test_csv_report(self, capsys):
        code, out, _ = run_cli(
            ["audit", "--m", "1,10", "--eps", "0.5", "--delta", "0.01"],
            capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        assert {row["pass"] for row in rows} == {"true"}
        assert float(rows[0]["div_forward"]) <= 0.01

    def test_all_cells_pass(self, capsys):
        # every cell's ceil(tau) audited in every (eps, delta) cell
        taus = [math.ceil(96 * math.log(2 / d) / e**2)
                for e in (0.3, 0.9) for d in (1e-2, 1e-5)]
        ms = sorted({1, 10, *taus})
        code, out, _ = run_cli(
            ["audit", "--m", ",".join(map(str, ms)), "--eps", "0.3,0.9",
             "--delta", "1e-2,1e-5"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(row["m"]) for row in rows] == \
            [m for m in ms for _ in range(4)]
        assert {row["pass"] for row in rows} == {"true"}

    def test_tau_tokens_resolve_per_cell(self, capsys):
        code, out, _ = run_cli(
            ["audit", "--m", "7,tau,4tau", "--eps", "0.3,0.9",
             "--delta", "0.01"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        taus = [math.ceil(96 * math.log(200) / e**2) for e in (0.3, 0.9)]
        assert [int(row["m"]) for row in rows] == \
            [7, 7] + taus + [4 * t for t in taus]
        assert {row["pass"] for row in rows} == {"true"}

    def test_batch_sizes_above_support_cap_pass(self, capsys):
        code, out, _ = run_cli(
            ["audit", "--m", "4194304,1000000000", "--eps", "0.25,1",
             "--delta", "1e-5"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [int(row["m"]) for row in rows] == [4194304] * 2 + [10**9] * 2
        assert {row["pass"] for row in rows} == {"true"}

    def test_bad_batch_size_exits_one(self, capsys):
        code, _, err = run_cli(
            ["audit", "--m", "2tau", "--eps", "0.5", "--delta", "0.01"],
            capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("flag,value", [("--m", ""), ("--eps", ","),
                                            ("--delta", " , ")])
    def test_empty_list_exits_one(self, capsys, flag, value):
        flags = {"--m": "4", "--eps": "0.5", "--delta": "0.01", flag: value}
        code, out, err = run_cli(
            ["audit", *(arg for pair in flags.items() for arg in pair)],
            capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} needs at least one value\n"

    @pytest.mark.parametrize("flag,value,entry", [
        ("--m", "4,1.5", "'1.5'"), ("--eps", "x", "'x'"),
        ("--delta", "0.01, 1e-", "'1e-'")])
    def test_bad_entry_names_flag(self, capsys, flag, value, entry):
        flags = {"--m": "4", "--eps": "0.5", "--delta": "0.01", flag: value}
        code, out, err = run_cli(
            ["audit", *(arg for pair in flags.items() for arg in pair)],
            capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {flag} has an invalid entry {entry}\n"

    def test_invalid_epsilon_recorded_per_cell(self, capsys):
        code, out, err = run_cli(
            ["audit", "--m", "4", "--eps", "1.5,0.5", "--delta", "0.01"],
            capsys)
        assert code == 0
        assert err == ""
        bad, good = csv.DictReader(io.StringIO(out))
        assert (bad["m"], bad["epsilon"], bad["delta"]) == ("4", "1.5", "0.01")
        assert bad["div_forward"] == bad["div_backward"] == ""
        # the message holds a comma, so the row quotes it
        assert bad["pass"] == "error: epsilon must be in (0, 1], got 1.5"
        # the grid goes on past the bad cell
        assert (good["m"], good["epsilon"], good["delta"]) == ("4", "0.5",
                                                               "0.01")
        assert float(good["div_forward"]) <= 0.01
        assert float(good["div_backward"]) <= 0.01
        assert good["pass"] == "true"

    def test_epsilon_too_small_is_an_error_row(self, capsys):
        # eps**2 underflows to 0.0: the row says so and the grid goes on
        code, out, err = run_cli(
            ["audit", "--m", "1", "--eps", "1e-200,0.5", "--delta", "1e-5"],
            capsys)
        assert code == 0
        assert err == ""
        bad, good = csv.DictReader(io.StringIO(out))
        assert bad["epsilon"] == "1e-200"
        assert bad["pass"].startswith("error: epsilon 1e-200 is too small")
        assert good["epsilon"] == "0.5"
        assert good["pass"] == "true"

    def test_batch_size_too_large_for_a_float_is_an_error_row(self, capsys):
        # a 400-digit batch size overflows the float noise probability
        m = "1" + "0" * 400
        code, out, err = run_cli(
            ["audit", "--m", f"4,{m}", "--eps", "0.5", "--delta", "0.01"],
            capsys)
        assert code == 0
        assert err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["m"] for row in rows] == ["4", m]
        assert rows[0]["pass"] == "true"
        assert rows[1]["pass"] == "error: int too large to convert to float"


class TestMechanismSample:
    def test_emits_n_lines(self, capsys):
        code, out, _ = run_cli(
            ["mechanism", "sample", "--m", "10", "--eps", "0.8",
             "--delta", "0.01", "--n", "25", "--seed", "5"], capsys)
        assert code == 0
        values = [float(line) for line in out.splitlines()]
        assert len(values) == 25

    def test_bad_m_exits_one(self, capsys):
        code, _, err = run_cli(
            ["mechanism", "sample", "--m", "0", "--eps", "0.8",
             "--delta", "0.01", "--n", "5"], capsys)
        assert code == 1
        assert "error" in err

    def test_negative_seed_exits_one(self, capsys):
        code, out, err = run_cli(
            ["mechanism", "sample", "--m", "3", "--eps", "0.8",
             "--delta", "0.01", "--n", "5", "--seed", "-1"], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: --seed must be >= 0, got -1\n"


class TestRun:
    def test_runs_experiment(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out=out))
        code, _, _ = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 0
        assert (out / "results.csv").exists()

    def test_validation_error_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path).replace("1.0, 0.0",
                                                           "2.0, 0.0"))
        code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("eps", ["1e-160", "1e-200"])
    def test_epsilon_too_small_exits_one_naming_the_line(self, tmp_path,
                                                         capsys, eps):
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out=out).replace(
            "ae-baseline", f"sdp-ae\nepsilons = {eps}\ndeltas = 1e-5"))
        code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 1
        assert err.startswith(f"error: {cfg}:5: epsilon {eps} is too small")
        assert not out.exists()

    def test_delta_whose_inverse_overflows_runs(self, tmp_path, capsys):
        # 2 / 5e-324 is inf, and the budget is still finite
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out=out).replace(
            "ae-baseline", "sdp-ae\nepsilons = 1.0\ndeltas = 5e-324"))
        code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
        assert (code, err) == (0, "")
        assert (out / "results.csv").exists()

    @pytest.mark.parametrize("horizon,code", [(2**63 - 1, 0), (2**63, 1)])
    def test_horizon_numpy_can_draw(self, tmp_path, capsys, horizon, code):
        # numpy draws batch sums as int64: 2**63 - 1 runs to the horizon,
        # and 2**63 is rejected naming the line
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out=out).replace(
            "horizon = 100", f"horizon = {horizon}").replace(
            "checkpoints = 50, 100", f"checkpoints = 50, {horizon}").replace(
            "ae-baseline", "vb-sdp-ae\nepsilons = 1.0\ndeltas = 1e-5"))
        got, _, err = run_cli(["run", "--config", str(cfg)], capsys)
        assert got == code
        if code:
            assert err == (f"error: {cfg}:3: horizon must be <= 2**63 - 1\n")
            assert not out.exists()
        else:
            assert err == ""
            rows = (out / "results.csv").read_text().splitlines()
            assert rows[-1].startswith(f"vb-sdp-ae,1.0,1e-05,{horizon},")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_one(self, tmp_path, capsys, threads):
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out=out))
        code, _, err = run_cli(["run", "--config", str(cfg),
                                "--threads", threads], capsys)
        assert code == 1
        assert "threads" in err
        assert not out.exists()

    def test_engine_value_error_exits_two(self, tmp_path, capsys,
                                          monkeypatch):
        # a ValueError raised while running is a runtime failure, not bad
        # input
        def broken(*args, **kwargs):
            raise ValueError("binomial: n < 0")

        monkeypatch.setattr(harness, "run_episode", broken)
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out=out))
        code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 2
        assert err.startswith("runtime failure:")
        assert "n < 0" in err

    def test_missing_config_exits_one(self, capsys):
        code, _, _ = run_cli(["run", "--config", "/nonexistent.cfg"], capsys)
        assert code == 1

    def test_config_not_utf8_exits_one_naming_the_file(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"\xff" + CONFIG.format(out=tmp_path / "out").encode())
        code, _, err = run_cli(["run", "--config", str(cfg)], capsys)
        assert code == 1
        assert err.startswith(f"error: {cfg}: cannot read config: 'utf-8' "
                              "codec can't decode byte 0xff")

    def test_directory_config_exits_one(self, tmp_path, capsys):
        # a config that cannot be opened is bad input, like a missing one
        code, _, err = run_cli(["run", "--config", str(tmp_path)], capsys)
        assert code == 1
        assert err.startswith(f"error: {tmp_path}: cannot read config")


class TestUsage:
    """A command line that does not parse is bad input: exit 1, not 2."""

    @pytest.mark.parametrize("argv,message", [
        (["run", "--threads", "abc", "--config", "x.cfg"],
         "shufflebandit run: error: argument --threads: invalid int value: "
         "'abc'"),
        (["run"], "shufflebandit run: error: the following arguments are "
                  "required: --config"),
        (["mechanism", "sample", "--eps", "x"],
         "shufflebandit mechanism sample: error: argument --eps: invalid "
         "float value: 'x'"),
        (["bogus"], "shufflebandit: error: argument command: invalid choice: "
                    "'bogus'"),
    ], ids=["threads-not-int", "run-without-config", "eps-not-float",
            "unknown-subcommand"])
    def test_usage_error_exits_one(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == 1
        assert captured.out == ""
        assert captured.err.startswith("usage: shufflebandit")
        assert message in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"],
                                      ["mechanism", "sample", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: shufflebandit")


class TestImports:
    def test_run_does_not_load_scipy(self, tmp_path):
        # scipy.special takes about 0.2 s to import; no command needs it
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG.format(out=tmp_path / "out"))
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import sys\n"
                "from shufflebandit.cli import main\n"
                f"assert main(['run', '--config', {str(cfg)!r}]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_audit_does_not_load_scipy(self):
        # the audit reads the binomial pmf with Loader's formula, in floats
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        argv = ["audit", "--m", "1,4096", "--eps", "1", "--delta", "1e-5"]
        for code in ("import shufflebandit.audit",
                     "from shufflebandit.cli import main\n"
                     f"assert main({argv!r}) == 0"):
            code += ("\nimport sys\n"
                     "print(sorted(m for m in sys.modules\n"
                     "             if m.startswith('scipy')))")
            proc = subprocess.run([sys.executable, "-c", code],
                                  capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=src))
            assert proc.returncode == 0, proc.stderr
            # the audit's CSV rows come first
            assert proc.stdout.splitlines()[-1] == "[]", code

    def test_audit_loads_neither_engine_nor_pool(self):
        # the package root re-exports nothing, so the audit loads only the
        # mechanism beside itself
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import sys\n"
                "import shufflebandit.audit\n"
                "print(sorted(m for m in ('shufflebandit.harness',\n"
                "                         'shufflebandit.bandit',\n"
                "                         'shufflebandit.env',\n"
                "                         'concurrent.futures.process')\n"
                "             if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestModuleEntryPoint:
    def test_python_dash_m(self, capsys):
        # `mechanism sample` does not import scipy, so the subprocess is quick
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        argv = ["mechanism", "sample", "--m", "3", "--eps", "0.8",
                "--delta", "0.01", "--n", "1", "--seed", "5"]
        proc = subprocess.run([sys.executable, "-m", "shufflebandit", *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 0, proc.stderr
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert proc.stdout == out and len(out.splitlines()) == 1

    def test_usage_error_exits_one(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        proc = subprocess.run([sys.executable, "-m", "shufflebandit", "bogus"],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1
        assert "invalid choice: 'bogus'" in proc.stderr
