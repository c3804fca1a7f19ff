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
        code, out, _ = run_cli(
            ["audit", "--m", "4", "--eps", "1.5", "--delta", "0.01"], capsys)
        assert code == 0
        assert "error" in out


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


class TestImports:
    def test_run_does_not_load_scipy(self, tmp_path):
        # scipy.special takes about 0.2 s to import; only `audit` needs it
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

    def test_audit_does_not_load_scipy_stats(self):
        # the audit takes the binomial ufuncs from scipy.special: importing
        # scipy.stats would cost about 0.7 s more
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        code = ("import sys\n"
                "import shufflebandit.audit\n"
                "print(sorted(m for m in sys.modules\n"
                "             if m.split('.')[:2] == ['scipy', 'stats']))")
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
