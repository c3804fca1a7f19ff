import csv
import json

import numpy as np
import pytest

from shufflebandit.harness import (RESULTS_HEADER, ConfigError, parse_config,
                                   run_experiment)

MINIMAL = """\
# smallest useful experiment
k = 2
means = 1.0, 0.0
horizon = 200
variants = ae-baseline
seeds = 1
master_seed = 7
checkpoints = 100, 200
output = {out}
baseline_m = 10
"""

PRIVATE = """\
k = 2
means = 0.9, 0.1
horizon = 300
variants = sdp-ae, vb-sdp-ae, ae-baseline
epsilons = 0.5, 0.9
deltas = 1e-3
seeds = 3
master_seed = 99
checkpoints = 150, 300
output = {out}
baseline_m = 5
"""


def write_config(tmp_path, text, name="exp.cfg"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(text.format(out=out))
    return str(path), out


class TestParseConfig:
    def test_minimal_round_trip(self, tmp_path):
        path, out = write_config(tmp_path, MINIMAL)
        config = parse_config(path)
        assert config.k == 2
        assert config.means == (1.0, 0.0)
        assert config.variants == ("ae-baseline",)
        assert config.checkpoints == (100, 200)
        assert config.output == str(out)

    def test_mean_out_of_range(self, tmp_path):
        bad = MINIMAL.replace("1.0, 0.0", "1.5, 0.0")
        path, _ = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="means"):
            parse_config(path)

    def test_unsorted_checkpoints(self, tmp_path):
        bad = MINIMAL.replace("100, 200", "100, 10")
        path, _ = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="sorted"):
            parse_config(path)

    def test_repeated_checkpoints_report_lineno(self, tmp_path):
        bad = MINIMAL.replace("100, 200", "100, 100, 200")
        path, _ = write_config(tmp_path, bad)
        with pytest.raises(ConfigError,
                           match=r":8: checkpoints must be sorted strictly"):
            parse_config(path)

    def test_negative_master_seed_reports_lineno(self, tmp_path):
        bad = MINIMAL.replace("master_seed = 7", "master_seed = -1")
        path, _ = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match=r":7: master_seed must be >= 0"):
            parse_config(path)

    def test_missing_key(self, tmp_path):
        bad = MINIMAL.replace("seeds = 1\n", "")
        path, _ = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="seeds"):
            parse_config(path)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path, _ = write_config(tmp_path, MINIMAL + "what is this\n")
        with pytest.raises(ConfigError, match=r":\d+: expected"):
            parse_config(path)

    def test_private_variant_needs_privacy_grid(self, tmp_path):
        bad = MINIMAL.replace("ae-baseline", "sdp-ae")
        path, _ = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="epsilons"):
            parse_config(path)

    def test_unknown_key_reports_lineno(self, tmp_path):
        path, _ = write_config(tmp_path, MINIMAL + "sdp_ae_M = 3\n")
        with pytest.raises(ConfigError, match=r":11: unknown key 'sdp_ae_M'"):
            parse_config(path)

    def test_duplicate_key_reports_lineno(self, tmp_path):
        path, _ = write_config(tmp_path, MINIMAL + "seeds = 5\n")
        with pytest.raises(ConfigError,
                           match=r":11: duplicate key 'seeds' .*line 6"):
            parse_config(path)

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_baseline_m_below_one_reports_lineno(self, tmp_path, m):
        bad = MINIMAL.replace("baseline_m = 10", f"baseline_m = {m}")
        path, _ = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match=r":10: baseline_m must be >= 1"):
            parse_config(path)

    def test_unknown_variant(self, tmp_path):
        bad = MINIMAL.replace("ae-baseline", "thompson")
        path, _ = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match="thompson"):
            parse_config(path)


class TestRunExperiment:
    def test_single_seed_aggregate_equals_trace(self, tmp_path):
        path, out = write_config(tmp_path, MINIMAL)
        config = parse_config(path)
        result = run_experiment(config)
        trace = result.traces[("ae-baseline", None, None, 0)]
        by_cp = {row.checkpoint: row for row in result.rows}
        for cp, value in zip(config.checkpoints, trace):
            assert by_cp[cp].mean_regret == value
            assert by_cp[cp].min == value == by_cp[cp].max
            assert by_cp[cp].stderr == 0.0

    def test_deterministic_bytes(self, tmp_path):
        path, out = write_config(tmp_path, PRIVATE)
        config = parse_config(path)
        run_experiment(config)
        first = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        run_experiment(config)
        second = {p.name: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert first == second
        assert "results.csv" in first and "manifest.json" in first

    def test_results_header_and_cardinality(self, tmp_path):
        path, out = write_config(tmp_path, PRIVATE)
        config = parse_config(path)
        run_experiment(config)
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == RESULTS_HEADER
        # (2 private variants x 2 eps x 1 delta + baseline) x 2 checkpoints
        assert len(lines) - 1 == (2 * 2 * 1 + 1) * 2

    def test_regret_nondecreasing_along_checkpoints(self, tmp_path):
        path, out = write_config(tmp_path, PRIVATE)
        config = parse_config(path)
        result = run_experiment(config)
        for trace in result.traces.values():
            assert np.all(np.diff(trace) >= 0)

    def test_aggregation_recomputable_from_traces(self, tmp_path):
        path, out = write_config(tmp_path, PRIVATE)
        config = parse_config(path)
        result = run_experiment(config)
        # recompute means from the emitted plotdata and compare to results.csv
        per_cell = {}
        with open(out / "plotdata.csv") as fh:
            for row in csv.DictReader(fh):
                key = (row["variant"], row["epsilon"], row["delta"],
                       int(row["checkpoint"]))
                per_cell.setdefault(key, []).append(
                    float(row["cumulative_regret"]))
        with open(out / "results.csv") as fh:
            for row in csv.DictReader(fh):
                key = (row["variant"], row["epsilon"], row["delta"],
                       int(row["checkpoint"]))
                values = per_cell[key]
                assert float(row["mean_regret"]) == pytest.approx(
                    np.mean(values), abs=1e-9)
                if len(values) > 1:
                    stderr = np.std(values, ddof=1) / np.sqrt(len(values))
                    assert float(row["stderr"]) == pytest.approx(stderr,
                                                                 abs=1e-9)

    def test_manifest_contents(self, tmp_path):
        path, out = write_config(tmp_path, MINIMAL)
        config = parse_config(path)
        run_experiment(config)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 7
        assert manifest["config"]["horizon"] == 200

    def test_full_trace_mode(self, tmp_path):
        path, out = write_config(tmp_path, MINIMAL)
        config = parse_config(path)
        result = run_experiment(config, full_trace=True)
        trace_files = list((out / "traces").iterdir())
        assert len(trace_files) == 1
        lines = trace_files[0].read_text().splitlines()
        assert lines[0] == "user,cumulative_regret"
        assert len(lines) - 1 == 200
        # means (1, 0) with batches of 10: regret is 0 on arm 0's pulls
        # and rises by 1 on arm 1's, until arm 1 is eliminated
        regret = [float(line.split(",")[1]) for line in lines[1:]]
        assert regret[:20] == [0.0] * 10 + [float(i) for i in range(1, 11)]
        assert regret[-1] == result.traces[("ae-baseline", None, None, 0)][-1]

    def test_rerun_replaces_traces_only(self, tmp_path):
        path, out = write_config(tmp_path, PRIVATE)
        run_experiment(parse_config(path))
        assert len(list((out / "traces").iterdir())) == 5 * 3
        (out / "notes.txt").write_text("mine")
        path, _ = write_config(tmp_path, PRIVATE.replace("seeds = 3",
                                                         "seeds = 1"))
        run_experiment(parse_config(path))
        assert len(list((out / "traces").iterdir())) == 5
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "notes.txt", "plotdata.csv", "results.csv",
            "traces"]
        assert (out / "notes.txt").read_text() == "mine"

    def test_parallel_matches_serial(self, tmp_path):
        for full_trace in (False, True):
            runs = []
            for threads in (1, 2):
                out = tmp_path / f"out-{full_trace}-{threads}"
                path = tmp_path / f"{full_trace}-{threads}.cfg"
                path.write_text(PRIVATE.format(out=out))
                result = run_experiment(parse_config(str(path)),
                                        threads=threads, full_trace=full_trace)
                files = {str(p.relative_to(out)): p.read_bytes()
                         for p in out.rglob("*") if p.is_file()}
                runs.append((result, files))
            (serial, serial_files), (parallel, parallel_files) = runs
            assert serial.rows == parallel.rows
            assert serial.traces.keys() == parallel.traces.keys()
            for key, checks in serial.traces.items():
                np.testing.assert_array_equal(checks, parallel.traces[key])
            traces = [v for k, v in serial_files.items()
                      if k.startswith("traces/")]
            assert len(traces) == 5 * 3 and len(serial_files) == 3 + 5 * 3
            header = b"user," if full_trace else b"checkpoint,"
            assert all(v.startswith(header) for v in traces)
            assert serial_files == parallel_files
