import concurrent.futures
import csv
import json
import os

import numpy as np
import pytest

from shufflebandit import harness
from shufflebandit.env import RewardTape, SeedSpec
from shufflebandit.harness import (RESULTS_HEADER, ConfigError,
                                   ExperimentConfig, parse_config,
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

    # a repeated entry would run its cells twice, each row over its seeds
    # twice, and count its clean-event violations twice
    @pytest.mark.parametrize("old,new,match", [
        ("variants = sdp-ae, vb-sdp-ae, ae-baseline",
         "variants = ae-baseline, vb-sdp-ae, ae-baseline",
         r":4: variants entry 'ae-baseline' is repeated"),
        ("epsilons = 0.5, 0.9", "epsilons = 0.5, 0.9, 0.50",
         r":5: epsilons entry 0.5 is repeated"),
        ("deltas = 1e-3", "deltas = 1e-3, 0.001",
         r":6: deltas entry 0.001 is repeated"),
    ])
    def test_repeated_list_entry_reports_lineno(self, tmp_path, old, new,
                                                match):
        path, _ = write_config(tmp_path, PRIVATE.replace(old, new))
        with pytest.raises(ConfigError, match=match):
            parse_config(path)

    @pytest.mark.parametrize("key,lineno", [("variants", 5), ("output", 9),
                                            ("checkpoints", 8)])
    def test_empty_value_reports_lineno(self, tmp_path, key, lineno):
        lines = [f"{key} =" if line.startswith(f"{key} =") else line
                 for line in MINIMAL.splitlines()]
        path, out = write_config(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ConfigError,
                           match=rf":{lineno}: {key} must be nonempty"):
            parse_config(path)
        assert not out.exists()

    @pytest.mark.parametrize("key,value,match", [
        ("k", "two", r":2: k must be an integer, got 'two'$"),
        ("means", "1.0, x", r":3: means entry 'x' is not a number$"),
        ("checkpoints", "100, 2e2",
         r":8: checkpoints must be an integer, got '2e2'$"),
    ])
    def test_bad_value_reports_lineno(self, tmp_path, key, value, match):
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in MINIMAL.splitlines()]
        path, _ = write_config(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=match) as info:
            parse_config(path)
        assert info.value.key == key

    def test_empty_epsilons_of_private_variant_reports_lineno(self, tmp_path):
        text = MINIMAL.replace("ae-baseline", "sdp-ae") + (
            "epsilons =\ndeltas = 1e-5\n")
        path, _ = write_config(tmp_path, text)
        with pytest.raises(ConfigError, match=r":11: private variants "
                           r"\['sdp-ae'\] need epsilons and deltas$"):
            parse_config(path)

    def test_unreadable_config_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match=str(tmp_path)):
            parse_config(str(tmp_path))

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path):
        path, _ = write_config(tmp_path, MINIMAL)
        with open(path, "ab") as fh:
            fh.write("# r\u00e9sum\u00e9\n".encode("latin-1"))
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value).startswith(
            f"{path}: cannot read config: 'utf-8' codec can't decode byte "
            "0xe9")

    def test_utf8_comment_is_read(self, tmp_path):
        path, _ = write_config(tmp_path, "# r\u00e9sum\u00e9\n" + MINIMAL)
        assert parse_config(path).k == 2

    @pytest.mark.parametrize("text,k_line", [
        (MINIMAL, 2), (MINIMAL.split("\n", 1)[1], 1)],
        ids=["comment-first", "key-first"])
    def test_byte_order_mark_is_skipped(self, tmp_path, text, k_line):
        # a file saved as "UTF-8 with BOM" starts with U+FEFF, before a
        # comment or before the first key
        plain, _ = write_config(tmp_path, text)
        marked, _ = write_config(tmp_path, "\ufeff" + text, name="bom.cfg")
        assert parse_config(marked) == parse_config(plain)
        bad, _ = write_config(tmp_path, "\ufeff" + text.replace("k = 2",
                                                                "k = x"),
                              name="bad.cfg")
        with pytest.raises(ConfigError,
                           match=f"bad.cfg:{k_line}: k must be an integer"):
            parse_config(bad)


class TestCodeBuiltConfig:
    """A config built in code meets the rules that a parsed one does."""

    FIELDS = dict(k=2, means=(0.9, 0.1), horizon=300,
                  variants=("sdp-ae", "vb-sdp-ae", "ae-baseline"),
                  epsilons=(0.5,), deltas=(1e-3,), seeds=2, master_seed=99,
                  checkpoints=(150, 300), baseline_m=5)

    @pytest.fixture
    def no_episodes(self, monkeypatch):
        def run_episode(*args):
            raise AssertionError("an episode ran")

        monkeypatch.setattr(harness, "run_episode", run_episode)

    def test_parsed_config_equals_code_built(self, tmp_path):
        path, out = write_config(tmp_path, PRIVATE.replace(
            "epsilons = 0.5, 0.9", "epsilons = 0.5").replace("seeds = 3",
                                                              "seeds = 2"))
        assert parse_config(path) == ExperimentConfig(**self.FIELDS,
                                                      output=str(out))

    # each would run: the repeated variant into one results.csv row over
    # the doubled seeds, seeds = 0 and the unknown variant into a
    # results.csv of no rows, the checkpoint until the first episode fails
    @pytest.mark.parametrize("change,match", [
        (dict(variants=("ae-baseline", "ae-baseline")),
         r"^variants entry 'ae-baseline' is repeated$"),
        (dict(seeds=0), r"^seeds must be >= 1$"),
        (dict(variants=("thompson",), epsilons=(), deltas=()),
         r"^unknown variant 'thompson' \(expected one of "),
        (dict(checkpoints=(150, 301)),
         r"^checkpoints must lie in \[1, horizon\]$"),
        (dict(epsilons=(1.5,)), r"^epsilon 1.5 outside \(0, 1\]$"),
        (dict(means=(0.9,)), r"^got 1 means for k=2$"),
        (dict(deltas=(1.0,)), r"^delta 1.0 outside \(0, 1\)$"),
        (dict(epsilons=(0.5, 1e-200)), r"^epsilon 1e-200 is too small: "),
        (dict(horizon=2**63), r"^horizon must be <= 2\*\*63 - 1$"),
    ])
    def test_rejected_at_construction(self, tmp_path, no_episodes, change,
                                      match):
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=match) as info:
            run_experiment(ExperimentConfig(
                **{**self.FIELDS, **change, "output": str(out)}))
        assert info.value.key == next(iter(change))
        assert not out.exists()

    def test_private_variant_without_grid_runs_nothing(self, tmp_path,
                                                       no_episodes):
        # such a config may still pick a variant's batch size
        out = tmp_path / "out"
        config = ExperimentConfig(**{**self.FIELDS, "epsilons": (),
                                     "output": str(out)})
        assert harness.engine_config(config, "ae-baseline", None).m == 5
        with pytest.raises(ConfigError,
                           match=r"need epsilons and deltas$") as info:
            run_experiment(config)
        assert info.value.key == "epsilons"
        assert not out.exists()

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_runs_nothing(self, tmp_path, no_episodes,
                                            threads):
        out = tmp_path / "out"
        with pytest.raises(ValueError,
                           match=f"^threads must be >= 1, got {threads}$"):
            run_experiment(ExperimentConfig(**self.FIELDS, output=str(out)),
                           threads=threads)
        assert not out.exists()

    def test_empty_output_runs_nothing(self, no_episodes):
        # allowed at construction, for configs never run
        config = ExperimentConfig(**self.FIELDS, output="")
        with pytest.raises(ConfigError,
                           match=r"^output must be nonempty$") as info:
            run_experiment(config)
        assert info.value.key == "output"

    def test_output_naming_a_file_runs_nothing(self, tmp_path, no_episodes):
        out = tmp_path / "out"
        out.write_text("mine")
        with pytest.raises(FileExistsError):
            run_experiment(ExperimentConfig(**self.FIELDS, output=str(out)))
        assert out.read_text() == "mine"


class TestRunExperiment:
    def test_single_seed_aggregate_equals_trace(self, tmp_path):
        path, out = write_config(tmp_path, MINIMAL)
        config = parse_config(path)
        result = run_experiment(config)
        trace = result.traces[("ae-baseline", None, None, 0)]
        with open(out / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(row["checkpoint"]) for row in rows] == \
            list(config.checkpoints)
        for row, value in zip(rows, trace):
            assert float(row["mean_regret"]) == value
            assert float(row["min"]) == value == float(row["max"])
            assert float(row["stderr"]) == 0.0

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

    def test_per_user_regret_ends_at_the_checkpoint(self, tmp_path):
        path, _ = write_config(tmp_path, MINIMAL)
        config = parse_config(path)
        result = run_experiment(config)
        trace = harness.run_episode(
            config.instance(), harness.engine_config(config, "ae-baseline",
                                                     None),
            SeedSpec(config.master_seed, 0), range(1, 201))
        regret = trace.cumulative_regret.tolist()
        assert len(regret) == 200
        # means (1, 0) with batches of 10: regret is 0 on arm 0's pulls
        # and rises by 1 on arm 1's, until arm 1 is eliminated
        assert regret[:20] == [0.0] * 10 + [float(i) for i in range(1, 11)]
        assert regret[-1] == result.traces[("ae-baseline", None, None, 0)][-1]

    def test_serial_run_records_only_the_checkpoints(self, tmp_path,
                                                     monkeypatch):
        # each episode records its regret at the config's checkpoints
        # alone, and those values are what the run keeps
        run_episode = harness.run_episode
        recorded = []

        def recording_episode(instance, config, seeds, checkpoints):
            trace = run_episode(instance, config, seeds, checkpoints)
            recorded.append((checkpoints, trace.cumulative_regret.tolist()))
            return trace

        monkeypatch.setattr(harness, "run_episode", recording_episode)
        path, out = write_config(tmp_path, PRIVATE)
        config = parse_config(path)
        result = run_experiment(config)
        assert [cps for cps, _ in recorded] == [config.checkpoints] * 15
        assert [values for _, values in recorded] == \
            [checks.tolist() for checks in result.traces.values()]
        assert len(list((out / "traces").iterdir())) == 15

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

    @pytest.mark.parametrize("kind", ["file", "symlink"])
    def test_traces_that_is_no_directory_is_replaced(self, tmp_path, kind):
        # a file or a link named traces goes; a link's target stays as it was
        path, out = write_config(tmp_path, PRIVATE)
        out.mkdir()
        target = tmp_path / "elsewhere"
        target.mkdir()
        (target / "keep.csv").write_text("mine")
        if kind == "file":
            (out / "traces").write_text("not a directory")
        else:
            (out / "traces").symlink_to(target, target_is_directory=True)
        run_experiment(parse_config(path))
        traces = out / "traces"
        assert traces.is_dir() and not traces.is_symlink()
        assert len(list(traces.iterdir())) == 5 * 3
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "plotdata.csv", "results.csv", "traces"]
        assert [p.name for p in target.iterdir()] == ["keep.csv"]
        assert (target / "keep.csv").read_text() == "mine"

    def test_output_modes(self, tmp_path):
        # traces/ takes the output directory's bits, not mkdtemp's 0700;
        # every file has the mode a plain open gives it
        path, out = write_config(tmp_path, PRIVATE)
        out.mkdir()
        out.chmod(0o750)
        run_experiment(parse_config(path))
        plain = tmp_path / "plain"
        plain.write_text("")
        file_mode = plain.stat().st_mode & 0o777
        assert (out / "traces").stat().st_mode & 0o777 == 0o750
        files = [p for p in out.rglob("*") if p.is_file()]
        assert len(files) == 3 + 5 * 3
        assert {p.stat().st_mode & 0o777 for p in files} == {file_mode}

    def test_failed_rerun_replaces_nothing(self, tmp_path, monkeypatch):
        path, out = write_config(tmp_path, PRIVATE)
        run_experiment(parse_config(path))
        before = {str(p.relative_to(out)): p.read_bytes()
                  for p in out.rglob("*") if p.is_file()}
        traces_opened = []

        def failing_open(file, *args, **kwargs):
            if "_" in os.path.basename(file):  # a trace file
                traces_opened.append(file)
                if len(traces_opened) == 2:
                    raise OSError("injected write failure")
            return open(file, *args, **kwargs)

        monkeypatch.setattr(harness, "open", failing_open, raising=False)
        # a rerun with other seeds would change every output file
        path, _ = write_config(tmp_path, PRIVATE.replace("seeds = 3",
                                                         "seeds = 1"))
        with pytest.raises(OSError, match="injected write failure"):
            run_experiment(parse_config(path))
        assert len(traces_opened) == 2
        after = {str(p.relative_to(out)): p.read_bytes()
                 for p in out.rglob("*") if p.is_file()}
        assert after == before
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "plotdata.csv", "results.csv", "traces"]

    def test_failed_worker_leaves_no_staging_directory(self, tmp_path,
                                                       monkeypatch):
        # pool workers write trace files into the staging directory while
        # episodes run; an episode that fails in one worker still leaves
        # the output directory as the last complete run left it
        path, out = write_config(tmp_path, PRIVATE)
        run_experiment(parse_config(path), threads=2)
        before = {str(p.relative_to(out)): p.read_bytes()
                  for p in out.rglob("*") if p.is_file()}
        run_episode = harness.run_episode

        def failing_episode(instance, config, seeds, checkpoints):
            if seeds.run_index == 2:
                raise ValueError("injected episode failure")
            return run_episode(instance, config, seeds, checkpoints)

        # pool workers are forked from this process, so they see the patch
        monkeypatch.setattr(harness, "run_episode", failing_episode)
        with pytest.raises(ValueError, match="injected episode failure"):
            run_experiment(parse_config(path), threads=2)
        after = {str(p.relative_to(out)): p.read_bytes()
                 for p in out.rglob("*") if p.is_file()}
        assert after == before
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "plotdata.csv", "results.csv", "traces"]

    def test_clean_violations_count_the_seeds(self, tmp_path, monkeypatch):
        # as in test_bandit: arm 1's estimates, moved 0.5 above its mean,
        # leave the radius in every seed
        draw = RewardTape.draw

        def shifted_draw(tape, m, *args):
            return draw(tape, m, *args) + (0.5 * m if tape.arm == 1 else 0.0)

        text = (MINIMAL.replace("1.0, 0.0", "0.5, 0.5")
                .replace("horizon = 200", "horizon = 1000")
                .replace("seeds = 1", "seeds = 3")
                .replace("baseline_m = 10", "baseline_m = 100"))
        path, out = write_config(tmp_path, text)
        run_experiment(parse_config(path))
        with open(out / "results.csv") as fh:
            assert [row["clean_violations"]
                    for row in csv.DictReader(fh)] == ["0", "0"]
        monkeypatch.setattr(RewardTape, "draw", shifted_draw)
        run_experiment(parse_config(path))
        with open(out / "results.csv") as fh:
            assert [row["clean_violations"]
                    for row in csv.DictReader(fh)] == ["3", "3"]

    def test_parallel_matches_serial(self, tmp_path):
        # 10 jobs: 3 threads split them 4, 3, 3; the 2-job config gets
        # more threads than jobs
        configs = [(PRIVATE.replace("seeds = 3", "seeds = 2"), 5 * 2, (2, 3)),
                   (PRIVATE.replace("seeds = 3", "seeds = 2").replace(
                       "sdp-ae, vb-sdp-ae, ae-baseline", "ae-baseline"),
                    2, (3,))]
        for text, jobs, pooled in configs:
            runs = []
            for threads in (1, *pooled):
                out = tmp_path / f"out-{jobs}-{threads}"
                path = tmp_path / f"{jobs}-{threads}.cfg"
                path.write_text(text.format(out=out))
                result = run_experiment(parse_config(str(path)),
                                        threads=threads)
                files = {str(p.relative_to(out)): p.read_bytes()
                         for p in out.rglob("*") if p.is_file()}
                runs.append((result, files))
            serial, serial_files = runs[0]
            traces = [v for k, v in serial_files.items()
                      if k.startswith("traces/")]
            assert len(traces) == jobs and len(serial_files) == 3 + jobs
            assert all(v.startswith(b"checkpoint,") for v in traces)
            for parallel, parallel_files in runs[1:]:
                for name in ("results.csv", "plotdata.csv"):
                    assert serial_files[name] == parallel_files[name]
                assert serial.traces.keys() == parallel.traces.keys()
                for key, checks in serial.traces.items():
                    np.testing.assert_array_equal(checks,
                                                  parallel.traces[key])
                assert serial_files == parallel_files

    # the ids name (threads, jobs, tasks)
    POOL_CASES = [(1, 15, 0, 64), (2, 15, 2, 64), (3, 15, 3, 64),
                  (16, 15, 15, 64), (4, 1, 0, 64), (16, 15, 2, 2)]

    @pytest.mark.parametrize("threads,jobs,tasks,cpus", POOL_CASES,
                             ids=[f"{t}-{j}-{n}" for t, j, n, _ in POOL_CASES])
    def test_one_pool_task_per_worker(self, tmp_path, monkeypatch, threads,
                                      jobs, tasks, cpus):
        # each worker gets one task of strided keys, and there are at most
        # as many workers as CPUs; threads = 1, or a single job, starts no
        # pool
        pools = []

        class InlinePool:
            """Records the pool's size and tasks, and runs them here."""

            def __init__(self, max_workers):
                self.max_workers = max_workers
                self.keys = []
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                tasks = list(zip(*iterables))
                self.keys = [args[1] for args in tasks]
                return [fn(*args) for args in tasks]

        # run_experiment imports the pool class from here when it pools
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        text = PRIVATE if jobs == 15 else MINIMAL
        path, _ = write_config(tmp_path, text)
        result = run_experiment(parse_config(path), threads=threads)
        keys = list(result.traces)
        assert len(keys) == jobs
        if tasks == 0:
            assert pools == []
            return
        [pool] = pools
        assert pool.max_workers == len(pool.keys) == tasks
        assert pool.keys == [keys[i::tasks] for i in range(tasks)]
