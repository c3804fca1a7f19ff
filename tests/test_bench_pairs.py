"""The pure parts of scripts/bench_pairs.py: no round is run here."""

import argparse
import ast
import importlib.util
import os
import types
from importlib import metadata

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def rounds(base_values, head_values, name="ops_per_s"):
    """Passing round records of one metric, pair by pair."""
    runs = []
    for pair, (b, h) in enumerate(zip(base_values, head_values)):
        runs += [{"pair": pair, "side": "base", "ok": True,
                  "metrics": {name: b}},
                 {"pair": pair, "side": "head", "ok": True,
                  "metrics": {name: h}}]
    return runs


def test_engine_round_imports_resolve():
    # no other test starts an engine round, so a renamed library name would
    # break --workload engine unseen; this runs the round's imports alone
    tree = ast.parse(bench_pairs.ENGINE_ROUND)
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module.partition(".")[0] == "shufflebandit"]
    assert imports
    names = {}
    for node in imports:
        exec(compile(ast.Module([node], []), "ENGINE_ROUND", "exec"), names)
    modules = {name: value for name, value in names.items()
               if isinstance(value, types.ModuleType)}
    for node in ast.walk(tree):  # e.g. harness.parse_config
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            assert hasattr(modules[node.value.id], node.attr), node.attr


def test_abba_order():
    assert bench_pairs.abba(3) == [(0, "base"), (0, "head"),
                                   (1, "head"), (1, "base"),
                                   (2, "base"), (2, "head")]


@pytest.mark.parametrize("better,wins", [("higher", 1), ("lower", 2)])
def test_head_wins_and_ties_count_for_neither(better, wins):
    runs = rounds([10.0, 10.0, 10.0, 10.0], [11.0, 10.0, 9.0, 8.0], "x")
    summary = bench_pairs.summarize(runs, {"x": better})["x"]
    assert summary["pairs"] == 4
    assert summary["head_wins"] == wins
    assert summary["better"] == better


def test_a_pair_with_a_failed_round_is_left_out():
    runs = rounds([10.0, 10.0, 10.0], [11.0, 12.0, 13.0])
    runs[3] = {"pair": 1, "side": "head", "ok": False, "returncode": 1,
               "stderr": "boom"}
    summary = bench_pairs.summarize(runs, {"ops_per_s": "higher"})
    assert summary["ops_per_s"]["pairs"] == 2
    assert summary["ops_per_s"]["head"]["median"] == 12.0
    assert bench_pairs.summarize(runs[3:4], {"ops_per_s": "higher"}) == {}


@pytest.mark.parametrize("head,better,flag", [
    # base median 10, IQR 2 (quartiles 9 and 11)
    ([12.5] * 5, "higher", True),
    ([11.5] * 5, "higher", False),
    ([7.5] * 5, "lower", True),
    ([12.5] * 5, "lower", False),
])
def test_flag_for_a_median_gain_above_the_base_iqr(head, better, flag):
    runs = rounds([8.0, 9.0, 10.0, 11.0, 12.0], head)
    summary = bench_pairs.summarize(runs, {"ops_per_s": better})["ops_per_s"]
    assert (summary["base"]["median"], summary["base"]["iqr"]) == (10.0, 2.0)
    assert summary["median_gain_exceeds_base_iqr"] is flag


def test_report_path(tmp_path):
    path = bench_pairs.report_path("x", str(tmp_path / "r"), [])
    assert path == str(tmp_path / "r" / "BENCH_x.json")


def test_refuses_an_existing_report(tmp_path):
    (tmp_path / "BENCH_x.json").write_text("{}")
    with pytest.raises(ValueError, match="never replaced"):
        bench_pairs.report_path("x", str(tmp_path), [])


@pytest.mark.parametrize("root", ["repo", "base", "head"])
def test_refuses_a_repository_root(tmp_path, root):
    roots = [str(tmp_path / name) for name in ("repo", "base", "head")]
    with pytest.raises(ValueError, match="repository root"):
        bench_pairs.report_path("x", str(tmp_path / root / "."), roots)


@pytest.mark.parametrize("label", ["a/b", "", "x y"])
def test_refuses_a_label_that_is_no_plain_name(tmp_path, label):
    with pytest.raises(ValueError, match="--label"):
        bench_pairs.report_path(label, str(tmp_path), [])


def test_report_without_scipy(monkeypatch):
    # numpy is the one runtime dependency: a report needs no scipy
    version = metadata.version

    def numpy_only(name):
        if name != "numpy":
            raise metadata.PackageNotFoundError(name)
        return version(name)

    monkeypatch.setattr(bench_pairs.metadata, "version", numpy_only)
    monkeypatch.setattr(bench_pairs, "describe", lambda tree: {"tree": tree})
    args = argparse.Namespace(workload="engine", seed=1, rounds=2,
                              base="b", head="h")
    runs = rounds([2.0, 2.0], [1.0, 1.0], "desk_engine_ms")
    report = bench_pairs.build_report(args, runs, {"desk_engine_ms": "lower"})
    assert set(report["machine"]) == {"nproc", "python", "numpy",
                                      "loadavg_at_end"}
    assert report["base"] == {"tree": "b"}
    assert report["summary"]["desk_engine_ms"]["head_wins"] == 2


@pytest.mark.parametrize("base,head,same", [
    ("/w/parent", "/w/change", True),
    ("/w/parent", "/v/change", False),
])
def test_report_flags_checkouts_in_different_directories(monkeypatch, base,
                                                         head, same):
    # where a tree lies alone can move a workload's figures
    monkeypatch.setattr(bench_pairs, "describe", lambda tree: {"dir": tree})
    args = argparse.Namespace(workload="engine", seed=1, rounds=1,
                              base=base, head=head)
    runs = rounds([2.0], [1.0], "desk_engine_ms")
    report = bench_pairs.build_report(args, runs, {"desk_engine_ms": "lower"})
    assert report["same_parent_dir"] is same
    assert (report["base"], report["head"]) == ({"dir": base}, {"dir": head})
