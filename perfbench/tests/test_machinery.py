"""Tests of the benchmark's own machinery: span accounting, the traced run,
the output checks and the sparse6k input generator."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from layers import layer_metrics
from lexcent import connected_components, load_edge_list
from lexcent.cli import main as lexcent_main
from tracer import Recorder, self_times
from workloads import sparse_edge_list, sparse_graph

BENCH = Path(__file__).resolve().parents[1]
SRC = BENCH.parent / "src"


def test_self_times_on_a_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 1.5, 3.0, 4.0, 6.0, 7.0, 10.0])
    rec = Recorder(clock=lambda: next(ticks))
    leaf = rec.wrap("graph.leaf", lambda: None)
    inner = rec.wrap("centrality.inner", lambda: leaf())

    def body():
        inner()
        leaf()

    rec.wrap("cli.outer", body)()
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span["name"], []).append(span)
    outer = by_name["cli.outer"][0]
    inner_span = by_name["centrality.inner"][0]
    first_leaf, second_leaf = sorted(by_name["graph.leaf"], key=lambda s: s["start"])
    assert outer["parent"] is None
    assert inner_span["parent"] == outer["id"]
    assert first_leaf["parent"] == inner_span["id"]
    assert second_leaf["parent"] == outer["id"]

    own = self_times(rec.spans)
    assert own[first_leaf["id"]] == 1.5
    assert own[inner_span["id"]] == 1.5
    assert own[second_leaf["id"]] == 1.0
    assert own[outer["id"]] == 6.0
    assert sum(own.values()) == outer["end"] - outer["start"]


def _span(i, parent, name, start, end, **attrs):
    return {"id": i, "parent": parent, "name": name, "start": start, "end": end, **attrs}


def test_layer_metrics_split_measure_time_from_bfs():
    spans = [
        _span(0, None, "cli.cmd_sir", 0.0, 10.0),
        _span(1, 0, "centrality.compute_centrality[CC]", 1.0, 6.0),
        _span(2, 1, "centrality.closeness_centrality", 1.5, 5.5),
        _span(3, 2, "graph.bfs_distances", 2.0, 3.0),
        _span(4, 2, "graph.bfs_distances", 3.0, 4.0),
        _span(5, 0, "cli._write", 7.0, 8.0),
        _span(6, 5, "sir.write_curve_csv", 7.25, 7.75),
    ]
    m = layer_metrics(spans, traced_wall=10.25)
    assert m["centrality.CC.calls"] == 1
    assert m["centrality.CC.s"] == 3.0
    assert m["graph.bfs_calls"] == 2
    assert m["graph.bfs_s"] == 2.0
    assert m["cli.write_s"] == 1.0
    assert m["cli.unaccounted_s"] == 0.25
    assert m["centrality.BC.calls"] == 0
    assert m["ranking.lsc_over_gc"] == 0.0


def _lexcent(out: Path, *args: str) -> None:
    assert lexcent_main([*args, "--out", str(out)]) == 0


def test_traced_run_matches_untraced_and_records_layers(tmp_path):
    command = ["sir", "--dataset", "karate", "--seeds-from", "lsc", "--top", "3",
               "--beta", "0.1", "--steps", "5", "--reps", "20", "--seed", "4"]
    _lexcent(tmp_path / "plain", *command)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    spans_file = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans_file), "--", *command,
         "--out", str(tmp_path / "traced")],
        env=env, check=True, capture_output=True, timeout=120,
    )
    assert checks.same_outputs(tmp_path / "plain", tmp_path / "traced")
    trace = json.loads(spans_file.read_text())
    assert trace["exit_code"] == 0
    names = {s["name"] for s in trace["spans"]}
    assert {"cli.cmd_sir", "ranking.lsc", "centrality.compute_centrality[CC]",
            "graph.bfs_distances", "sir.spread_curve"} <= names
    m = layer_metrics(trace["spans"], trace["wall_s"])
    assert m["graph.bfs_calls"] == 34
    assert m["ranking.lsc_calls"] == 1
    assert m["sir.curve_reps"] == 20
    assert m["centrality.EC.iterations"] > 0
    assert 0 <= m["cli.unaccounted_s"] < 0.1 * trace["wall_s"]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("outputs")
    _lexcent(root / "eval", "evaluate", "--dataset", "karate", "--beta", "0.1",
             "--reps", "20", "--x-percent", "20", "--seed", "3")
    _lexcent(root / "scores", "sir", "--dataset", "karate", "--beta", "0.1",
             "--reps", "20", "--seed", "3")
    _lexcent(root / "curve", "sir", "--dataset", "karate", "--seeds-from", "lsc",
             "--top", "3", "--beta", "0.1", "--gamma", "0.5", "--steps", "8",
             "--reps", "20", "--seed", "3")
    return root


@pytest.fixture(scope="module")
def karate():
    from lexcent.datasets import load_dataset

    return load_dataset("karate")


def _copy(src: Path, dst: Path) -> Path:
    dst.mkdir()
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return dst


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], *edit(lines[1:])]) + "\n")


def test_checks_accept_correct_outputs(outputs, karate):
    checks.check_evaluate(outputs / "eval", 34)
    checks.check_groundtruth(outputs / "scores", karate)
    seeds = checks.lsc_top(karate, 3)
    stdout = f"wrote spread curve for seeds {seeds} to {outputs / 'curve'}\n"
    checks.check_curve(outputs / "curve", stdout, karate, 8, 3, seeds)


def test_evaluate_check_rejects_a_shuffled_ranking(outputs, tmp_path):
    out = _copy(outputs / "eval", tmp_path / "eval")

    def shuffle(rows):
        cells = [r.split(",") for r in rows]
        order = np.random.default_rng(0).permutation(len(cells))
        return [f"{i},{cells[j][1]},{cells[j][2]}" for i, j in enumerate(order)]

    _rewrite_csv(out / "rank_vs_score_lsc.csv", shuffle)
    with pytest.raises(checks.CheckError):
        checks.check_evaluate(out, 34)


def test_evaluate_check_rejects_a_ranking_that_is_not_a_permutation(outputs, tmp_path):
    out = _copy(outputs / "eval", tmp_path / "eval")

    def duplicate(rows):
        first = rows[0].split(",")
        second = rows[1].split(",")
        return [rows[0], f"{second[0]},{first[1]},{first[2]}", *rows[2:]]

    _rewrite_csv(out / "rank_vs_score_dc.csv", duplicate)
    with pytest.raises(checks.CheckError, match="permutation"):
        checks.check_evaluate(out, 34)


def test_evaluate_check_rejects_a_wrong_overlap(outputs, tmp_path):
    out = _copy(outputs / "eval", tmp_path / "eval")
    report = json.loads((out / "eval_report.json").read_text())
    report["measures"]["GC"]["top_x_overlap"] += 1
    (out / "eval_report.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="overlap"):
        checks.check_evaluate(out, 34)


def test_evaluate_check_rejects_a_wrong_tau(outputs, tmp_path):
    out = _copy(outputs / "eval", tmp_path / "eval")
    report = json.loads((out / "eval_report.json").read_text())
    report["measures"]["LSC"]["tau"] += 1e-6
    (out / "eval_report.json").write_text(json.dumps(report))
    with pytest.raises(checks.CheckError, match="tau"):
        checks.check_evaluate(out, 34)


def test_groundtruth_check_rejects_a_mean_above_the_component_size(outputs, karate, tmp_path):
    out = _copy(outputs / "scores", tmp_path / "scores")
    _rewrite_csv(out / "sir_scores.csv", lambda rows: ["0,35,1", *rows[1:]])
    with pytest.raises(checks.CheckError, match="component size"):
        checks.check_groundtruth(out, karate)


def test_curve_check_rejects_a_decreasing_curve(outputs, karate, tmp_path):
    out = _copy(outputs / "curve", tmp_path / "curve")
    _rewrite_csv(out / "sir_curve_lsc.csv", lambda rows: [*rows[:-1], "8,3.5"])
    seeds = checks.lsc_top(karate, 3)
    stdout = f"wrote spread curve for seeds {seeds} to x\n"
    with pytest.raises(checks.CheckError, match="decreases"):
        checks.check_curve(out, stdout, karate, 8, 3, seeds)


def test_curve_check_rejects_seeds_that_are_not_the_lsc_top(outputs, karate):
    seeds = checks.lsc_top(karate, 3)
    stdout = f"wrote spread curve for seeds {seeds[::-1]} to x\n"
    with pytest.raises(checks.CheckError, match="LSC top"):
        checks.check_curve(outputs / "curve", stdout, karate, 8, 3, seeds)


def test_same_outputs_ignores_only_output_dir(tmp_path):
    for side in ("a", "b"):
        d = tmp_path / side
        d.mkdir()
        (d / "run_config.json").write_text(json.dumps({"output_dir": side, "beta": 0.1}))
        (d / "scores.csv").write_text("node,score\n0,1\n")
    assert checks.same_outputs(tmp_path / "a", tmp_path / "b")
    (tmp_path / "b" / "scores.csv").write_text("node,score\n0,2\n")
    assert not checks.same_outputs(tmp_path / "a", tmp_path / "b")


def test_sparse_graph_is_deterministic_disconnected_and_sparsely_labelled():
    text = sparse_edge_list(11)
    assert text == sparse_edge_list(11)
    assert text != sparse_edge_list(12)
    assert text.startswith("#")

    labels, edges = sparse_graph(11)
    g = load_edge_list(text, relabel=True)
    assert g.node_count == len(labels) == 6000
    assert g.edge_count == len(edges)
    assert 9000 <= g.edge_count <= 11000
    _, sizes = connected_components(g)
    assert len(sizes) > 1
    assert max(sizes) == 4000
    assert sorted(g.labels) != list(range(g.node_count))
    assert sorted(g.labels) == sorted(int(v) for v in labels)


def test_benchmark_json_names_exactly_the_workloads_and_metrics_produced():
    from workloads import WORKLOADS

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    produced = set(layer_metrics([], traced_wall=0.0)) | {
        "trace.overhead_s", "cli.bytes_written", "proc.cpu_s", "proc.cpu_util"}
    assert {m["name"] for m in spec["per_layer"]} == produced
