import csv
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lexcent.centrality
import lexcent.cli
import lexcent.evaluation
from lexcent.centrality import (
    betweenness_centrality,
    closeness_centrality,
    compute_centrality,
    eigenvector_centrality,
    gravity_centrality,
)
from lexcent.cli import RunConfig, main
from lexcent.datasets import dataset_path, fetch, load_dataset
from lexcent.evaluation import (
    EVAL_MEASURES,
    benchmark_runtime,
    evaluate_dataset,
    kendall_tau,
    kendall_tau_pairwise,
)
from lexcent.graph import from_edges, load_edge_list
from lexcent.ranking import build_ranking_matrix, lsc
from lexcent.sir import SirParams

from test_ranking import matrix_from_rows


def run(argv):
    return main(argv)


@pytest.fixture
def small_graph_file(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n3 4\n")
    return path


def test_stats_on_bundled_karate(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["stats", "--dataset", "karate", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "nodes=34" in printed and "edges=78" in printed
    assert (out / "stats.csv").read_text().splitlines()[1].startswith("34,78,")


def test_centrality_writes_measure_csvs(small_graph_file, tmp_path):
    out = tmp_path / "out"
    code = run(
        [
            "centrality",
            "--graph",
            str(small_graph_file),
            "--measures",
            "dc,lsc",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    dc = (out / "centrality_dc.csv").read_text().splitlines()
    assert dc[0] == "node,measure,score"
    assert len(dc) == 6
    assert (out / "ranking_lsc.csv").exists()
    assert (out / "ranking_matrix.csv").exists()
    ranking = json.loads((out / "ranking_lsc.json").read_text())
    assert ranking["ordered_nodes"][0] == 0  # the hub


def test_centrality_on_generated_ba(tmp_path):
    out = tmp_path / "out"
    code = run(
        ["centrality", "--generate", "ba:100:3:42", "--measures", "gc", "--out", str(out)]
    )
    assert code == 0
    lines = (out / "centrality_gc.csv").read_text().splitlines()
    assert len(lines) == 101


def test_centrality_truncate_precision_flags(small_graph_file, tmp_path):
    out = tmp_path / "out"
    code = run(
        [
            "centrality",
            "--graph",
            str(small_graph_file),
            "--measures",
            "lsc",
            "--precision",
            "2",
            "--rounding",
            "truncate",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    config = json.loads((out / "run_config.json").read_text())
    assert config["precision"] == 2
    assert config["rounding"] == "truncate"


def test_sir_scores_beta_zero_all_ones(small_graph_file, tmp_path):
    out = tmp_path / "out"
    code = run(
        [
            "sir",
            "--graph",
            str(small_graph_file),
            "--beta",
            "0",
            "--reps",
            "10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "sir_scores.csv").read_text().splitlines()
    assert lines[0] == "node,mean_score,std"
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_sir_curve_from_lsc_seeds(small_graph_file, tmp_path):
    out = tmp_path / "out"
    code = run(
        [
            "sir",
            "--graph",
            str(small_graph_file),
            "--seeds-from",
            "lsc",
            "--top",
            "2",
            "--beta",
            "0.05",
            "--steps",
            "25",
            "--reps",
            "20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "sir_curve_lsc.csv").read_text().splitlines()
    assert lines[0] == "t,mean_cumulative_infected"
    assert len(lines) == 27  # t = 0..25
    assert lines[1] == "0,2"


@pytest.mark.parametrize("top", [1, 3, 10])
def test_sir_seeds_from_lsc_match_the_full_lsc_prefix(tmp_path, capsys, top):
    from lexcent.datasets import load_dataset
    from lexcent.ranking import lsc

    seeds = list(lsc(load_dataset("karate")).ordered_nodes[:top])
    common = ["--dataset", "karate", "--beta", "0.05", "--steps", "15", "--reps", "50"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["sir", *common, "--seeds-from", "lsc", "--top", str(top), "--out", str(a)]) == 0
    assert capsys.readouterr().out == f"wrote spread curve for seeds {seeds} to {a}\n"
    assert run(["sir", *common, "--seeds", ",".join(map(str, seeds)), "--out", str(b)]) == 0
    assert capsys.readouterr().out == f"wrote spread curve for seeds {seeds} to {b}\n"
    assert (a / "sir_curve_lsc.csv").read_bytes() == (b / "sir_curve_seeds.csv").read_bytes()


def test_sir_curve_requires_steps(small_graph_file, tmp_path, capsys):
    code = run(
        [
            "sir",
            "--graph",
            str(small_graph_file),
            "--seeds",
            "0,1",
            "--beta",
            "0.1",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_evaluate_deterministic_across_runs_and_threads(small_graph_file, tmp_path):
    args = [
        "evaluate",
        "--graph",
        str(small_graph_file),
        "--beta",
        "0.2",
        "--reps",
        "40",
        "--seed",
        "7",
        "--x-percent",
        "25",
    ]
    outs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        out = tmp_path / name
        assert run(args + ["--out", str(out), "--threads", threads]) == 0
        outs.append(out)
    report_bytes = [(o / "eval_report.json").read_bytes() for o in outs]
    assert report_bytes[0] == report_bytes[1] == report_bytes[2]
    scores_bytes = [(o / "sir_scores.csv").read_bytes() for o in outs]
    assert scores_bytes[0] == scores_bytes[1] == scores_bytes[2]
    assert (outs[0] / "rank_vs_score_lsc.csv").exists()
    assert (outs[0] / "inversions.csv").exists()


def test_config_file_round_trip(small_graph_file, tmp_path):
    first = tmp_path / "first"
    args = [
        "evaluate",
        "--graph",
        str(small_graph_file),
        "--beta",
        "0.3",
        "--reps",
        "25",
        "--seed",
        "3",
        "--x-percent",
        "40",
        "--out",
        str(first),
    ]
    assert run(args) == 0
    second = tmp_path / "second"
    config = json.loads((first / "run_config.json").read_text())
    config["output_dir"] = str(second)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert run(["evaluate", "--config", str(config_path)]) == 0
    assert (first / "eval_report.json").read_bytes() == (
        second / "eval_report.json"
    ).read_bytes()


def test_evaluate_generated_graph_end_to_end(tmp_path):
    out = tmp_path / "out"
    code = run(
        [
            "evaluate",
            "--generate",
            "ba:200:5:11",
            "--beta",
            "0.05",
            "--reps",
            "30",
            "--seed",
            "5",
            "--x-percent",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads((out / "eval_report.json").read_text())
    assert report["node_count"] == 200
    for tag in ("DC", "EC", "CC", "BC", "GC", "LSC"):
        row = report["measures"][tag]
        assert row["top_x_k"] == 10
        assert 0 <= row["top_x_overlap"] <= 10
        assert -1.0 <= row["tau"] <= 1.0


def test_bench_writes_timing_files(small_graph_file, tmp_path):
    out = tmp_path / "out"
    code = run(
        [
            "bench",
            "--graph",
            str(small_graph_file),
            "--measures",
            "dc,gc",
            "--reps",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = (out / "benchmark.csv").read_text().splitlines()
    assert lines[0] == "measure,mean_seconds,repetitions"
    assert len(lines) == 3
    payload = json.loads((out / "benchmark.json").read_text())
    assert set(payload["mean_seconds"]) == {"DC", "GC"}
    assert payload["repetitions"] == 2


def test_relabel_writes_label_map(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("10 20\n20 30\n")
    out = tmp_path / "out"
    assert run(["stats", "--graph", str(path), "--out", str(out)]) == 0
    labels = (out / "stats.csv").parent / "node_labels.csv"
    # stats does not write labels; centrality does
    assert run(
        ["centrality", "--graph", str(path), "--measures", "dc", "--out", str(out)]
    ) == 0
    assert (out / "node_labels.csv").read_text() == "node,label\n0,10\n1,20\n2,30\n"


def test_ranking_csv_and_json(tmp_path):
    path = tmp_path / "hub_last.txt"
    path.write_text("4 0\n4 1\n4 2\n0 1\n2 3\n")
    out = tmp_path / "out"
    assert run(["centrality", "--graph", str(path), "--measures", "lsc", "--out", str(out)]) == 0
    assert (out / "ranking_lsc.csv").read_text() == "rank,node\n0,4\n1,0\n2,1\n3,2\n4,3\n"
    # one line, sorted keys
    assert (out / "ranking_lsc.json").read_text() == (
        '{"ordered_nodes": [4, 0, 1, 2, 3], "params": {"measure_order": ["DC", "EC", "CC"], '
        '"precision": 5, "rounding": "half_even"}, "source": "LSC"}\n'
    )


def test_matrix_csv_dump(tmp_path):
    cases = [
        (2, "half_even", "0,0.50,0.25\n1,0.12,0.67\n"),
        (2, "truncate", "0,0.50,0.25\n1,0.12,0.66\n"),
        (0, "half_even", "0,0,0\n1,0,1\n"),
        (0, "truncate", "0,0,0\n1,0,0\n"),
        (15, "half_even", "0,0.500000000000000,0.250000000000000\n"
                          "1,0.125000000000000,0.666666666666667\n"),
        (15, "truncate", "0,0.500000000000000,0.250000000000000\n"
                         "1,0.125000000000000,0.666666666666666\n"),
    ]
    path = tmp_path / "rm.csv"
    for precision, rounding, rows in cases:
        rm = matrix_from_rows([(0.5, 0.25), (0.125, 2 / 3)], precision, rounding)
        lexcent.cli._write(path, *lexcent.cli._matrix_table(rm))
        assert path.read_text() == "node,DC,EC\n" + rows, (precision, rounding)


def test_undefined_tau_is_json_null(tmp_path):
    # beta 0 scores every node 1, so tau-b divides by zero for all six
    out = tmp_path / "out"
    argv = ["evaluate", "--generate", "ba:60:2:1", "--beta", "0", "--reps", "5",
            "--tau-variant", "b", "--x-percent", "10", "--out", str(out)]
    assert run(argv) == 0

    def reject(constant):
        raise ValueError(f"bare {constant} in eval_report.json")

    payload = json.loads((out / "eval_report.json").read_text(), parse_constant=reject)
    assert [row["tau"] for row in payload["measures"].values()] == [None] * 6
    rows = (out / "eval_report.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["nan"] * 6


def test_json_outputs_reject_nan():
    with pytest.raises(ValueError):
        lexcent.cli._json({"tau": float("nan")})


def test_report_serialization_shape(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("0 1\n0 2\n0 3\n")
    out = tmp_path / "out"
    argv = ["evaluate", "--graph", str(path), "--beta", "0.2", "--reps", "30", "--seed", "1",
            "--x-percent", "25", "--out", str(out)]
    assert run(argv) == 0
    text = (out / "eval_report.json").read_text()
    payload = json.loads(text)
    assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert set(payload) == {"dataset", "beta", "gamma", "replications", "rng_seed",
                            "x_percent", "node_count", "tau_variant", "measures"}
    assert list(payload["measures"]) == sorted(EVAL_MEASURES)
    assert payload["beta"] == 0.2 and payload["dataset"] == "star"
    lines = (out / "eval_report.csv").read_text().splitlines()
    assert lines[0] == "dataset,measure,tau,top_x_overlap,top_x_k"
    m = payload["measures"]
    assert lines[1:] == [
        f"star,{t},{m[t]['tau']:.12g},{m[t]['top_x_overlap']},{m[t]['top_x_k']}"
        for t in EVAL_MEASURES
    ]


def test_labels_and_dataset_tag_with_commas_and_quotes_read_back(tmp_path):
    path = tmp_path / "x,y.txt"
    path.write_text('a,b c\n"e c\nc d\nd a,b\n')
    out = tmp_path / "out"
    argv = ["evaluate", "--graph", str(path), "--beta", "0.2", "--reps", "30",
            "--x-percent", "40", "--out", str(out)]
    assert run(argv) == 0
    with open(out / "node_labels.csv", newline="") as stream:
        labels = list(csv.reader(stream))
    assert labels == [["node", "label"], ["0", '"e'], ["1", "a,b"], ["2", "c"], ["3", "d"]]
    with open(out / "eval_report.csv", newline="") as stream:
        rows = list(csv.reader(stream))
    assert all(len(row) == 5 for row in rows)
    assert [row[:2] for row in rows[1:]] == [["x,y", tag] for tag in EVAL_MEASURES]


@pytest.mark.parametrize(
    "flag,value",
    [("--precision", "20"), ("--ec-tol", "0"), ("--ec-max-iter", "0")],
    ids=["precision", "ec-tol", "ec-max-iter"],
)
def test_bad_precision_fails_before_any_work(
    small_graph_file, tmp_path, capsys, flag, value
):
    code = run(
        [
            "centrality",
            "--graph",
            str(small_graph_file),
            "--measures",
            "lsc",
            flag,
            value,
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    # the message names the setting's keyword, which is also its config-file key
    assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before outputs were touched


def test_precision_beyond_int64_is_a_clean_error(tmp_path, capsys):
    # GC on this graph peaks near 37613.9, which does not fit int64 at 10^15
    code = run(
        [
            "centrality",
            "--generate",
            "ba:1000:10:42",
            "--measures",
            "lsc",
            "--measure-order",
            "gc,dc",
            "--precision",
            "15",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: GC score 37613.8")
    assert "precision 15" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_missing_graph_file_is_a_clean_error(tmp_path, capsys):
    code = run(["stats", "--graph", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_unknown_measure_is_a_clean_error(small_graph_file, tmp_path, capsys):
    code = run(
        [
            "centrality",
            "--graph",
            str(small_graph_file),
            "--measures",
            "pagerank",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert "unknown measure" in capsys.readouterr().err


def test_conflicting_graph_sources_rejected(small_graph_file, tmp_path, capsys):
    code = run(
        [
            "stats",
            "--graph",
            str(small_graph_file),
            "--dataset",
            "karate",
            "--out",
            str(tmp_path / "o"),
        ]
    )
    assert code == 2
    assert "exactly one" in capsys.readouterr().err


def test_beta_required_without_dataset_default(small_graph_file, tmp_path, capsys):
    code = run(
        ["sir", "--graph", str(small_graph_file), "--out", str(tmp_path / "o")]
    )
    assert code == 2
    assert "--beta" in capsys.readouterr().err


def test_dataset_default_beta_applies(tmp_path):
    out = tmp_path / "out"
    code = run(
        ["sir", "--dataset", "karate", "--reps", "2", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    config = json.loads((out / "run_config.json").read_text())
    assert config["beta"] is None  # default resolved at params time, from registry
    assert (out / "sir_scores.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "--beta", "0.2", "--reps", "20", "--x-percent", "20"],
        ["centrality", "--measures", "dc,ec,cc,bc,gc,lsc"],
    ],
    ids=["evaluate", "centrality"],
)
def test_each_measure_computed_once_per_command(
    small_graph_file, tmp_path, monkeypatch, argv
):
    names = ("degree", "eigenvector", "closeness", "betweenness", "gravity")
    calls = {}
    for name in names:
        attr = f"{name}_centrality"
        original = getattr(lexcent.centrality, attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lexcent.centrality, attr, counted)
    argv = [*argv, "--graph", str(small_graph_file), "--out", str(tmp_path / "o")]
    assert run(argv) == 0
    assert calls == dict.fromkeys(names, 1)


def test_karate_betweenness_csv_is_pinned(tmp_path):
    out = tmp_path / "out"
    karate = dataset_path("karate")
    assert run(["centrality", "--graph", str(karate), "--measures", "bc", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "centrality_bc.csv").read_bytes()).hexdigest()
    assert digest == "f9ead2abfd271e5bce23ab9f58d7c661281c1b6a2b46a3a2806c953191bf8ae0"


def test_empty_top_x_fails_before_any_work(small_graph_file, tmp_path, capsys, monkeypatch):
    def no_ground_truth(*args, **kwargs):
        raise AssertionError("SIR ground truth started")

    monkeypatch.setattr(lexcent.evaluation, "score_all_nodes", no_ground_truth)
    out = tmp_path / "o"
    argv = ["evaluate", "--graph", str(small_graph_file), "--beta", "0.2", "--out", str(out)]
    assert run(argv) == 2
    assert "x_percent=5.0 selects 0 of 5 nodes" in capsys.readouterr().err
    assert not out.exists()  # rejected before outputs were touched


@pytest.mark.parametrize(
    "argv",
    [
        ["centrality", "--measures", "lsc"],
        ["sir", "--seeds-from", "lsc", "--steps", "3", "--beta", "0.5"],
        ["evaluate", "--beta", "0.5", "--x-percent", "20"],
    ],
    ids=["centrality", "sir", "evaluate"],
)
def test_repeated_measure_in_the_order_fails_before_any_work(
    small_graph_file, tmp_path, capsys, monkeypatch, argv
):
    def no_work(*args, **kwargs):
        raise AssertionError("the graph was loaded")

    monkeypatch.setattr(lexcent.cli, "_load_graph", no_work)
    out = tmp_path / "o"
    argv = [*argv, "--measure-order", "dc,ec,DC", "--graph", str(small_graph_file),
            "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: measure 'DC' is repeated in the measure order\n"
    assert not out.exists()  # rejected before outputs were touched


@pytest.mark.parametrize("command", ["stats", "sir", "evaluate"])
def test_unknown_dataset_names_the_registry_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    def no_work(*args, **kwargs):
        raise AssertionError("the graph was loaded")

    monkeypatch.setattr(lexcent.cli, "_load_graph", no_work)
    out = tmp_path / "o"
    assert run([command, "--dataset", "nosuch", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown dataset 'nosuch'; known datasets: ")
    assert "karate" in err and "fetch" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "config",
    [
        {"replications": 2.5},
        {"max_steps": 2.5},
        {"seeds": [1.5], "max_steps": 3},
        {"rng_seed": 1.5},
        {"rng_seed": -1},
    ],
    ids=["replications", "steps", "seeds", "rng-seed", "negative-rng-seed"],
)
def test_non_integer_sir_counts_fail_before_any_work(small_graph_file, tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    argv = ["sir", "--graph", str(small_graph_file), "--beta", "0.5",
            "--config", str(cfg), "--out", str(out)]
    assert run(argv) == 2
    assert "integer" in capsys.readouterr().err
    assert not out.exists()  # rejected before outputs were touched


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--seeds", "0,1"], "requires --steps"),
        (["--seeds-from", "pagerank", "--steps", "3"], "unknown --seeds-from"),
        (["--seeds", "0,5", "--steps", "3"], "out of range"),
    ],
    ids=["no-steps", "unknown-measure", "seed-out-of-range"],
)
def test_bad_curve_settings_fail_before_any_work(small_graph_file, tmp_path, capsys, flags,
                                                 message):
    out = tmp_path / "o"
    argv = ["sir", "--graph", str(small_graph_file), "--beta", "0.5", *flags,
            "--out", str(out)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before outputs were touched


@pytest.mark.parametrize(
    "config",
    [
        {"gc_radius": 2.5},
        {"gc_exponent": 1.5},
        {"ec_max_iter": 10.5},
        {"top": 2.5},
        {"repetitions": 1.5},
        {"threads": 1.5},
        {"threads": True},
        {"precision": 2.5},
    ],
    ids=["gc-radius", "gc-exponent", "ec-max-iter", "top", "repetitions", "threads",
         "bool-threads", "precision"],
)
def test_non_integer_settings_fail_before_any_work(small_graph_file, tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    argv = ["centrality", "--graph", str(small_graph_file), "--measures", "gc",
            "--config", str(cfg), "--out", str(out)]
    assert run(argv) == 2
    assert "integer" in capsys.readouterr().err
    assert not out.exists()  # rejected before outputs were touched


@pytest.mark.parametrize(
    "argv,config,message",
    [
        (["sir"], {}, "--beta is required (no dataset default applies)"),
        (["sir", "--beta", "0.5", "--seeds", "0,1"], {}, "curve mode requires --steps"),
        (["sir", "--beta", "0.5", "--seeds-from", "pagerank", "--steps", "3"], {},
         "unknown --seeds-from measure 'pagerank'"),
        (["evaluate", "--beta", "0.5"], {"measure_order": []},
         "at least one centrality measure is required"),
        (["centrality"], {"measure_order": "dc,ec"},
         "measure_order must be a list of measures, got 'dc,ec'"),
        (["centrality"], {"measures": "dc"}, "measures must be a list of measures, got 'dc'"),
        (["bench"], {"measures": "lsc"}, "measures must be a list of measures, got 'lsc'"),
        (["sir", "--beta", "0.5", "--steps", "3"], {"seeds_from": 5},
         "seeds_from must be a string, got 5"),
        (["centrality"], {"measure_order": [1]},
         "measure_order must be a list of measures, got [1]"),
        (["centrality"], {"measures": [1]}, "measures must be a list of measures, got [1]"),
        (["sir", "--beta", "0.5", "--steps", "3"], {"seeds": 5},
         "seeds must be a list of node ids, got 5"),
        (["stats"], {"output_dir": 5}, "output_dir must be a string, got 5"),
        (["stats"], {"data_dir": None}, "data_dir must be a string, got None"),
        (["stats"], {"dataset": 5}, "dataset must be a string, got 5"),
    ],
    ids=["no-beta", "curve-without-steps", "unknown-seeds-from", "empty-measure-order",
         "string-measure-order", "string-measures", "string-bench-measures", "int-seeds-from",
         "int-in-measure-order", "int-in-measures", "int-seeds", "int-output-dir",
         "null-data-dir", "int-dataset"],
)
def test_config_errors_come_before_the_graph_loads(tmp_path, capsys, argv, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    # a config that sets output_dir is not overridden by --out
    out_flag = [] if "output_dir" in config else ["--out", str(out)]
    argv = [*argv, "--graph", str(tmp_path / "missing.txt"), "--config", str(cfg), *out_flag]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"  # not "graph file not found"
    assert not out.exists()


@pytest.mark.parametrize("loaded", [[], 5, "x", None], ids=["array", "number", "string", "null"])
def test_config_file_must_hold_an_object(tmp_path, capsys, loaded):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(loaded))
    out = tmp_path / "o"
    argv = ["stats", "--graph", str(tmp_path / "missing.txt"), "--config", str(cfg),
            "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: config file {cfg} must hold a JSON object\n"
    assert not out.exists()


def test_fetch_takes_no_out(capsys):
    # fetch writes only the datasets into --data-dir, so it offers no --out
    with pytest.raises(SystemExit) as exit_info:
        run(["fetch", "--out", "x", "karate"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err


def _small_graph():
    return from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4)])


# (setting, bad value, the library call that reads the setting)
SETTING_PARITY = [
    ("ec_tol", 0, lambda g: eigenvector_centrality(g, tol=0)),
    ("ec_max_iter", 2.5, lambda g: eigenvector_centrality(g, max_iter=2.5)),
    ("gc_radius", 0, lambda g: gravity_centrality(g, radius=0)),
    ("gc_exponent", 1.5, lambda g: gravity_centrality(g, exponent=1.5)),
    ("cc_convention", "bogus", lambda g: compute_centrality(g, "CC", cc_convention="bogus")),
    ("repetitions", 1.5, lambda g: benchmark_runtime(g, ["dc"], repetitions=1.5)),
    ("precision", True, lambda g: lsc(g, precision=True)),
    ("precision", 16, lambda g: build_ranking_matrix([compute_centrality(g, "DC")], 16)),
    ("rounding", "up", lambda g: lsc(g, rounding="up")),
    ("measure_order", [], lambda g: lsc(g, measure_order=[])),
    ("measure_order", ["DC", "XX"], lambda g: lsc(g, measure_order=["DC", "XX"])),
    ("top", 0, lambda g: lsc(g, top=0)),
    ("x_percent", 0, lambda g: evaluate_dataset(g, SirParams(beta=0.5), x_percent=0)),
    ("tau_variant", "c", lambda g: kendall_tau([1, 2], [2, 1], variant="c")),
    ("beta", 1.5, lambda g: SirParams(beta=1.5)),
    ("gamma", 0, lambda g: SirParams(beta=0.5, gamma=0)),
    ("replications", 0, lambda g: SirParams(beta=0.5, replications=0)),
    ("max_steps", 2.5, lambda g: SirParams(beta=0.5, max_steps=2.5)),
    ("rng_seed", -1, lambda g: SirParams(beta=0.5, rng_seed=-1)),
    ("ec_tol", "1e-8", lambda g: eigenvector_centrality(g, tol="1e-8")),
    ("ec_tol", True, lambda g: compute_centrality(g, "EC", ec_tol=True)),
    ("x_percent", True, lambda g: evaluate_dataset(g, SirParams(beta=0.5), x_percent=True)),
    ("x_percent", "5", lambda g: evaluate_dataset(g, SirParams(beta=0.5), x_percent="5")),
    ("beta", "0.1", lambda g: SirParams(beta="0.1")),
    ("beta", True, lambda g: SirParams(beta=True)),
    ("gamma", True, lambda g: SirParams(beta=0.5, gamma=True)),
    ("gamma", "1", lambda g: SirParams(beta=0.5, gamma="1")),
    ("measure_order", "dc,ec", lambda g: lsc(g, measure_order="dc,ec")),
    ("measure_order", [1], lambda g: lsc(g, measure_order=[1])),
    ("ec_tol", math.inf, lambda g: eigenvector_centrality(g, tol=math.inf)),
    ("relabel", "no", lambda g: load_edge_list("0 1\n", relabel="no")),
    ("force", "no", lambda g: fetch("karate", force="no")),
]


@pytest.mark.parametrize(
    "setting,value,library_call",
    SETTING_PARITY,
    ids=[f"{setting}={value!r}" for setting, value, _ in SETTING_PARITY],
)
def test_cli_and_library_reject_a_setting_with_one_message(
    small_graph_file, tmp_path, capsys, monkeypatch, setting, value, library_call
):
    def no_work(*args, **kwargs):
        raise AssertionError("the graph was loaded")

    monkeypatch.setattr(lexcent.cli, "_load_graph", no_work)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 0.5, setting: value}))
    out = tmp_path / "o"
    argv = ["evaluate", "--graph", str(small_graph_file), "--config", str(cfg),
            "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ValueError) as raised:
        library_call(_small_graph())
    assert err == f"error: {raised.value}\n"


@pytest.mark.parametrize(
    "flag,value",
    [("--rounding", "up"), ("--cc-convention", "bogus"), ("--tau-variant", "c")],
)
def test_a_flag_and_its_config_key_fail_with_one_message(
    small_graph_file, tmp_path, capsys, flag, value
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag.lstrip("-").replace("-", "_"): value}))
    out = tmp_path / "o"
    errors = []
    for given in ([flag, value], ["--config", str(cfg)]):
        argv = ["evaluate", "--graph", str(small_graph_file), "--beta", "0.5", *given,
                "--out", str(out)]
        assert run(argv) == 2
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: unknown ") and errors[0].count("\n") == 1


def _defaults(fn):
    return {
        name: p.default
        for name, p in inspect.signature(fn).parameters.items()
        if p.default is not p.empty
    }


def test_run_config_defaults_are_the_librarys():
    evaluate = _defaults(evaluate_dataset)
    sir = _defaults(SirParams)
    library = {
        "precision": evaluate["precision"],
        "measure_order": list(evaluate["measure_order"]),
        "rounding": evaluate["rounding"],
        "x_percent": evaluate["x_percent"],
        "tau_variant": evaluate["tau_variant"],
        "repetitions": _defaults(benchmark_runtime)["repetitions"],
        "cc_convention": _defaults(closeness_centrality)["convention"],
        "ec_tol": _defaults(eigenvector_centrality)["tol"],
        "ec_max_iter": _defaults(eigenvector_centrality)["max_iter"],
        "gc_radius": _defaults(gravity_centrality)["radius"],
        "gc_exponent": _defaults(gravity_centrality)["exponent"],
        "gamma": sir["gamma"],
        "replications": sir["replications"],
        "rng_seed": sir["rng_seed"],
        "max_steps": sir["max_steps"],
        "data_dir": str(_defaults(load_dataset)["data_dir"]),
    }
    config = RunConfig()
    for name, value in library.items():
        assert getattr(config, name) == value, name
        assert type(getattr(config, name)) is type(value), name  # 5.0 stays a float
    # the library's functions agree with each other on the shared defaults
    for fn in (lsc, benchmark_runtime):
        for name in ("precision", "measure_order", "rounding"):
            assert _defaults(fn)[name] == evaluate[name], (fn.__name__, name)
    for fn in (kendall_tau, kendall_tau_pairwise):
        assert _defaults(fn)["variant"] == evaluate["tau_variant"]
    assert _defaults(betweenness_centrality)["normalized"] is True
    assert compute_centrality(_small_graph(), "EC").params["tol"] == library["ec_tol"]


@pytest.mark.parametrize(
    "spec,message",
    [
        ("ba:10:x:1", "bad generator spec 'ba:10:x:1'; expected ba:<n>:<m>:<seed>"),
        ("ba:10:3", "bad generator spec 'ba:10:3'; expected ba:<n>:<m>:<seed>"),
        ("ba:10:3:1:2", "bad generator spec 'ba:10:3:1:2'; expected ba:<n>:<m>:<seed>"),
        ("er:10:3:1", "bad generator spec 'er:10:3:1'; expected ba:<n>:<m>:<seed>"),
        ("ba:10:3:-1", "rng_seed must be an integer >= 0, got -1"),
        ("ba:10:10:1", "require 1 <= m < n, got m=10, n=10"),
        ("ba:10:0:1", "require 1 <= m < n, got m=0, n=10"),
    ],
    ids=["non-integer", "three-parts", "five-parts", "not-ba", "negative-seed", "m-equals-n",
         "zero-m"],
)
def test_bad_generator_spec_fails_before_the_graph_loads(
    tmp_path, capsys, monkeypatch, spec, message
):
    def no_work(*args, **kwargs):
        raise AssertionError("the graph was loaded")

    monkeypatch.setattr(lexcent.cli, "_load_graph", no_work)
    out = tmp_path / "o"
    assert run(["stats", "--generate", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _in_fresh_process(code, *args):
    """stdout of ``python -c code args`` with this lexcent importable."""
    src = str(Path(lexcent.cli.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


@pytest.mark.parametrize("argv", [
    ["stats"],
    ["sir", "--beta", "0.05", "--reps", "20"],
    ["evaluate", "--beta", "0.05", "--reps", "20"],
    ["sir", "--seeds-from", "lsc", "--top", "3", "--beta", "0.05", "--steps", "5", "--reps", "20"],
], ids=["stats", "sir", "evaluate", "sir-seeds-from-lsc"])
def test_commands_do_not_import_numpy_ma(tmp_path, argv):
    # np.unique without return_* imports numpy.ma (13 ms and over 1 MB per
    # process); the graph build and the seed check sort instead
    if _in_fresh_process("import sys, numpy; print('numpy.ma' in sys.modules)") == "True\n":
        pytest.skip("import numpy alone loads numpy.ma")
    code = ("import sys; from lexcent.cli import main; status = main(sys.argv[1:]);"
            " print(status, 'numpy.ma' in sys.modules)")
    argv = [*argv, "--generate", "ba:200:3:1", "--out", str(tmp_path / "o")]
    assert _in_fresh_process(code, *argv).splitlines()[-1] == "0 False"


BA200 = ["--generate", "ba:200:3:1"]


@pytest.mark.parametrize("argv, unused", [
    (["stats", "--dataset", "karate"], ["decimal", "logging"]),
    (["sir", *BA200, "--beta", "0.05", "--reps", "20"], ["decimal", "logging"]),
    (["sir", *BA200, "--seeds-from", "lsc", "--top", "3", "--beta", "0.05", "--steps", "5",
      "--reps", "20"], ["decimal", "logging"]),
    (["centrality", *BA200, "--measures", "lsc"], ["decimal", "logging"]),
    (["evaluate", *BA200, "--beta", "0.05", "--reps", "20"], ["decimal", "logging"]),
], ids=["stats", "sir", "sir-seeds-from-lsc", "centrality-lsc", "evaluate"])
def test_commands_do_not_import_decimal_or_logging(tmp_path, argv, unused):
    # LSC rounds in float64 and imports decimal only for a value at a
    # rounding boundary, and evaluate's top_x_size reads x_percent from its
    # repr; the edge-list loader imports logging only to report dropped edges
    check = f"print(*[name in sys.modules for name in {unused!r}])"
    absent = " ".join(["False"] * len(unused))
    if _in_fresh_process(f"import sys, numpy; {check}").strip() != absent:
        pytest.skip(f"import numpy alone loads one of {unused}")
    code = f"import sys; from lexcent.cli import main; print(main(sys.argv[1:])); {check}"
    lines = _in_fresh_process(code, *argv, "--out", str(tmp_path / "o")).splitlines()
    assert lines[-2:] == ["0", absent]


def _command_outputs(argv):
    """The _Outputs that a command returns, before anything is written."""
    args = lexcent.cli.build_parser().parse_args(argv)
    config = lexcent.cli._resolve_config(args)
    config.validate()
    return args.func(config)


@pytest.mark.parametrize("argv", [
    ["evaluate", "--beta", "0.05", "--reps", "20"],
    ["sir", "--beta", "0.05", "--reps", "20"],
    ["sir", "--seeds-from", "lsc", "--top", "3", "--beta", "0.05", "--steps", "5", "--reps", "20"],
    ["centrality", "--measures", "dc,gc,lsc"],
], ids=["evaluate", "sir", "sir-curve", "centrality"])
def test_csv_rows_are_one_pass_iterators(tmp_path, argv):
    # no command holds a file's rows as a list of formatted tuples; _write
    # formats each row as it consumes it
    outputs = _command_outputs([*argv, "--generate", "ba:200:3:1", "--out", str(tmp_path)])
    tables = {name: content[1] for name, content in outputs.files.items()
              if isinstance(content, tuple)}
    assert tables
    for name, rows in tables.items():
        assert not isinstance(rows, (list, tuple)), name
        assert iter(rows) is rows, name


def test_centrality_tables_each_name_their_own_measure(small_graph_file, tmp_path):
    # the rows are formatted after cmd_centrality returns, so each table
    # must hold its own vector, not the last one the loop saw
    out = tmp_path / "out"
    argv = ["centrality", "--graph", str(small_graph_file), "--measures", "dc,ec,cc,bc,gc",
            "--out", str(out)]
    assert run(argv) == 0
    g = load_edge_list(small_graph_file.read_text(), relabel=True)
    for measure in ("dc", "ec", "cc", "bc", "gc"):
        with open(out / f"centrality_{measure}.csv", newline="") as stream:
            rows = list(csv.reader(stream))[1:]
        assert {row[1] for row in rows} == {measure.upper()}
        scores = compute_centrality(g, measure).scores
        assert [row[2] for row in rows] == [f"{score:.12g}" for score in scores]
