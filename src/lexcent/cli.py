"""Command-line interface.

Subcommands: centrality, sir, evaluate, bench, fetch, stats. Every run
resolves its settings into a RunConfig (defaults < --config file < explicit
flags) and validates every setting before the graph is loaded. A setting
the library reads takes the library's default and is checked by the
library's own rule, so a flag and a config key fail with the same message.

This module is the only writer of command outputs; the library returns
data only. Each cmd_* computes every result and returns the files it
writes; _write_outputs then makes the output directory and writes them,
the node labels and the resolved config (run_config.json), so a command
that fails leaves no run_config.json behind. Every CSV goes through _write
(csv quoting: a field holding a comma, a quote or a line break is quoted)
and every JSON file through _json. A CSV table's rows are a lazy iterable
that _write consumes once, formatting each row as it is written, so no
command holds its rows as strings; everything they read is computed before
any file is written. Identical configs (including rng_seed)
produce byte-identical files. --threads is accepted and recorded in
run_config.json but has no effect: every command runs in one thread.
Errors exit nonzero with a single 'error: ...' line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from . import datasets
from .centrality import CC_CONVENTIONS, MEASURES, CentralityVector, compute_centrality
from .evaluation import DEFAULT_REPETITIONS, DEFAULT_TAU_VARIANT, DEFAULT_X_PERCENT
from .evaluation import EVAL_MEASURES, benchmark_runtime, evaluate_dataset, rank_vs_score_series
from .graph import Graph, dataset_stats, generate_barabasi_albert, load_edge_list
from .ranking import (
    DEFAULT_MEASURE_ORDER,
    DEFAULT_PRECISION,
    ROUND_HALF_EVEN_MODE,
    ROUNDING_MODES,
    RankingMatrix,
    build_ranking_matrix,
    lexical_sort,
    lsc,
    ranking_from_scores,
)
from .sir import SirParams, score_all_nodes, spread_curve

# the library's own checks, one per setting, which RunConfig.validate calls
from .centrality import _check_measure, _MeasureSettings
from .evaluation import _TAU_VARIANTS, _check_repetitions, _check_tau_variant, _check_x_percent
from .graph import _check_barabasi_albert, _check_bool, _check_int
from .ranking import _check_measure_order, _check_rounding, _check_top

@dataclass
class RunConfig:
    """Resolved settings for one command invocation; round-trips through
    JSON so a dumped config reproduces the run exactly."""

    command: str = ""
    dataset: str | None = None          # registry name
    graph: str | None = None            # edge-list path
    generate: str | None = None         # "ba:<n>:<m>:<seed>"
    relabel: bool = True
    data_dir: str = str(datasets.DEFAULT_DATA_DIR)
    output_dir: str = "out"
    measures: list[str] = dataclasses.field(default_factory=lambda: ["lsc"])
    beta: float | None = None
    gamma: float = SirParams.gamma
    replications: int = SirParams.replications
    rng_seed: int = SirParams.rng_seed
    max_steps: int | None = SirParams.max_steps
    seeds: list[int] | None = None
    seeds_from: str | None = None
    top: int = 10
    precision: int = DEFAULT_PRECISION
    measure_order: list[str] = dataclasses.field(
        default_factory=lambda: list(DEFAULT_MEASURE_ORDER)
    )
    rounding: str = ROUND_HALF_EVEN_MODE
    cc_convention: str = _MeasureSettings.cc_convention
    ec_tol: float = _MeasureSettings.ec_tol
    ec_max_iter: int = _MeasureSettings.ec_max_iter
    gc_radius: int = _MeasureSettings.gc_radius
    gc_exponent: int = _MeasureSettings.gc_exponent
    x_percent: float = DEFAULT_X_PERCENT
    tau_variant: str = DEFAULT_TAU_VARIANT
    repetitions: int = DEFAULT_REPETITIONS
    threads: int = 1
    force: bool = False

    def validate(self) -> None:
        """Check every field before the graph is loaded: each setting the
        library reads with the library's own check and message, and the
        CLI-only fields (measures, seeds, seeds_from, threads, the graph
        source, the directories) here. Leaves the measure order upper-cased
        and the measures lower-cased."""
        optional = ("seeds_from", "dataset", "graph", "generate")
        for name in ("output_dir", "data_dir", *optional):
            value = getattr(self, name)
            if not (isinstance(value, str) or value is None and name in optional):
                raise ValueError(f"{name} must be a string, got {value!r}")
        _check_bool("relabel", self.relabel)
        _check_bool("force", self.force)
        _check_rounding(self.precision, self.rounding)
        self.measure_order = _check_measure_order(self.measure_order)
        _MeasureSettings(**self.measure_settings())
        if self.dataset:
            datasets._registered(self.dataset)
        _sir_params(self)
        _check_x_percent(self.x_percent)
        _check_tau_variant(self.tau_variant)
        _check_repetitions(self.repetitions)
        _check_top(self.top)
        if not isinstance(self.measures, list) or not all(
            isinstance(m, str) for m in self.measures
        ):
            raise ValueError(f"measures must be a list of measures, got {self.measures!r}")
        self.measures = [m.lower() for m in self.measures]
        if self.command != "fetch":
            for m in self.measures:
                if m != "lsc":
                    _check_measure(m)
        if self.seeds is not None:
            if not isinstance(self.seeds, list):
                raise ValueError(f"seeds must be a list of node ids, got {self.seeds!r}")
            for seed in self.seeds:
                _check_int("seed id", seed)
        if self.command == "sir" and (self.seeds is not None or self.seeds_from is not None):
            if self.max_steps is None:
                raise ValueError("curve mode requires --steps")
            if self.seeds is None and self.seeds_from.upper() not in ("LSC", *MEASURES):
                raise ValueError(f"unknown --seeds-from measure {self.seeds_from!r}")
        _check_int("threads", self.threads, 1)
        if self.command != "fetch":
            if len([s for s in (self.dataset, self.graph, self.generate) if s]) != 1:
                raise ValueError("specify exactly one of --dataset, --graph, --generate")
            if self.generate:
                _generator_args(self.generate)

    def measure_settings(self) -> dict:
        """The library's measure settings that RunConfig has a field for."""
        names = (f.name for f in dataclasses.fields(_MeasureSettings))
        return {name: getattr(self, name) for name in names if hasattr(self, name)}

    def _lsc_settings(self) -> dict:
        """The keywords that lsc, evaluate_dataset and benchmark_runtime share."""
        return {"precision": self.precision, "measure_order": self.measure_order,
                "rounding": self.rounding, **self.measure_settings()}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        loaded = json.loads(Path(args.config).read_text())
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(loaded) - {f.name for f in dataclasses.fields(RunConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in loaded.items():
            setattr(config, key, value)
    for key, value in vars(args).items():
        if key in ("config", "func") or value is None:
            continue
        if hasattr(config, key):
            setattr(config, key, value)
    config.command = args.command
    return config


def _generator_args(spec: str) -> tuple[int, int, int]:
    """n, m and rng_seed of a ba:<n>:<m>:<seed> spec, checked as
    generate_barabasi_albert checks them."""
    kind, *numbers = spec.split(":")
    try:
        n, m, seed = map(int, numbers) if kind == "ba" else ()
    except ValueError:  # a missing, extra or non-integer number
        raise ValueError(f"bad generator spec {spec!r}; expected ba:<n>:<m>:<seed>") from None
    _check_barabasi_albert(n, m, seed)
    return n, m, seed


def _load_graph(config: RunConfig) -> Graph:
    """The graph of the one source that validate found in config."""
    if config.generate:
        return generate_barabasi_albert(*_generator_args(config.generate))
    if config.dataset:
        return datasets.load_dataset(config.dataset, config.data_dir)
    path = Path(config.graph)
    if not path.exists():
        raise FileNotFoundError(f"graph file not found: {path}")
    with path.open() as stream:
        return load_edge_list(stream, relabel=config.relabel)


def _sir_params(config: RunConfig) -> SirParams:
    """The SIR settings; beta falls back to the dataset's default. sir and
    evaluate need a beta; other commands check the rest with beta 0."""
    beta = config.beta
    if beta is None and config.dataset:
        beta = datasets.default_beta(config.dataset)
    if beta is None:
        if config.command in ("sir", "evaluate"):
            raise ValueError("--beta is required (no dataset default applies)")
        beta = 0.0
    return SirParams(
        beta=beta,
        gamma=config.gamma,
        replications=config.replications,
        rng_seed=config.rng_seed,
        max_steps=config.max_steps,
    )


@dataclass(frozen=True)
class _Outputs:
    """What one command computed, for _write_outputs to write. A CSV's rows
    are a one-pass iterator over computed values, formatted as _write
    consumes it; write an _Outputs once."""

    files: dict[str, tuple | str]  # by file name: a CSV (header, rows) or JSON text
    lines: list[str]  # stdout, printed once every file is written
    labels: tuple | None = None  # the graph's node labels, for node_labels.csv


def _write(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    """One CSV file: the header, then the rows, floats already formatted. A
    field is quoted only when it holds a comma, a quote or a line break."""
    with open(path, "w", newline="") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _json(payload, indent: int | None = 2) -> str:
    """Strict JSON text (a NaN or infinity is an error) with sorted keys and a
    final newline; one line when indent is None."""
    return json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False) + "\n"


def _write_outputs(config: RunConfig, outputs: _Outputs) -> None:
    """Write a command's files, its node labels (if it has any) and the
    resolved config into the output directory, then print its lines."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.json").write_text(_json(dataclasses.asdict(config)))
    if outputs.labels is not None:
        _write(out / "node_labels.csv", ["node", "label"], enumerate(outputs.labels))
    for name, content in outputs.files.items():
        if isinstance(content, str):
            (out / name).write_text(content)
        else:
            _write(out / name, *content)
    for line in outputs.lines:
        print(line)


def _dataset_tag(config: RunConfig) -> str:
    return config.dataset or config.generate or Path(config.graph or "graph").stem


def _matrix_table(rm: RankingMatrix) -> tuple[list[str], Iterator[tuple]]:
    """ranking_matrix.csv: each node's rounded values, at rm's precision."""
    return ["node", *rm.measure_order], (
        (node, *(f"{v:.{rm.precision}f}" for v in values))
        for node, values in enumerate(rm.scaled / 10.0**rm.precision)
    )


def _centrality_table(vec: CentralityVector) -> tuple[list[str], Iterator[tuple]]:
    return ["node", "measure", "score"], (
        (node, vec.measure, f"{score:.12g}") for node, score in enumerate(vec.scores)
    )


def _scores_table(
    means: Sequence[float], stds: Sequence[float]
) -> tuple[list[str], Iterator[tuple]]:
    return ["node", "mean_score", "std"], (
        (node, f"{mean:.12g}", f"{std:.12g}") for node, (mean, std) in enumerate(zip(means, stds))
    )


def cmd_centrality(config: RunConfig) -> _Outputs:
    g = _load_graph(config)
    tags = [m.upper() for m in config.measures if m != "lsc"]
    if "lsc" in config.measures:
        tags += config.measure_order
    vectors = {
        tag: compute_centrality(g, tag, **config.measure_settings())
        for tag in dict.fromkeys(tags)
    }
    if "lsc" in config.measures:
        rm = build_ranking_matrix(
            [vectors[tag] for tag in config.measure_order],
            config.precision,
            config.rounding,
        )
        ranking = lexical_sort(rm)
    files: dict[str, tuple | str] = {}
    for measure in config.measures:
        if measure == "lsc":
            files["ranking_lsc.csv"] = (["rank", "node"], enumerate(ranking.ordered_nodes))
            files["ranking_lsc.json"] = _json(dataclasses.asdict(ranking), indent=None)
            files["ranking_matrix.csv"] = _matrix_table(rm)
        else:
            files[f"centrality_{measure}.csv"] = _centrality_table(vectors[measure.upper()])
    out = Path(config.output_dir)
    return _Outputs(files, [f"wrote centrality outputs for {_dataset_tag(config)} to {out}"],
                    g.labels)


def cmd_sir(config: RunConfig) -> _Outputs:
    g = _load_graph(config)
    params = _sir_params(config)
    out = Path(config.output_dir)
    if config.seeds is None and config.seeds_from is None:
        files = {"sir_scores.csv": _scores_table(*score_all_nodes(g, params))}
        return _Outputs(files, [f"wrote per-node SIR scores for {_dataset_tag(config)} to {out}"],
                        g.labels)
    if config.seeds is not None:
        seeds = list(config.seeds)
        tag = "seeds"
    else:
        tag = config.seeds_from.lower()
        if tag == "lsc":
            ranking = lsc(g, top=config.top, **config._lsc_settings())
        else:
            vec = compute_centrality(g, tag, **config.measure_settings())
            ranking = ranking_from_scores(vec.scores, tag.upper())
        seeds = list(ranking.ordered_nodes[: config.top])
    curve = spread_curve(g, seeds, params)
    files = {f"sir_curve_{tag}.csv": (["t", "mean_cumulative_infected"],
                                      ((t, f"{value:.12g}") for t, value in enumerate(curve)))}
    return _Outputs(files, [f"wrote spread curve for seeds {seeds} to {out}"], g.labels)


def cmd_evaluate(config: RunConfig) -> _Outputs:
    g = _load_graph(config)
    params = _sir_params(config)
    report = evaluate_dataset(g, params, x_percent=config.x_percent,
                              tau_variant=config.tau_variant, **config._lsc_settings())
    dataset = _dataset_tag(config)
    # an undefined tau (tau-b of a constant list) is NaN; JSON has null for it
    measures = {tag: {**row, "tau": None if math.isnan(row["tau"]) else row["tau"]}
                for tag, row in report.measures.items()}
    files: dict[str, tuple | str] = {
        "eval_report.json": _json({
            "dataset": dataset, "beta": params.beta, "gamma": params.gamma,
            "replications": params.replications, "rng_seed": params.rng_seed,
            "x_percent": config.x_percent, "node_count": g.node_count,
            "tau_variant": config.tau_variant, "measures": measures,
        }),
        "eval_report.csv": (["dataset", "measure", "tau", "top_x_overlap", "top_x_k"], (
            (dataset, tag, f"{row['tau']:.12g}", row["top_x_overlap"], row["top_x_k"])
            for tag, row in report.measures.items()
        )),
        "sir_scores.csv": _scores_table(report.ground_truth, report.ground_truth_std),
    }
    # rank-vs-score series per measure (plot-ready), plus inversion summary
    inversions = []
    for tag in EVAL_MEASURES:
        nodes = report.rankings[tag].ordered_nodes
        scores, count = rank_vs_score_series(report.rankings[tag], report.ground_truth)
        files[f"rank_vs_score_{tag.lower()}.csv"] = (["index", "node", "score"], (
            (index, node, f"{score:.12g}")
            for index, (node, score) in enumerate(zip(nodes, scores))
        ))
        inversions.append((tag, count))
    files["inversions.csv"] = (["measure", "adjacent_inversions"], iter(inversions))
    out = Path(config.output_dir)
    return _Outputs(files, [f"wrote evaluation report for {dataset} to {out}"], g.labels)


def cmd_bench(config: RunConfig) -> _Outputs:
    g = _load_graph(config)
    result = benchmark_runtime(
        g, config.measures, repetitions=config.repetitions, **config._lsc_settings()
    )
    means = result.mean_seconds.items()
    files = {
        "benchmark.csv": (["measure", "mean_seconds", "repetitions"],
                          ((tag, f"{mean:.6f}", result.repetitions) for tag, mean in means)),
        "benchmark.json": _json(dataclasses.asdict(result)),
    }
    return _Outputs(files, [f"{tag}: {mean:.4f} s (mean of {result.repetitions})"
                            for tag, mean in means])


def cmd_stats(config: RunConfig) -> _Outputs:
    g = _load_graph(config)
    stats = dataset_stats(g)
    files = {"stats.csv": (["nodes", "edges", "mean_degree", "max_degree", "density"], iter([(
        stats.node_count, stats.edge_count, f"{stats.mean_degree:.7g}", stats.max_degree,
        f"{stats.density:.7g}",
    )]))}
    return _Outputs(files, [
        f"{_dataset_tag(config)}: nodes={stats.node_count} edges={stats.edge_count} "
        f"mean_degree={stats.mean_degree:.4f} max_degree={stats.max_degree} "
        f"density={stats.density:.7f}"
    ])


def cmd_fetch(config: RunConfig, names: list[str]) -> None:
    if names == ["all"]:
        names = [n for n, info in datasets.REGISTRY.items() if not info.bundled]
    for name in names:
        path = datasets.fetch(name, config.data_dir, force=config.force)
        print(f"{name}: ready at {path}")


def _add_common_args(parser: argparse.ArgumentParser, *, needs_graph: bool) -> None:
    parser.add_argument("--config", help="JSON RunConfig file; flags override it")
    # fetch, the one command without a graph, writes only the datasets (into
    # --data-dir) and no run_config.json, so it takes no --out
    if needs_graph:
        parser.add_argument("--out", dest="output_dir", help="output directory")
        parser.add_argument("--dataset", help="registered dataset name")
        parser.add_argument("--graph", help="edge-list file path")
        parser.add_argument("--generate", help="synthetic graph spec ba:<n>:<m>:<seed>")
        parser.add_argument(
            "--no-relabel",
            dest="relabel",
            action="store_const",
            const=False,
            help="require integer 0-based node ids instead of relabeling",
        )
        parser.add_argument("--data-dir", dest="data_dir", help="fetched dataset directory")


def _one_of(values) -> str:
    """A metavar listing allowed values, as argparse's choices would show."""
    return "{" + ",".join(values) + "}"


def _add_measure_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--precision", type=int, help="decimal places for LSC rounding")
    parser.add_argument("--rounding", metavar=_one_of(ROUNDING_MODES), help="LSC rounding mode")
    parser.add_argument(
        "--measure-order",
        dest="measure_order",
        type=lambda s: s.split(","),
        help="comma-separated LSC measure order"
        f" (default {','.join(DEFAULT_MEASURE_ORDER).lower()})",
    )
    parser.add_argument("--cc-convention", dest="cc_convention", metavar=_one_of(CC_CONVENTIONS))
    parser.add_argument("--ec-tol", dest="ec_tol", type=float)
    parser.add_argument("--ec-max-iter", dest="ec_max_iter", type=int)
    parser.add_argument("--gc-radius", dest="gc_radius", type=int)
    parser.add_argument("--gc-exponent", dest="gc_exponent", type=int)


def _add_sir_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, help="per-contact infection probability")
    parser.add_argument("--gamma", type=float, help="per-step recovery probability")
    parser.add_argument("--reps", dest="replications", type=int, help="Monte-Carlo replications")
    parser.add_argument("--seed", dest="rng_seed", type=int, help="master RNG seed")
    parser.add_argument(
        "--threads", type=int,
        help="accepted for compatibility and recorded in run_config.json; has no"
        " effect (every command runs in one thread)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lexcent",
        description="Lexical sorting centrality and SIR spreading evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centrality", help="compute centrality scores / LSC ranking")
    _add_common_args(p, needs_graph=True)
    _add_measure_args(p)
    p.add_argument(
        "--measures",
        type=lambda s: s.split(","),
        help="comma-separated measures: dc,ec,cc,bc,gc,lsc",
    )
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("sir", help="SIR spreading scores or multi-seed curves")
    _add_common_args(p, needs_graph=True)
    _add_measure_args(p)
    _add_sir_args(p)
    p.add_argument("--steps", dest="max_steps", type=int, help="step cap (curve length)")
    p.add_argument(
        "--seeds", type=lambda s: [int(t) for t in s.split(",")], help="explicit seed nodes"
    )
    p.add_argument(
        "--seeds-from", dest="seeds_from", help="take seeds from a measure's top ranks"
    )
    p.add_argument(
        "--top", type=int, help=f"how many top nodes to seed (default {RunConfig.top})"
    )
    p.set_defaults(func=cmd_sir)

    p = sub.add_parser("evaluate", help="full ranking-vs-SIR evaluation report")
    _add_common_args(p, needs_graph=True)
    _add_measure_args(p)
    _add_sir_args(p)
    p.add_argument("--x-percent", dest="x_percent", type=float, help="top-x%% cutoff")
    p.add_argument("--tau-variant", dest="tau_variant", metavar=_one_of(_TAU_VARIANTS))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="runtime benchmark of measures")
    _add_common_args(p, needs_graph=True)
    _add_measure_args(p)
    p.add_argument(
        "--measures", type=lambda s: s.split(","), help="measures to time (e.g. lsc,gc)"
    )
    p.add_argument("--reps", dest="repetitions", type=int, help="timed repetitions")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("fetch", help="download registered datasets")
    _add_common_args(p, needs_graph=False)
    p.add_argument(
        "names", nargs="+", help="dataset names or 'all'", metavar="name"
    )
    p.add_argument("--data-dir", dest="data_dir")
    p.add_argument("--force", action="store_const", const=True)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("stats", help="dataset summary statistics")
    _add_common_args(p, needs_graph=True)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        config.validate()
        if args.command == "fetch":
            cmd_fetch(config, args.names)
        else:
            _write_outputs(config, args.func(config))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
