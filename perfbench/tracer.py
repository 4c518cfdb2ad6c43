"""Traced run of the lexcent CLI, timed from outside the program.

Every public function of each lexcent layer module (and every module-level
function of `cli` except `main`) is wrapped under each name its callers look
it up by: `compute_centrality` is imported by name into `cli`, `evaluation`
and `ranking`, `bfs_distances` into `centrality`, so the wrapper replaces the
original in every lexcent namespace that holds it. Each call records a span
(name, parent, start, end and a few attributes); the spans are written as
JSON when the command ends.

Usage, with the checkout's `src` on PYTHONPATH:

    python3 perfbench/tracer.py SPANS.json -- <lexcent arguments>
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from typing import Callable

LAYER_MODULES = ("graph", "centrality", "ranking", "sir", "evaluation", "datasets", "cli")


class Recorder:
    """Collects spans in memory. Nesting is tracked per thread, so a span's
    parent is the innermost open span of the thread that made the call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None) -> Callable:
        """`fn` recording a span named `name` per call. `annotate(bound
        arguments, result)` returns extra attributes and may rename the span
        by returning a "name" key."""
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {
                "id": next(self._ids),
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
            }
            stack.append(span)
            span["start"] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                stack.pop()
                self.spans.append(span)
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(annotate(bound.arguments, result))
            return result

        return traced


def _measure_tag(arguments: dict, result) -> dict:
    return {"name": f"centrality.compute_centrality[{str(arguments['measure']).upper()}]"}


def _replications(arguments: dict, result) -> dict:
    return {"replications": int(arguments["params"].replications)}


def _ec_iterations(arguments: dict, result) -> dict:
    return {"iterations": int(result.params.get("iterations", 0))}


ANNOTATIONS = {
    "centrality.compute_centrality": _measure_tag,
    "centrality.eigenvector_centrality": _ec_iterations,
    "sir.spreading_score": _replications,
    "sir.spread_curve": _replications,
}


def traced_functions(module) -> dict[str, Callable]:
    """Module-level functions of a layer module that the trace wraps."""
    short = module.__name__.rsplit(".", 1)[-1]
    return {
        attr: obj
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and (short == "cli" or not attr.startswith("_"))
        and attr != "main"
    }


def install(recorder: Recorder, package: str = "lexcent") -> None:
    """Replace every traced function in every namespace of `package` that
    holds it."""
    root = importlib.import_module(package)
    modules = {m: importlib.import_module(f"{package}.{m}") for m in LAYER_MODULES}
    wrappers: dict[int, Callable] = {}
    for short, module in modules.items():
        for attr, fn in traced_functions(module).items():
            name = f"{short}.{attr}"
            wrappers[id(fn)] = recorder.wrap(name, fn, ANNOTATIONS.get(name))
    for namespace in (root, *modules.values()):
        for attr, obj in list(vars(namespace).items()):
            if id(obj) in wrappers and inspect.isfunction(obj):
                setattr(namespace, attr, wrappers[id(obj)])


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <lexcent arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    recorder = Recorder()
    install(recorder)
    from lexcent import cli

    start = time.perf_counter()
    code = cli.main(cli_args)
    wall = time.perf_counter() - start
    with open(spans_path, "w") as stream:
        json.dump({"wall_s": wall, "exit_code": code, "spans": recorder.spans}, stream)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
