"""Every name the benchmark under ``perfbench/`` imports from lexcent must
exist, so that moving or renaming one (say, a slow oracle into ``tests/``)
fails here and not first in a benchmark run.

The benchmark's files are parsed with ``ast`` and never imported or run.
Python source held in a string constant, such as the command line that
``run.py`` launches, is parsed too.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _lexcent_imports(tree: ast.AST) -> set[tuple[str, str | None]]:
    """(module, name) for each `from lexcent... import name`, and (module,
    None) for each `import lexcent...`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "lexcent":
                found.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "lexcent")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and "lexcent" in node.value:
            try:
                found |= _lexcent_imports(ast.parse(node.value))
            except SyntaxError:  # prose, not code
                pass
    return found


def benchmark_imports() -> dict[tuple[str, str | None], list[str]]:
    """Each imported (module, name), with the benchmark files that import it."""
    where: dict[tuple[str, str | None], list[str]] = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        for key in _lexcent_imports(ast.parse(path.read_text(), str(path))):
            where.setdefault(key, []).append(path.name)
    return where


def _resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is None or hasattr(mod, name):
            return True
        importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_every_name_the_benchmark_imports_from_lexcent_resolves():
    imports = benchmark_imports()
    # the scan sees the checks' oracle and the launch line in run.py's string
    assert imports[("lexcent", "kendall_tau_pairwise")] == ["checks.py"]
    assert imports[("lexcent.cli", "main")] == ["run.py"]
    missing = {key: files for key, files in imports.items() if not _resolves(*key)}
    assert not missing, f"perfbench imports names lexcent lacks: {missing}"


def test_the_scan_finds_a_missing_name():
    tree = ast.parse("def check():\n    from lexcent import no_such_name\n")
    assert _lexcent_imports(tree) == {("lexcent", "no_such_name")}
    assert not _resolves("lexcent", "no_such_name")
    assert not _resolves("lexcent.no_such_module", None)
