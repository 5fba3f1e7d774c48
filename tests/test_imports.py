"""No module of the package imports a name it never uses.

A name that `bench/spans.py`'s `targets` looks up in a module counts as
used there: the benchmark's tracer wraps it in that module, so removing
the import would break `bench/run.py --trace 1`.
"""

import ast
import importlib.util
from pathlib import Path

import corrtrans
from corrtrans import cli, edgeworth, models, montecarlo, pearson, specfun

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
PACKAGE = Path(corrtrans.__file__).resolve().parent


def traced_names() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.targets(cli, montecarlo, models, pearson, specfun,
                            edgeworth)
    return {(module.__name__.rpartition(".")[2], attr)
            for module, attr, _, _ in targets}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).partition(".")[0]
                            for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unused_imports_finds_what_it_should():
    src = ("from __future__ import annotations\nimport os, os.path\n"
           "import numpy as np\nfrom math import pi, tau\nx = np.pi + tau\n")
    assert unused_imports(src) == ["os", "pi"]


def test_no_module_imports_a_name_it_never_uses():
    traced = traced_names()
    dead = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        names = [name for name in unused_imports(path.read_text())
                 if (path.stem, name) not in traced]
        if names:
            dead[path.stem] = names
    assert dead == {}
