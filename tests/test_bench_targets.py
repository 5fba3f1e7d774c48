"""The benchmark's traced run wraps program functions by name.

`bench/spans.py` lists them; its tracer raises for a name the program
lacks, so renaming or removing one (or an import another module reaches it
through, such as `models.gauss_2f1_half`) would break `bench/run.py
--trace 1`.  This checks the list against the program.
"""

import importlib.util
from pathlib import Path

from corrtrans import cli, edgeworth, models, montecarlo, pearson, specfun

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.targets(cli, montecarlo, models, pearson, specfun,
                            edgeworth)
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert targets and missing == []
