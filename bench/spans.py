"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of the program under the names their
callers look up (for example ``models.gauss_2f1_half``, which is how
``psi_closed`` reaches ``specfun.gauss_2f1_half``), so no program file
changes.  Each wrapped function reports an exact call count and its self
time: span time minus the time of the spans it caused.  Spans are kept in
memory; individual spans are kept only for the benchmark's operations and
the layer calls they make directly, deeper ones are aggregated per
(parent, child) edge, so a pass with a million calls stays small.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# specfun.gauss_2f1_half sums its series up to x = 0.95 and integrates
# above it; the benchmark keeps this split fixed so later changes to the
# branch show as a shift between the two names.
GAUSS_2F1_SPLIT = 0.95

# Names of the wrapped functions, as reported ("<module>.<function>").
SPAN_NAMES = (
    "cli.main",
    "montecarlo.run_grid",
    "models.squarev_exact_rejection",
    "models.psi_closed",
    "models.delta_closed",
    "models.transform_for",
    "models.dominance_range",
    "models.fisher_dominance_threshold",
    "specfun.gauss_2f1_half.series",
    "specfun.gauss_2f1_half.quad",
    "specfun.integrate_adaptive",
    "specfun.integrate_ode",
    "specfun.normal_quantile",
    "specfun.normal_cdf",
    "specfun.log_gamma",
    "pearson.optimal_transform_numeric",
    "pearson.h_z",
    "pearson.assemble_statistic_model",
    "pearson.delta_psi",
    "pearson.sigma_rho",
    "edgeworth.delta",
)


def _count_grid(counts: Counter, args: tuple, kwargs: dict) -> None:
    grid = args[0] if args else kwargs["grid"]
    cells = grid.cells()
    tasks = len(cells) * grid.K
    counts["montecarlo.tasks"] += tasks
    counts["montecarlo.replicates"] += tasks * grid.N
    counts["montecarlo.pairs"] += sum(n for _, _, n in cells) * grid.K * grid.N


def lattice_points(n: int) -> int:
    """Cell-count vectors of a size-n sample over the four vertices."""
    return math.comb(n + 3, 3)


def _count_lattice(counts: Counter, args: tuple, kwargs: dict) -> None:
    n = args[1] if len(args) > 1 else kwargs["n"]
    counts["models.lattice_points"] += lattice_points(n)


def _gauss_branch(args: tuple, kwargs: dict) -> str:
    x = args[1] if len(args) > 1 else kwargs["x"]
    if x > GAUSS_2F1_SPLIT:
        return "specfun.gauss_2f1_half.quad"
    return "specfun.gauss_2f1_half.series"


def targets(cli, mc, mo, pe, sf, ed) -> list[tuple]:
    """(module, attribute, span name or namer, counter hook) to wrap.

    A function imported into several modules is wrapped in each, because
    each caller looks it up in its own module.
    """
    out = [
        (cli, "main", "cli.main", None),
        (mc, "run_grid", "montecarlo.run_grid", _count_grid),
        (mo, "squarev_exact_rejection", "models.squarev_exact_rejection",
         _count_lattice),
        (mo, "gauss_2f1_half", _gauss_branch, None),
        (sf, "gauss_2f1_half", _gauss_branch, None),
        (sf, "integrate_adaptive", "specfun.integrate_adaptive", None),
        (pe, "integrate_ode", "specfun.integrate_ode", None),
        (sf, "integrate_ode", "specfun.integrate_ode", None),
        (ed, "delta", "edgeworth.delta", None),
    ]
    for attr in ("psi_closed", "delta_closed", "transform_for",
                 "dominance_range", "fisher_dominance_threshold"):
        out.append((mo, attr, f"models.{attr}", None))
    for attr in ("optimal_transform_numeric", "h_z",
                 "assemble_statistic_model", "delta_psi", "sigma_rho"):
        out.append((pe, attr, f"pearson.{attr}", None))
    for attr, modules in (("normal_quantile", (sf, mo, mc, cli)),
                          ("normal_cdf", (sf, mo, ed)),
                          ("log_gamma", (sf, mo))):
        for module in modules:
            out.append((module, attr, f"specfun.{attr}", None))
    return out


class Tracer:
    """Call counts, self times, span edges and non-span counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.edges: dict[tuple, list] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._op_id = 0

    def _enter(self, name: str) -> list:
        frame = [name, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, child_s, start = frame
        elapsed = end - start
        self.calls[name] += 1
        self.self_s[name] += elapsed - child_s
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][1] += elapsed
        edge = self.edges.setdefault((parent, name), [0, 0.0])
        edge[0] += 1
        edge[1] += elapsed
        if len(self._stack) <= 1:
            self.spans.append((self._op_id, name, parent, start, end))

    @contextmanager
    def op(self, name: str):
        """Span for one benchmark operation; its layer calls share its id."""
        self._op_id += 1
        frame = self._enter(f"op.{name}")
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn, name, on_call=None):
        namer = name if callable(name) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self.counts, args, kwargs)
            frame = self._enter(namer(args, kwargs) if namer else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    @contextmanager
    def installed(self, wrap_targets: list[tuple]):
        """Patch every target; restore on exit.

        A target the program lacks raises AttributeError, so a renamed or
        removed function cannot make its metrics read 0 unnoticed.
        """
        saved = []
        try:
            for module, attr, name, on_call in wrap_targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, on_call))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def record(self) -> dict:
        """Aggregates and spans in a JSON-ready form."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "edges": [
                {"parent": p, "child": c, "calls": v[0], "seconds": v[1]}
                for (p, c), v in sorted(self.edges.items(),
                                        key=lambda kv: (str(kv[0][0]),
                                                        kv[0][1]))
            ],
            "spans": [
                {"op": op, "name": name, "parent": parent,
                 "start": start, "end": end}
                for op, name, parent, start, end in self.spans
            ],
        }
