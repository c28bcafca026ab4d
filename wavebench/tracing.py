"""Spans around wavecol's layer boundaries, and their self times.

The package binds its functions with ``from ... import``, so one function
object can sit under several module attributes (``gram_matrix`` lives in
``wavecol.operators`` and is bound again in ``wavecol.bench``,
``wavecol.solver`` and ``wavecol``).  ``install`` therefore replaces every
attribute of every loaded wavecol module that holds a traced original, not
just the defining one.  ``solver.step`` is deliberately not wrapped: a
wrapper per call would cost about as much as the step; the step loop is the
self time of ``solve`` instead.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Keeps spans in memory; they are written out when the sample ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[Span] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter_ns(),
                    attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def to_json(self) -> dict:
        return {"spans": [[s.id, s.parent, s.name, s.start_ns, s.end_ns, s.attrs]
                          for s in self.spans],
                "counts": self.counts}


def spans_from_json(data: dict) -> list[Span]:
    return [Span(*row) for row in data["spans"]]


def self_times(spans: list[Span]) -> dict[int, int]:
    """Self time of each span in ns: its duration minus its children's.

    Spans come from one thread and nest, so the children of a span cover
    disjoint parts of its interval.
    """
    own = {s.id: s.duration_ns for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration_ns
    return own


# -- what gets traced ------------------------------------------------------

def _files_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# (defining module, function, span name, attrs from the call's arguments,
#  attrs from its result).  Attribute functions run outside the timed span.
TRACED = (
    ("wavecol.basis", "basis_matrix", "basis.basis_matrix",
     lambda spec, xs: {"points": len(xs)}, None),
    ("wavecol.basis", "basis_piecewise", "basis.piecewise", None, None),
    ("wavecol.operators", "gram_matrix", "operators.gram",
     lambda spec: {"key": ["gram", spec.n_functions]}, None),
    ("wavecol.operators", "derivative_inner_products", "operators.deriv_inner",
     lambda spec: {"key": ["deriv_inner", spec.n_functions]}, None),
    ("wavecol.operators", "dual_transform", "operators.dual",
     lambda gram: {"key": ["dual", len(gram)]}, None),
    ("wavecol.operators", "derivative_matrix", "operators.deriv_matrix",
     None, None),
    ("wavecol.solver", "solve", "solver.solve",
     lambda config, deriv_op=None: {"steps": config.n_steps(),
                                    "n": config.spec.n_functions}, None),
    ("wavecol.solver", "assemble_lhs", "solver.assemble", None, None),
    ("wavecol.solver", "initial_coefficients", "solver.init", None, None),
    ("wavecol.oracle", "table_values", "oracle.table", None, None),
    ("wavecol.approx", "truncate", "approx.truncate", None, None),
    ("wavecol.bench", "run_case", "bench.run_case", None, None),
    ("wavecol.bench", "error_metrics", "bench.error_metrics", None, None),
    ("wavecol.bench", "emit_reports", "bench.emit", None,
     lambda paths: {"bytes": _files_bytes(paths)}),
    ("wavecol.bench", "emit_profiles", "bench.emit", None,
     lambda paths: {"bytes": _files_bytes(paths)}),
    ("wavecol.cli", "main", "cli.main", None, None),
)

#: Called too often, and too cheaply, for a span each: counted only.
COUNTED = (("wavecol.oracle", "exact_u", "oracle.exact_u_calls"),)


def _span_wrapper(tracer: Tracer, fn, name: str, arg_attrs, result_attrs):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = arg_attrs(*args, **kwargs) if arg_attrs else {}
        span = tracer.open(name, **attrs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if result_attrs:
            span.attrs.update(result_attrs(result))
        return result
    return traced


def _count_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return counted


def install(tracer: Tracer) -> dict[str, list[str]]:
    """Replace every binding of each traced function in the loaded wavecol
    modules.  Returns, per function, the module attributes that were
    rebound, so a caller can confirm that no binding site was missed."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "wavecol"
                                     or name.startswith("wavecol."))]
    plan = [(home, fname, _span_wrapper(tracer, getattr(sys.modules[home], fname),
                                        name, arg_attrs, result_attrs))
            for home, fname, name, arg_attrs, result_attrs in TRACED]
    plan += [(home, fname, _count_wrapper(tracer, getattr(sys.modules[home], fname),
                                          name))
             for home, fname, name in COUNTED]
    sites: dict[str, list[str]] = {}
    for home, fname, wrapper in plan:
        original = wrapper.__wrapped__
        found = sites.setdefault(f"{home}.{fname}", [])
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    found.append(f"{module.__name__}.{attr}")
    return sites
