"""Span tracing around qpdsim's public functions, from outside the package.

The package binds names with ``from .x import f``, so a function is looked up
in every module that imported it. ``Tracer.installed`` replaces each such
binding (found by identity) with one shared wrapper and restores them all on
exit. A wrapper records a span only while an op is open (``Tracer.op`` set),
so checks that call the same functions between ops stay untraced.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


def _evolve_bytes(args, kwargs, result) -> int:
    return int(result.states.nbytes)


def _written_bytes(args, kwargs, result) -> int:
    text = kwargs["text"] if "text" in kwargs else args[1]
    return len(text.encode("utf-8"))


# (module, function, computed-bytes function or None). The entry points
# reproduce_all and cli.main are traced so that each op's top-level call is a
# span and its self times cover the whole op.
TRACED_FUNCTIONS: tuple[tuple[str, str, Optional[Callable]], ...] = (
    ("linalg", "hermitian_eigenvalues", None),
    ("linalg", "partial_trace", None),
    ("linalg", "eig_hermitian", None),
    ("states", "initial_mental_state", None),
    ("dynamics", "evolve", _evolve_bytes),
    ("measures", "measure_series", None),
    ("measures", "entanglement_of_formation", None),
    ("measures", "average_measures", None),
    ("stp", "chi_series", None),
    ("stp", "choice_probability", None),
    ("stp", "stp_records", None),
    ("stp", "stp_verdict", None),
    ("report", "analyze_case", None),
    ("report", "reproduce_all", None),
    ("report", "check_table", None),
    ("report", "render_table_csv", None),
    ("report", "render_trajectory_csv", None),
    ("report", "atomic_write_text", _written_bytes),
    ("cli", "main", None),
    ("cli", "run", None),
    ("interference", "random_slit_model", None),
    ("interference", "run_slit_model", None),
    ("interference", "run_interference_survey", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    nbytes: int = 0


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    nbytes: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: Optional[int] = None
    _stack: list[int] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable, nbytes: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if nbytes is not None:
                span.nbytes = nbytes(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit.

        A traced function the package no longer has is skipped; its
        metrics then read 0 calls.
        """
        modules = [m for name, m in sys.modules.items() if name == "qpdsim" or name.startswith("qpdsim.")]
        saved = []
        try:
            for mod_name, fn_name, nbytes in TRACED_FUNCTIONS:
                fn = getattr(importlib.import_module(f"qpdsim.{mod_name}"), fn_name, None)
                if fn is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fn_name}", fn, nbytes)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            saved.append((module, attr, fn))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def layer_stats(self, ops: Optional[set[int]] = None) -> dict[str, LayerStats]:
        """Calls, self time (span minus direct children) and bytes per function."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.end - span.start
        stats: dict[str, LayerStats] = {}
        for i, span in enumerate(self.spans):
            if ops is not None and span.op not in ops:
                continue
            s = stats.setdefault(span.name, LayerStats())
            s.calls += 1
            s.self_s += span.end - span.start - child_s[i]
            s.nbytes += span.nbytes
        return stats

    def self_s_by_op(self) -> dict[int, float]:
        """Summed self time of all spans of each op (= its top-level spans' time)."""
        total: dict[int, float] = {}
        for span in self.spans:
            if span.parent is None:
                total[span.op] = total.get(span.op, 0.0) + span.end - span.start
        return total

    def dump(self, path: str) -> None:
        """Write every span once, as a JSON list of rows."""
        fields = ("name", "start", "end", "parent", "op", "nbytes")
        rows = [[getattr(s, f) for f in fields] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": rows}, fh)
