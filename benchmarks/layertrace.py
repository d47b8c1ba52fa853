"""In-memory span tracer for the public functions of the wisebe modules.

The tracer patches from outside: the package source is never edited.
For every target it replaces each binding of the same function object in
every loaded `wisebe.*` module (so names imported into `report.py` and
`cli.py` are traced too) and restores them all on exit.  A target that
no longer exists is reported as absent instead of failing, so a later
refactor that deletes or renames a function leaves the harness working.
Private helpers (leading underscore) are never wrapped.

A span is (id, name, start, end, parent id, request id).  Self time is a
span's duration minus the part of it covered by its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "wisebe"
# (layer module, public attribute path) for every traced function: the
# layer boundaries the per-layer metrics are read at.
TARGETS = (
    ("cli", "main"),
    ("corpus", "load_corpus"), ("corpus", "load_document"),
    ("model", "parse_segmented_text"), ("model", "align"),
    ("model", "BoundaryVector.from_positions"),
    ("aggregation", "build_general_reference"), ("aggregation", "build_window_reference"),
    ("aggregation", "consensus_reference"),
    ("scoring", "wisebe_score"), ("scoring", "windowed_precision"),
    ("scoring", "windowed_recall"),
    ("baselines", "strict_prf"), ("baselines", "mean_prf"),
    ("baselines", "mean_ser"), ("baselines", "lenient_prf"),
    ("agreement", "fleiss_kappa"), ("agreement", "pearson"),
    ("report", "evaluate_corpus"), ("report", "evaluate_agreement"),
    ("report", "evaluate_document"), ("report", "render_report"),
    ("report", "render_agreement"),
)


def _file_bytes(files) -> int:
    paths = [p for _, p in (*files.ref_paths, *files.sys_paths)]
    if files.structured_path is not None:
        paths.append(files.structured_path)
    return sum(p.stat().st_size for p in paths)


# Counters read at a span boundary from the call's arguments or result.
# They use the current API; if a refactor breaks one, its count is
# recorded as missing instead of failing the run.
COUNTERS = {
    "model.parse_segmented_text": ("tokens", lambda args, result: len(result[0].tokens)),
    "corpus.load_document": ("bytes", lambda args, result: _file_bytes(args[0])),
    "corpus.load_corpus": ("documents", lambda args, result: len(result.documents)),
    "aggregation.build_window_reference": ("windows", lambda args, result: len(result.windows)),
    "report.render_report": ("bytes", lambda args, result: len(result)),
    "report.render_agreement": ("bytes", lambda args, result: len(result)),
    "report.evaluate_corpus": ("errors", lambda args, result: len(result.errors)),
    "report.evaluate_agreement": ("errors", lambda args, result: len(result.errors)),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals, lo: float | None = None, hi: float | None = None) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi] if given."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        if lo is not None:
            a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) for s in spans}


@dataclass
class LayerSummary:
    """Per-function totals over the spans of one request."""

    calls: dict[str, int]
    inclusive: dict[str, float]        # union of the function's spans, so nesting counts once
    self_time: dict[str, float]
    counts: dict[str, int | None]      # "<function>.<counter>" -> total, None when unreadable


def summarize(spans: list[Span]) -> LayerSummary:
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    counts: dict[str, int | None] = {}
    for s in spans:
        for key, value in s.counts.items():
            name = f"{s.name}.{key}"
            prev = counts.get(name, 0)
            counts[name] = None if value is None or prev is None else prev + value
    return LayerSummary(
        calls={name: len(group) for name, group in by_name.items()},
        inclusive={name: covered((s.start, s.end) for s in group)
                   for name, group in by_name.items()},
        self_time={name: sum(selfs[s.id] for s in group) for name, group in by_name.items()},
        counts=counts,
    )


class Tracer:
    """Context manager that wraps every target while active.

    Use `request()` to start a new request id before each traced call of
    the program, and `take()` to collect (and clear) the spans so far.
    """

    def __init__(self, targets=TARGETS):
        for layer, path in targets:
            if any(part.startswith("_") for part in path.split(".")):
                raise ValueError(f"refusing to trace private name {layer}.{path}")
        self.targets = targets
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._request = 0
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def request(self) -> int:
        self._request += 1
        return self._request

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(self._next_id, name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self._request)
            self._next_id += 1
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                self._stack.pop()
            if counter is not None:
                key, read = counter
                try:
                    span.counts[key] = read(args, result)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    span.counts[key] = None
            return result

        return traced

    def _modules(self):
        return [mod for mod_name, mod in sorted(sys.modules.items())
                if mod is not None and (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))]

    def __enter__(self) -> "Tracer":
        self.absent = []
        for layer, path in self.targets:
            name = f"{layer}.{path.rsplit('.', 1)[-1]}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.append(name)
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            if owner is None or attr not in vars(owner):
                self.absent.append(name)
                continue
            raw = vars(owner)[attr]
            if owner is not module:              # a method: patch it on its class
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, raw)
            for mod in self._modules():
                for binding, value in list(vars(mod).items()):
                    if value is raw:
                        self._restore.append((mod, binding, raw))
                        setattr(mod, binding, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
        return False
