"""Recorders for the calls the benchmark makes into permuta's layers.

Every layer call goes through ``Recorder.call``, which logs the work the call
reports (events, replicas, runs, states or checks) so that two runs of one
workload can be compared for identical work.  ``Tracer`` adds one span per
task and per layer call: name, parent, start and end.  Spans are kept in
memory and summarized or written out after the run.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

Units = Union[int, Callable[[Any], int]]


class Recorder:
    """Untraced recorder: runs each call and logs the work it reported."""

    def __init__(self) -> None:
        self.work: List[Tuple[Optional[str], str, int]] = []  # (task, layer, units)
        self._task: Optional[str] = None

    @contextmanager
    def task(self, name: str):
        """Attributes the calls inside to task ``name``; yields the task's span or None."""
        self._task = name
        try:
            yield None
        finally:
            self._task = None

    def call(self, layer: str, units: Units, fn: Callable, *args, **kwargs):
        out = fn(*args, **kwargs)
        self.work.append((self._task, layer, units(out) if callable(units) else units))
        return out


@dataclass
class Span:
    name: str
    parent: int  # index into Tracer.spans, -1 at the root
    start: float
    end: float = 0.0
    units: int = 0
    failed: bool = False


@dataclass
class SpanStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    units: int = 0


class Tracer(Recorder):
    """Recorder that also keeps a span for every task and layer call."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        except Exception:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def task(self, name: str):
        with super().task(name), self.span("bench.task") as sp:
            yield sp

    def call(self, layer: str, units: Units, fn: Callable, *args, **kwargs):
        with self.span(layer) as sp:
            out = super().call(layer, units, fn, *args, **kwargs)
            sp.units = self.work[-1][2]
        return out

    def to_records(self) -> List[dict]:
        return [asdict(sp) for sp in self.spans]


def summarize(spans: List[Span]) -> Dict[str, SpanStats]:
    """Per span name: calls, busy (summed duration), self (busy minus the time
    of direct children), failures and reported work units."""
    child_s = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_s[sp.parent] += sp.end - sp.start
    out: Dict[str, SpanStats] = {}
    for sp, inner in zip(spans, child_s):
        st = out.setdefault(sp.name, SpanStats())
        dur = sp.end - sp.start
        st.calls += 1
        st.busy_s += dur
        st.self_s += dur - inner
        st.failed += int(sp.failed)
        st.units += sp.units
    return out


def percentile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]
