"""In-memory span tracing from outside the program.

The ledger never edits ``src/repro``.  For a traced run it replaces
public callables of the package (class or module attributes) with thin
wrappers that record one span per call, and puts the originals back
afterwards.  A span is ``[name, start_ns, end_ns, parent, tag]``:
``parent`` is the index of the enclosing span (``-1`` for a root) and
``tag`` the operation / run identifier where the call site knows one.

A span name is ``"<layer>:<what>"``; the layer is the ``src/repro``
module the callable belongs to.  A layer's *self time* is the duration
of its spans minus the part their child spans cover, so the self times
of all layers add up to the covered wall time without double counting.

Only synchronous callables are wrapped.  Everything runs on one thread
and a synchronous call returns before the event loop regains control,
so one explicit stack gives correct nesting even under asyncio.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

_MISSING = object()


class Tracer:
    """Owns the wrappers, the span list and the side counters."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # installing and removing wrappers

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Optional[Callable[..., Any]] = None,
        count: Optional[Tuple[str, Callable[..., float]]] = None,
        before: Optional[Tuple[str, Callable[..., float]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``tag(*args)`` names the operation or run the call belongs to.
        ``count = (counter, fn)`` adds ``fn(result, *args)`` to a side
        counter after the call (bytes encoded, frames parsed, ...);
        ``before = (counter, fn)`` adds ``fn(*args)`` ahead of it, for
        state the call consumes.
        """
        raw = vars(owner).get(attr, _MISSING)
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        orig = raw.__func__ if kind is not None else getattr(owner, attr)
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns
        counts = self.counts
        counter, count_fn = count if count is not None else (None, None)
        pre_counter, pre_fn = before if before is not None else (None, None)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1,
                    tag(*args) if tag is not None else None]
            spans.append(span)
            if pre_counter is not None:
                counts[pre_counter] = counts.get(pre_counter, 0) + pre_fn(*args)
            stack.append(index)
            span[1] = now()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if counter is not None:
                counts[counter] = counts.get(counter, 0) + count_fn(result, *args)
            return result

        wrapper.__name__ = getattr(orig, "__name__", attr)
        wrapper.__wrapped__ = orig
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)

    def wrap_all(self, points) -> None:
        for point in points:
            self.wrap(*point[:3], **(point[3] if len(point) > 3 else {}))

    def remove(self) -> None:
        """Put every original back (inherited attributes are deleted)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    @property
    def installed(self) -> int:
        return len(self._undo)

    # ------------------------------------------------------------------
    # reading spans

    def reset(self) -> None:
        del self.spans[:]
        self.counts.clear()

    def aggregate(self, window: Tuple[int, int]) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total and self seconds of the spans that
        started inside ``window`` (``perf_counter_ns`` bounds)."""
        spans = self.spans
        child = [0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        lo, hi = window
        out: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(spans):
            if not lo <= span[1] < hi:
                continue
            row = out.get(span[0])
            if row is None:
                row = out[span[0]] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            duration = span[2] - span[1]
            row["calls"] += 1
            row["total_s"] += duration / 1e9
            row["self_s"] += (duration - child[index]) / 1e9
        return out


def self_s(agg: Dict[str, Dict[str, float]], *names: str) -> float:
    return sum(agg[n]["self_s"] for n in names if n in agg)


def layer_s(agg: Dict[str, Dict[str, float]], *layers: str) -> float:
    """Self seconds of every span of the layers (the name before ``:``)."""
    return sum(
        row["self_s"] for name, row in agg.items() if name.split(":", 1)[0] in layers
    )


def calls(agg: Dict[str, Dict[str, float]], *names: str) -> int:
    return int(sum(agg[n]["calls"] for n in names if n in agg))


def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    """``numerator / denominator * scale``, 0 when nothing was counted."""
    return numerator / denominator * scale if denominator else 0.0


def automaton_points(processes, client_name: str, server_name: str) -> List[tuple]:
    """Wrap points for the step methods of the given automata.

    ``on_invoke`` / ``on_message`` are overridden per protocol class, so
    each is wrapped on the class that defines it, once.
    """
    points, seen = [], set()
    for process in processes:
        name = client_name if process.pid.is_client else server_name
        for attr in ("on_invoke", "on_message"):
            for cls in type(process).__mro__:
                if attr in vars(cls):
                    if (cls, attr) not in seen:
                        seen.add((cls, attr))
                        points.append((cls, attr, name))
                    break
    return points
