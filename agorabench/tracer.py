"""Temporary wrappers around the program's public functions.

`Patcher` swaps module attributes and class methods for wrappers and puts the
originals back. `PhaseMarks` timestamps the two phase boundaries that lie
inside `run_simulation_with_market` (first tick, transcript rendering); it is
installed on every run, traced or not, and costs one extra call per tick.
`Tracer` records, per (parent span, span) pair, the calls, inclusive time and
self time of each wrapped function, plus plain call counters. Spans are kept
in memory as these aggregates and written out when the benchmark ends.

A target that no longer exists (a later change removed or renamed it) is
skipped, and `Patcher.wrap` returns False; it never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

# (owner, attribute): owner is "module" or "module:Class".
Target = tuple[str, str]


def _resolve(owner: str) -> Optional[Any]:
    module_name, _, class_name = owner.partition(":")
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        obj = getattr(obj, class_name, None)
    return obj


class Patcher:
    """Installs wrappers and restores the originals in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, target: Target, make: Callable[[Callable], Callable]) -> bool:
        owner_name, attr = target
        owner = _resolve(owner_name)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return False
        wrapper = functools.wraps(original)(make(original))
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class PhaseMarks:
    """Clock readings at the first tick-loop call and at transcript rendering."""

    FIRST_TICK: tuple[Target, ...] = (
        ("agorasim.marketplace:AdvertisementRepository", "submit_advertisement"),
        ("agorasim.marketplace:AdvertisementRepository", "submit_rfq"),
        ("agorasim.marketplace:Marketplace", "run_matchmaking"),
    )
    TRANSCRIPT: Target = ("agorasim.marketplace:Marketplace", "transcript_lines")

    def __init__(self) -> None:
        self.first_tick: Optional[float] = None
        self.transcript: Optional[float] = None

    def install(self, patcher: Patcher) -> None:
        for target in self.FIRST_TICK:
            patcher.wrap(target, self._mark("first_tick"))
        patcher.wrap(self.TRANSCRIPT, self._mark("transcript"))

    def _mark(self, attr: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if getattr(self, attr) is None:
                    setattr(self, attr, time.perf_counter())
                return fn(*args, **kwargs)

            return wrapper

        return make


class Tracer:
    """Span aggregates keyed by (parent, name) plus named counters."""

    def __init__(self) -> None:
        # (parent, name) -> [calls, inclusive seconds, self seconds]
        self.spans: dict[tuple[Optional[str], str], list] = {}
        self.counts: Counter[str] = Counter()
        # Open spans: [name, seconds spent in child spans].
        self._stack: list[list] = []

    def _enter(self, name: str) -> tuple[Optional[str], list, float]:
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        return parent, frame, time.perf_counter()

    def _exit(self, parent: Optional[str], frame: list, start: float) -> None:
        elapsed = time.perf_counter() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += elapsed
        rec = self.spans.get((parent, frame[0]))
        if rec is None:
            rec = self.spans[(parent, frame[0])] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around code in the benchmark's own files."""
        parent, frame, start = self._enter(name)
        try:
            yield
        finally:
            self._exit(parent, frame, start)

    def timed(
        self,
        name: str,
        before: Optional[Callable[[tuple], None]] = None,
        after: Optional[Callable[[Any], None]] = None,
    ) -> Callable[[Callable], Callable]:
        """Wrapper factory: a span per call; hooks see the args / the result."""

        def make(fn: Callable) -> Callable:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if before is not None:
                    before(args)
                parent, frame, start = self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(parent, frame, start)
                if after is not None:
                    after(result)
                return result

            return wrapper

        return make

    def counted(
        self, name: str, after: Optional[Callable[[Any], None]] = None
    ) -> Callable[[Callable], Callable]:
        """Wrapper factory: count calls only (for functions too cheap to time)."""
        counts = self.counts

        def make(fn: Callable) -> Callable:
            if after is None:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    counts[name] += 1
                    return fn(*args, **kwargs)
            else:
                def wrapper(*args: Any, **kwargs: Any) -> Any:
                    counts[name] += 1
                    result = fn(*args, **kwargs)
                    after(result)
                    return result

            return wrapper

        return make

    # -- aggregates ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(rec[0] for (_, n), rec in self.spans.items() if n == name)

    def total(self, name: str) -> float:
        """Inclusive time, not double-counting a span nested in itself."""
        return sum(rec[1] for (p, n), rec in self.spans.items() if n == name and p != name)

    def self_time(self, name: str) -> float:
        return sum(rec[2] for (_, n), rec in self.spans.items() if n == name)

    def tree(self) -> list[dict]:
        return [
            {"parent": p, "span": n, "calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for (p, n), rec in sorted(self.spans.items(), key=lambda kv: -kv[1][1])
        ]
