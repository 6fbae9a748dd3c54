"""In-memory spans and a shim that wraps a program's functions while traced.

The program is not instrumented.  :class:`TraceShim` replaces named
attributes — methods on classes, functions bound in modules — with wrappers
that record one :class:`Span` per call into a :class:`Tracer`, and puts the
originals back exactly on exit, also when the traced code raises.  Spans
stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional, Sequence

from .host import clock

#: ``key(args, kwargs, result) -> value`` tags a span for later grouping
#: (a job id, say); it runs after the call returns.
KeyFn = Callable[[tuple, dict, Any], Any]


class Span:
    """One call: its name, interval, the span it ran inside, and a tag."""

    __slots__ = ("name", "start", "end", "parent", "key")

    def __init__(self, name: str, start: float, parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.key: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads.

    Each thread keeps its own stack of open spans, so a span's parent is the
    innermost traced call on the same thread.  Finished spans are appended
    to one list; ``list.append`` is atomic under the interpreter lock.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[Span], Span]:
        stack = self._stack()
        span = Span(
            name,
            clock(),
            stack[-1] if stack else None,
        )
        stack.append(span)
        return stack, span

    def _close(self, stack: list[Span], span: Span) -> None:
        span.end = clock()
        stack.pop()
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable, key: Optional[KeyFn] = None) -> Callable:
        """``fn`` recording a span named ``name`` per call."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack, span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if key is not None:
                    span.key = key(args, kwargs, result)
                return result
            finally:
                self._close(stack, span)

        return functools.update_wrapper(traced, fn)

    def wrap_iter(self, name: str, fn: Callable, key: Optional[KeyFn] = None) -> Callable:
        """Like :meth:`wrap` for a function returning an iterator: the call
        and every later ``next()`` each record a span, all with the call's
        tag, so their sum is the time spent inside the producer."""

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            stack, span = self._open(name)
            try:
                inner = iter(fn(*args, **kwargs))
                tag = key(args, kwargs, None) if key is not None else None
                span.key = tag
            finally:
                self._close(stack, span)
            return self._traced_items(name, inner, tag)

        return functools.update_wrapper(traced, fn)

    def _traced_items(self, name: str, inner: Iterator[Any], tag: Any) -> Iterator[Any]:
        try:
            while True:
                stack, span = self._open(name)
                span.key = tag
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(stack, span)
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the
        time its direct child spans cover."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                covered[id(span.parent)] = covered.get(id(span.parent), 0.0) + span.duration
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span.duration - covered.get(id(span), 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        """Write every span as a gzip'd tab-separated line:
        index, name, start, end, parent index (-1 for none), tag."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tstart\tend\tparent\tkey\n")
            for position, span in enumerate(self.spans):
                parent = -1 if span.parent is None else index[id(span.parent)]
                out.write(
                    f"{position}\t{span.name}\t{span.start!r}\t{span.end!r}\t"
                    f"{parent}\t{span.key!r}\n"
                )


@dataclass(frozen=True)
class Target:
    """One attribute to trace: ``owner.attr`` becomes a span named ``name``.

    ``owner`` is a class or a module, and must define ``attr`` itself (not
    inherit it), so restoring puts back exactly what was there.
    ``iterator`` marks a function returning an iterator whose consumption
    counts as part of the call (see :meth:`Tracer.wrap_iter`).
    """

    owner: Any
    attr: str
    name: str
    key: Optional[KeyFn] = None
    iterator: bool = False


class TraceShim:
    """Context manager that traces ``targets`` into ``tracer`` while open.

    On exit every original attribute is restored — the very object that was
    in the owner's ``__dict__`` — whether the body returned or raised.
    ``wall_seconds`` is how long the shim was open.
    """

    def __init__(self, tracer: Tracer, targets: Sequence[Target]) -> None:
        self.tracer = tracer
        self.targets = tuple(targets)
        self.wall_seconds = 0.0
        self._saved: list[tuple[Any, str, Any]] = []
        self._opened = 0.0

    def __enter__(self) -> "TraceShim":
        if self._saved:
            raise RuntimeError("TraceShim is not reentrant")
        try:
            for target in self.targets:
                original = vars(target.owner).get(target.attr)
                if original is None:
                    raise AttributeError(
                        f"{target.owner!r} does not define {target.attr!r} itself"
                    )
                setattr(target.owner, target.attr, self._patched(target, original))
                self._saved.append((target.owner, target.attr, original))
        except BaseException:
            self._restore()
            raise
        self._opened = clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall_seconds = clock() - self._opened
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patched(self, target: Target, original: Any) -> Any:
        if not callable(original):
            raise TypeError(f"{target.owner!r}.{target.attr} is not a plain function")
        wrap = self.tracer.wrap_iter if target.iterator else self.tracer.wrap
        return wrap(target.name, original, target.key)
