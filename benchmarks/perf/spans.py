"""Outside-in span tracing for the traced benchmark run.

The benchmark may not edit ``src/repro``, so layer boundaries are timed
from here: a :class:`Tracer` replaces public callables with timing
wrappers (class attributes for methods; for module functions, every
module namespace under the tracer's package prefix that holds the same
function object, because ``from x import f`` copies the binding), keeps
one ``(name, start, end, parent)`` record per call in memory, and puts
every original back on exit.

Only synchronous callables are wrapped: a coroutine suspended inside a
span would leave it on the call stack while unrelated code runs.  A
generator function can be wrapped in ``ITER`` mode, which times each
``next()`` separately and holds no span open across a ``yield``.  Hot
leaves use ``COUNTED`` mode (one integer add per call, no clock reads).

A boundary that no longer resolves raises :class:`BoundaryError`; a
renamed method must never turn into a silent zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from typing import Any

TIMED = "timed"
COUNTED = "counted"
ITER = "iter"

_MISSING = object()


class BoundaryError(LookupError):
    """A boundary's target does not resolve to a callable."""


@dataclass(frozen=True)
class Boundary:
    """One callable to wrap.

    ``target`` is ``"package.module:Class.method"`` or
    ``"package.module:function"``.  Calls are recorded under ``span``;
    several boundaries may share one span name, and a wrapped callable
    nested inside another of the same name then counts as that name's
    own time.  ``weigh(args, result)`` (``TIMED`` only) returns a size
    that is summed into the span's ``weight`` -- bytes on the wire.
    """

    target: str
    span: str
    mode: str = TIMED
    weigh: Callable[[tuple, Any], int] | None = None


@dataclass
class SpanStat:
    """Aggregate of one span name over a region of the run."""

    count: int = 0
    total_s: float = 0.0
    #: duration minus the time covered by child spans
    self_s: float = 0.0
    weight: int = 0


class Tracer:
    """Installs :class:`Boundary` wrappers and records their spans.

    Use as a context manager.  ``prefix`` limits which module namespaces
    are searched for rebinding of a wrapped module function.
    """

    def __init__(self, boundaries: Iterable[Boundary], prefix: str = "repro"):
        self.boundaries = tuple(boundaries)
        self.prefix = prefix
        self.installed = False
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One record per call, as parallel arrays (no per-span object, so
        # a million spans neither cost a gigabyte nor slow the collector).
        self._names = array("i")
        self._starts = array("d")
        self._ends = array("d")
        self._parents = array("i")
        self._stack = [-1]
        self._counts: list[int] = []
        self._weights: list[int] = []
        # (owner, attribute, what was there before) per patched attribute
        self._patched: list[tuple[Any, str, Any]] = []
        # id(original function) -> (original, wrapper), module functions only
        self._functions: dict[int, tuple[Any, Any]] = {}
        self._fork_hooked = False

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.uninstall()

    def install(self) -> None:
        if self.installed:
            raise RuntimeError("tracer already installed")
        resolved = [self._resolve(boundary) for boundary in self.boundaries]
        self.installed = True
        for boundary, owner, attr, raw, fn in resolved:
            wrapper = self._wrap(boundary, fn)
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                self._functions[id(fn)] = (fn, wrapper)
        self._rebind({key: pair[1] for key, pair in self._functions.items()})
        if not self._fork_hooked:
            # A forked worker must run at untraced speed and must not grow
            # a private copy of the span arrays nobody will ever read.
            os.register_at_fork(after_in_child=self.uninstall)
            self._fork_hooked = True

    def uninstall(self) -> None:
        """Put every original back (idempotent)."""
        if not self.installed:
            return
        self.installed = False
        while self._patched:
            owner, attr, previous = self._patched.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._rebind(
            {id(pair[1]): pair[0] for pair in self._functions.values()}
        )
        self._functions.clear()

    def _resolve(self, boundary: Boundary):
        if boundary.mode not in (TIMED, COUNTED, ITER):
            raise ValueError(f"unknown boundary mode {boundary.mode!r}")
        module_name, _, qualname = boundary.target.partition(":")
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError as exc:
            raise BoundaryError(f"{boundary.target}: {exc}") from exc
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, _MISSING)
            if owner is _MISSING:
                raise BoundaryError(f"{boundary.target}: no {part!r}")
        fn = getattr(owner, attr, _MISSING)
        if fn is _MISSING or not callable(fn):
            raise BoundaryError(f"{boundary.target}: not a callable")
        raw = vars(owner).get(attr, _MISSING)
        return boundary, owner, attr, raw, fn

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _rebind(self, replacements: Mapping[int, Any]) -> None:
        """Swap function objects wherever the package holds them: module
        attributes and the entries of module-level dicts (registries such
        as ``tme.interfaces._ADAPTERS`` hand out what was registered)."""
        if not replacements:
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == self.prefix or name.startswith(self.prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    if self.installed:
                        self._patch(module, attr, replacements[id(value)])
                    else:
                        setattr(module, attr, replacements[id(value)])
                elif type(value) is dict:
                    for key, entry in list(value.items()):
                        if id(entry) in replacements:
                            value[key] = replacements[id(entry)]

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, span: str) -> int:
        ident = self._name_ids.get(span)
        if ident is None:
            ident = self._name_ids[span] = len(self.span_names)
            self.span_names.append(span)
            self._counts.append(0)
            self._weights.append(0)
        return ident

    def _wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        ident = self._name_id(boundary.span)
        if boundary.mode == COUNTED:
            counts = self._counts

            def counted(*args: Any, **kwargs: Any) -> Any:
                counts[ident] += 1
                return fn(*args, **kwargs)

            return functools.wraps(fn)(counted)

        names, starts, ends = self._names, self._starts, self._ends
        parents, stack = self._parents, self._stack
        clock = time.perf_counter

        def enter() -> int:
            index = len(starts)
            names.append(ident)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            return index

        if boundary.mode == ITER:

            def iterated(*args: Any, **kwargs: Any) -> Any:
                inner = iter(fn(*args, **kwargs))
                while True:
                    index = enter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        ends[index] = clock()
                        stack.pop()
                    yield item

            return functools.wraps(fn)(iterated)

        weigh, weights = boundary.weigh, self._weights
        if weigh is not None:

            def weighed(*args: Any, **kwargs: Any) -> Any:
                index = enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                weights[ident] += weigh(args, result)
                return result

            return functools.wraps(fn)(weighed)

        def timed(*args: Any, **kwargs: Any) -> Any:
            index = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return functools.wraps(fn)(timed)

    # -- results ------------------------------------------------------------

    def clear(self) -> None:
        """Forget everything recorded so far (set-up is not a layer).

        Call it between wrapped calls, never from inside one: open spans
        hold indices into the arrays this empties.
        """
        if len(self._stack) != 1:
            raise RuntimeError("clear() called inside an open span")
        for column in (self._names, self._starts, self._ends, self._parents):
            del column[:]
        self._counts[:] = [0] * len(self._counts)
        self._weights[:] = [0] * len(self._weights)

    def spans(self) -> list[tuple[str, float, float, int]]:
        """Every finished span as ``(name, start, end, parent index)``."""
        return [
            (self.span_names[n], s, e, p)
            for n, s, e, p in zip(
                self._names, self._starts, self._ends, self._parents
            )
            if e >= s
        ]

    def summary(
        self,
        end: float = float("inf"),
        rename_under: Mapping[tuple[str, str], str] | None = None,
    ) -> dict[str, SpanStat]:
        """Per-name aggregates of the spans that finished by ``end`` (a
        ``time.perf_counter`` value).

        Self time is duration minus the durations of direct children, so
        the self times of all names add up to the time covered by
        top-level spans.  ``rename_under`` maps ``(name, ancestor)`` to
        the name a span is reported under when some enclosing span is
        called ``ancestor`` -- the same ``ProcessRuntime`` method is the
        simulator's time in one place and the service node's in another.
        Counts of ``COUNTED`` boundaries and weights have no timestamps:
        they cover everything between :meth:`clear` and :meth:`uninstall`.
        """
        span_names = list(self.span_names)
        ids = dict(self._name_ids)
        # ancestor id -> {id a span has: id it is reported under}
        renames: dict[int, dict[int, int]] = {}
        for (name, ancestor), new in (rename_under or {}).items():
            if name not in ids or ancestor not in ids:
                continue
            if new not in ids:
                ids[new] = len(span_names)
                span_names.append(new)
            renames.setdefault(ids[ancestor], {})[ids[name]] = ids[new]
        stats = [SpanStat() for _ in span_names]
        names, starts, ends, parents = (
            self._names, self._starts, self._ends, self._parents
        )
        count = len(starts)
        inside = bytearray(count)
        reported = array("i", names)
        # under[k][i]: span i is, or lies inside, a span of ancestor k
        under = {ancestor: bytearray(count) for ancestor in renames}
        # parents precede their children, so one forward pass settles both
        for i in range(count):
            ident, parent = names[i], parents[i]
            for ancestor, flags in under.items():
                if ident == ancestor:
                    flags[i] = 1
                elif parent >= 0 and flags[parent]:
                    flags[i] = 1
                    reported[i] = renames[ancestor].get(ident, ident)
            start, stop = starts[i], ends[i]
            if stop < start or stop > end:
                continue  # still open, or finished after the region
            inside[i] = 1
            duration = stop - start
            stat = stats[reported[i]]
            stat.count += 1
            stat.total_s += duration
            stat.self_s += duration
            if parent >= 0 and inside[parent]:
                stats[reported[parent]].self_s -= duration
        for ident, weight in enumerate(self._weights):
            stats[ident].weight = weight
        for ident, calls in enumerate(self._counts):
            stats[ident].count += calls
        return dict(zip(span_names, stats))
