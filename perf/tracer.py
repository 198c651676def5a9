"""Counting and timing wrappers the benchmark installs around public
callables of ``repro`` for one traced rep, and removes afterwards.

Two kinds of boundary:

* **high-frequency** (``Simulator.step``, ``Timeline.record``,
  ``KVSchema.size_of`` ...) keep one ``(calls, total, self)`` aggregate per
  name — a span object per call would cost more than the call;
* **coarse** (``JobExecution.__init__``, ``JobServer.submit`` ...) also
  keep a span ``(id, parent, name, start, end)`` so ``--trace-out`` shows
  who caused what.

Self time is a frame's duration minus what its wrapped children covered,
so the self times of all names add up to the traced wall time and nothing
is counted twice.  Wrap per-*batch* functions only: a wrapper costs about
half a microsecond, which is +80 % on ``KeyInterner.intern``.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Patcher", "Tracer"]

_clock = time.perf_counter


class Patcher:
    """Replaces attributes and puts every one of them back."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def method(self, cls: type, name: str,
               wrap: Callable[[Callable], Callable]) -> None:
        """Wrap ``cls.name`` on the class in whose ``__dict__`` it lives."""
        owner = next(k for k in cls.__mro__ if name in vars(k))
        original = vars(owner)[name]
        if any(o is owner and n == name for o, n, _ in self._undo):
            return                      # two app classes sharing a base
        self._undo.append((owner, name, original))
        setattr(owner, name, wrap(original))

    def function(self, func: Callable,
                 wrap: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function in every ``repro`` module that
        holds a reference to it (``from x import f`` copies the binding)."""
        wrapper = wrap(func)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro"
                                      or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._undo.append((module, attr, func))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


class Tracer:
    """Aggregates, spans and captured arguments of one traced rep."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.agg: Dict[str, List[float]] = {}
        #: (id, parent id or None, name, start, end), host seconds
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        # Seconds the wrapped children of the *current* frame have covered.
        # A wrapper saves it on entry, starts its own count at zero, and on
        # exit hands the parent back its count plus its own duration — the
        # call stack itself is the frame stack, no list of frames needed.
        self._child = [0.0]
        self._open_spans: List[int] = []
        self._next_id = 0

    # -- wrappers ----------------------------------------------------------
    def timed(self, name: str, after: Optional[Callable] = None
              ) -> Callable[[Callable], Callable]:
        """High-frequency boundary.  ``after(args, result)`` runs outside
        the timed window (its cost lands in the parent's self time)."""
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        child = self._child

        def wrap(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                saved = child[0]
                child[0] = 0.0
                t0 = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = _clock() - t0
                    agg[0] += 1
                    agg[1] += dt
                    agg[2] += dt - child[0]
                    child[0] = saved + dt
                if after is not None:
                    after(args, result)
                return result

            wrapper.__wrapped__ = fn
            return wrapper
        return wrap

    def counted(self, name: str, after: Optional[Callable] = None,
                self_only: bool = False) -> Callable[[Callable], Callable]:
        """Count calls only: generator functions, per-key callables, and
        functions so short that timing them would cost several times what
        it measured.  ``self_only`` marks a method always called as
        ``obj.method()``, which spares the argument packing."""
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])

        def wrap(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                agg[0] += 1
                if after is not None:
                    after(args, None)
                return fn(*args, **kwargs)

            def wrapper_self_only(obj):
                agg[0] += 1
                return fn(obj)

            chosen = wrapper_self_only if self_only else wrapper
            chosen.__wrapped__ = fn
            return chosen
        return wrap

    def coarse(self, name: str) -> Callable[[Callable], Callable]:
        """Coarse boundary: aggregate plus one span per call."""
        def wrap(fn: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            wrapper.__wrapped__ = fn
            return wrapper
        return wrap

    @contextmanager
    def span(self, name: str):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        child = self._child
        span_id = self._next_id
        self._next_id += 1
        parent = self._open_spans[-1] if self._open_spans else None
        self._open_spans.append(span_id)
        saved = child[0]
        child[0] = 0.0
        t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            dt = t1 - t0
            self._open_spans.pop()
            agg[0] += 1
            agg[1] += dt
            agg[2] += dt - child[0]
            child[0] = saved + dt
            self.spans.append((span_id, parent, name, t0, t1))

    # -- queries -----------------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.agg.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.agg.get(name, (0, 0.0, 0.0))[2]

    def to_json(self) -> Dict[str, Any]:
        return {
            "aggregates": {name: {"calls": int(c), "total_s": t, "self_s": s}
                           for name, (c, t, s) in sorted(self.agg.items())},
            "spans": [{"id": i, "parent": p, "name": n, "start": a, "end": b}
                      for i, p, n, a, b in self.spans],
        }
