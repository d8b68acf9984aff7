"""Spans around prkflow's public functions, installed from outside the package.

A ``Tracer`` resolves each target (``module`` plus an attribute path such as
``solve`` or ``StageOperatorTemplate.assemble``) and wraps it.  ``install``
rebinds the name wherever the package looks it up: in every listed module
whose namespace holds that same function object (``prkflow.integrators``
imports ``solve`` by name, so rebinding ``prkflow.linalg.solve`` alone would
miss the stepper's calls), or on the class for a method.  ``uninstall`` puts
the originals back, so an untraced step runs the unmodified code.

A target that no longer exists, because a refactor renamed or deleted it, is
listed in ``absent`` and skipped; its metrics are then reported as absent.

Spans are aggregated in memory per span name: call count, total time and
self time (total minus the part covered by directly nested spans).  Several
targets may share one span name, e.g. every stepper under ``integrators.step``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Target:
    span: str                 # span name, "<layer>.<what>"
    module: str               # module that defines the target
    attr: str                 # attribute path inside it, "fn" or "Class.method"
    hook: object = None       # hook(extra, args, kwargs, result) after a call returns
    keep_durations: bool = False


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Snapshot:
    """What the tracer recorded between two ``take`` calls."""

    spans: dict = field(default_factory=dict)       # span name -> SpanStats
    extra: dict = field(default_factory=dict)       # counters written by hooks
    durations: dict = field(default_factory=dict)   # span name -> [seconds]

    def calls(self, span):
        s = self.spans.get(span)
        return s.calls if s else 0

    def total(self, span):
        s = self.spans.get(span)
        return s.total_s if s else 0.0


def _resolve(module, attr):
    """(owner, name, original) for a target, or None when it does not exist."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(name)      # the plain function, not a bound method
    else:
        original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    def __init__(self, targets, namespaces):
        """targets: Target list; namespaces: module names searched for rebinding."""
        self.absent = []
        self.hook_errors = {}
        self._stack = []
        self._bindings = []           # (owner, name, original, wrapper)
        self._snap = Snapshot()
        self.present_spans = set()
        modules = [importlib.import_module(m) for m in namespaces]
        for tgt in targets:
            found = _resolve(tgt.module, tgt.attr)
            if found is None:
                self.absent.append(f"{tgt.module}.{tgt.attr}")
                continue
            owner, name, original = found
            self.present_spans.add(tgt.span)
            wrapper = self._wrap(tgt, original)
            if isinstance(owner, type):
                self._bindings.append((owner, name, original, wrapper))
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))

    def install(self):
        for owner, name, _orig, wrapper in self._bindings:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, orig, _wrapper in self._bindings:
            setattr(owner, name, orig)

    def take(self):
        """Return what was recorded since the last call and start afresh."""
        snap, self._snap = self._snap, Snapshot()
        return snap

    def _wrap(self, tgt, fn):
        stack = self._stack
        clock = time.perf_counter
        span = tgt.span

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                snap = self._snap
                st = snap.spans.get(span)
                if st is None:
                    st = snap.spans[span] = SpanStats()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - child
                if tgt.keep_durations:
                    snap.durations.setdefault(span, []).append(dt)
            if tgt.hook is not None:
                try:
                    tgt.hook(self._snap.extra, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                    # the target's signature or return value changed shape
                    self.hook_errors[span] = repr(exc)
            return result

        wrapper.__wrapped__ = fn
        return wrapper
