"""Out-of-program tracing for the benchmark's traced run.

The tracer wraps public functions of the ``fprec`` modules from outside,
rebinding every module global and class attribute that refers to them, so
that no file of the package changes.  Each wrapped call pushes a frame; when
it returns, its duration, its self time (duration minus the time of wrapped
calls made inside it) and its call count are added to a per-name aggregate.
Layer-boundary functions also keep one span record per call (name, start,
end, busy time, parent span, op id); functions called once per element keep
only the aggregate, so memory stays bounded.  Generators are timed per
``next()`` slice, so a consumer's work between yields is not charged to them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self: float = 0.0
    yielded: int = 0


@dataclass
class _Frame:
    name: str
    start: float
    groups: tuple[str, ...]
    span: int | None
    child: float = 0.0


@dataclass
class Tracer:
    stats: dict[str, Stat] = field(default_factory=dict)
    group_busy: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)
    op: int = -1
    _stack: list[_Frame] = field(default_factory=list)
    _group_depth: dict[str, int] = field(default_factory=dict)
    _group_start: dict[str, float] = field(default_factory=dict)
    _next_span: int = 0

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def _parent_span(self) -> int | None:
        for fr in reversed(self._stack):
            if fr.span is not None:
                return fr.span
        return None

    def enter(self, name: str, groups: tuple[str, ...], span: bool) -> _Frame:
        sid = None
        if span:
            sid = self._next_span
            self._next_span += 1
        now = _clock()
        for g in groups:
            depth = self._group_depth.get(g, 0)
            if depth == 0:
                self._group_start[g] = now
            self._group_depth[g] = depth + 1
        fr = _Frame(name, now, groups, sid)
        self._stack.append(fr)
        return fr

    def exit(self, fr: _Frame, call: bool = True) -> float:
        now = _clock()
        top = self._stack.pop()
        if top is not fr:
            raise RuntimeError(f"trace stack out of order: {top.name} closed as {fr.name}")
        dur = now - fr.start
        st = self.stats.get(fr.name)
        if st is None:
            st = self.stats[fr.name] = Stat()
        st.calls += call
        st.busy += dur
        st.self += dur - fr.child
        if self._stack:
            self._stack[-1].child += dur
        for g in fr.groups:
            depth = self._group_depth[g] - 1
            self._group_depth[g] = depth
            if depth == 0:
                self.group_busy[g] = self.group_busy.get(g, 0.0) + now - self._group_start[g]
        if fr.span is not None and call:
            self.spans.append((fr.span, fr.name, fr.start, now, dur, self._parent_span(), self.op))
        return dur


def _wrap_function(tr: Tracer, name: str, fn, groups, span: bool, post):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        fr = tr.enter(name, groups, span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.exit(fr)
        if post is not None:
            post(tr, args, kwargs, result)
        return result

    return wrapper


def _wrap_generator(tr: Tracer, name: str, fn, groups, span: bool, post):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        return _traced(tr, name, gen, groups, span, post, args, kwargs)

    return wrapper


def _traced(tr, name, gen, groups, span, post, args, kwargs):
    # One span per generator instance: its busy time is the sum of its
    # next() slices, recorded when the generator finishes or is dropped.
    sid = parent = None
    first = last = None
    busy = 0.0
    started = False
    try:
        while True:
            fr = tr.enter(name, groups, False)
            if first is None:
                first = fr.start
            if span and sid is None:
                sid, parent = tr._next_span, tr._parent_span()
                tr._next_span += 1
            try:
                item = next(gen)
            except StopIteration:
                busy += tr.exit(fr, call=not started)
                return
            except BaseException:
                tr.exit(fr, call=not started)
                raise
            busy += tr.exit(fr, call=not started)
            if not started and post is not None:
                post(tr, args, kwargs, None)
            started = True
            tr.stats[name].yielded += 1
            last = _clock()
            yield item
    finally:
        gen.close()
        if sid is not None:
            tr.spans.append((sid, name, first, last or first, busy, parent, tr.op))


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module`` attribute ``attr`` (``Class.method``
    for class attributes), reported under ``name``."""

    module: str
    attr: str
    name: str
    span: bool = False
    groups: tuple[str, ...] = ()
    post: object = None


class Patch:
    """Installs wrappers for a list of targets and restores the originals."""

    def __init__(self, tracer: Tracer, targets: list[Target], package: str = "fprec"):
        self.tracer = tracer
        self.targets = targets
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        prefix = self.package + "."
        return [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == self.package or k.startswith(prefix))]

    def install(self) -> None:
        modules = self._modules()
        for t in self.targets:
            mod = sys.modules[t.module]
            owner_name, _, attr = t.attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = owner.__dict__[attr]
            make = _wrap_generator if inspect.isgeneratorfunction(original) else _wrap_function
            groups = (t.module.rpartition(".")[2],) + t.groups
            wrapped = make(self.tracer, t.name, original, groups, t.span, t.post)
            if owner_name:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            # Rebind every module global that names this function, so each
            # caller's lookup finds the wrapper.
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
