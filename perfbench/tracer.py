"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the traced
modules (their ``__all__``) with a timing wrapper, in every module that
bound it by name, along with the entries of ``bracket.BRACKET_ENGINES``
and a few hot methods.  ``uninstall`` puts the originals back, so
untraced passes run the package unchanged.

Each call is a span: a name, a start, an end and the span that was
open when it began.  Spans live in flat arrays until the run ends.  A
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

MODULES = ("laurent", "diagram", "states", "bracket", "jones", "adequacy",
           "cli")
RENAME = {
    "bracket.bracket_fast": "bracket.fast",
    "bracket.bracket_statesum": "bracket.statesum",
    "bracket.bracket_subgraph": "bracket.subgraph",
}
# (module, class, attribute, span name); __rmul__ is the same function
# as __mul__ and shares its wrapper
METHODS = (
    ("states", "RibbonGraph", "faces", "states.faces"),
    ("laurent", "LaurentPoly", "__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly", "__rmul__", "laurent.mul"),
    ("laurent", "LaurentPoly", "exact_div", "laurent.exact_div"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, object, object]] = []
        self.fast_inputs: dict[tuple, object] = {}
        self.reset()

    def reset(self) -> None:
        """Forget every span and count, keeping the installed wrappers."""
        self.self_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counts: Counter = Counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def _wrap(self, name: str, fn, note=None):
        sid = self._id(name)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.span_start)
            tracer.span_name.append(sid)
            tracer.span_parent.append(stack[-1][1] if stack else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [0.0, index]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                tracer.self_s[sid] += duration - frame[0]
                tracer.calls[sid] += 1
                if stack:
                    stack[-1][0] += duration
                tracer.span_start[index] = start
                tracer.span_end[index] = end
            if note is not None:
                note(tracer, args, result)
            return result

        return wrapper

    def _patch(self, target, key, value) -> None:
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"kauffman.{m}") for m in MODULES}
        wrapped: dict[int, tuple[object, object]] = {}
        for short, mod in mods.items():
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = RENAME.get(f"{short}.{attr}", f"{short}.{attr}")
                    wrapped[id(fn)] = (fn, self._wrap(name, fn, NOTES.get(name)))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        engines = mods["bracket"].BRACKET_ENGINES
        for key, fn in list(engines.items()):
            self._patch(engines, key, wrapped[id(fn)][1])
        for short, cls_name, attr, name in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[attr]
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self._wrap(name, fn, NOTES.get(name)))
            self._patch(cls, attr, wrapped[id(fn)][1])

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def snapshot(self, speed: float, wall: float) -> dict:
        """Self milliseconds and calls per span name, plus counts, for a
        pass of ``wall`` raw seconds.  Times are multiplied by ``speed``,
        the pass's calibration factor."""
        covered = sum(
            self.span_end[i] - self.span_start[i]
            for i in range(len(self.span_start))
            if self.span_parent[i] == -1
        )
        return {
            "self_ms": {
                n: 1e3 * s * speed for n, s in zip(self.names, self.self_s)
            },
            "calls": dict(zip(self.names, self.calls)),
            "counts": dict(self.counts),
            "covered_ms": 1e3 * covered * speed,
            "uncovered": 1 - covered / wall,
            "spans": len(self.span_start),
        }

    def write_spans(self, path) -> None:
        """One line per span: index, parent, name, start and end in
        milliseconds from the first span."""
        origin = self.span_start[0] if self.span_start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart_ms\tend_ms\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t"
                    f"{self.names[self.span_name[i]]}\t"
                    f"{1e3 * (self.span_start[i] - origin):.4f}\t"
                    f"{1e3 * (self.span_end[i] - origin):.4f}\n"
                )


def _crossings(diagram) -> int:
    return len(diagram.crossings)


def _note_cable(tracer, args, result) -> None:
    tracer.counts["diagram.cable.crossings"] += _crossings(result)


def _note_fast(tracer, args, result) -> None:
    diagram = args[0]
    tracer.counts["bracket.fast.crossings"] += _crossings(diagram)
    key = tuple(x.slots for x in diagram.crossings)
    tracer.fast_inputs.setdefault(key, diagram)


def _note_statesum(tracer, args, result) -> None:
    tracer.counts["bracket.statesum.resolutions"] += 1 << _crossings(args[0])


def _note_subgraph(tracer, args, result) -> None:
    tracer.counts["bracket.subgraph.subsets"] += 1 << _crossings(args[0])


def _note_terms(tracer, args, result) -> None:
    sizes = [len(result)] + [len(a) for a in args if hasattr(a, "terms")]
    if max(sizes) > tracer.counts["laurent.max_terms"]:
        tracer.counts["laurent.max_terms"] = max(sizes)


NOTES = {
    "diagram.cable": _note_cable,
    "bracket.fast": _note_fast,
    "bracket.statesum": _note_statesum,
    "bracket.subgraph": _note_subgraph,
    "laurent.mul": _note_terms,
    "laurent.exact_div": _note_terms,
}


def peak_states(bracket_fast, cap_exceeded, diagram) -> int:
    """Smallest ``max_states`` that ``bracket_fast`` passes with.

    A call that trips reports the live pairings of the step that
    exceeded the cap, a lower bound on the peak; a call that passes
    bounds it from above.  Gallop up from 1, then bisect.
    """
    lo, hi = 1, None
    cap = 1
    while hi is None:
        try:
            bracket_fast(diagram, max_states=cap)
            hi = cap
        except cap_exceeded as err:
            lo = max(cap + 1, err.detail["states"])
            cap = 2 * lo
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            bracket_fast(diagram, max_states=mid)
            hi = mid
        except cap_exceeded as err:
            lo = max(mid + 1, err.detail["states"])
    return hi
