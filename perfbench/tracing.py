"""Span and count recording around the public functions of ``repro``.

The tracer patches functions and methods of the installed ``repro``
package from outside: nothing in ``src/repro`` knows it is traced.  Each
call becomes one span ``(name, start, end, parent)`` appended to flat
arrays kept in memory, and an optional hook turns the call's arguments
and result into counts (bytes serialized, jobs denied, decisions made).
:meth:`Tracer.write` dumps the spans when the run ends and
:func:`self_times` attributes time to layers: a span's self time is its
duration minus the part of its interval that its child spans cover.

The patched wrappers add a fixed cost per call, so the numbers a traced
run reports are per-layer *shares*; the end-to-end times come from the
untraced run, and the difference between the two is the tracing
overhead the traced run reports.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Hook = Callable[[Sequence[Any], Any], None]


class Tracer:
    """In-memory span and count recorder with function patching."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current(self) -> str:
        """Name of the innermost open span ('' outside any span)."""
        return self.names[self.name_of[self._stack[-1]]] if self._stack else ""

    def open(self, name: str) -> int:
        """Open a span; returns its index for :meth:`close`."""
        idx = len(self.start)
        self.name_of.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order ({popped})")

    def span(self, name: str) -> "_Span":
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def wrap(self, fn: Callable, name: str, hook: Optional[Hook] = None,
             pre: Optional[Callable[[Sequence[Any]], Any]] = None) -> Callable:
        """*fn* recording one span per call.

        ``pre(args)`` runs before the span opens and its value reaches
        ``hook(args, (result, pre_value))``; without ``pre`` the hook
        gets ``hook(args, result)``.  Hooks run after the span closed, so
        their cost lands in the caller's self time, not the layer's.
        """
        nid = self.name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(args, (result, token) if pre is not None else result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_attr(self, owner: Any, attr: str, name: str,
                   hook: Optional[Hook] = None, pre=None) -> None:
        """Replace ``owner.attr`` (a function or a method defined on the
        class *owner*) with its traced wrapper."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if getattr(original, "__wrapped_by_tracer__", False):
            return
        setattr(owner, attr, self.wrap(original, name, hook, pre))
        self._undo.append((owner, attr, original, own))

    def patch_family(self, base: type, attr: str, name: str,
                     hook: Optional[Hook] = None) -> int:
        """Patch *attr* on *base* and on every loaded subclass that
        defines its own *attr*; returns how many classes were patched."""
        patched = 0
        seen = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if attr in vars(cls):
                self.patch_attr(cls, attr, name, hook)
                patched += 1
        return patched

    def patch_function(self, fn: Callable, name: str,
                       hook: Optional[Hook] = None, pre=None) -> int:
        """Patch every module global bound to *fn* (a function imported
        by name into several modules); returns the count."""
        patched = 0
        for module in list(sys.modules.values()):
            if module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attr(module, attr, name, hook, pre)
                    patched += 1
        return patched

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def spans(self) -> List[Tuple[str, float, float, int]]:
        """All spans as ``(name, start, end, parent index)``."""
        names = self.names
        return [
            (names[n], s, e, p)
            for n, s, e, p in zip(self.name_of, self.start, self.end, self.parent)
        ]

    def write(self, path) -> None:
        """Write spans (one tab-separated line each) and counts."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("# index\tname\tstart_s\tend_s\tparent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i, (name, s, e, p) in enumerate(self.spans()):
                out.write(f"{i}\t{name}\t{s - t0:.9f}\t{e - t0:.9f}\t{p}\n")
            for key in sorted(self.counts):
                out.write(f"# count\t{key}\t{self.counts[key]!r}\n")


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.idx = -1

    def __enter__(self) -> "_Span":
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer.close(self.idx)


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> List[float]:
    """Per-span self time: duration minus the union of the parts of the
    span's interval covered by its direct children."""
    children: Dict[int, List[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = [e - s for s, e in zip(starts, ends)]
    for p, kids in children.items():
        lo, hi = starts[p], ends[p]
        pieces = sorted(
            (max(starts[k], lo), min(ends[k], hi)) for k in kids
        )
        covered = 0.0
        run_s, run_e = None, None
        for s, e in pieces:
            if e <= s:
                continue
            if run_e is None or s > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = s, e
            elif e > run_e:
                run_e = e
        if run_e is not None:
            covered += run_e - run_s
        out[p] -= covered
    return out
