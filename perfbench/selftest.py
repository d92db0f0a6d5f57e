"""Self-test of the harness: the output check and the self-time arithmetic.

Runs at the start of every benchmark run (``bench.py`` calls
:func:`main`) and on its own with ``python3 perfbench/selftest.py``
(with ``src`` on ``PYTHONPATH``).  Raises :class:`SelfTestError` when
the harness itself is wrong.
"""

from __future__ import annotations

import math


class SelfTestError(RuntimeError):
    """The benchmark harness computed something wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def check_unit_outcomes() -> None:
    from workloads import Tally, UnitOutcome

    alive = UnitOutcome("a", clock=10.0, horizon=10.0, events=5, started=2,
                        joules=1.0)
    expect(alive.failures() == [], f"a live unit failed: {alive.failures()}")
    dead_cases = {
        "no events": UnitOutcome("b", clock=10.0, horizon=10.0, events=0,
                                 started=2, joules=1.0),
        "short clock": UnitOutcome("c", clock=9.5, horizon=10.0, events=5,
                                   started=2, joules=1.0),
        "nan clock": UnitOutcome("d", clock=math.nan, horizon=10.0,
                                 events=5, started=2, joules=1.0),
        "no started jobs": UnitOutcome("e", clock=10.0, horizon=10.0,
                                       events=5, started=0, joules=1.0),
        "no energy": UnitOutcome("f", clock=10.0, horizon=10.0, events=5,
                                 started=2, joules=0.0),
        "raised": UnitOutcome("g", error="RuntimeError()", clock=10.0,
                              horizon=10.0, events=5, started=2, joules=1.0),
    }
    for label, unit in dead_cases.items():
        expect(bool(unit.failures()), f"a unit with {label} passed the check")

    # A known-dead unit lowers ok_frac without failing the run; any
    # other dead unit fails it.
    tally = Tally("federation")
    expect(tally.record(alive, seed=1) == "ok", "live unit not ok")
    known = UnitOutcome("tokyotech", horizon=10.0)
    expect(tally.record(known, seed=1).startswith("dead(known)"),
           "known-dead unit not reported as known")
    expect(not tally.unexpected, "known-dead unit failed the run")
    expect(tally.record(dead_cases["no events"], seed=1).startswith("FAIL"),
           "dead unit not reported as failed")
    expect(tally.unexpected == ["b@1"], f"unexpected: {tally.unexpected}")
    expect(abs(tally.ok_frac - 1.0 / 3.0) < 1e-12, f"ok_frac {tally.ok_frac}")


def check_self_times() -> None:
    from tracing import Tracer, self_times

    # root [0, 10] has children [1, 4] and [3, 6] (overlapping: union
    # [1, 6]) and [8, 12] (clipped to [8, 10]); [1, 4] has a child [2, 3].
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    got = self_times(starts, ends, parents)
    want = [3.0, 2.0, 3.0, 4.0, 1.0]
    expect(all(abs(g - w) < 1e-12 for g, w in zip(got, want)),
           f"self times {got} != {want}")

    # Spans the tracer records nest by call stack, and a patched method
    # goes back to the original on uninstall.
    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) + self.inner(x)

    original = Layer.__dict__["inner"]
    tracer = Tracer()
    tracer.patch_attr(Layer, "outer", "outer")
    tracer.patch_attr(Layer, "inner", "inner")
    expect(Layer().outer(1) == 4, "patched method changed its result")
    tracer.uninstall()
    expect(Layer.__dict__["inner"] is original, "uninstall left a wrapper")
    expect(Layer().outer(1) == 4 and len(tracer.start) == 3,
           "uninstalled method still records spans")
    spans = tracer.spans()
    shape = [(name, parent) for name, _, _, parent in spans]
    expect(shape == [("outer", -1), ("inner", 0), ("inner", 0)],
           f"span nesting {shape}")
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    outer_self = (spans[0][2] - spans[0][1]) - sum(
        e - s for _, s, e, _ in spans[1:]
    )
    expect(abs(selfs[0] - outer_self) < 1e-12,
           f"outer self time {selfs[0]} != {outer_self}")


def check_reference() -> None:
    from reference import (REFERENCE_RESULT, REFERENCE_S, Segments,
                           reference_loop, sum_of_medians)

    got = reference_loop()
    expect(got == REFERENCE_RESULT,
           f"reference loop returned {got}, not {REFERENCE_RESULT}")

    # A segment is scaled by the mean of the reference timings on its
    # two sides: host 1 s with the reference at 2x its nominal time on
    # both sides reads 0.5 s; 3 s between 1x and 3x reads 1.5 s.
    seg = Segments()
    seg.host = [1.0, 3.0]
    seg.refs = [2 * REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    got = seg.scaled()
    expect(all(abs(g - w) < 1e-12 for g, w in zip(got, [0.5, 1.0])),
           f"scaled segments {got}")
    seg.refs = [2 * REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S]
    got = seg.scaled()
    expect(abs(got[1] - 1.5) < 1e-12, f"scaled segments {got}")

    # Piece by piece medians, summed; a short repeat has no say in the
    # pieces it lacks.
    got = sum_of_medians([[1.0, 10.0], [3.0, 30.0], [2.0, 20.0], [5.0]])
    expect(abs(got - (2.5 + 20.0)) < 1e-12, f"sum of medians {got}")


def main() -> None:
    check_unit_outcomes()
    check_self_times()
    check_reference()


if __name__ == "__main__":
    main()
    print("perfbench self-test passed")
