"""One benchmark workload in this process; ``run.py`` is the entry point.

Untraced (``--trace 0``): repeat build + run, each repeat in a forked
child on its own input seed derived from ``--seed``, until
``--seconds`` have passed (at least :data:`MIN_REPEATS` repeats), and
report the set-up and simulation times, the peak resident memory of
any repeat and the share of units that pass the output check.  Each
piece of work in a repeat (a center, a scenario, a campaign epoch) is
timed on its own and scaled to the speed of a fixed reference loop
timed next to it (``reference.Segments``); a time is the sum over the
pieces of each piece's median over the repeats.

Traced (``--trace 1``): one untraced repeat, then the same repeat with
every layer wrapped (``layers.install``); reports the per-layer
metrics, checks that tracing left every result fingerprint unchanged,
and writes the spans under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import pickle
import resource
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, Tuple

import layers
import selftest
from reference import Segments, sum_of_medians
from tracing import Tracer
from workloads import WORKLOADS, Tally, UnitOutcome, no_span, subseed

OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"

#: Fewest repeats an untraced run makes, however long they take.
MIN_REPEATS = 3

END_TO_END = layers.declared("end_to_end")


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any waited-for
    descendant (the repeat processes and their pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_repeat(workload, seed: int, around=no_span,
                 **build_kw) -> Tuple[float, float, List[UnitOutcome]]:
    """Build and run one repeat in host seconds; returns (setup_s,
    wall_s, outcomes)."""
    gc.collect()
    t0 = time.perf_counter()
    built = workload.build(seed, **build_kw)
    setup = time.perf_counter() - t0
    gc.collect()
    t0 = time.perf_counter()
    raw = workload.run(built, around)
    wall = time.perf_counter() - t0
    return setup, wall, workload.outcomes(built, raw)


def segmented_repeat(workload, seed: int):
    """Build and run one repeat, each piece of work timed on its own;
    returns (set-up Segments, run Segments, outcomes)."""
    setup = Segments()
    gc.collect()
    setup.begin()
    built = workload.build(seed, setup.unit)
    setup.cut()
    run = Segments()
    gc.collect()
    run.begin()
    raw = workload.run(built, run.unit)
    run.cut()
    return setup, run, workload.outcomes(built, raw)


def in_child(fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)`` in a forked child; returns its result.

    Every repeat starts from the same heap this way: a ``repro``
    simulation is never freed (its node table is a NumPy object array,
    which the cycle collector cannot see through), so in one process
    each repeat would leave its whole simulation behind and slow the
    garbage collector for the next.
    """
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            payload = pickle.dumps(("ok", fn(*args, **kwargs)))
        except BaseException:  # noqa: BLE001 - sent to the parent, re-raised there
            payload = pickle.dumps(("error", traceback.format_exc()))
            code = 1
        with os.fdopen(write_fd, "wb") as out:
            out.write(payload)
        sys.stdout.flush()
        os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as inp:
        payload = inp.read()
    os.waitpid(pid, 0)
    if not payload:
        raise RuntimeError(f"repeat process {pid} died without a result")
    status, value = pickle.loads(payload)
    if status != "ok":
        raise RuntimeError(f"repeat process {pid} failed:\n{value}")
    return value


def run_untraced(name: str, seed: int, seconds: float) -> Tuple[Dict, Tally]:
    workload = WORKLOADS[name]
    tally = Tally(name)
    setups: List[List[float]] = []
    walls: List[List[float]] = []
    began = time.perf_counter()
    repeat = 0
    while repeat < MIN_REPEATS or time.perf_counter() - began < seconds:
        s = subseed(seed, repeat)
        setup, run, outcomes = in_child(segmented_repeat, workload, s)
        setups.append(setup.scaled())
        walls.append(run.scaled())
        tally.add(repeat, s, outcomes)
        print(f"repeat {name} {repeat} seed={s} "
              f"setup_s={sum(setups[-1]):.4f} (host {sum(setup.host):.4f}) "
              f"wall_s={sum(walls[-1]):.4f} (host {sum(run.host):.4f}) "
              f"reference_s={statistics.median(setup.refs + run.refs):.4f}")
        repeat += 1
    values = {
        "wall_s": sum_of_medians(walls),
        "setup_s": sum_of_medians(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": tally.ok_frac,
    }
    print(f"samples {name} repeats={repeat}")
    return {m: {"value": values[m], "unit": u} for m, u in END_TO_END}, tally


def traced_repeat(name: str, seed: int, baseline_wall: float, **build_kw):
    """One repeat with every layer wrapped; writes the spans and returns
    (outcomes, per-layer metrics)."""
    tracer = Tracer()
    layers.install(tracer)
    try:
        def around(unit: str):
            return tracer.span(f"{name}.{unit}.run")

        with tracer.span("bench.repeat"):
            _, wall, outcomes = timed_repeat(WORKLOADS[name], seed, around,
                                             **build_kw)
    finally:
        tracer.uninstall()
    alive = sum(1 for unit in outcomes if not unit.failures())
    values = layers.per_layer_metrics(tracer, {
        "core.boots": sum(u.extra.get("boots", 0.0) for u in outcomes),
        "core.shutdowns": sum(u.extra.get("shutdowns", 0.0) for u in outcomes),
        "federation.sites_alive": alive if name == "federation" else 0,
        "trace.untraced_wall_s": baseline_wall,
        "trace.traced_wall_s": wall,
        "trace.overhead_s": wall - baseline_wall,
    })
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{name}.tsv")
    return outcomes, values


def run_traced(name: str, seed: int) -> Tuple[Dict, Tally]:
    workload = WORKLOADS[name]
    tally = Tally(name)
    s = subseed(seed, 0)
    _, baseline_wall, reference = in_child(timed_repeat, workload, s)
    tally.add(0, s, reference)
    build_kw = {}
    if name == "federation":
        # The traced campaign runs inline, where every span lands in
        # one process; time an untraced inline campaign as the
        # overhead baseline, and keep the pooled one as the
        # fingerprint reference.
        build_kw = {"workers": 1}
        _, baseline_wall, inline = in_child(timed_repeat, workload, s, **build_kw)
        tally.add(0, s, inline)
    traced, values = in_child(traced_repeat, name, s, baseline_wall, **build_kw)
    tally.add(0, s, traced)

    for ref, got in zip(reference, traced):
        if ref.fingerprint != got.fingerprint:
            tally.unexpected.append(f"{got.name}: traced fingerprint differs")
            print(f"FAIL {name} {got.name}: traced fingerprint "
                  f"{got.fingerprint[:16]} != untraced {ref.fingerprint[:16]}")
    return {m: {"value": values[m], "unit": u} for m, u in layers.PER_LAYER}, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    selftest.main()
    # Move everything imported so far out of the collector's reach.  A
    # collection in a forked repeat then leaves the inherited heap
    # alone instead of touching every object on it, which costs a
    # copy-on-write page fault per page: on bulk that made set-up
    # about 8% slower and twice as variable between repeats.
    gc.freeze()
    if args.trace:
        metrics, tally = run_traced(args.workload, args.seed)
    else:
        metrics, tally = run_untraced(args.workload, args.seed, args.seconds)
    for metric, entry in metrics.items():
        print(f"metric {args.workload} {metric} = {entry['value']!r} {entry['unit']}")
    correct = not tally.unexpected
    if not correct:
        print(f"output check failed: {tally.unexpected}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.unexpected),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
