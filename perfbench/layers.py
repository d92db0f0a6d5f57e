"""Which ``repro`` functions the traced run wraps, and the per-layer
metrics computed from the spans.

Every metric ending in ``_s`` is *self* time (span duration minus the
time covered by wrapped calls made inside it) unless the table below
says inclusive.  Counts come from the hooks; they repeat exactly for a
fixed seed, so a performance change that moves one has changed
behaviour.
"""

from __future__ import annotations

import json
import pathlib
import pickle
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from tracing import Tracer, self_times

from repro.analysis.executor import FanoutPool
from repro.centers import center_slugs
from repro.cluster.machine import Machine
from repro.core.queue import JobQueue
from repro.core.scheduler import Scheduler
from repro.core.simulation import ClusterSimulation
from repro.federation import GlobalBroker
from repro.federation.site import advance_site
from repro.grid.market import RegionMarket
from repro.policies.base import Policy
from repro.power.meter import PowerMeter
from repro.centers.registry import build_center_simulation
from repro.simulator.engine import Simulator
from repro import state as repro_state
from repro.workload.generator import WorkloadGenerator

from workloads import BULK_SCENARIOS

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def declared(section: str) -> List[Tuple[str, str]]:
    """(metric, unit) pairs of one section of BENCHMARK.json, in order:
    the benchmark reports exactly the metrics the file declares."""
    entries = json.loads(BENCHMARK_JSON.read_text())[section]
    return [(entry["name"], entry["unit"]) for entry in entries]


PER_LAYER: List[Tuple[str, str]] = declared("per_layer")

#: Span names whose ``_s`` metric is inclusive: the whole call,
#: wrapped calls inside it included.
INCLUSIVE = {
    "executor.map", "federation.advance", "centers.build",
    "workload.generate",
}

#: (child, parent) span names where the child is part of the parent's
#: work: ``state_fingerprint`` digests the ``to_bytes`` encoding of
#: the snapshot, which is not a blob the campaign ships.
PART_OF_PARENT = {("state.to_bytes", "state.fingerprint")}


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer."""
    counts = tracer.counts

    def admit_hook(args, allowed):
        if not allowed:
            counts["policies.admit_denied"] += 1

    def schedule_hook(args, decisions):
        counts["core.decisions"] += len(decisions)
        counts["core.pending_depth"] += len(args[1].pending)

    def blob_hook(args, blob):
        if tracer.current() != "state.fingerprint":
            counts["state.blob_bytes"] += len(blob)

    def map_hook(args, outcomes):
        counts["executor.task_bytes"] += len(pickle.dumps(list(args[2])))
        counts["executor.outcome_bytes"] += len(pickle.dumps(outcomes))

    def cpu_before(args):
        return time.process_time()

    def cpu_hook(args, result_and_start):
        counts["executor.worker_cpu_s"] += time.process_time() - result_and_start[1]

    def events_before(args):
        return args[0].events_fired

    def events_hook(args, result_and_before):
        counts["simulator.events"] += args[0].events_fired - result_and_before[1]

    tracer.patch_family(Policy, "admit", "policies.admit", admit_hook)
    tracer.patch_family(Policy, "on_tick", "policies.tick")
    tracer.patch_family(Policy, "on_tick_batch", "policies.tick")
    tracer.patch_family(Scheduler, "schedule", "core.schedule", schedule_hook)
    tracer.patch_attr(JobQueue, "pending", "core.queue_order")
    tracer.patch_attr(ClusterSimulation, "build_context", "core.context")
    tracer.patch_attr(ClusterSimulation, "machine_power", "power.machine_power")
    tracer.patch_attr(Machine, "transition_bulk", "cluster.transition_bulk")
    tracer.patch_attr(PowerMeter, "sample", "power.meter")
    tracer.patch_attr(PowerMeter, "record_batch", "power.meter")
    tracer.patch_attr(Simulator, "run", "simulator.run", events_hook,
                      pre=events_before)
    tracer.patch_attr(Simulator, "run_batched", "simulator.run", events_hook,
                      pre=events_before)
    tracer.patch_attr(FanoutPool, "map", "executor.map", map_hook)
    tracer.patch_attr(GlobalBroker, "allocate", "federation.broker")
    tracer.patch_attr(RegionMarket, "cost_of", "grid.billing")
    tracer.patch_attr(RegionMarket, "carbon_of", "grid.billing")
    tracer.patch_family(WorkloadGenerator, "generate", "workload.generate")
    tracer.patch_function(build_center_simulation, "centers.build")
    tracer.patch_function(repro_state.snapshot, "state.snapshot")
    tracer.patch_function(repro_state.to_bytes, "state.to_bytes", blob_hook)
    tracer.patch_function(repro_state.from_bytes, "state.from_bytes")
    tracer.patch_function(repro_state.restore, "state.restore")
    tracer.patch_function(repro_state.state_fingerprint, "state.fingerprint")
    tracer.patch_function(advance_site, "federation.advance", cpu_hook,
                          pre=cpu_before)


def _quantile(values: Sequence[float], q: float) -> float:
    """The *q* quantile by linear interpolation (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def per_layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the recorded spans and counts;
    *extra* supplies the values the benchmark measured itself."""
    names = tracer.names
    name_of, parents = tracer.name_of, tracer.parent
    starts, ends = tracer.start, tracer.end
    selfs = self_times(starts, ends, parents)
    self_s: Dict[str, float] = defaultdict(float)
    incl_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[float]] = defaultdict(list)
    layer_of = list(name_of)
    for i, nid in enumerate(name_of):
        p = parents[i]
        if p >= 0 and (names[nid], names[name_of[p]]) in PART_OF_PARENT:
            layer_of[i] = layer_of[p]
    for i, nid in enumerate(layer_of):
        name = names[nid]
        self_s[name] += selfs[i]
        p = parents[i]
        if p >= 0 and layer_of[p] == nid:
            continue  # nested call of the same layer (e.g. super())
        calls[name] += 1
        duration = ends[i] - starts[i]
        incl_s[name] += duration
        durations[name].append(duration)

    def seconds(span: str) -> float:
        return incl_s[span] if span in INCLUSIVE else self_s[span]

    counts = tracer.counts
    passes = calls["core.schedule"]
    out: Dict[str, float] = {
        "policies.admit_calls": calls["policies.admit"],
        "policies.admit_denied": counts["policies.admit_denied"],
        "policies.admit_s": seconds("policies.admit"),
        "core.queue_order_calls": calls["core.queue_order"],
        "core.queue_order_s": seconds("core.queue_order"),
        "core.passes": passes,
        "core.decisions": counts["core.decisions"],
        "core.pending_depth_mean": counts["core.pending_depth"] / passes if passes else 0.0,
        "core.schedule_s": seconds("core.schedule"),
        "core.pass_p50_ms": 1e3 * _quantile(durations["core.schedule"], 0.5),
        "core.pass_p99_ms": 1e3 * _quantile(durations["core.schedule"], 0.99),
        "core.pass_samples": passes,
        "core.context_s": seconds("core.context"),
        "policies.ticks": calls["policies.tick"],
        "policies.tick_s": seconds("policies.tick"),
        "cluster.transition_bulk_calls": calls["cluster.transition_bulk"],
        "cluster.transition_bulk_s": seconds("cluster.transition_bulk"),
        "power.machine_power_s": seconds("power.machine_power"),
        "power.meter_s": seconds("power.meter"),
        "state.snapshots": calls["state.snapshot"],
        "state.blob_bytes": counts["state.blob_bytes"],
        "state.snapshot_s": seconds("state.snapshot"),
        "state.to_bytes_s": seconds("state.to_bytes"),
        "state.from_bytes_s": seconds("state.from_bytes"),
        "state.restore_s": seconds("state.restore"),
        "state.fingerprint_s": seconds("state.fingerprint"),
        "executor.map_s": seconds("executor.map"),
        "executor.epoch_p50_s": _quantile(durations["executor.map"], 0.5),
        "executor.epoch_max_s": max(durations["executor.map"], default=0.0),
        "executor.task_bytes": counts["executor.task_bytes"],
        "executor.outcome_bytes": counts["executor.outcome_bytes"],
        "executor.worker_cpu_s": counts["executor.worker_cpu_s"],
        "federation.advance_s": seconds("federation.advance"),
        "federation.broker_s": seconds("federation.broker"),
        "grid.billing_s": seconds("grid.billing"),
        "centers.build_s": seconds("centers.build"),
        "workload.generate_s": seconds("workload.generate"),
        "simulator.events": counts["simulator.events"],
        "simulator.self_s": seconds("simulator.run"),
        "trace.spans": len(starts),
    }
    for slug in center_slugs():
        out[f"centers.{slug}.run_s"] = incl_s[f"centers.{slug}.run"]
    for name, _, _ in BULK_SCENARIOS:
        out[f"bulk.{name}.run_s"] = incl_s[f"bulk.{name}.run"]
    out.update(extra)
    missing = [m for m, _ in PER_LAYER if m not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {m: float(out[m]) for m, _ in PER_LAYER}
