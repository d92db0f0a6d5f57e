"""The three benchmark workloads: ``centers``, ``federation`` and ``bulk``.

Each workload splits one repeat into a *build* (set-up, timed as
``setup_s``) and a *run* (the simulation region, timed as ``wall_s``),
then turns what the run left behind into one :class:`UnitOutcome` per
unit (center, federated site or synthetic scenario) outside the timed
region.  Build and run call ``around(name)`` for each piece of work
they do (a center, a scenario, a campaign epoch); the benchmark times
each piece on its own through it.  Inputs come only from the repeat's
seed.  README.md in this directory records why each workload exists
and which layers it loads.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.executor import FanoutPool
from repro.centers import CENTER_MARKETS, build_center_simulation, center_slugs
from repro.cluster import Machine, MachineSpec, NodeState
from repro.core import (
    ClusterSimulation,
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    FcfsScheduler,
    LowPowerAllocator,
)
from repro.federation import FederationCampaign, GlobalBroker, SiteConfig
from repro.federation import campaign as campaign_module
from repro.policies import IdleShutdownPolicy
from repro.simulator import RngStreams
from repro.state import result_fingerprint
from repro.units import HOUR
from repro.workload import WorkloadGenerator, WorkloadSpec

#: Simulated span each center runs, counted from its own start time
#: (tokyotech's clock starts at day 152).
CENTERS_HORIZON = 8.0 * HOUR

#: Federated campaign span and coordination epoch.  Short epochs make
#: the snapshot/serialize/restore cycle and the pool round trip the
#: bulk of the work.
FEDERATION_HORIZON = 4.0 * HOUR
FEDERATION_EPOCH = 0.5 * HOUR
FEDERATION_WORKERS = 2

#: Sites the program is known to leave dead in a federated campaign:
#: tokyotech's clock starts at day 152 while campaign epochs run in
#: absolute time from t=0, so every ``run(until=epoch_end)`` fires
#: nothing.  A dead site here lowers ``ok_frac`` but does not fail the
#: run; any other dead unit does.
KNOWN_DEAD: Dict[str, Tuple[str, ...]] = {"federation": ("tokyotech",)}


Around = Callable[[str], Any]


def no_span(name: str):
    """An ``around`` that does nothing."""
    return contextlib.nullcontext()


def subseed(seed: int, repeat: int) -> int:
    """Input seed of one repeat, derived from the run's ``--seed``."""
    digest = hashlib.sha256(f"perfbench:{seed}:{repeat}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class UnitOutcome:
    """What one unit left behind, and whether it is alive."""

    name: str
    error: Optional[str] = None
    clock: float = 0.0
    horizon: float = 0.0
    events: int = 0
    #: jobs that started (running at the horizon, or finished).
    started: int = 0
    #: jobs that finished; shown, not checked (see README.md).
    completed: int = 0
    joules: float = 0.0
    fingerprint: str = ""
    extra: Dict[str, float] = field(default_factory=dict)

    def failures(self) -> List[str]:
        """Reasons this unit fails the output check (empty: it passes)."""
        out = []
        if self.error is not None:
            out.append(f"raised {self.error}")
        if not self.clock >= self.horizon:
            out.append(f"clock {self.clock!r} < horizon {self.horizon!r}")
        if not self.events > 0:
            out.append("fired no events")
        if not self.started > 0:
            out.append("started no jobs")
        if not self.joules > 0.0:
            out.append("metered no energy")
        return out


class Tally:
    """Unit outcomes against the output check."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.known_dead = KNOWN_DEAD.get(workload, ())
        self.attempted = 0
        self.passed = 0
        self.unexpected: List[str] = []

    def record(self, unit: UnitOutcome, seed: int) -> str:
        """Count one unit; returns its status line."""
        self.attempted += 1
        reasons = unit.failures()
        if not reasons:
            self.passed += 1
            return "ok"
        if unit.name in self.known_dead:
            return "dead(known): " + "; ".join(reasons)
        self.unexpected.append(f"{unit.name}@{seed}")
        return "FAIL: " + "; ".join(reasons)

    def add(self, repeat: int, seed: int, outcomes: List[UnitOutcome]) -> None:
        for unit in outcomes:
            status = self.record(unit, seed)
            print(
                f"unit {self.workload} repeat={repeat} seed={seed} "
                f"{unit.name} events={unit.events} started={unit.started} "
                f"completed={unit.completed} "
                f"joules={unit.joules:.6g} fingerprint={unit.fingerprint[:16]} "
                f"{status}"
            )

    @property
    def ok_frac(self) -> float:
        return self.passed / self.attempted if self.attempted else 0.0


def _sim_outcome(name: str, sim: ClusterSimulation, until: float,
                 events_before: int, result: Any) -> UnitOutcome:
    if isinstance(result, BaseException):
        return UnitOutcome(name=name, error=repr(result), horizon=until)
    return UnitOutcome(
        name=name,
        clock=float(sim.sim.now),
        horizon=until,
        events=sim.sim.events_fired - events_before,
        started=sum(1 for job in sim.jobs if job.start_time is not None),
        completed=int(result.metrics.jobs_completed),
        joules=float(sim.meter.energy_joules),
        fingerprint=result_fingerprint(result),
        extra={
            "boots": float(sim.rm.boots_initiated),
            "shutdowns": float(sim.rm.shutdowns_initiated),
        },
    )


def run_sims(built, around: Around) -> List[Any]:
    """Run each ``(name, sim, until, events_before)`` to its horizon."""
    results: List[Any] = []
    for name, sim, until, _ in built:
        with around(name):
            try:
                results.append(sim.run_batched(until=until))
            except Exception as exc:  # noqa: BLE001 - reported as a dead unit
                results.append(exc)
    return results


def sims_outcomes(built, results) -> List[UnitOutcome]:
    return [
        _sim_outcome(name, sim, until, before, result)
        for (name, sim, until, before), result in zip(built, results)
    ]


# ----------------------------------------------------------------------
# centers
# ----------------------------------------------------------------------
def build_centers(seed: int, around: Around = no_span):
    built = []
    for slug in center_slugs():
        with around(slug):
            sim = build_center_simulation(slug, seed=seed).simulation
        built.append((slug, sim, sim.sim.now + CENTERS_HORIZON,
                      sim.sim.events_fired))
    return built


# ----------------------------------------------------------------------
# federation
# ----------------------------------------------------------------------
def build_federation(seed: int, around: Around = no_span,
                     workers: int = FEDERATION_WORKERS):
    """The campaign.  Its construction is all the set-up it has:
    ``FederationCampaign.run()`` builds each site in a pool worker in
    epoch zero, restores it in every later epoch and starts its own
    pool, so site builds and pool start-up stay inside ``wall_s``."""
    with around("campaign"):
        return FederationCampaign(
            sites=tuple(
                SiteConfig(slug=slug, seed=seed, horizon=FEDERATION_HORIZON)
                for slug in center_slugs()
            ),
            broker=GlobalBroker(CENTER_MARKETS, budget_fraction=0.7,
                                carbon_weight=0.1),
            horizon=FEDERATION_HORIZON,
            epoch_seconds=FEDERATION_EPOCH,
            workers=workers,
        )


def run_federation(campaign, around):
    """``campaign.run()``, each epoch's ``FanoutPool.map`` one piece of
    work for ``around``.  The campaign opens its pool by the name
    ``FanoutPool`` in its own module, so that name points at a subclass
    for the duration of the run."""

    class EpochPool(FanoutPool):
        def map(self, fn, tasks):
            with around("epoch"):
                return super().map(fn, tasks)

    campaign_module.FanoutPool = EpochPool
    try:
        return campaign.run()
    except Exception as exc:  # noqa: BLE001 - reported as dead sites
        return exc
    finally:
        campaign_module.FanoutPool = FanoutPool


def federation_outcomes(campaign, result) -> List[UnitOutcome]:
    """One outcome per site.  A site report carries no event count, so
    the check counts its meter samples: each one is a fired meter
    event of that site's simulation.  The site's clock is the time of
    its last meter sample: each epoch closes with a sample at its end,
    so the clock follows the site's own simulation.  Started jobs are
    the jobs running at the horizon plus the jobs that reached a
    terminal state.  The fingerprint digests the site's state
    fingerprint after every epoch, so equal site fingerprints mean an
    equal campaign fingerprint."""
    out = []
    for cfg in campaign.sites:
        if isinstance(result, BaseException):
            out.append(UnitOutcome(name=cfg.slug, error=repr(result),
                                   horizon=campaign.horizon))
            continue
        reports = result.reports[cfg.slug]
        site = result.sites[cfg.slug]
        out.append(UnitOutcome(
            name=cfg.slug,
            clock=float(reports[-1].power_times[-1])
            if reports and reports[-1].power_times else 0.0,
            horizon=campaign.horizon,
            events=sum(len(r.power_times) for r in reports),
            started=reports[-1].running_jobs + site.completed_jobs,
            completed=int(site.completed_jobs),
            joules=float(site.energy_joules),
            fingerprint=hashlib.sha256(
                "\n".join(site.fingerprints).encode()
            ).hexdigest(),
            extra={
                "boots": float(site.metrics.get("boots_initiated", 0.0)),
                "shutdowns": float(site.metrics.get("shutdowns_initiated", 0.0)),
            },
        ))
    return out


# ----------------------------------------------------------------------
# bulk: three synthetic large-machine scenarios on the batched path
# ----------------------------------------------------------------------
def _machine(nodes: int, **kw) -> Machine:
    spec = dict(name="bench", nodes=nodes, idle_power=100.0, max_power=400.0,
                nodes_per_cabinet=max(8, nodes // 8))
    spec.update(kw)
    return Machine(MachineSpec(**spec))


def _jobs(seed: int, stream: str, count: int, **spec) -> list:
    return WorkloadGenerator(
        WorkloadSpec(**spec), RngStreams(seed).stream(stream)
    ).generate(count=count)


def congested_64k(seed: int) -> ClusterSimulation:
    """Mostly powered-down 64k machine under a burst of narrow jobs, a
    15 s idle-shutdown loop booting and shedding nodes to track it."""
    machine = _machine(65_536, boot_time=300.0, shutdown_time=120.0)
    jobs = _jobs(seed, "congested", 1500, arrival_rate=600.0 / HOUR,
                 duration=12.0 * HOUR, min_nodes=1, max_nodes=64,
                 mean_work=1.5 * HOUR)
    sim = ClusterSimulation(
        machine, FcfsScheduler(), jobs,
        policies=[IdleShutdownPolicy(idle_threshold=3600.0, min_spare=512,
                                     check_interval=15.0)],
        seed=seed, sample_interval=300.0, trace_enabled=False,
    )
    for node in machine.nodes[1024:]:
        node.transition(NodeState.SHUTTING_DOWN, 0.0)
        node.transition(NodeState.OFF, 0.0)
    return sim


def wide_job_churn(seed: int) -> ClusterSimulation:
    """64k machine where every start and teardown moves a 2k-16k node
    cohort and every pass ranks the free pool by effective power."""
    jobs = _jobs(seed, "wide", 300, arrival_rate=60.0 / HOUR,
                 duration=8.0 * HOUR, min_nodes=2048, max_nodes=16_384,
                 mean_work=0.75 * HOUR)
    return ClusterSimulation(
        _machine(65_536), EasyBackfillScheduler(LowPowerAllocator()), jobs,
        seed=seed, sample_interval=300.0, trace_enabled=False,
    )


def deep_queue_backfill(seed: int, part: int) -> ClusterSimulation:
    """4k machine under a burst far above capacity, so each
    conservative-backfill pass walks a queue up to 200 deep.  It runs
    until the queue drains, which fixes the pass count by the job
    count.  Cut off mid-backlog instead, its cost swung 5x between
    seeds.  A pass costs about the square of the queue depth, so the
    scenario runs as three independent 200-job parts: one 400-job queue
    cost four times as much as a part and varied more between seeds."""
    jobs = _jobs(seed, f"deepq-{part}", 200, arrival_rate=900.0 / HOUR,
                 duration=2.0 * HOUR, min_nodes=8, max_nodes=1024,
                 mean_work=1.5 * HOUR)
    return ClusterSimulation(
        _machine(4096), ConservativeBackfillScheduler(), jobs,
        seed=seed + part, sample_interval=600.0, trace_enabled=False,
    )


BULK_SCENARIOS = (
    ("congested_64k", congested_64k, 12.0 * HOUR),
    ("wide_job_churn", wide_job_churn, 8.0 * HOUR),
    *(
        (f"deep_queue_backfill_{part}",
         functools.partial(deep_queue_backfill, part=part), 30.0 * HOUR)
        for part in range(3)
    ),
)


def build_bulk(seed: int, around: Around = no_span):
    built = []
    for name, make, horizon in BULK_SCENARIOS:
        with around(name):
            sim = make(seed)
        built.append((name, sim, sim.sim.now + horizon, sim.sim.events_fired))
    return built


@dataclass(frozen=True)
class Workload:
    """``build(seed, around)`` is timed as set-up, ``run(built, around)``
    as the simulation region; ``outcomes(built, raw)`` runs untimed."""

    build: Callable[..., Any]
    run: Callable[[Any, Around], Any]
    outcomes: Callable[[Any, Any], List[UnitOutcome]]


WORKLOADS: Dict[str, Workload] = {
    "centers": Workload(build_centers, run_sims, sims_outcomes),
    "federation": Workload(build_federation, run_federation, federation_outcomes),
    "bulk": Workload(build_bulk, run_sims, sims_outcomes),
}
