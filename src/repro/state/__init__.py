"""Deterministic checkpoint/restore/replay for cluster simulations.

The public surface:

* :func:`snapshot` / :func:`restore` — capture a live
  :class:`~repro.core.simulation.ClusterSimulation` as plain data and
  rebuild it (via a user-supplied factory) with bit-identical future
  behavior;
* :class:`SimState`, :func:`save_state` / :func:`load_state`,
  :func:`to_bytes` / :func:`from_bytes` — the versioned, content-hashed
  on-disk form (``RPST`` container: JSON envelope + raw numpy arrays),
  and :func:`blob_digest`, which reads a blob's content hash;
* :func:`run_checkpointed` / :func:`resume_run` /
  :func:`checkpoint_to` — drive a run with periodic checkpoints and
  resume a killed one;
* :func:`state_fingerprint` / :func:`sim_fingerprint` /
  :func:`result_fingerprint` / :func:`light_fingerprint` /
  :func:`diff_states` — exact and cheap digests;
* :class:`RunRecorder`, :func:`replay_from`, :func:`compare_streams`,
  :func:`lockstep_divergence` — the replay/divergence harness.

See DESIGN.md §8 for the snapshot contract and schema versioning.
"""

from ..errors import StateError
from .capture import restore, snapshot
from .checkpoint import checkpoint_to, resume_run, run_checkpointed
from .fingerprint import (
    component_digests,
    diff_states,
    light_fingerprint,
    result_fingerprint,
    sim_fingerprint,
    state_fingerprint,
)
from .replay import (
    DivergenceReport,
    FingerprintEntry,
    RunRecorder,
    compare_streams,
    lockstep_divergence,
    replay_from,
)
from .serialize import (
    STATE_SCHEMA_VERSION,
    SimState,
    blob_digest,
    from_bytes,
    load_state,
    save_state,
    state_digest,
    to_bytes,
)

__all__ = [
    "STATE_SCHEMA_VERSION",
    "DivergenceReport",
    "FingerprintEntry",
    "RunRecorder",
    "SimState",
    "StateError",
    "blob_digest",
    "checkpoint_to",
    "compare_streams",
    "component_digests",
    "diff_states",
    "from_bytes",
    "light_fingerprint",
    "load_state",
    "lockstep_divergence",
    "replay_from",
    "restore",
    "result_fingerprint",
    "resume_run",
    "run_checkpointed",
    "save_state",
    "sim_fingerprint",
    "snapshot",
    "state_digest",
    "state_fingerprint",
    "to_bytes",
]
