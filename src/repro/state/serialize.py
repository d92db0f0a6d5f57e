"""Compact, versioned serialization of :class:`SimState`.

Container layout (``RPST`` format)::

    b"RPST" | u32 header_length (little-endian) | JSON header | raw array payload

The JSON header carries the schema version, the repro package version,
a sha256 content hash, an array directory (dtype/shape/offset per
array) and the state tree with ``{"__nd__": i}`` placeholders where
numpy arrays sit.  Array payloads are concatenated raw C-order bytes —
no pickling anywhere, so checkpoints are safe to load from untrusted
paths and stable across Python versions.

The encoding is canonical (sorted JSON keys, sorted set elements,
order-preserving pair lists for tuples and non-string-keyed dicts), so
equal states produce identical bytes and the content hash doubles as a
state fingerprint.

Only JSON-able scalars, lists, tuples, sets, dicts and numpy arrays may
appear in the tree; the capture layer encodes object references as
plain ``{"$...": ...}`` marker dicts *before* serialization, so this
module never needs to know about simulation objects.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from ..errors import StateError

MAGIC = b"RPST"
#: Bump on any incompatible change to the capture tree layout.
#: 2: periodic-chain descriptions carry the phase-locked grid
#: (``epoch``/``index``); v1 checkpoints would silently re-anchor
#: restored chains off-grid, breaking replay identity.
#: 3: vector-backend execution membership is SoA (``exec_slot`` rows
#: rebuilt from the executions section; per-node ``running_job`` is
#: None on that backend), so v2 vector checkpoints — whose node
#: states carry job ids the restore path would re-stamp — are
#: rejected instead of silently diverging.
#: 4: the queue section is a dict (``jobs`` + ``table_live``) and the
#: restore path rebuilds the queue's SoA JobTable through the same
#: hooks submissions use; v3 restores grafted ``_jobs`` directly,
#: which would leave the mirror empty and every batched scheduler
#: pass blind to the restored backlog.
#: 5: policy/component capture gained ``__repro_getstate__`` hooks
#: for nested-dataclass state (energy reports, tag
#: characterizations, admin scripts, learned predictors) and a
#: ``components`` section for attached auxiliaries (telemetry
#: samplers); v4 snapshots silently dropped that state on restore,
#: which diverged replay for five of the nine center scenarios.
STATE_SCHEMA_VERSION = 5


@dataclass
class SimState:
    """An in-memory snapshot of one :class:`ClusterSimulation`.

    ``data`` is a plain tree (dicts/lists/tuples/sets/scalars/numpy
    arrays plus ``$``-marker reference dicts) — fully decoupled from
    the live simulation it was captured from.
    """

    schema: int
    repro_version: str
    data: Dict[str, Any]


# ----------------------------------------------------------------------
# Tree encoding
# ----------------------------------------------------------------------
#: Leaf types emitted unchanged.  Dispatch is on the exact type, so
#: subclasses (``IntEnum``, numpy scalars) take the ``isinstance`` path.
_SCALARS = frozenset((str, int, float, bool, type(None)))


class _Unencodable(Exception):
    """A leaf the codec cannot encode.  Collects the dict keys above it
    on the way up, so the walk never builds path strings."""

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value
        self.keys: List[str] = []


def _encode_mapping(value: dict, arrays: List[np.ndarray]) -> dict:
    try:
        "".join(value)  # TypeError unless every key is a str
        keys = sorted(value)
    except TypeError:
        keys = None
    if keys is not None:
        # The "__"-prefixed keys form one run in sorted order, starting
        # at the first key >= "__", so one probe finds a marker clash.
        i = bisect.bisect_left(keys, "__")
        if i == len(keys) or not keys[i].startswith("__"):
            # Sorted walk: array payload order must match the sorted
            # JSON key order so equal states serialize to equal bytes
            # regardless of in-memory dict insertion order.
            out = {}
            try:
                for k in keys:
                    v = value[k]
                    out[k] = v if type(v) in _SCALARS else _encode(v, arrays)
            except _Unencodable as exc:
                exc.keys.append(k)
                raise
            return out
    # Non-string (or marker-colliding) keys: order-preserving pairs.
    return {"__kv__": [[_encode(k, arrays), _encode(v, arrays)]
                       for k, v in value.items()]}


def _encode(value: Any, arrays: List[np.ndarray]) -> Any:
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is dict:
        return _encode_mapping(value, arrays)
    if kind is list:
        return [v if type(v) in _SCALARS else _encode(v, arrays) for v in value]
    if kind is tuple:
        return {"__t__": [v if type(v) in _SCALARS else _encode(v, arrays)
                          for v in value]}
    if isinstance(value, str):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    # json round-trips python floats exactly (repr shortest-round-trip;
    # inf/nan use the python-json Infinity/NaN literals).
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        arrays.append(np.ascontiguousarray(value))
        return {"__nd__": len(arrays) - 1}
    if isinstance(value, list):
        return [_encode(v, arrays) for v in value]
    if isinstance(value, tuple):
        return {"__t__": [_encode(v, arrays) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {"__s__": [_encode(v, arrays) for v in sorted(value, key=repr)]}
    if isinstance(value, dict):
        return _encode_mapping(value, arrays)
    raise _Unencodable(value)


def _marker_hook(arrays: List[np.ndarray]):
    """``json`` object hook that rebuilds the marker dicts while the
    header parses, so decoding takes no second walk over the tree."""

    def hook(value: Dict[str, Any]) -> Any:
        if len(value) == 1:
            if "__nd__" in value:
                return arrays[value["__nd__"]]
            if "__t__" in value:
                return tuple(value["__t__"])
            if "__s__" in value:
                return set(value["__s__"])
            if "__kv__" in value:
                return dict(value["__kv__"])
        return value

    return hook


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
# The header is the canonical dump of one dict whose keys sort as
# ``arrays``, ``content_hash``, ``data``, ``repro_version``, ``schema``:
#
#     {"arrays":[...],"content_hash":"<64 hex>","data":{...},
#      "repro_version":"...","schema":N}
#
# The hash covers these bytes with the 64 hex digits removed, followed
# by the payload.  No string inside ``arrays`` (dtype codes) can hold
# the hash key, and a top-level ``"repro_version"`` key is the last
# one in the header, so a forward and a backward search find them.
_PREFIX = b'{"arrays":'
_HASH_KEY = b',"content_hash":"'
_DATA_KEY = b'","data":'
_TAIL_KEY = b',"repro_version":'
_DIGEST_LEN = 64

_HEADER_ENCODER = json.JSONEncoder(separators=(",", ":"), check_circular=False)


def _pack(state: SimState) -> Tuple[bytes, str]:
    """The ``RPST`` blob of *state* and its content hash, from one
    encoding walk and one header dump."""
    arrays: List[np.ndarray] = []
    try:
        tree = _encode(state.data, arrays)
    except _Unencodable as exc:
        path = "".join(["data"] + [f".{k}" for k in reversed(exc.keys)])
        raise StateError(
            f"cannot serialize {type(exc.value).__name__} at {path!r}; the "
            f"capture layer must encode object references before "
            f"serialization"
        ) from None
    directory = []
    chunks = []
    offset = 0
    for arr in arrays:
        raw = arr.tobytes()
        directory.append({
            "dtype": arr.dtype.str,
            "nbytes": len(raw),
            "offset": offset,
            "shape": list(arr.shape),
        })
        offset += len(raw)
        chunks.append(raw)
    # Every dict in the header is built in sorted key order, so this
    # dump equals ``json.dumps(..., sort_keys=True)`` without sorting.
    blank = _HEADER_ENCODER.encode({
        "arrays": directory,
        "content_hash": "",
        "data": tree,
        "repro_version": state.repro_version,
        "schema": int(state.schema),
    }).encode("utf-8")
    hasher = hashlib.sha256(blank)
    for raw in chunks:
        hasher.update(raw)
    digest = hasher.hexdigest()
    cut = blank.index(_HASH_KEY) + len(_HASH_KEY)
    view = memoryview(blank)
    blob = b"".join([
        MAGIC, (len(blank) + _DIGEST_LEN).to_bytes(4, "little"),
        view[:cut], digest.encode("ascii"), view[cut:], *chunks,
    ])
    return blob, digest


def to_bytes(state: SimState) -> bytes:
    """Serialize *state* into the self-contained ``RPST`` container."""
    return _pack(state)[0]


def _header_slot(header: bytes) -> int:
    """Offset of the content hash's first hex digit in *header*."""
    at = header.find(_HASH_KEY)
    if not header.startswith(_PREFIX) or at < 0:
        raise StateError("corrupt RPST header: not in canonical form")
    return at + len(_HASH_KEY)


def blob_digest(blob: bytes) -> str:
    """The content hash of an ``RPST`` blob, read from its header
    without parsing or verifying it.  Equals :func:`state_digest` of
    the state *blob* was serialized from."""
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise StateError("not an RPST checkpoint (bad magic)")
    hlen = int.from_bytes(blob[4:8], "little")
    cut = _header_slot(blob[8:8 + hlen])
    return blob[8 + cut:8 + cut + _DIGEST_LEN].decode("ascii")


def from_bytes(blob: bytes) -> SimState:
    """Parse an ``RPST`` container, verifying magic, schema and hash.

    The hash is checked over the raw header bytes, so a header that is
    not byte-for-byte the canonical dump fails it.
    """
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise StateError("not an RPST checkpoint (bad magic)")
    hlen = int.from_bytes(blob[4:8], "little")
    if len(blob) < 8 + hlen:
        raise StateError("truncated RPST checkpoint (header)")
    header = blob[8:8 + hlen]
    cut = _header_slot(header)
    data_at = cut + _DIGEST_LEN + len(_DATA_KEY)
    tail = header.rfind(_TAIL_KEY)
    if header[data_at - len(_DATA_KEY):data_at] != _DATA_KEY or tail < data_at:
        raise StateError("corrupt RPST header: not in canonical form")
    try:
        meta = json.loads(b"{" + header[tail + 1:])
    except ValueError as exc:
        raise StateError(f"corrupt RPST header: {exc}") from exc
    schema = meta.get("schema")
    if schema != STATE_SCHEMA_VERSION:
        raise StateError(
            f"checkpoint schema {schema} is not supported "
            f"(this build reads schema {STATE_SCHEMA_VERSION})"
        )
    payload = memoryview(blob)[8 + hlen:]
    hasher = hashlib.sha256(header[:cut])
    hasher.update(header[cut + _DIGEST_LEN:])
    hasher.update(payload)
    if hasher.hexdigest().encode("ascii") != header[cut:cut + _DIGEST_LEN]:
        raise StateError("RPST content hash mismatch (corrupt checkpoint)")
    try:
        directory = json.loads(header[len(_PREFIX):cut - len(_HASH_KEY)])
        arrays: List[np.ndarray] = []
        for entry in directory:
            start, nbytes = entry["offset"], entry["nbytes"]
            if start + nbytes > len(payload):
                raise StateError("truncated RPST checkpoint (payload)")
            arrays.append(np.frombuffer(
                payload[start:start + nbytes], dtype=np.dtype(entry["dtype"])
            ).reshape(entry["shape"]).copy())
        data = json.loads(header[data_at:tail].decode("utf-8"),
                          object_hook=_marker_hook(arrays))
    except (ValueError, LookupError) as exc:
        raise StateError(f"corrupt RPST header: {exc}") from exc
    return SimState(schema=schema, repro_version=meta["repro_version"], data=data)


def state_digest(state: SimState) -> str:
    """Canonical sha256 fingerprint of *state* (the content hash of its
    serialized form)."""
    return _pack(state)[1]


def save_state(path: str, state: SimState) -> str:
    """Atomically write *state* to *path* (tmp file + rename)."""
    blob = to_bytes(state)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_state(path: str) -> SimState:
    """Read and verify a checkpoint written by :func:`save_state`."""
    with open(path, "rb") as fh:
        return from_bytes(fh.read())
