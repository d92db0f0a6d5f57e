"""The two-pass RPST codec, frozen as the equivalence oracle.

This is :mod:`repro.state.serialize` as it shipped before the one-pass
codec: every container encodes the tree, dumps the header once with a
blank ``content_hash`` to hash it, then dumps it again with the hash
filled in; :func:`from_bytes` re-dumps the parsed header to verify the
hash, then decodes the parsed tree in a second walk.  The live codec
must produce byte-identical blobs and identical digests.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

import numpy as np

from repro.errors import StateError
from repro.state.serialize import MAGIC, STATE_SCHEMA_VERSION, SimState


def _encode(value: Any, arrays: List[np.ndarray], path: str) -> Any:
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        arrays.append(np.ascontiguousarray(value))
        return {"__nd__": len(arrays) - 1}
    if isinstance(value, list):
        return [_encode(v, arrays, path) for v in value]
    if isinstance(value, tuple):
        return {"__t__": [_encode(v, arrays, path) for v in value]}
    if isinstance(value, (set, frozenset)):
        return {"__s__": [_encode(v, arrays, path)
                          for v in sorted(value, key=repr)]}
    if isinstance(value, dict):
        if all(isinstance(k, str) and not k.startswith("__") for k in value):
            return {k: _encode(value[k], arrays, f"{path}.{k}")
                    for k in sorted(value)}
        return {"__kv__": [[_encode(k, arrays, path), _encode(v, arrays, path)]
                           for k, v in value.items()]}
    raise StateError(
        f"cannot serialize {type(value).__name__} at {path!r}; the capture "
        f"layer must encode object references before serialization"
    )


def _decode(value: Any, arrays: List[np.ndarray]) -> Any:
    if isinstance(value, list):
        return [_decode(v, arrays) for v in value]
    if isinstance(value, dict):
        if len(value) == 1:
            if "__nd__" in value:
                return arrays[value["__nd__"]]
            if "__t__" in value:
                return tuple(_decode(v, arrays) for v in value["__t__"])
            if "__s__" in value:
                return set(_decode(v, arrays) for v in value["__s__"])
            if "__kv__" in value:
                return {_decode(k, arrays): _decode(v, arrays)
                        for k, v in value["__kv__"]}
        return {k: _decode(v, arrays) for k, v in value.items()}
    return value


def _dump_header(header: Dict[str, Any]) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")


def to_bytes(state: SimState) -> bytes:
    arrays: List[np.ndarray] = []
    tree = _encode(state.data, arrays, "data")
    directory = []
    offset = 0
    chunks = []
    for arr in arrays:
        raw = arr.tobytes()
        directory.append({
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        offset += len(raw)
        chunks.append(raw)
    payload = b"".join(chunks)
    header = {
        "schema": int(state.schema),
        "repro_version": state.repro_version,
        "content_hash": "",
        "arrays": directory,
        "data": tree,
    }
    digest = hashlib.sha256(_dump_header(header) + payload).hexdigest()
    header["content_hash"] = digest
    hbytes = _dump_header(header)
    return MAGIC + len(hbytes).to_bytes(4, "little") + hbytes + payload


def from_bytes(blob: bytes) -> SimState:
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise StateError("not an RPST checkpoint (bad magic)")
    hlen = int.from_bytes(blob[4:8], "little")
    if len(blob) < 8 + hlen:
        raise StateError("truncated RPST checkpoint (header)")
    try:
        header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StateError(f"corrupt RPST header: {exc}") from exc
    schema = header.get("schema")
    if schema != STATE_SCHEMA_VERSION:
        raise StateError(
            f"checkpoint schema {schema} is not supported "
            f"(this build reads schema {STATE_SCHEMA_VERSION})"
        )
    payload = blob[8 + hlen:]
    expected = header.get("content_hash", "")
    check = dict(header)
    check["content_hash"] = ""
    actual = hashlib.sha256(_dump_header(check) + payload).hexdigest()
    if actual != expected:
        raise StateError("RPST content hash mismatch (corrupt checkpoint)")
    arrays: List[np.ndarray] = []
    for entry in header["arrays"]:
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(payload):
            raise StateError("truncated RPST checkpoint (payload)")
        arr = np.frombuffer(
            payload[start:start + nbytes], dtype=np.dtype(entry["dtype"])
        ).reshape(entry["shape"]).copy()
        arrays.append(arr)
    data = _decode(header["data"], arrays)
    return SimState(schema=schema, repro_version=header["repro_version"], data=data)


def state_digest(state: SimState) -> str:
    blob = to_bytes(state)
    hlen = int.from_bytes(blob[4:8], "little")
    header = json.loads(blob[8:8 + hlen].decode("utf-8"))
    return header["content_hash"]
