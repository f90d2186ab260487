"""Versioned checkpoint container: JSON header plus named float64 blobs.

Layout: one UTF-8 JSON line (format version, network config, skeleton
hash, training metadata, tensor manifest) followed by the concatenation
of every manifest entry as little-endian float64 in manifest order.
Round-trips are bitwise exact.

This is the only layout the loader reads.  The manifest must name
exactly the network's tensors, each with its kind and shape, and the
config exactly ``NetworkConfig``'s fields; anything else (a tensor left
over from an older layout, a missing or renamed one, a removed setting)
is a ``CheckpointError``, and no older layout is converted.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from .network import ConfigError, Network, NetworkConfig, build_network
from .skeleton import SkeletonGraph, build_skeleton, skeleton_hash

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


def _require_keys(record, keys: tuple[str, ...], where: str) -> None:
    if not isinstance(record, dict):
        raise CheckpointError(f"{where} is not a JSON object")
    missing = [key for key in keys if key not in record]
    if missing:
        raise CheckpointError(f"{where} lacks {missing}")


def _check_tensor_entry(entry) -> None:
    _require_keys(entry, ("name", "shape", "kind"), "tensor entry")
    name, shape, kind = entry["name"], entry["shape"], entry["kind"]
    if not isinstance(name, str) or not isinstance(kind, str):
        raise CheckpointError(
            f"tensor entry name {name!r} and kind {kind!r} must be strings")
    if not isinstance(shape, list) or any(
            isinstance(n, bool) or not isinstance(n, int) or n < 0 for n in shape):
        raise CheckpointError(f"tensor entry {name!r} shape {shape!r} is not "
                              f"a list of non-negative integers")


def save_checkpoint(path, net: Network, training_meta: dict | None = None) -> None:
    entries = []
    arrays = []
    for name, p in net.named_parameters():
        entries.append({"name": name, "shape": list(p.shape), "kind": "param"})
        arrays.append(p.data)
    for name, b in net.named_buffers():
        entries.append({"name": name, "shape": list(b.shape), "kind": "buffer"})
        arrays.append(b)
    header = {
        "format_version": FORMAT_VERSION,
        "config": net.config.to_dict(),
        "skeleton_hash": skeleton_hash(net.skeleton),
        "training": training_meta or {},
        "tensors": entries,
    }
    line = json.dumps(header, sort_keys=True, allow_nan=False)
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8") + b"\n")
        for arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, skeleton: SkeletonGraph | None = None
                    ) -> tuple[Network, dict]:
    """Rebuild the network described by the file and fill its tensors."""
    if skeleton is None:
        skeleton = build_skeleton()
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint header in {path}") from exc
        _require_keys(header, (), "checkpoint header")
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version!r} unsupported "
                f"(expected {FORMAT_VERSION})")
        _require_keys(header, ("config", "skeleton_hash", "training", "tensors"),
                      "checkpoint header")
        if not isinstance(header["tensors"], list):
            raise CheckpointError("checkpoint tensor manifest is not a list")
        for entry in header["tensors"]:
            _check_tensor_entry(entry)
        if header["skeleton_hash"] != skeleton_hash(skeleton):
            raise CheckpointError(
                "checkpoint was written for a different skeleton")
        blob = fh.read()

    try:
        config = NetworkConfig.from_dict(header["config"])
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from exc
    net = build_network(config, skeleton, seed=0)
    tables = {"param": dict(net.named_parameters()),
              "buffer": dict(net.named_buffers())}

    counts = Counter(entry["name"] for entry in header["tensors"])
    repeated = sorted(name for name, n in counts.items() if n > 1)
    if repeated:
        raise CheckpointError(f"checkpoint names tensors more than once: {repeated}")
    missing = sorted(set().union(*tables.values()) - counts.keys())
    if missing:
        raise CheckpointError(f"checkpoint is missing tensors: {missing}")

    # each entry is checked against the network before its bytes are
    # read, so the byte count comes from a tensor that exists
    offset = 0
    for entry in header["tensors"]:
        kind, name, shape = entry["kind"], entry["name"], tuple(entry["shape"])
        if kind not in tables:
            raise CheckpointError(f"unknown tensor kind {kind!r}")
        if name not in tables[kind]:
            raise CheckpointError(f"unexpected {kind} {name!r}")
        target = tables[kind][name]
        if target.shape != shape:
            raise CheckpointError(
                f"{kind} {name!r} shape {shape} does not match {target.shape}")
        nbytes = 8 * target.size
        chunk = blob[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"truncated checkpoint at tensor {name}")
        offset += nbytes
        values = np.frombuffer(chunk, dtype="<f8").reshape(shape)
        if kind == "param":
            target.data = values.copy()
        else:
            target[...] = values
    if offset != len(blob):
        raise CheckpointError("checkpoint has trailing bytes")
    return net, header["training"]

