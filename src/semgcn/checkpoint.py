"""Versioned checkpoint container: JSON header plus named float64 blobs.

Layout: one UTF-8 JSON line (format version, network config, skeleton
hash, training metadata, tensor manifest) followed by the concatenation
of every manifest entry as little-endian float64 in manifest order.
Round-trips are bitwise exact.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

from .network import Network, NetworkConfig, build_network
from .skeleton import SkeletonGraph, build_skeleton, skeleton_hash

FORMAT_VERSION = 1


class CheckpointError(ValueError):
    pass


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
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
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
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format version {version!r} unsupported "
                f"(expected {FORMAT_VERSION})")
        if header["skeleton_hash"] != skeleton_hash(skeleton):
            raise CheckpointError(
                "checkpoint was written for a different skeleton")
        blob = fh.read()

    config = NetworkConfig.from_dict(header["config"])
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

    offset = 0
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        chunk = blob[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"truncated checkpoint at tensor {entry['name']}")
        offset += nbytes
        values = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        name, kind = entry["name"], entry["kind"]
        if kind not in tables:
            raise CheckpointError(f"unknown tensor kind {kind!r}")
        if name not in tables[kind]:
            raise CheckpointError(f"unexpected {kind} {name!r}")
        target = tables[kind][name]
        if target.shape != shape:
            raise CheckpointError(
                f"{kind} {name!r} shape {shape} does not match {target.shape}")
        if kind == "param":
            target.data = values
        else:
            target[...] = values
    if offset != len(blob):
        raise CheckpointError("checkpoint has trailing bytes")
    return net, header["training"]
