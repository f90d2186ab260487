"""Versioned checkpoints: a network's config and tensors in one container.

The header holds the format version, the network config, the skeleton
hash, training metadata and the tensor manifest (each tensor's name,
shape and kind); the payload is every manifest entry's values, in
manifest order (see ``container``).  Round-trips are bitwise exact.

A loader accepts only what its writer writes: the manifest must be the
one ``save_checkpoint`` writes for the network its config builds, the
config exactly ``NetworkConfig``'s fields, so no older layout is
converted, and every running variance at least 0.
"""

from __future__ import annotations

import json
from itertools import zip_longest

import numpy as np

from . import container
from .network import ConfigError, Network, NetworkConfig, build_network
from .skeleton import SkeletonGraph, build_skeleton, skeleton_hash

FORMAT_VERSION = 1
_HEADER = {"config": dict, "skeleton_hash": str, "training": dict,
           "tensors": list}


class CheckpointError(ValueError):
    pass


def _manifest(net: Network) -> list[tuple[dict, np.ndarray]]:
    """Each tensor's manifest entry with its array, in file order."""
    params = [(name, "param", p.data) for name, p in net.named_parameters()]
    buffers = [(name, "buffer", b) for name, b in net.named_buffers()]
    return [({"name": name, "shape": list(a.shape), "kind": kind}, a)
            for name, kind, a in params + buffers]


def save_checkpoint(path, net: Network, training_meta: dict | None = None) -> None:
    manifest = _manifest(net)
    header = {
        "format_version": FORMAT_VERSION,
        "config": net.config.to_dict(),
        "skeleton_hash": skeleton_hash(net.skeleton),
        "training": training_meta or {},
        "tensors": [entry for entry, _ in manifest],
    }
    container.write(path, header, [array for _, array in manifest])


def load_checkpoint(path, skeleton: SkeletonGraph | None = None
                    ) -> tuple[Network, dict]:
    """Rebuild the network described by the file and fill its tensors."""
    if skeleton is None:
        skeleton = build_skeleton()
    header, payload = container.read(path, ("format_version", FORMAT_VERSION),
                                     _HEADER, CheckpointError)
    if header["skeleton_hash"] != skeleton_hash(skeleton):
        raise CheckpointError("checkpoint was written for a different skeleton")
    try:
        config = NetworkConfig.from_dict(header["config"])
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint config: {exc}") from exc
    net = build_network(config, skeleton, seed=0)
    manifest = _manifest(net)

    # canonical JSON text, as Python's == would take 1.0 or true for 1
    found = [json.dumps(entry, sort_keys=True) for entry in header["tensors"]]
    wanted = [json.dumps(entry, sort_keys=True) for entry, _ in manifest]
    if found != wanted:
        pairs = zip_longest(found, wanted, fillvalue="nothing")
        i, got, want = next((i, got, want) for i, (got, want)
                            in enumerate(pairs) if got != want)
        raise CheckpointError(f"checkpoint tensor entry {i} is {got}, "
                              f"expected {want}")

    values = payload(sum(array.size for _, array in manifest))
    offset = 0
    for entry, array in manifest:
        array[...] = values[offset:offset + array.size].reshape(array.shape)
        offset += array.size
        # a variance below zero would make an eval stage's scale NaN
        if entry["name"].endswith(".running_var") and (array < 0).any():
            raise CheckpointError(f"checkpoint tensor {entry['name']} holds "
                                  f"the negative variance {array.min()}")
    return net, header["training"]
