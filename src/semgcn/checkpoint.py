"""Versioned checkpoint container: JSON header plus named float64 blobs.

Layout: one UTF-8 JSON line (format version, network config, skeleton
hash, training metadata, tensor manifest) followed by the concatenation
of every manifest entry as little-endian float64 in manifest order.
Round-trips are bitwise exact.

Compatibility rule: checkpoints written before a SemGConv's two weight
matrices became one ``w`` of shape (2, in, out) store them as the params
``<layer>.w0`` and ``<layer>.w1``.  Such a pair loads as
``w = stack(w0, w1)``.  A header with only one of the pair, or with both
the pair and ``<layer>.w``, is rejected.

Likewise, checkpoints written before a non-local layer's (2E, 1)
affinity weight became the two (E, 1) params ``wf_q`` and ``wf_k`` store
it as ``<layer>.wf_w``, which loads as ``wf_q = wf_w[:E]`` and
``wf_k = wf_w[E:]``.  A header with ``wf_w`` and either half is rejected.

Per-channel edge masks are gone: a config with ``channelwise_masks: true``
is rejected, and one with ``channelwise_masks: false`` loads as the shared
mask it always described.
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

    if isinstance(header["config"], dict) and \
            header["config"].get("channelwise_masks", False) is not False:
        raise CheckpointError(
            "checkpoint uses per-channel edge masks (channelwise_masks), "
            "a removed setting; only the shared mask is supported")
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

    stored = {}
    offset = 0
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        chunk = blob[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"truncated checkpoint at tensor {entry['name']}")
        offset += nbytes
        if entry["kind"] not in tables:
            raise CheckpointError(f"unknown tensor kind {entry['kind']!r}")
        values = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        stored[entry["name"]] = (entry["kind"], values)
    if offset != len(blob):
        raise CheckpointError("checkpoint has trailing bytes")
    _stack_legacy_weights(stored)
    _split_legacy_affinity_weights(stored)

    missing = sorted(set().union(*tables.values()) - stored.keys())
    if missing:
        raise CheckpointError(f"checkpoint is missing tensors: {missing}")
    for name, (kind, values) in stored.items():
        if name not in tables[kind]:
            raise CheckpointError(f"unexpected {kind} {name!r}")
        target = tables[kind][name]
        if target.shape != values.shape:
            raise CheckpointError(
                f"{kind} {name!r} shape {values.shape} does not match {target.shape}")
        if kind == "param":
            target.data = values
        else:
            target[...] = values
    return net, header["training"]


def _stack_legacy_weights(stored: dict[str, tuple[str, np.ndarray]]) -> None:
    """Replace each ``<layer>.w0``/``<layer>.w1`` param pair of ``stored``
    by ``<layer>.w = stack(w0, w1)`` (see the module docstring)."""
    layers = sorted({name[:-3] for name, (kind, _) in stored.items()
                     if kind == "param" and name.endswith((".w0", ".w1"))})
    for layer in layers:
        pair = (f"{layer}.w0", f"{layer}.w1")
        kinds = [stored[name][0] if name in stored else None for name in pair]
        if kinds != ["param", "param"]:
            raise CheckpointError(f"checkpoint has one of {list(pair)} "
                                  f"without the other")
        if f"{layer}.w" in stored:
            raise CheckpointError(f"checkpoint has both {layer}.w and "
                                  f"{list(pair)}")
        w0, w1 = (stored.pop(name)[1] for name in pair)
        if w0.shape != w1.shape:
            raise CheckpointError(f"checkpoint {list(pair)} shapes {w0.shape} "
                                  f"and {w1.shape} differ")
        stored[f"{layer}.w"] = ("param", np.stack([w0, w1]))


def _split_legacy_affinity_weights(stored: dict[str, tuple[str, np.ndarray]]
                                   ) -> None:
    """Replace each ``<layer>.wf_w`` param of ``stored`` by its halves
    ``<layer>.wf_q`` and ``<layer>.wf_k`` (see the module docstring)."""
    legacy = sorted(name for name, (kind, _) in stored.items()
                    if kind == "param" and name.endswith(".wf_w"))
    for name in legacy:
        layer = name[:-len(".wf_w")]
        halves = (f"{layer}.wf_q", f"{layer}.wf_k")
        present = [half for half in halves if half in stored]
        if present:
            raise CheckpointError(f"checkpoint has both {name} and {present}")
        wf = stored.pop(name)[1]
        if wf.ndim != 2 or wf.shape[0] % 2:
            raise CheckpointError(f"checkpoint {name} shape {wf.shape} is not "
                                  f"(2E, 1)")
        e = wf.shape[0] // 2
        stored[halves[0]] = ("param", wf[:e].copy())
        stored[halves[1]] = ("param", wf[e:].copy())
