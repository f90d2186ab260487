"""Checkpoint format: bitwise round trips, loading headers written before
settings were removed, and loud failures on malformed files."""

import json

import numpy as np
import pytest

from semgcn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from semgcn.network import NetworkConfig, build_network
from semgcn.posedata import centered_arrays, generate_synthetic
from semgcn.skeleton import build_skeleton
from semgcn.training import predict


@pytest.fixture(scope="module")
def skel():
    return build_skeleton()


@pytest.fixture
def net(skel):
    """A semgcn network whose every tensor differs from a seed-0 build, so
    a tensor left unloaded cannot go unnoticed."""
    net = build_network(NetworkConfig(channels=4, blocks=1), skel, seed=3)
    rng = np.random.default_rng(0)
    for _, p in net.named_parameters():
        p.data = p.data + rng.standard_normal(p.shape)
    for _, b in net.named_buffers():
        b[...] = rng.uniform(0.5, 2.0, b.shape)
    return net


@pytest.fixture
def ckpt(net, tmp_path):
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, net, {"which": "test"})
    return path


def read(path):
    header, _, blob = path.read_bytes().partition(b"\n")
    return json.loads(header), blob


def write(path, header, blob):
    path.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8")
                     + b"\n" + blob)


def span(header, name):
    """Byte range of tensor ``name`` in the payload."""
    offset = 0
    for entry in header["tensors"]:
        nbytes = int(np.prod(entry["shape"])) * 8
        if entry["name"] == name:
            return offset, offset + nbytes
        offset += nbytes
    raise KeyError(name)


def test_round_trip_bitwise(net, ckpt, skel, tmp_path):
    loaded, meta = load_checkpoint(ckpt, skel)
    assert meta == {"which": "test"}
    assert loaded.config == net.config
    for (name, p), (name2, q) in zip(net.named_parameters(),
                                     loaded.named_parameters()):
        assert name == name2 and np.array_equal(p.data, q.data), name
    for (name, b), (name2, c) in zip(net.named_buffers(),
                                     loaded.named_buffers()):
        assert name == name2 and np.array_equal(b, c), name
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, loaded, meta)
    assert again.read_bytes() == ckpt.read_bytes()


def test_header_with_removed_settings_loads_bitwise(net, ckpt, skel):
    # the config block as checkpoints carried it before input_dim,
    # output_dim, mask_init and nonlocal_embed became constants
    header, blob = read(ckpt)
    assert set(header["config"]) == {"variant", "channels", "blocks",
                                     "channelwise_masks"}
    header["config"].update(input_dim=2, output_dim=3, mask_init="zeros",
                            nonlocal_embed=None)
    write(ckpt, header, blob)
    loaded, _ = load_checkpoint(ckpt, skel)
    assert loaded.config == net.config
    x, _ = centered_arrays(generate_synthetic(6, seed=1, skeleton=skel))
    assert np.array_equal(predict(loaded, x), predict(net, x))


@pytest.mark.parametrize("name", ["input.conv.w0", "blocks.0.bn2.running_var"])
def test_missing_tensor_rejected(ckpt, skel, name):
    header, blob = read(ckpt)
    lo, hi = span(header, name)
    header["tensors"] = [e for e in header["tensors"] if e["name"] != name]
    write(ckpt, header, blob[:lo] + blob[hi:])
    with pytest.raises(CheckpointError, match=f"missing.*{name}"):
        load_checkpoint(ckpt, skel)


def test_repeated_tensor_rejected(ckpt, skel):
    header, blob = read(ckpt)
    lo, hi = span(header, "input.conv.w0")
    entry = next(e for e in header["tensors"] if e["name"] == "input.conv.w0")
    header["tensors"].append(entry)
    write(ckpt, header, blob + blob[lo:hi])
    with pytest.raises(CheckpointError, match="more than once.*input.conv.w0"):
        load_checkpoint(ckpt, skel)


def test_unexpected_tensor_rejected(ckpt, skel):
    header, blob = read(ckpt)
    header["tensors"].append({"name": "extra.w", "shape": [2], "kind": "param"})
    write(ckpt, header, blob + np.zeros(2).tobytes())
    with pytest.raises(CheckpointError, match="unexpected param 'extra.w'"):
        load_checkpoint(ckpt, skel)


def test_unknown_kind_rejected(ckpt, skel):
    header, blob = read(ckpt)
    header["tensors"][0]["kind"] = "state"
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match="unknown tensor kind"):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("name", ["input.bn.gamma", "input.bn.running_mean"])
def test_shape_mismatch_rejected(ckpt, skel, name):
    # same byte count, different shape: (4,) stored as (2, 2)
    header, blob = read(ckpt)
    entry = next(e for e in header["tensors"] if e["name"] == name)
    assert entry["shape"] == [4]
    entry["shape"] = [2, 2]
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(ckpt, skel)


def test_truncated_payload_rejected(ckpt, skel):
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(ckpt, skel)


def test_trailing_bytes_rejected(ckpt, skel):
    ckpt.write_bytes(ckpt.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(ckpt, skel)


def test_wrong_format_version_rejected(ckpt, skel):
    header, blob = read(ckpt)
    header["format_version"] = 2
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(ckpt, skel)


def test_unreadable_header_rejected(tmp_path, skel):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\xff\xfe not json\n" + bytes(16))
    with pytest.raises(CheckpointError, match="header"):
        load_checkpoint(path, skel)
