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
    # output_dim, mask_init and nonlocal_embed became constants and
    # per-channel masks were removed
    header, blob = read(ckpt)
    assert set(header["config"]) == {"variant", "channels", "blocks"}
    header["config"].update(input_dim=2, output_dim=3, mask_init="zeros",
                            nonlocal_embed=None, channelwise_masks=False)
    write(ckpt, header, blob)
    loaded, _ = load_checkpoint(ckpt, skel)
    assert loaded.config == net.config
    x, _ = centered_arrays(generate_synthetic(6, seed=1, skeleton=skel))
    assert np.array_equal(predict(loaded, x), predict(net, x))


def split_semgconv_weights(header):
    """The manifest as checkpoints stored it before each SemGConv's
    (2, in, out) ``w`` became one tensor: ``w0`` then ``w1``, over the
    same bytes."""
    tensors = []
    for entry in header["tensors"]:
        if entry["name"].endswith(".w") and len(entry["shape"]) == 3:
            stem, shape = entry["name"][:-2], entry["shape"][1:]
            tensors += [{"name": f"{stem}.w0", "shape": shape, "kind": "param"},
                        {"name": f"{stem}.w1", "shape": shape, "kind": "param"}]
        else:
            tensors.append(entry)
    assert len(tensors) == len(header["tensors"]) + 4  # four SemGConvs
    header["tensors"] = tensors


def test_header_with_split_weights_loads_bitwise(net, ckpt, skel):
    header, blob = read(ckpt)
    split_semgconv_weights(header)
    write(ckpt, header, blob)
    loaded, _ = load_checkpoint(ckpt, skel)
    for (name, p), (_, q) in zip(net.named_parameters(),
                                 loaded.named_parameters()):
        assert np.array_equal(p.data, q.data), name
    x, _ = centered_arrays(generate_synthetic(6, seed=1, skeleton=skel))
    assert np.array_equal(predict(loaded, x), predict(net, x))


@pytest.mark.parametrize("dropped", ["input.conv.w0", "blocks.0.conv2.w1"])
def test_header_with_half_a_weight_pair_rejected(ckpt, skel, dropped):
    header, blob = read(ckpt)
    split_semgconv_weights(header)
    lo, hi = span(header, dropped)
    header["tensors"] = [e for e in header["tensors"] if e["name"] != dropped]
    write(ckpt, header, blob[:lo] + blob[hi:])
    with pytest.raises(CheckpointError, match="without the other"):
        load_checkpoint(ckpt, skel)


def test_header_with_weight_pair_and_stacked_weight_rejected(ckpt, skel):
    header, blob = read(ckpt)
    lo, hi = span(header, "input.conv.w")
    stacked = next(e for e in header["tensors"] if e["name"] == "input.conv.w")
    split_semgconv_weights(header)
    header["tensors"].append(stacked)
    write(ckpt, header, blob + blob[lo:hi])
    with pytest.raises(CheckpointError, match="both input.conv.w and"):
        load_checkpoint(ckpt, skel)


def test_header_with_weight_pair_of_two_shapes_rejected(ckpt, skel):
    header, blob = read(ckpt)
    split_semgconv_weights(header)
    entry = next(e for e in header["tensors"] if e["name"] == "input.conv.w1")
    entry["shape"] = [int(np.prod(entry["shape"]))]  # same bytes, flat
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match="shapes.*differ"):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("value", [True, 1, "false", None])
def test_header_with_channelwise_masks_rejected(ckpt, skel, value):
    header, blob = read(ckpt)
    header["config"]["channelwise_masks"] = value
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match="channelwise_masks"):
        load_checkpoint(ckpt, skel)


def join_affinity_weights(header):
    """The manifest as checkpoints stored it before each non-local layer's
    (2E, 1) ``wf_w`` became ``wf_q`` and ``wf_k``: one entry over the same
    bytes, as the two halves are adjacent."""
    tensors = []
    for entry in header["tensors"]:
        if entry["name"].endswith(".wf_q"):
            stem = entry["name"][:-5]
            tensors.append({"name": f"{stem}.wf_w", "kind": "param",
                            "shape": [2 * entry["shape"][0], 1]})
        elif not entry["name"].endswith(".wf_k"):
            tensors.append(entry)
    assert len(tensors) == len(header["tensors"]) - 2  # two non-local layers
    header["tensors"] = tensors


def test_header_with_joined_affinity_weights_loads_bitwise(net, ckpt, skel,
                                                           tmp_path):
    header, blob = read(ckpt)
    join_affinity_weights(header)
    write(ckpt, header, blob)
    loaded, meta = load_checkpoint(ckpt, skel)
    for (name, p), (_, q) in zip(net.named_parameters(),
                                 loaded.named_parameters()):
        assert np.array_equal(p.data, q.data), name
        assert q.data.base is None, name
    x, _ = centered_arrays(generate_synthetic(6, seed=1, skeleton=skel))
    assert np.array_equal(predict(loaded, x), predict(net, x))
    # saved again, it is the current layout over the same bytes
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, loaded, meta)
    assert read(again)[1] == blob


@pytest.mark.parametrize("half", ["wf_q", "wf_k"])
def test_header_with_joined_and_split_affinity_weight_rejected(ckpt, skel,
                                                               half):
    header, blob = read(ckpt)
    name = f"blocks.0.nonlocal.{half}"
    lo, hi = span(header, name)
    kept = next(e for e in header["tensors"] if e["name"] == name)
    join_affinity_weights(header)
    header["tensors"].append(kept)
    write(ckpt, header, blob + blob[lo:hi])
    with pytest.raises(CheckpointError,
                       match=f"both blocks.0.nonlocal.wf_w and.*{half}"):
        load_checkpoint(ckpt, skel)


def test_header_with_odd_affinity_weight_rejected(ckpt, skel):
    header, blob = read(ckpt)
    join_affinity_weights(header)
    entry = next(e for e in header["tensors"]
                 if e["name"] == "input.nonlocal.wf_w")
    entry["shape"] = [1, entry["shape"][0]]  # same bytes, one row
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match="input.nonlocal.wf_w shape"):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("name", ["input.conv.w", "blocks.0.bn2.running_var"])
def test_missing_tensor_rejected(ckpt, skel, name):
    header, blob = read(ckpt)
    lo, hi = span(header, name)
    header["tensors"] = [e for e in header["tensors"] if e["name"] != name]
    write(ckpt, header, blob[:lo] + blob[hi:])
    with pytest.raises(CheckpointError, match=f"missing.*{name}"):
        load_checkpoint(ckpt, skel)


def test_repeated_tensor_rejected(ckpt, skel):
    header, blob = read(ckpt)
    lo, hi = span(header, "input.conv.w")
    entry = next(e for e in header["tensors"] if e["name"] == "input.conv.w")
    header["tensors"].append(entry)
    write(ckpt, header, blob + blob[lo:hi])
    with pytest.raises(CheckpointError, match="more than once.*input.conv.w"):
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


@pytest.mark.parametrize("key", ["config", "skeleton_hash", "training", "tensors"])
def test_header_without_key_rejected(ckpt, skel, key):
    header, blob = read(ckpt)
    del header[key]
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match=f"lacks.*{key}"):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("key", ["name", "shape", "kind"])
def test_tensor_entry_without_key_rejected(ckpt, skel, key):
    header, blob = read(ckpt)
    del header["tensors"][1][key]
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match=f"tensor entry lacks.*{key}"):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("config", [["semgcn"], {"channels": "4"}])
def test_malformed_config_rejected(ckpt, skel, config):
    header, blob = read(ckpt)
    header["config"] = config
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match="config"):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("key, value", [
    ("shape", "ab"), ("shape", [2.0, 4]), ("shape", 8), ("shape", [True, 4]),
    ("shape", [-4]), ("name", ["input.conv.w"]), ("kind", ["param"]),
])
def test_tensor_entry_of_wrong_type_rejected(ckpt, skel, key, value):
    header, blob = read(ckpt)
    header["tensors"][1][key] = value
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match="tensor entry"):
        load_checkpoint(ckpt, skel)
