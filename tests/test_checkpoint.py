"""Checkpoint format: bitwise round trips, the written bytes pinned, and
loud failures on malformed files and on every layout but the current one."""

import hashlib
import json
import re

import numpy as np
import pytest

from semgcn import checkpoint
from semgcn.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from semgcn.network import VARIANTS, NetworkConfig, build_network
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
        assert q.data.flags.owndata and q.data.flags.writeable, name
    for (name, b), (name2, c) in zip(net.named_buffers(),
                                     loaded.named_buffers()):
        assert name == name2 and np.array_equal(b, c), name
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, loaded, meta)
    assert again.read_bytes() == ckpt.read_bytes()
    x, _ = centered_arrays(generate_synthetic(6, seed=1, skeleton=skel))
    assert np.array_equal(predict(loaded, x), predict(net, x))


# sha256 of the file save_checkpoint writes for a seed-0 build at 4
# channels and 1 block with no training metadata.  The loader reads this
# layout alone, so a change to these bytes makes every checkpoint written
# before it unreadable: such a change must be deliberate.
WRITTEN_SHA256 = {
    "semgcn": "f6855f2c87ef57400148a034830e1cc2ac3718a728a1e4a84229c7581f362bd5",
    "semgcn-nonl-only":
        "f6b2fcac7237736c155b711b7b1300c261f3da9019c3ab47d063aeb1ae79f1e4",
    "semgcn-conv-only":
        "81ce2edd062c341fc18fd696a36692caf725b9bdf0697cad47e2a8c24ec199ed",
    "resgcn": "6e9f6335a994e57a3dd7099b2eb8948b4bde77970ae9c5396da9553f03e78420",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_written_bytes_are_pinned(skel, tmp_path, variant):
    path = tmp_path / "net.ckpt"
    config = NetworkConfig(variant=variant, channels=4, blocks=1)
    save_checkpoint(path, build_network(config, skel, seed=0), {})
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        WRITTEN_SHA256[variant]


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


def add_removed_settings(header):
    """The config block as checkpoints carried it before input_dim,
    output_dim, mask_init and nonlocal_embed became constants and
    per-channel masks were removed."""
    header["config"].update(input_dim=2, output_dim=3, mask_init="zeros",
                            nonlocal_embed=None, channelwise_masks=False)


@pytest.mark.parametrize("supersede, match", [
    (split_semgconv_weights,
     r'entry 0 is .*"input\.conv\.w0".*expected .*"input\.conv\.w"'),
    (join_affinity_weights, r'is .*"input\.nonlocal\.wf_w".*'
                            r'expected .*"input\.nonlocal\.wf_q"'),
    (add_removed_settings, r"unknown network config keys.*'input_dim'"),
], ids=["split_weights", "joined_affinity_weights", "removed_settings"])
def test_superseded_layout_rejected(ckpt, skel, supersede, match):
    # each older layout over the current bytes: none is converted
    header, blob = read(ckpt)
    supersede(header)
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match=match):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("value", [True, False, 1, "false", None])
def test_header_with_channelwise_masks_rejected(ckpt, skel, value):
    header, blob = read(ckpt)
    header["config"]["channelwise_masks"] = value
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match="channelwise_masks"):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("name", ["input.conv.w", "blocks.0.bn2.running_var"])
def test_missing_tensor_rejected(ckpt, skel, name):
    header, blob = read(ckpt)
    lo, hi = span(header, name)
    header["tensors"] = [e for e in header["tensors"] if e["name"] != name]
    write(ckpt, header, blob[:lo] + blob[hi:])
    with pytest.raises(CheckpointError,
                       match=f'expected .*"{re.escape(name)}"'):
        load_checkpoint(ckpt, skel)


def test_repeated_tensor_rejected(ckpt, skel):
    header, blob = read(ckpt)
    lo, hi = span(header, "input.conv.w")
    entry = next(e for e in header["tensors"] if e["name"] == "input.conv.w")
    header["tensors"].append(entry)
    write(ckpt, header, blob + blob[lo:hi])
    with pytest.raises(CheckpointError,
                       match=r'is .*"input\.conv\.w".*, expected nothing'):
        load_checkpoint(ckpt, skel)


def test_unexpected_tensor_rejected(ckpt, skel):
    header, blob = read(ckpt)
    header["tensors"].append({"name": "extra.w", "shape": [2], "kind": "param"})
    write(ckpt, header, blob + np.zeros(2).tobytes())
    with pytest.raises(CheckpointError,
                       match=r'is .*"extra\.w".*, expected nothing'):
        load_checkpoint(ckpt, skel)


def test_unknown_kind_rejected(ckpt, skel):
    header, blob = read(ckpt)
    header["tensors"][0]["kind"] = "state"
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError,
                       match=r'entry 0 is \{"kind": "state", '
                             r'"name": "input\.conv\.w"'):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("name, shape", [
    pytest.param("input.bn.gamma", [2, 2], id="input.bn.gamma"),
    pytest.param("input.bn.running_mean", [2, 2], id="input.bn.running_mean"),
    # 2**64 elements: a product of the shape in int64 wraps to 0
    pytest.param("input.bn.gamma", [2**32, 2**32], id="input.bn.gamma-overflow"),
])
def test_shape_mismatch_rejected(ckpt, skel, name, shape):
    # (4,) stored under another shape, over the same bytes
    header, blob = read(ckpt)
    entry = next(e for e in header["tensors"] if e["name"] == name)
    assert entry["shape"] == [4]
    entry["shape"] = shape
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match=f'"{re.escape(name)}", "shape": '
                       f'{re.escape(json.dumps(shape))}}}, expected'):
        load_checkpoint(ckpt, skel)


def test_truncated_payload_rejected(ckpt, skel):
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_rejected(ckpt, skel, value):
    header, blob = read(ckpt)
    lo, _ = span(header, "blocks.0.bn2.running_var")
    write(ckpt, header, blob[:lo] + np.array(value, "<f8").tobytes()
          + blob[lo + 8:])
    with pytest.raises(CheckpointError,
                       match=f"non-finite value {value} at payload index "
                             f"{lo // 8}$"):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("value", [-1e-300, -0.5])
def test_negative_running_variance_rejected(ckpt, skel, value):
    header, blob = read(ckpt)
    _, hi = span(header, "blocks.0.bn1.running_var")
    write(ckpt, header, blob[:hi - 8] + np.array(value, "<f8").tobytes()
          + blob[hi:])
    with pytest.raises(CheckpointError,
                       match=f"tensor blocks.0.bn1.running_var holds the "
                             f"negative variance {value}$"):
        load_checkpoint(ckpt, skel)


def test_zero_running_variance_loads(ckpt, skel):
    # a channel that was constant in every batch has variance 0, which
    # its eval stage handles (BN_EPS), so the writer can write it
    header, blob = read(ckpt)
    lo, _ = span(header, "input.bn.running_var")
    write(ckpt, header, blob[:lo] + bytes(8) + blob[lo + 8:])
    loaded, _ = load_checkpoint(ckpt, skel)
    assert loaded.input_bn.state.running_var[0] == 0.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_is_not_written(net, tmp_path, value):
    net.input_conv.w.data[0, 1, 2] = value
    path = tmp_path / "net.ckpt"
    with pytest.raises(ValueError, match="non-finite"):
        save_checkpoint(path, net)
    assert not path.exists()


def test_trailing_bytes_rejected(ckpt, skel):
    ckpt.write_bytes(ckpt.read_bytes() + bytes(8))
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(ckpt, skel)


def test_wrong_format_version_rejected(ckpt, skel):
    # true and 1.0 equal 1 in Python, but the writer writes neither
    header, blob = read(ckpt)
    for version in (2, True, 1.0):
        header["format_version"] = version
        write(ckpt, header, blob)
        with pytest.raises(CheckpointError,
                           match=f"format version {version!r},"):
            load_checkpoint(ckpt, skel)


def test_unreadable_header_rejected(tmp_path, skel):
    path = tmp_path / "bad.ckpt"
    # the second header is nested deeper than the JSON decoder recurses
    for line in (b"\xff\xfe not json", b"[" * 100_000 + b"]" * 100_000):
        path.write_bytes(line + b"\n" + bytes(16))
        with pytest.raises(CheckpointError, match="unreadable header"):
            load_checkpoint(path, skel)


@pytest.mark.parametrize("key", ["config", "skeleton_hash", "training", "tensors"])
def test_header_without_key_rejected(ckpt, skel, key):
    header, blob = read(ckpt)
    del header[key]
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match=f"lacks.*{key}"):
        load_checkpoint(ckpt, skel)


def test_header_with_unknown_key_rejected(ckpt, skel):
    header, blob = read(ckpt)
    header["comment"] = "kept"
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError, match=r"unknown keys \['comment'\]"):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("value", [5, [1]])
def test_training_metadata_of_wrong_type_rejected(ckpt, skel, value):
    header, blob = read(ckpt)
    header["training"] = value
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError,
                       match=f"'training'.*is {re.escape(repr(value))}, "
                             "not an object"):
        load_checkpoint(ckpt, skel)


def test_reversed_manifest_and_payload_rejected(ckpt, skel):
    # every tensor keeps its own bytes, but the file order is the writer's
    header, blob = read(ckpt)
    chunks = [blob[slice(*span(header, e["name"]))] for e in header["tensors"]]
    header["tensors"].reverse()
    write(ckpt, header, b"".join(reversed(chunks)))
    last = header["tensors"][0]["name"]
    with pytest.raises(CheckpointError, match=f'entry 0 is .*"{re.escape(last)}"'
                       r'.*expected .*"input\.conv\.w"'):
        load_checkpoint(ckpt, skel)


@pytest.mark.parametrize("key", ["name", "shape", "kind"])
def test_tensor_entry_without_key_rejected(ckpt, skel, key):
    header, blob = read(ckpt)
    del header["tensors"][1][key]
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError,
                       match=r'entry 1 is .*expected .*"input\.conv\.mask"'):
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
    ("shape", [16, 16.0]),
])
def test_tensor_entry_of_wrong_type_rejected(ckpt, skel, key, value):
    header, blob = read(ckpt)
    header["tensors"][1][key] = value
    write(ckpt, header, blob)
    with pytest.raises(CheckpointError,
                       match=r'entry 1 is .*expected .*"input\.conv\.mask"'):
        load_checkpoint(ckpt, skel)


def refuse_to_build(*args, **kwargs):
    raise AssertionError("build_network was called")


# each asks for more values than a toy payload holds: building the first
# would allocate ~300 GiB, the second overflows, and the third builds a
# billion blocks
OVERSIZED_CONFIGS = [{"channels": 200_000}, {"channels": 10**400},
                     {"blocks": 10**9}]


@pytest.mark.parametrize("change", OVERSIZED_CONFIGS,
                         ids=["channels-200000", "channels-1e400",
                              "blocks-1e9"])
def test_config_larger_than_its_payload_rejected_before_building(
        skel, tmp_path, monkeypatch, change):
    path = tmp_path / "resgcn.ckpt"
    save_checkpoint(path, build_network(NetworkConfig("resgcn", 4, 1), skel))
    header, blob = read(path)
    header["config"].update(change)
    write(path, header, blob)
    monkeypatch.setattr(checkpoint, "build_network", refuse_to_build)
    with pytest.raises(CheckpointError, match=r"needs more values than the "
                       f"{len(blob) // 8} its payload holds"):
        load_checkpoint(path, skel)
