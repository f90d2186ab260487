"""Command-line runs at toy size: exit codes, the eval report, and configs
and checkpoints that name settings or tensors the network no longer has."""

import json

import numpy as np
import pytest

from semgcn import autodiff, verification
from semgcn.autodiff import grad_check
from semgcn.checkpoint import load_checkpoint
from semgcn.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from semgcn.posedata import centered_arrays, load_dataset, mpjpe
from semgcn.training import predict
from semgcn.verification import run_grad_checks

TOY = ["--channels", "4", "--blocks", "1", "--epochs", "1", "--batch-size", "8"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["gen-data", "--n", "20", "--seed", "0", "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def run_dir(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert main(["train", "--data", str(data_dir), "--out", str(out),
                 "--variant", "semgcn", *TOY]) == EXIT_OK
    return out


def eval_report(capsys, checkpoint, data_dir, *flags):
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(checkpoint), "--data",
                 str(data_dir), *flags]) == EXIT_OK
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("removed", [
    {"mask_init": "zeros"}, {"mask_init": "glorot"}, {"input_dim": 2},
    {"output_dim": 3}, {"nonlocal_embed": None}, {"decay_factor": 0.5},
    {"plateau_patience": 5}, {"plateau_threshold": 1e-3},
    {"plateau_cooldown": None}, {"channelwise_masks": False},
    {"channelwise_masks": True},
])
def test_config_naming_removed_setting_is_usage_error(data_dir, tmp_path,
                                                      removed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"variant": "semgcn", **removed}))
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out", str(out),
                 "--config", str(config), *TOY]) == EXIT_USAGE
    assert not out.exists()


def test_channelwise_masks_flag_is_usage_error(data_dir, tmp_path):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data_dir), "--out", str(out), *TOY,
              "--channelwise-masks"])
    assert exc.value.code == EXIT_USAGE
    assert not out.exists()


def test_unknown_variant_is_usage_error(data_dir, tmp_path):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", str(data_dir), "--out", str(out), *TOY,
              "--variant", "gcn"])
    assert exc.value.code == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--lr", "-1"], ["--batch-size", "0"],
                                   ["--lr", "nan"], ["--lr", "inf"],
                                   ["--epochs", "0"], ["--seed", "-1"]])
def test_invalid_training_setting_is_usage_error(data_dir, tmp_path, flags):
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out", str(out),
                 *TOY, *flags]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("setting", [{"channels": "8"}, {"lr": "0.1"},
                                     {"use_bone_loss": 1}, {"blocks": True},
                                     5, ["variant"]])
def test_config_of_wrong_type_is_usage_error(data_dir, tmp_path,
                                                   setting):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(setting))
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out", str(out),
                 "--config", str(config), "--epochs", "1"]) == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("key", ["config", "skeleton_hash", "tensors"])
def test_eval_of_header_without_key_is_data_error(run_dir, data_dir,
                                                  tmp_path, key):
    header, _, blob = (run_dir / "best.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header)
    del header[key]
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
    assert main(["eval", "--checkpoint", str(broken), "--data",
                 str(data_dir)]) == EXIT_DATA


@pytest.mark.parametrize("key, value", [
    ("shape", "ab"), ("shape", [2.0, 4]), ("shape", 8), ("name", ["x"]),
    ("kind", ["param"]), ("shape", [2, 2, 4.0]),
])
def test_eval_of_tensor_entry_of_wrong_type_is_data_error(run_dir, data_dir,
                                                          tmp_path, key, value):
    header, _, blob = (run_dir / "best.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header)
    header["tensors"][0][key] = value
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
    assert main(["eval", "--checkpoint", str(broken), "--data",
                 str(data_dir)]) == EXIT_DATA


def data_with_header(data_dir, broken, **changes):
    """A copy of ``data_dir`` in ``broken`` with ``changes`` set in the
    header of every split."""
    broken.mkdir()
    for split in ("train", "val", "test"):
        header, _, blob = (data_dir / f"{split}.poses").read_bytes() \
            .partition(b"\n")
        header = {**json.loads(header), **changes}
        (broken / f"{split}.poses").write_bytes(
            json.dumps(header).encode("utf-8") + b"\n" + blob)
    return broken


def command_on(command, data, run_dir, out):
    """``train`` into ``out``, or ``eval`` of the run's best checkpoint, on
    the dataset directory ``data``."""
    if command == "train":
        return ["train", "--data", str(data), "--out", str(out), *TOY]
    return ["eval", "--checkpoint", str(run_dir / "best.ckpt"), "--data",
            str(data)]


@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_with_old_header_keys_is_data_error(run_dir, data_dir,
                                                    tmp_path, caplog, capsys,
                                                    command):
    # the header as files carried it while the camera was a setting
    broken = data_with_header(data_dir, tmp_path / "data", seed=0,
                              noise_sigma=0.0, camera={
                                  "focal": 1000.0, "depth_min": 4000.0,
                                  "depth_max": 6000.0, "lateral_range": 300.0})
    out = tmp_path / "run"
    assert_one_line_data_error(command_on(command, broken, run_dir, out),
                               caplog, capsys, "unknown keys",
                               "['camera', 'noise_sigma', 'seed']")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_skeleton_hash_mismatch_is_data_error(run_dir, data_dir, tmp_path,
                                              command):
    broken = data_with_header(data_dir, tmp_path / "data",
                              skeleton_hash="deadbeef")
    out = tmp_path / "run"
    assert main(command_on(command, broken, run_dir, out)) == EXIT_DATA
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("joints", "16"), ("joints", None),
                                        ("count", "20"), ("count", None)])
def test_eval_of_dataset_with_non_numeric_header_field_is_data_error(
        run_dir, data_dir, tmp_path, key, value):
    broken = data_with_header(data_dir, tmp_path / "data", **{key: value})
    assert main(command_on("eval", broken, run_dir, None)) == EXIT_DATA


@pytest.mark.parametrize("key, value", [("skeleton_hash", 5),
                                        ("split", None)])
def test_train_on_dataset_with_non_string_header_field_is_data_error(
        data_dir, tmp_path, key, value):
    broken = data_with_header(data_dir, tmp_path / "data", **{key: value})
    out = tmp_path / "run"
    assert main(command_on("train", broken, None, out)) == EXIT_DATA
    assert not out.exists()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# at lr 1e200 the first Adam step's update overflows its float32 state,
# so at either batch size the run aborts in its first training step (an
# abort from the validation pass is test_training's)
@pytest.mark.parametrize("batch_size", ["8", "16"])
def test_diverging_run_ends_its_log_with_an_abort_record(data_dir, tmp_path,
                                                         batch_size):
    out = tmp_path / "run"
    with pytest.warns(RuntimeWarning, match="overflow encountered"):
        assert main(["train", "--data", str(data_dir), "--out", str(out),
                     *TOY, "--lr", "1e200", "--batch-size",
                     batch_size]) == EXIT_NUMERIC
    last = json.loads((out / "log.jsonl").read_text().splitlines()[-1])
    assert last["event"] == "aborted"
    assert set(last) == {"event", "reason", "epochs_run", "best_epoch"}
    assert "non-finite" in last["reason"]
    assert (last["epochs_run"], last["best_epoch"]) == (0, -1)
    # no epoch finished, so there is no best loss: null, not Infinity
    for name in ("final.ckpt", "best.ckpt"):
        header = (out / name).read_bytes().partition(b"\n")[0]
        training = json.loads(header, parse_constant=reject_constant)["training"]
        assert training["best_val_loss"] is None


def test_eval_reports_mpjpe_of_predictions(run_dir, data_dir, capsys):
    report = eval_report(capsys, run_dir / "best.ckpt", data_dir)
    net, _ = load_checkpoint(run_dir / "best.ckpt")
    x, y = centered_arrays(load_dataset(data_dir / "test.poses"))
    assert set(report) == {"checkpoint", "data", "count", "variant", "mpjpe_mm"}
    assert report["count"] == 2
    assert report["mpjpe_mm"] == mpjpe(predict(net, x), y)


def test_eval_has_no_calibration_flag(run_dir, data_dir):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(run_dir / "best.ckpt"), "--data",
              str(data_dir), "--no-calibration"])
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("count, joints", [(2, 8), (0, 16)])
def test_eval_of_dataset_with_wrong_shape_is_data_error(run_dir, data_dir,
                                                        tmp_path, count, joints):
    broken = tmp_path / "data"
    broken.mkdir()
    header, _, blob = (data_dir / "test.poses").read_bytes().partition(b"\n")
    header = json.loads(header)
    header.update(count=count, joints=joints)
    (broken / "test.poses").write_bytes(json.dumps(header).encode("utf-8")
                                        + b"\n" + blob[:count * joints * 5 * 8])
    assert main(["eval", "--checkpoint", str(run_dir / "best.ckpt"), "--data",
                 str(broken)]) == EXIT_DATA


def assert_one_line_data_error(argv, caplog, capsys, *words):
    capsys.readouterr()
    assert main(argv) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err
    [record] = [r for r in caplog.records if r.levelname == "ERROR"]
    message = record.getMessage()
    assert "\n" not in message
    for word in words:
        assert word in message


@pytest.mark.parametrize("content", [
    b"\xff{}", b"[" * 100_000 + b"]" * 100_000,
], ids=["not-utf8", "nested-100k-deep"])
def test_unreadable_config_file_is_data_error(data_dir, tmp_path, caplog,
                                              capsys, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    out = tmp_path / "run"
    assert_one_line_data_error(
        ["train", "--data", str(data_dir), "--out", str(out),
         "--config", str(config), *TOY],
        caplog, capsys, "cannot read config file")
    assert not out.exists()


def test_eval_of_header_with_removed_settings_is_data_error(run_dir, data_dir,
                                                           tmp_path, caplog,
                                                           capsys):
    # the config block as checkpoints carried it before input_dim,
    # output_dim, mask_init and nonlocal_embed became constants and
    # per-channel masks were removed
    header, _, blob = (run_dir / "best.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header)
    header["config"].update(input_dim=2, output_dim=3, mask_init="zeros",
                            nonlocal_embed=None, channelwise_masks=False)
    legacy = tmp_path / "legacy.ckpt"
    legacy.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8")
                       + b"\n" + blob)
    assert_one_line_data_error(
        ["eval", "--checkpoint", str(legacy), "--data", str(data_dir)],
        caplog, capsys, "unknown network config keys", "'input_dim'")


@pytest.mark.parametrize("flags", [[], ["--include-self"]])
def test_export_weights(run_dir, tmp_path, flags):
    out = tmp_path / "weights"
    assert main(["export-weights", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--out", str(out), *flags]) == EXIT_OK
    report = json.loads((out / "weight_report.json").read_text())
    assert report["aggregation"] == ("outgoing-mean-incl-self" if flags
                                     else "outgoing-mean-excl-self")
    # labels are checkpoint layer names: each one's logits are in the file
    header = json.loads((run_dir / "best.ckpt").read_bytes().partition(b"\n")[0])
    manifest = {entry["name"] for entry in header["tensors"]}
    assert report["layers"]
    for layer in report["layers"]:
        assert layer["label"] + ".mask" in manifest
        np.testing.assert_allclose(np.sum(layer["weights"], axis=-1), 1.0,
                                   atol=1e-12)
        # a trained mask has left uniform averaging
        assert layer["max_deviation_from_uniform"] \
            >= layer["mean_deviation_from_uniform"] > 0.0


@pytest.mark.parametrize("flag, value", [
    ("--noise-sigma", "-1"), ("--noise-sigma", "nan"), ("--noise-sigma", "inf"),
    ("--seed", "-1"),
])
def test_gen_data_with_invalid_flag_is_usage_error(tmp_path, flag, value):
    out = tmp_path / "data"
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--n", "20", flag, value, "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_grad_check_without_seeds_is_usage_error(capsys, seeds):
    with pytest.raises(SystemExit) as exc:
        main(["grad-check", "--seeds", seeds])
    assert exc.value.code == EXIT_USAGE
    assert "operation" not in capsys.readouterr().out


def test_eval_of_header_with_half_a_weight_pair_is_data_error(run_dir, data_dir,
                                                             tmp_path, caplog,
                                                             capsys):
    # checkpoints once stored each SemGConv's w as w0 and w1; one alone is
    # no weight, and the pair is no longer read either
    header, _, blob = (run_dir / "best.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header)
    entry = header["tensors"][0]
    assert entry["name"] == "input.conv.w"
    entry.update(name="input.conv.w0", shape=entry["shape"][1:])
    half = 8 * int(np.prod(entry["shape"]))
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(json.dumps(header).encode("utf-8") + b"\n"
                       + blob[:half] + blob[2 * half:])
    assert_one_line_data_error(
        ["eval", "--checkpoint", str(broken), "--data", str(data_dir)],
        caplog, capsys, "tensor entry 0 is", '"name": "input.conv.w0"',
        'expected {"kind": "param", "name": "input.conv.w", ')


def reverse_tensors(header, blob):
    """Manifest and payload both in reverse order: each tensor keeps its
    own bytes, but not the writer's order."""
    sizes = [8 * int(np.prod(entry["shape"])) for entry in header["tensors"]]
    ends = np.cumsum(sizes)
    chunks = [blob[end - size:end] for size, end in zip(sizes, ends)]
    header["tensors"].reverse()
    return b"".join(reversed(chunks))


# each of these loaded before the header and manifest were held to what
# save_checkpoint writes
@pytest.mark.parametrize("edit, words", [
    (lambda h, b: h.update(format_version=True), ["format version True,"]),
    (lambda h, b: h.update(format_version=1.0), ["format version 1.0,"]),
    (lambda h, b: h.update(comment="kept"), ["unknown keys ['comment']"]),
    (lambda h, b: h.update(training=5), ["'training'", "is 5, not an object"]),
    (lambda h, b: h.update(training=[1]),
     ["'training'", "is [1], not an object"]),
    (reverse_tensors,
     ["tensor entry 0 is", '"name": "blocks.0.bn2.running_var"',
      'expected {"kind": "param", "name": "input.conv.w", ']),
], ids=["version-true", "version-1.0", "unknown-key", "training-5",
        "training-list", "reversed"])
def test_eval_of_checkpoint_the_writer_never_writes_is_data_error(
        run_dir, data_dir, tmp_path, caplog, capsys, edit, words):
    header, _, blob = (run_dir / "best.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header)
    blob = edit(header, blob) or blob
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
    assert_one_line_data_error(
        ["eval", "--checkpoint", str(broken), "--data", str(data_dir)],
        caplog, capsys, *words)


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("version, shown", [(True, "True"), (1.0, "1.0")])
def test_dataset_of_version_the_writer_never_writes_is_data_error(
        run_dir, data_dir, tmp_path, caplog, capsys, command, version, shown):
    broken = data_with_header(data_dir, tmp_path / "data", version=version)
    out = tmp_path / "run"
    assert_one_line_data_error(command_on(command, broken, run_dir, out),
                               caplog, capsys, f"format version {shown},")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_dataset_with_trailing_bytes_is_data_error(run_dir, data_dir, tmp_path,
                                                   caplog, capsys, command):
    broken = data_with_header(data_dir, tmp_path / "data")
    for split in ("train", "val", "test"):
        path = broken / f"{split}.poses"
        path.write_bytes(path.read_bytes() + bytes(8))
    out = tmp_path / "run"
    assert_one_line_data_error(command_on(command, broken, run_dir, out),
                               caplog, capsys, "8 trailing bytes")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_with_non_finite_value_is_data_error(run_dir, data_dir,
                                                     tmp_path, caplog, capsys,
                                                     command, value):
    broken = data_with_header(data_dir, tmp_path / "data")
    for split in ("train", "val", "test"):
        path = broken / f"{split}.poses"
        # the last value: v of the last joint of the last sample
        path.write_bytes(path.read_bytes()[:-8]
                         + np.array(value, "<f8").tobytes())
    out = tmp_path / "run"
    first = broken / ("train.poses" if command == "train" else "test.poses")
    assert_one_line_data_error(command_on(command, broken, run_dir, out),
                               caplog, capsys, str(first),
                               f"non-finite value {value}")
    assert not out.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_eval_of_checkpoint_with_non_finite_value_is_data_error(
        run_dir, data_dir, tmp_path, caplog, capsys, value):
    header, _, blob = (run_dir / "best.ckpt").read_bytes().partition(b"\n")
    broken = tmp_path / "broken.ckpt"
    # the first value of the first tensor, input.conv.w
    broken.write_bytes(header + b"\n" + np.array(value, "<f8").tobytes()
                       + blob[8:])
    assert_one_line_data_error(
        ["eval", "--checkpoint", str(broken), "--data", str(data_dir)],
        caplog, capsys, str(broken), f"non-finite value {value} at payload "
        "index 0")


def test_eval_of_checkpoint_with_negative_running_variance_is_data_error(
        run_dir, data_dir, tmp_path, caplog, capsys):
    # loading refuses it, so eval neither warns nor exits EXIT_NUMERIC
    # on the stage's NaN scale
    header, _, blob = (run_dir / "best.ckpt").read_bytes().partition(b"\n")
    entries = json.loads(header)["tensors"]
    i = [entry["name"] for entry in entries].index("input.bn.running_var")
    offset = 8 * sum(int(np.prod(entry["shape"])) for entry in entries[:i])
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(header + b"\n" + blob[:offset]
                       + np.array(-2.0, "<f8").tobytes() + blob[offset + 8:])
    assert_one_line_data_error(
        ["eval", "--checkpoint", str(broken), "--data", str(data_dir)],
        caplog, capsys, "input.bn.running_var", "negative variance -2.0")


def test_eval_of_header_with_channelwise_masks_is_data_error(run_dir, data_dir,
                                                            tmp_path, caplog):
    header, _, blob = (run_dir / "best.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header)
    header["config"]["channelwise_masks"] = True
    broken = tmp_path / "broken.ckpt"
    broken.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blob)
    assert main(["eval", "--checkpoint", str(broken), "--data",
                 str(data_dir)]) == EXIT_DATA
    assert "channelwise_masks" in caplog.text


def test_eval_of_missing_checkpoint_is_data_error(data_dir, tmp_path, capsys):
    assert main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"),
                 "--data", str(data_dir)]) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


def test_train_on_directory_without_splits_is_data_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--data", str(tmp_path), "--out", str(out),
                 *TOY]) == EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_grad_check_passes(capsys):
    assert main(["grad-check", "--seeds", "1"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out


def test_grad_checks_pass_at_the_default_seeds():
    # the sweep `semgcn grad-check` runs by default: 5 seeds of 7 cases
    rows = run_grad_checks()
    assert len(rows) == 35
    assert [row for row in rows if not row.passed] == []


def test_grad_checks_compute_in_double_at_a_float32_compute_dtype(monkeypatch):
    # the oracle judges every backward pass whatever the compute dtype, so
    # each case is built and checked in double
    monkeypatch.setattr(autodiff, "DTYPE", np.float32)
    checked = []  # the dtype of every checked tensor and of every output

    def recording(f, inputs, probe=None):
        def traced(*args):
            out = f(*args)
            checked.append(out.data.dtype)
            return out
        checked.extend(t.data.dtype for t in inputs)
        return grad_check(traced, inputs, probe)

    monkeypatch.setattr(verification, "grad_check", recording)
    rows = run_grad_checks()
    assert len(rows) == 35
    assert [row for row in rows if not row.passed] == []
    assert set(checked) == {np.dtype(np.float64)}
    assert autodiff.DTYPE is np.float32
