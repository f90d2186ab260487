"""Command-line runs at toy size: exit codes, the eval report, and configs
that name settings the network no longer has."""

import json

import numpy as np
import pytest

from semgcn.checkpoint import load_checkpoint
from semgcn.cli import EXIT_OK, EXIT_USAGE, main
from semgcn.posedata import centered_arrays, load_dataset, mpjpe
from semgcn.training import predict

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
    {"output_dim": 3}, {"nonlocal_embed": None},
])
def test_config_naming_removed_setting_is_usage_error(data_dir, tmp_path,
                                                      removed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"variant": "semgcn", **removed}))
    out = tmp_path / "run"
    assert main(["train", "--data", str(data_dir), "--out", str(out),
                 "--config", str(config), *TOY]) == EXIT_USAGE
    assert not out.exists()


def test_eval_reports_mpjpe_of_predictions(run_dir, data_dir, capsys):
    report = eval_report(capsys, run_dir / "best.ckpt", data_dir,
                         "--no-calibration")
    net, _ = load_checkpoint(run_dir / "best.ckpt")
    x, y = centered_arrays(load_dataset(data_dir / "test.poses"))
    assert report["count"] == 2 and report["mpjpe_calibrated_mm"] is None
    assert report["mpjpe_raw_mm"] == mpjpe(predict(net, x), y)
    assert report["mpjpe_mm"] == report["mpjpe_raw_mm"]


def test_eval_of_header_with_removed_settings_is_unchanged(run_dir, data_dir,
                                                          tmp_path, capsys):
    # the config block as checkpoints carried it before input_dim,
    # output_dim, mask_init and nonlocal_embed became constants
    header, _, blob = (run_dir / "best.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header)
    header["config"].update(input_dim=2, output_dim=3, mask_init="zeros",
                            nonlocal_embed=None)
    legacy = tmp_path / "legacy.ckpt"
    legacy.write_bytes(json.dumps(header, sort_keys=True).encode("utf-8")
                       + b"\n" + blob)
    before = eval_report(capsys, run_dir / "best.ckpt", data_dir)
    after = eval_report(capsys, legacy, data_dir)
    assert {k: v for k, v in after.items() if k != "checkpoint"} == \
        {k: v for k, v in before.items() if k != "checkpoint"}


@pytest.mark.parametrize("flags", [[], ["--include-self"]])
def test_export_weights(run_dir, tmp_path, flags):
    out = tmp_path / "weights"
    assert main(["export-weights", "--checkpoint", str(run_dir / "best.ckpt"),
                 "--out", str(out), *flags]) == EXIT_OK
    report = json.loads((out / "weight_report.json").read_text())
    assert report["aggregation"] == ("outgoing-mean-incl-self" if flags
                                     else "outgoing-mean-excl-self")
    for layer in report["layers"]:
        np.testing.assert_allclose(np.sum(layer["weights"], axis=-1), 1.0,
                                   atol=1e-12)


def test_grad_check_passes(capsys):
    assert main(["grad-check", "--seeds", "1"]) == EXIT_OK
    assert "FAIL" not in capsys.readouterr().out
