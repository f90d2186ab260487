"""Command-line entry point wiring data generation, training, evaluation,
gradient verification, and weight export into reproducible runs.

Exit codes: 0 success, 2 usage error, 3 data/compatibility error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .analysis import AnalysisError, export_weights, joint_weight_csv, report_to_json
from .autodiff import NonFiniteError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .network import ConfigError, NetworkConfig, build_network, count_params
from .posedata import (
    DatasetError,
    calibrate_scale,
    centered_arrays,
    generate_synthetic,
    load_dataset,
    mpjpe,
    save_dataset,
    split_dataset,
)
from .skeleton import build_skeleton, skeleton_hash
from .training import (
    NonFiniteGradientError,
    TrainConfig,
    TrainingError,
    predict,
    restore_snapshot,
    train,
)
from .verification import format_table, run_grad_checks

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

log = logging.getLogger("semgcn")

_NETWORK_KEYS = set(NetworkConfig.__dataclass_fields__)
_TRAIN_KEYS = set(TrainConfig.__dataclass_fields__)


def _setup_logging() -> None:
    level = os.environ.get("SEMGCN_LOG", "info").lower()
    levels = {"quiet": logging.WARNING, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        values = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetError(f"cannot read config file {path}: {exc}") from exc
    unknown = set(values) - _NETWORK_KEYS - _TRAIN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return values


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    ds = generate_synthetic(args.n, args.seed, noise_sigma=args.noise_sigma)
    parts = split_dataset(ds)
    for part in parts:
        save_dataset(part, out / f"{part.split}.poses")
    _write_json(out / "gen_config.json", {
        "n": args.n, "seed": args.seed, "noise_sigma": args.noise_sigma,
        "splits": {p.split: len(p) for p in parts},
        "skeleton_hash": ds.skeleton_hash,
    })
    log.info("wrote %s samples to %s (train/val/test %s)", args.n, out,
             "/".join(str(len(p)) for p in parts))
    return EXIT_OK


def _resolve_run_config(args) -> dict:
    merged = _load_config_file(args.config)
    overrides = {
        "variant": args.variant, "channels": args.channels,
        "blocks": args.blocks, "channelwise_masks": args.channelwise_masks,
        "lr": args.lr, "batch_size": args.batch_size,
        "max_epochs": args.epochs, "seed": args.seed,
        "use_bone_loss": args.use_bone_loss,
    }
    merged.update({k: v for k, v in overrides.items() if v is not None})
    return merged


def cmd_train(args) -> int:
    merged = _resolve_run_config(args)
    net_cfg = NetworkConfig.from_dict({k: v for k, v in merged.items()
                                       if k in _NETWORK_KEYS})
    train_cfg = TrainConfig(**{k: v for k, v in merged.items()
                               if k in _TRAIN_KEYS})
    train_cfg.validate()

    data_dir = Path(args.data)
    train_ds = load_dataset(data_dir / "train.poses")
    val_ds = load_dataset(data_dir / "val.poses")

    skeleton = build_skeleton()
    net = build_network(net_cfg, skeleton, seed=train_cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", {
        **merged, "resolved_network": net_cfg.to_dict(),
        "resolved_training": train_cfg.to_dict(),
        "data": str(data_dir), "param_count": count_params(net),
    })

    log.info("training %s (%d params) for %d epochs on %d samples",
             net_cfg.variant, count_params(net), train_cfg.max_epochs,
             len(train_ds))
    with open(out / "log.jsonl", "w", encoding="utf-8") as fh:
        def stream_record(record):
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            log.debug("epoch %d: train %.1f val %.1f mpjpe %.2f",
                      record["epoch"], record["train_loss"],
                      record["val_loss"], record["val_mpjpe"])

        result = train(net, train_ds, val_ds, train_cfg,
                       on_epoch=stream_record)

    meta = {"seed": train_cfg.seed, "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss,
            "epochs_run": len(result.history), "aborted": result.aborted}
    save_checkpoint(out / "final.ckpt", net, {**meta, "which": "final"})
    restore_snapshot(net, result.best_params, result.best_buffers)
    save_checkpoint(out / "best.ckpt", net, {**meta, "which": "best"})

    if result.aborted:
        log.error("training diverged: %s", result.abort_reason)
        return EXIT_NUMERIC
    log.info("done: best val loss %.4f at epoch %d", result.best_val_loss,
             result.best_epoch)
    return EXIT_OK


def cmd_eval(args) -> int:
    net, _meta = load_checkpoint(args.checkpoint)
    data_path = Path(args.data)
    if data_path.is_dir():
        data_path = data_path / "test.poses"
    ds = load_dataset(data_path)
    if ds.skeleton_hash != skeleton_hash(net.skeleton):
        raise DatasetError("dataset skeleton does not match the checkpoint")

    x, y = centered_arrays(ds, root=net.skeleton.root)
    pred = predict(net, x)

    raw = mpjpe(pred, y, root=net.skeleton.root)
    calibrated = None
    if not args.no_calibration:
        scaled = np.stack([
            calibrate_scale(p - p[net.skeleton.root], net.skeleton)
            for p in pred])
        calibrated = mpjpe(scaled, y, root=net.skeleton.root)

    result = {
        "checkpoint": str(args.checkpoint), "data": str(data_path),
        "count": len(ds), "variant": net.config.variant,
        "mpjpe_raw_mm": raw, "mpjpe_calibrated_mm": calibrated,
        "mpjpe_mm": raw if calibrated is None else calibrated,
    }
    if calibrated is None:
        print(f"MPJPE (no calibration): {raw:.3f} mm over {len(ds)} samples")
    else:
        print(f"MPJPE (calibrated): {calibrated:.3f} mm | "
              f"raw: {raw:.3f} mm over {len(ds)} samples")
    print(json.dumps(result, sort_keys=True))
    if args.out:
        _write_json(Path(args.out), result)
    return EXIT_OK


def cmd_grad_check(args) -> int:
    rows = run_grad_checks(seeds=range(args.seeds))
    print(format_table(rows))
    if all(row.passed for row in rows):
        return EXIT_OK
    log.error("gradient check failed for %s",
              sorted({r.name for r in rows if not r.passed}))
    return EXIT_NUMERIC


def cmd_export_weights(args) -> int:
    net, _meta = load_checkpoint(args.checkpoint)
    report = export_weights(net)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "weight_report.json").write_text(
        report_to_json(report, include_self=args.include_self),
        encoding="utf-8")
    (out / "joint_weights.csv").write_text(
        joint_weight_csv(report, include_self=args.include_self),
        encoding="utf-8")
    log.info("exported %d weight matrices to %s", len(report.matrices), out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semgcn",
        description="Semantic graph convolutions for 2D-to-3D pose lifting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--n", type=int, required=True, help="total sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=0.0,
                   help="Gaussian noise on 2D inputs, projected units")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a variant on a generated dataset")
    p.add_argument("--data", required=True, help="directory with *.poses splits")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--config", help="JSON config file; flags override it")
    p.add_argument("--variant", choices=("semgcn", "semgcn-nonl-only",
                                         "semgcn-conv-only", "resgcn"))
    p.add_argument("--channels", type=int)
    p.add_argument("--blocks", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--use-bone-loss", action="store_const", const=True)
    p.add_argument("--channelwise-masks", action="store_const", const=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint (MPJPE, mm)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="a .poses file, or a directory (uses test.poses)")
    p.add_argument("--no-calibration", action="store_true",
                   help="skip total-bone-length scale calibration")
    p.add_argument("--out", help="also write the JSON result here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check",
                       help="finite-difference check of every layer family")
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("export-weights",
                       help="export learned edge-weight matrices")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--include-self", action="store_true",
                   help="include self-loops in per-joint averages")
    p.set_defaults(func=cmd_export_weights)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen-data" and args.n < 10:
        parser.error("--n must be at least 10 (splits need one sample each)")
    try:
        return args.func(args)
    except (NonFiniteError, NonFiniteGradientError) as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    except (DatasetError, CheckpointError, AnalysisError, TrainingError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
