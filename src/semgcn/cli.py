"""Command-line entry point wiring data generation, training, evaluation,
gradient verification, and weight export into reproducible runs.

``train`` is configured by its flags alone: each sets the
``NetworkConfig`` or ``TrainConfig`` field its ``dest`` names, and one
left out keeps the field's default.

Exit codes: 0 success, 2 usage error, 3 data/compatibility error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import AnalysisError, export_weights, joint_weight_csv, report_to_json
from .autodiff import NonFiniteError
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .network import VARIANTS, ConfigError, NetworkConfig, build_network, count_params
from .posedata import (
    DatasetError,
    PoseDataset,
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


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


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


def _load_split(path: Path, skeleton) -> PoseDataset:
    """The dataset at ``path``, which must be posed on ``skeleton``."""
    ds = load_dataset(path)
    if ds.skeleton_hash != skeleton_hash(skeleton):
        raise DatasetError(f"skeleton hash {ds.skeleton_hash[:12]} of {path} "
                           f"does not match the network's")
    return ds


def _given(args, config_class) -> dict:
    """The flags given that set a field of ``config_class``."""
    return {f.name: getattr(args, f.name) for f in fields(config_class)
            if getattr(args, f.name) is not None}


def cmd_train(args) -> int:
    network, training = _given(args, NetworkConfig), _given(args, TrainConfig)
    net_cfg = NetworkConfig.from_dict(network)
    train_cfg = TrainConfig(**training)
    train_cfg.validate()

    skeleton = build_skeleton()
    data_dir = Path(args.data)
    train_ds = _load_split(data_dir / "train.poses", skeleton)
    val_ds = _load_split(data_dir / "val.poses", skeleton)
    net = build_network(net_cfg, skeleton, seed=train_cfg.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", {
        **network, **training, "resolved_network": net_cfg.to_dict(),
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

        result = train(net, train_ds, val_ds, train_cfg,
                       on_epoch=stream_record)
        if result.aborted:
            fh.write(json.dumps({"event": "aborted",
                                 "reason": result.abort_reason,
                                 "epochs_run": len(result.history),
                                 "best_epoch": result.best_epoch},
                                sort_keys=True) + "\n")

    meta = {"seed": train_cfg.seed, "best_epoch": result.best_epoch,
            "best_val_loss": (result.best_val_loss if result.best_epoch >= 0
                              else None),
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
    ds = _load_split(data_path, net.skeleton)

    x, y = centered_arrays(ds, root=net.skeleton.root)
    pred = predict(net, x)

    error = mpjpe(pred, y, root=net.skeleton.root)
    result = {
        "checkpoint": str(args.checkpoint), "data": str(data_path),
        "count": len(ds), "variant": net.config.variant, "mpjpe_mm": error,
    }
    print(f"MPJPE: {error:.3f} mm over {len(ds)} samples")
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
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--channels", type=int)
    p.add_argument("--blocks", type=int)
    p.add_argument("--epochs", type=int, dest="max_epochs")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--use-bone-loss", action="store_const", const=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint (MPJPE, mm)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True,
                   help="a .poses file, or a directory (uses test.poses)")
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
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "gen-data" and args.n < 10:
        parser.error("--n must be at least 10 (splits need one sample each)")
    if args.command == "gen-data" and not 0.0 <= args.noise_sigma < math.inf:
        parser.error("--noise-sigma must be finite and >= 0")
    if args.command == "gen-data" and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.command == "grad-check" and args.seeds < 1:
        parser.error("--seeds must be at least 1")
    try:
        return args.func(args)
    except (NonFiniteError, NonFiniteGradientError) as exc:
        log.error("numeric failure: %s", exc)
        return EXIT_NUMERIC
    except (DatasetError, CheckpointError, AnalysisError, TrainingError,
            OSError) as exc:
        log.error("%s", exc)
        return EXIT_DATA
    except ConfigError as exc:
        log.error("%s", exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
