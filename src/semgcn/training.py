"""Loss, optimizer, learning-rate schedule, and the training loop.

The objective is squared joint-position error per pose, optionally plus
squared bone-vector error, averaged over the mini-batch.  Optimization
follows the published recipe: Adam at 1e-3, batches of 64, learning rate
halved when validation loss plateaus.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, field

import numpy as np

from .autodiff import NonFiniteError, ShapeError, Tape, Tensor, index_select, mul, scale, sub
from .network import Network
from .posedata import PoseDataset, centered_arrays, mpjpe
from .skeleton import SkeletonGraph, skeleton_hash


class TrainingError(RuntimeError):
    pass


class NonFiniteGradientError(TrainingError):
    def __init__(self, param_name: str):
        super().__init__(f"non-finite gradient for parameter {param_name!r}")
        self.param_name = param_name


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    decay_factor: float = 0.5
    plateau_patience: int = 5
    plateau_threshold: float = 1e-3
    plateau_cooldown: int | None = None  # None: same as patience
    max_epochs: int = 200
    use_bone_loss: bool = False
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def validate(self) -> None:
        if self.lr < 0:
            raise ValueError("lr must be >= 0")
        if not 0 < self.decay_factor < 1:
            raise ValueError("decay_factor must lie in (0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


def bone_vectors(j3d, g: SkeletonGraph):
    """Parent-minus-child vector for every non-root joint, (..., K-1, 3).

    Accepts a Tensor (differentiable) or a plain array.
    """
    parents = [p for p, _ in g.edges]
    children = [c for _, c in g.edges]
    if isinstance(j3d, Tensor):
        return sub(index_select(j3d, -2, parents), index_select(j3d, -2, children))
    j3d = np.asarray(j3d, dtype=np.float64)
    return j3d[..., parents, :] - j3d[..., children, :]


def pose_loss(pred: Tensor, gt, g: SkeletonGraph, use_bone: bool = False) -> Tensor:
    """Squared joint error (plus optional squared bone error) per pose,
    averaged over the batch."""
    gt_t = gt if isinstance(gt, Tensor) else Tensor(gt)
    if pred.shape != gt_t.shape:
        raise ShapeError(f"loss shape mismatch: {pred.shape} vs {gt_t.shape}")
    batch = pred.shape[0] if pred.ndim == 3 else 1
    diff = sub(pred, gt_t)
    loss = mul(diff, diff).sum()
    if use_bone:
        bdiff = sub(bone_vectors(pred, g), Tensor(bone_vectors(gt_t.data, g)))
        loss = loss + mul(bdiff, bdiff).sum()
    return scale(loss, 1.0 / batch)


class Adam:
    """Standard Adam with bias correction; deterministic given inputs."""

    def __init__(self, named_params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.named_params = list(named_params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.named_params}

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.named_params:
            g = p.grad
            if g is None:
                continue
            if not np.isfinite(g).all():
                raise NonFiniteGradientError(name)
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class PlateauScheduler:
    """Halve-on-plateau: decay when the best validation loss has not
    improved by the relative threshold for ``patience`` consecutive
    epochs, then hold for a cooldown period."""

    def __init__(self, lr: float, factor: float = 0.5, patience: int = 5,
                 threshold: float = 1e-3, cooldown: int | None = None):
        self.lr = float(lr)
        self.factor = float(factor)
        self.patience = int(patience)
        self.threshold = float(threshold)
        self.cooldown = int(patience if cooldown is None else cooldown)
        self._best = float("inf")
        self._bad_epochs = 0
        self._cooldown_left = 0

    def step(self, val_loss: float) -> float:
        if val_loss < self._best * (1.0 - self.threshold):
            self._best = val_loss
            self._bad_epochs = 0
        elif self._cooldown_left > 0:
            self._cooldown_left -= 1
        else:
            self._bad_epochs += 1
            if self._bad_epochs >= self.patience:
                self.lr *= self.factor
                self._bad_epochs = 0
                self._cooldown_left = self.cooldown
        return self.lr


@dataclass
class TrainResult:
    history: list[dict]
    best_epoch: int
    best_val_loss: float
    best_params: dict[str, np.ndarray]
    best_buffers: dict[str, np.ndarray]
    aborted: bool = False
    abort_reason: str = ""


def _snapshot(net: Network) -> tuple[dict, dict]:
    params = {name: p.data.copy() for name, p in net.named_parameters()}
    buffers = {name: b.copy() for name, b in net.named_buffers()}
    return params, buffers


def restore_snapshot(net: Network, params: dict[str, np.ndarray],
                     buffers: dict[str, np.ndarray]) -> None:
    for name, p in net.named_parameters():
        p.data = params[name].copy()
    for name, b in net.named_buffers():
        b[...] = buffers[name]


def predict(net: Network, x: np.ndarray, chunk: int = 512) -> np.ndarray:
    """Eval-mode predictions for ``x``, computed ``chunk`` rows at a time."""
    return np.concatenate([net.forward(x[start:start + chunk], train=False).data
                           for start in range(0, x.shape[0], chunk)])


def evaluate(net: Network, x: np.ndarray, y: np.ndarray, g: SkeletonGraph,
             use_bone: bool, chunk: int = 512) -> tuple[float, float]:
    """Validation loss and MPJPE (mm) in eval mode; the loss is the
    row-weighted mean of the per-chunk losses."""
    pred = predict(net, x, chunk)
    total = 0.0
    for start in range(0, x.shape[0], chunk):
        pb = pred[start:start + chunk]
        total += pose_loss(Tensor(pb), y[start:start + chunk], g,
                           use_bone).item() * pb.shape[0]
    return total / x.shape[0], mpjpe(pred, y)


def train(net: Network, train_ds: PoseDataset, val_ds: PoseDataset,
          cfg: TrainConfig, on_epoch=None) -> TrainResult:
    """Run the full recipe and keep the best-validation parameter snapshot.

    ``on_epoch``, when given, receives each epoch's log record as soon as
    it exists.  A non-finite loss or gradient aborts the run and returns
    the last good snapshot with ``aborted`` set.
    """
    cfg.validate()
    g = net.skeleton
    net_hash = skeleton_hash(g)
    for ds, tag in ((train_ds, "train"), (val_ds, "val")):
        if ds.skeleton_hash != net_hash:
            raise TrainingError(
                f"{tag} dataset skeleton hash {ds.skeleton_hash[:12]} does not "
                f"match the network's {net_hash[:12]}")

    x_train, y_train = centered_arrays(train_ds, root=g.root)
    x_val, y_val = centered_arrays(val_ds, root=g.root)
    opt = Adam(net.named_parameters(), lr=cfg.lr, beta1=cfg.adam_beta1,
               beta2=cfg.adam_beta2, eps=cfg.adam_eps)
    sched = PlateauScheduler(cfg.lr, factor=cfg.decay_factor,
                             patience=cfg.plateau_patience,
                             threshold=cfg.plateau_threshold,
                             cooldown=cfg.plateau_cooldown)
    rng = np.random.default_rng([cfg.seed, 0x5EED])
    n = x_train.shape[0]

    history: list[dict] = []
    best_params, best_buffers = _snapshot(net)
    best_val = float("inf")
    best_epoch = -1
    aborted = False
    abort_reason = ""

    for epoch in range(cfg.max_epochs):
        perm = rng.permutation(n)
        batch_losses = []
        try:
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                with Tape() as tape:
                    pred = net.forward(x_train[idx], train=True)
                    loss = pose_loss(pred, y_train[idx], g, cfg.use_bone_loss)
                    tape.backward(loss)
                batch_losses.append(loss.item())
                opt.step()
                net.zero_grad()
        except (NonFiniteError, NonFiniteGradientError) as exc:
            aborted = True
            abort_reason = str(exc)
            net.zero_grad()
            restore_snapshot(net, best_params, best_buffers)
            break

        val_loss, val_mpjpe = evaluate(net, x_val, y_val, g, cfg.use_bone_loss)
        lr = sched.step(val_loss)
        opt.lr = lr
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(batch_losses)),
            "val_loss": val_loss,
            "lr": lr,
            "val_mpjpe": val_mpjpe,
        }
        history.append(record)
        if on_epoch is not None:
            on_epoch(record)
        if val_loss < best_val:
            best_val = val_loss
            best_epoch = epoch
            best_params, best_buffers = _snapshot(net)

    return TrainResult(history=history, best_epoch=best_epoch,
                       best_val_loss=best_val, best_params=best_params,
                       best_buffers=best_buffers, aborted=aborted,
                       abort_reason=abort_reason)
