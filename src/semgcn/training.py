"""Loss, optimizer, learning-rate schedule, and the training loop.

The objective is squared joint-position error per pose, optionally plus
squared bone-vector error, averaged over the mini-batch.  Optimization
follows the published recipe: Adam at 1e-3, batches of 64, learning rate
halved when validation loss plateaus.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from .autodiff import NonFiniteError, ShapeError, Tape, Tensor, squared_error
from .network import ConfigError, Network, check_field_types
from .posedata import PoseDataset, centered_arrays, mpjpe
from .skeleton import SkeletonGraph


class TrainingError(RuntimeError):
    pass


class NonFiniteGradientError(TrainingError):
    """An Adam step met a gradient, or made an update, that its float32
    state cannot hold; it says which and for which parameter."""

    def __init__(self, param_name: str, what: str, why: str):
        super().__init__(
            f"non-finite {what} for parameter {param_name!r}: {why}")
        self.param_name = param_name


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 200
    use_bone_loss: bool = False
    seed: int = 0
    # Adam at the standard settings of Kingma & Ba (arXiv 1412.6980);
    # un-annotated, so they are class attributes and not fields
    adam_beta1 = 0.9
    adam_beta2 = 0.999
    adam_eps = 1e-8

    def validate(self) -> None:
        check_field_types(self)
        if not 0 <= self.lr < math.inf:
            raise ConfigError("lr must be finite and >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")

    def to_dict(self) -> dict:
        return asdict(self)


def _incidence(g: SkeletonGraph) -> np.ndarray:
    """The (K-1, K) bone incidence matrix: +1 at each bone's parent joint
    and -1 at its child."""
    incidence = np.zeros((len(g.edges), g.num_joints))
    for bone, (parent, child) in enumerate(g.edges):
        incidence[bone, parent] = 1.0
        incidence[bone, child] = -1.0
    return incidence


def bone_vectors(j3d, g: SkeletonGraph) -> np.ndarray:
    """Parent-minus-child vector for every non-root joint, (..., K-1, 3):
    one product with the incidence matrix."""
    return _incidence(g) @ np.asarray(j3d)


def pose_loss(pred: Tensor, gt, g: SkeletonGraph, use_bone: bool = False) -> Tensor:
    """Squared joint error (plus optional squared bone error) per pose,
    averaged over the batch, as one tape node (:func:`squared_error`).
    The target ``gt`` is a constant."""
    gt = gt.data if isinstance(gt, Tensor) else np.asarray(gt)
    if pred.shape != gt.shape:
        raise ShapeError(f"loss shape mismatch: {pred.shape} vs {gt.shape}")
    batch = pred.shape[0] if pred.ndim == 3 else 1
    if not use_bone:
        return squared_error(pred, gt, 1.0 / batch)
    return squared_error(pred, gt, 1.0 / batch, _incidence(g),
                         bone_vectors(gt, g))


# Adam's moments and update temporaries are float32 whatever the compute
# dtype: at paper size the moments take 3.5 MB, not 7.0 in double.  Float32
# moments train as well as double ones (val MPJPE within the seed spread
# over five seeds), and the parameters, which keep the compute dtype, are
# the wide copy.
STATE_DTYPE = np.float32


class Adam:
    """Standard Adam with bias correction; deterministic given inputs.

    ``m``, ``v`` and the update are float32 (``STATE_DTYPE``): each
    gradient is rounded to it once, and the update is subtracted from the
    parameter in the parameter's dtype.  A gradient that is NaN or Inf, or
    whose square overflows float32, raises ``NonFiniteGradientError``
    before ``m``, ``v`` or the parameter change; so does a non-finite
    update, as under a huge learning rate, before the parameter moves.
    ``grad_sq_norms`` holds each parameter's squared gradient norm at the
    last step (0 for a parameter with no gradient).
    """

    def __init__(self, named_params, lr: float,
                 beta1: float = TrainConfig.adam_beta1,
                 beta2: float = TrainConfig.adam_beta2,
                 eps: float = TrainConfig.adam_eps):
        self.named_params = list(named_params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.grad_sq_norms = {name: 0.0 for name, _ in self.named_params}
        self._m = {name: np.zeros(p.shape, STATE_DTYPE)
                   for name, p in self.named_params}
        self._v = {name: np.zeros(p.shape, STATE_DTYPE)
                   for name, p in self.named_params}
        # two update temporaries of the largest parameter's size, shared:
        # per-parameter buffers would stay resident for nothing
        largest = max(p.size for _, p in self.named_params)
        self._scratch = np.empty((2, largest), STATE_DTYPE)

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        # an overflow still warns; the NaN that inf arithmetic then makes
        # (0 * inf, inf / inf) is caught by the checks below, which raise
        with np.errstate(invalid="ignore"):
            for name, p in self.named_params:
                g = p.grad
                if g is None:
                    self.grad_sq_norms[name] = 0.0
                    continue
                s1, s2 = (buf[:g.size].reshape(g.shape)
                          for buf in self._scratch)
                np.copyto(s1, g)
                np.multiply(s1, s1, out=s2)
                # summed in double, the squares cannot overflow: the sum
                # is finite exactly when every square is
                sq = float(s2.sum(dtype=np.double))
                if not math.isfinite(sq):
                    raise NonFiniteGradientError(
                        name, "gradient",
                        "NaN or Inf, or its square overflows float32")
                self.grad_sq_norms[name] = sq
                m = self._m[name]
                v = self._v[name]
                # the operation order of m += (1 - b1) * g, v += (1 - b2) *
                # (g * g) and p -= lr * (m / bc1) / (sqrt(v / bc2) + eps) on
                # float32 g, m and v, so the update is bitwise that of the
                # plain expressions
                m *= self.beta1
                s1 *= 1.0 - self.beta1
                m += s1
                v *= self.beta2
                s2 *= 1.0 - self.beta2
                v += s2
                np.divide(m, bc1, out=s1)
                s1 *= self.lr
                np.divide(v, bc2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += self.eps
                s1 /= s2
                if not np.isfinite(s1).all():
                    raise NonFiniteGradientError(
                        name, "update",
                        f"the float32 update is NaN or Inf at lr {self.lr:g}")
                p.data -= s1


class PlateauScheduler:
    """Halve-on-plateau: halve the rate when the best validation loss has
    not improved by the relative ``THRESHOLD`` for ``PATIENCE`` consecutive
    epochs, then hold for ``COOLDOWN`` epochs.  As in PyTorch's
    ``ReduceLROnPlateau``, every epoch counts the cooldown down and no
    epoch in it counts as bad."""

    FACTOR = 0.5
    PATIENCE = 5
    THRESHOLD = 1e-3
    COOLDOWN = 5

    def __init__(self, lr: float):
        self.lr = float(lr)
        self._best = float("inf")
        self._bad_epochs = 0
        self._cooldown_left = 0

    def step(self, val_loss: float) -> float:
        if val_loss < self._best * (1.0 - self.THRESHOLD):
            self._best = val_loss
            self._bad_epochs = 0
        elif self._cooldown_left == 0:
            self._bad_epochs += 1
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
        elif self._bad_epochs >= self.PATIENCE:
            self.lr *= self.FACTOR
            self._bad_epochs = 0
            self._cooldown_left = self.COOLDOWN
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


EVAL_CHUNK = 512  # rows per eval-mode forward pass


def predict(net: Network, x: np.ndarray) -> np.ndarray:
    """Eval-mode predictions for ``x``, computed ``EVAL_CHUNK`` rows at a time."""
    return np.concatenate([net.forward(x[start:start + EVAL_CHUNK], train=False).data
                           for start in range(0, x.shape[0], EVAL_CHUNK)])


def evaluate(net: Network, x: np.ndarray, y: np.ndarray, g: SkeletonGraph,
             use_bone: bool) -> tuple[float, float]:
    """Validation loss and MPJPE (mm) in eval mode; the loss is the
    row-weighted mean of the per-chunk losses."""
    pred = predict(net, x)
    total = 0.0
    for start in range(0, x.shape[0], EVAL_CHUNK):
        pb = pred[start:start + EVAL_CHUNK]
        total += pose_loss(Tensor(pb), y[start:start + EVAL_CHUNK], g,
                           use_bone).item() * pb.shape[0]
    return total / x.shape[0], mpjpe(pred, y)


def train_step(net: Network, opt: Adam, x: np.ndarray, y: np.ndarray,
               g: SkeletonGraph, use_bone: bool) -> float:
    """One optimization step on the batch ``x``, ``y``; returns its loss."""
    with Tape() as tape:
        loss = pose_loss(net.forward(x, train=True), y, g, use_bone)
        tape.backward(loss)
    opt.step()
    net.zero_grad()
    return loss.item()


def train(net: Network, train_ds: PoseDataset, val_ds: PoseDataset,
          cfg: TrainConfig, on_epoch=None) -> TrainResult:
    """Run the full recipe and keep the best-validation parameter snapshot.

    ``on_epoch``, when given, receives each epoch's log record as soon as
    it exists.  A record's ``wall_s`` spans the whole epoch, validation
    included; ``train_samples_per_s`` counts the training passes alone.
    ``grad_norm`` maps each layer group (``input``, ``blocks.<i>``,
    ``output``) to the mean over the epoch's steps of the L2 norm of its
    parameters' gradients.
    A non-finite loss, gradient or validation output aborts the run and
    returns the last good snapshot with ``aborted`` set.  The datasets'
    skeleton is the caller's to check.
    """
    cfg.validate()
    g = net.skeleton
    x_train, y_train = centered_arrays(train_ds, root=g.root)
    x_val, y_val = centered_arrays(val_ds, root=g.root)
    opt = Adam(net.named_parameters(), lr=cfg.lr)
    groups: dict[str, list[str]] = {}
    for name, _ in net.named_parameters():
        head, _, rest = name.partition(".")
        if head == "blocks":
            head += "." + rest.partition(".")[0]
        groups.setdefault(head, []).append(name)
    sched = PlateauScheduler(cfg.lr)
    rng = np.random.default_rng([cfg.seed, 0x5EED])
    n = x_train.shape[0]

    history: list[dict] = []
    best_params, best_buffers = _snapshot(net)
    best_val = float("inf")
    best_epoch = -1
    aborted = False
    abort_reason = ""

    for epoch in range(cfg.max_epochs):
        t_start = time.perf_counter()
        perm = rng.permutation(n)
        batch_losses = []
        norm_sums = dict.fromkeys(groups, 0.0)
        try:
            for start in range(0, n, cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                batch_losses.append(train_step(net, opt, x_train[idx],
                                               y_train[idx], g,
                                               cfg.use_bone_loss))
                for group, names in groups.items():
                    norm_sums[group] += math.sqrt(
                        sum(opt.grad_sq_norms[name] for name in names))
            t_trained = time.perf_counter()
            val_loss, val_mpjpe = evaluate(net, x_val, y_val, g,
                                           cfg.use_bone_loss)
        except (NonFiniteError, NonFiniteGradientError) as exc:
            aborted = True
            abort_reason = str(exc)
            net.zero_grad()
            restore_snapshot(net, best_params, best_buffers)
            break
        lr = sched.step(val_loss)
        opt.lr = lr
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(batch_losses)),
            "val_loss": val_loss,
            "lr": lr,
            "val_mpjpe": val_mpjpe,
            "wall_s": time.perf_counter() - t_start,
            "train_samples_per_s": n / (t_trained - t_start),
            "grad_norm": {group: total / len(batch_losses)
                          for group, total in norm_sums.items()},
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
