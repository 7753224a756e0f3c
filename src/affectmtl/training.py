"""Experiment configuration, the joint training loop, and evaluation runs.

The coupling mode is pure configuration: co-annotation rewrites labels before
training, soft co-annotation precomputes soft emotion targets for AU-labeled
samples, and distribution matching adds a prediction-alignment term each step.
:func:`build_objective` does all of that once per run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import labels as lab
from . import relatedness as rel
from .errors import ConfigError, DataError, NumericalError
from .losses import (
    LossReport,
    LossWeights,
    SoftTargets,
    ccc_loss_grad,
    dm_loss_grad,
    masked_bce_grad,
    sca_loss_grad,
    softmax_ce_grad,
    total_mt_loss,
)
from .metrics import ConfusionMatrix, au_metrics, classification_metrics, va_metrics
from .model import MultiHeadModel, SGDMomentum, gradient_check, median_filter
from .scheduler import next_joint_batch, plan_epoch

COUPLING_MODES = ("none", "co_annotation", "soft_co_annotation", "distr_matching", "soft_plus_dm")
SCA_MODES = ("soft_co_annotation", "soft_plus_dm")
DM_MODES = ("distr_matching", "soft_plus_dm")
SET_NAMES = ("va", "au", "expr")
TASK_NAMES = ("expr", "au", "va")
COUPLING_NAMES = ("sca", "dm")

# The keys a config may hold, section by section; a dict value is a section
# whose own keys are checked too. The top level matches ``to_dict``.
CONFIG_KEYS = {
    **dict.fromkeys(("data", "coupling", "reweight_observational", "max_batch", "epochs",
                     "holdout_fraction", "median_filter_window", "seed", "out_dir")),
    "relatedness": dict.fromkeys(("source", "path", "corpus", "threshold")),
    "loss_weights": {"tasks": dict.fromkeys(TASK_NAMES),
                     "couplings": dict.fromkeys(COUPLING_NAMES), "epsilon": None},
    "model": {"hidden": None},
    "optimizer": dict.fromkeys(("lr", "momentum")),
}


def _check_keys(d, allowed: dict, where: str = "config") -> None:
    """Reject keys that no setting reads, so a typo cannot fall back to a default."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")
    for key, section in allowed.items():
        if section is not None and key in d:
            _check_keys(d[key], section, f"{where}.{key}")


def _exact(d: dict, key: str, default, *kinds: type):
    """``d[key]`` (``default`` when absent), whose own type must be one of
    ``kinds``: no float or bool is truncated to an int, no string or bool is
    read as a number, and nothing is made a string."""
    if type(value := d.get(key, default)) not in kinds:
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ConfigError(f"{key} must be of type {names}, got {value!r}")
    return value


_NUMBER = (int, float)  # a JSON number


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one training run."""

    data: dict = field(default_factory=dict)  # set name -> CSV path
    relatedness: dict = field(default_factory=lambda: {"source": "domain"})
    coupling: str = "none"
    reweight_observational: bool = True
    loss_weights: LossWeights = field(default_factory=LossWeights)
    hidden: tuple = (64, 64)
    max_batch: int = 200
    epochs: int = 10
    lr: float = 1e-4
    momentum: float = 0.9
    holdout_fraction: float = 0.2
    median_filter_window: int = 5
    seed: int = 0
    out_dir: str = "runs/run"

    def __post_init__(self):
        if self.coupling not in COUPLING_MODES:
            raise ConfigError(f"invalid coupling mode {self.coupling!r}")
        if not self.data:
            raise ConfigError("no datasets configured")
        for name in self.data:
            if name not in SET_NAMES:
                raise ConfigError(f"unknown dataset set {name!r}")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must be in [0, 1)")
        if self.epochs < 1 or self.max_batch < 1:
            raise ConfigError("epochs and max_batch must be >= 1")
        paths = [*self.data.values(), *(self.relatedness.get(k, "") for k in ("path", "corpus"))]
        if not all(isinstance(p, str) for p in paths):
            raise ConfigError("data and relatedness paths must be strings")
        if type(self.reweight_observational) is not bool:
            raise ConfigError("reweight_observational must be true or false")
        threshold = self.relatedness.get("threshold", 0.1)
        if type(threshold) not in _NUMBER:
            raise ConfigError(f"relatedness.threshold must be a number, got {threshold!r}")
        if not all(type(h) is int and h > 0 for h in self.hidden):
            raise ConfigError(f"model.hidden must list positive ints, got {list(self.hidden)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.median_filter_window < 1 or self.median_filter_window % 2 == 0:
            raise ConfigError("median_filter_window must be odd and >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0 and 0.0 <= self.momentum < 1.0):
            raise ConfigError("optimizer needs a finite lr > 0 and a momentum in [0, 1)")

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        _check_keys(d, CONFIG_KEYS)
        lw, opt = d.get("loss_weights", {}), d.get("optimizer", {})
        tasks, couplings = lw.get("tasks", {}), lw.get("couplings", {})
        try:
            return cls(
                data=dict(d.get("data", {})),
                relatedness=dict(d.get("relatedness", {"source": "domain"})),
                coupling=d.get("coupling", "none"),
                reweight_observational=d.get("reweight_observational", True),
                loss_weights=LossWeights(
                    lambda_per_task={k: _exact(tasks, k, None, *_NUMBER) for k in tasks},
                    coupling_weights={k: _exact(couplings, k, None, *_NUMBER) for k in couplings},
                    epsilon=float(_exact(lw, "epsilon", 1e-7, *_NUMBER)),
                ),
                hidden=tuple(d.get("model", {}).get("hidden", (64, 64))),
                max_batch=_exact(d, "max_batch", 200, int),
                epochs=_exact(d, "epochs", 10, int),
                lr=float(_exact(opt, "lr", 1e-4, *_NUMBER)),
                momentum=float(_exact(opt, "momentum", 0.9, *_NUMBER)),
                holdout_fraction=float(_exact(d, "holdout_fraction", 0.2, *_NUMBER)),
                median_filter_window=_exact(d, "median_filter_window", 5, int),
                seed=_exact(d, "seed", 0, int),
                out_dir=_exact(d, "out_dir", "runs/run", str),
            )
        # OverflowError: float() of a huge int; DataError: LossWeights' range checks
        except (TypeError, ValueError, OverflowError, DataError) as e:
            raise ConfigError(f"malformed config: {e}") from e

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            d = json.loads(Path(path).read_text())
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        except ValueError as e:  # a JSONDecodeError, or bytes that are not UTF-8
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        return cls.from_dict(d)

    def to_dict(self) -> dict:
        return {
            "data": dict(self.data),
            "relatedness": dict(self.relatedness),
            "coupling": self.coupling,
            "reweight_observational": self.reweight_observational,
            "loss_weights": {
                "tasks": dict(self.loss_weights.lambda_per_task),
                "couplings": dict(self.loss_weights.coupling_weights),
                "epsilon": self.loss_weights.epsilon,
            },
            "model": {"hidden": list(self.hidden)},
            "max_batch": self.max_batch,
            "epochs": self.epochs,
            "optimizer": {"lr": self.lr, "momentum": self.momentum},
            "holdout_fraction": self.holdout_fraction,
            "median_filter_window": self.median_filter_window,
            "seed": self.seed,
            "out_dir": self.out_dir,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def load_relatedness(config: ExperimentConfig) -> rel.RelatednessTable:
    src = config.relatedness.get("source", "domain")
    if src == "domain":
        return rel.domain_table()
    if src == "file":
        if "path" not in config.relatedness:
            raise ConfigError("file relatedness needs a 'path'")
        path = Path(config.relatedness["path"])
        try:
            d = json.loads(path.read_text())
            if "entries" in d:
                return rel.RelatednessTable.from_dict(d)
            return rel.load_domain_table(path)
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise DataError(f"cannot read relatedness file {path}: {e!r}") from e
    if src == "empirical":
        corpus_path = config.relatedness.get("corpus")
        if corpus_path is None:
            raise ConfigError("empirical relatedness needs a 'corpus' path")
        return empirical_table(corpus_path, float(config.relatedness.get("threshold", 0.1)))
    raise ConfigError(f"unknown relatedness source {src!r}")


def empirical_table(corpus_path, threshold: float = 0.1) -> rel.RelatednessTable:
    """Infer a relatedness table from the rows of an annotation CSV that carry
    both an expression and AU labels."""
    data = lab.read_samples_csv(corpus_path)
    rows = np.intersect1d(data.expr_rows, data.au_rows)
    if not rows.size:
        raise DataError(f"corpus {corpus_path} has no co-annotated samples")
    return rel.infer_empirical(data.expr[rows], data.au[rows], threshold)


# -- joint objective -----------------------------------------------------


@dataclass(frozen=True)
class Objective:
    """The joint training loss of one run, built once by :func:`build_objective`.

    ``dm_matrix`` is the (classes, AUs) relatedness mixing matrix when
    distribution matching is on. ``sca_targets`` holds one soft emotion label
    per row of the AU set when soft co-annotation is on.
    """

    weights: LossWeights
    dm_matrix: np.ndarray | None = None
    sca_targets: np.ndarray | None = None


def build_objective(model, sets: dict, table, mode: str, weights: LossWeights,
                    reweight: bool = True) -> tuple[dict, Objective]:
    """Prepare a run's coupling: returns the label-rewritten sets and the objective.

    ``sets`` maps set name to its training :class:`~affectmtl.labels.SampleSet`.
    Co-annotation rewrites every set's labels; the soft modes compute every
    AU-set row's SCA target; the DM modes keep the mixing matrix.
    """
    if mode == "none":
        return sets, Objective(weights)
    heads = (model.head_spec["expr"][1], model.head_spec["au"][1])
    shape = (len(table.class_names), len(table.binary_label_names))
    if heads != shape:
        raise DataError(f"relatedness table shape {shape} does not match the expr/au heads {heads}")
    if mode == "co_annotation":
        sets = {name: lab.co_annotate(data, table) for name, data in sets.items()}
        return sets, Objective(weights)
    r = table.weight_matrix(reweight)
    sca = None
    if mode in SCA_MODES and "au" in sets:
        scores = lab.indicator_scores(sets["au"].au, r, reweight)
        sca = lab.EmotionSoftLabel.from_indicators(scores).q
    return sets, Objective(weights, r if mode in DM_MODES else None, sca)


def joint_loss_and_grads(model, sets: dict, batch: dict, objective: Objective):
    """Compute all loss terms on one joint batch.

    ``batch`` maps set name to the rows of ``sets[name]`` in the batch, as
    :func:`~affectmtl.scheduler.next_joint_batch` draws them. Returns
    (LossReport, parameter-gradient dict); the gradients correspond to the
    weighted total.
    """
    report, out_grads, cache = _joint_loss(model, sets, batch, objective)
    return report, model.backward(cache, out_grads)


def joint_loss_value(model, sets: dict, batch: dict, objective: Objective) -> float:
    return _joint_loss(model, sets, batch, objective)[0].total


def _joint_loss(model, sets, batch, objective: Objective):
    data = lab.SampleSet.concat([sets[name].take(rows) for name, rows in batch.items()])
    expr_rows, au_rows, va_rows = data.expr_rows, data.au_rows, data.va_rows
    out, cache = model.forward(data.features)
    w = objective.weights
    eps = w.epsilon
    g = {h: np.zeros_like(out[h]) for h in out}
    task_losses: dict = {}
    coupling_losses: dict = {}

    if expr_rows.size and "expr" in out:
        task_losses["expr"], grad = softmax_ce_grad(
            out["expr"][expr_rows], data.expr[expr_rows], eps)
        g["expr"][expr_rows] += w.task("expr") * grad

    if au_rows.size and "au" in out:
        task_losses["au"], grad = masked_bce_grad(
            out["au"][au_rows], data.au[au_rows], data.au_weights[au_rows], eps)
        g["au"][au_rows] += w.task("au") * grad

    if va_rows.size >= 2 and "va" in out:
        task_losses["va"], grad = ccc_loss_grad(data.va[va_rows], out["va"][va_rows])
        g["va"][va_rows] += w.task("va") * grad

    if objective.sca_targets is not None and len(batch.get("au", ())) and "expr" in out:
        names = list(batch)  # the AU set's rows follow those of the sets before it
        start = sum(len(batch[name]) for name in names[: names.index("au")])
        rows = np.arange(start, start + len(batch["au"]))
        q = objective.sca_targets[batch["au"]]
        coupling_losses["sca"], grad = sca_loss_grad(out["expr"][rows], q, eps)
        g["expr"][rows] += w.coupling("sca") * grad

    r = objective.dm_matrix
    if r is not None and "expr" in out and "au" in out:
        q = SoftTargets(q_binary=out["expr"] @ r)
        coupling_losses["dm"], grad_p, grad_q = dm_loss_grad(out["au"], q, eps)
        g["au"] += w.coupling("dm") * grad_p
        g["expr"] += w.coupling("dm") * (grad_q @ r.T)

    report = total_mt_loss(task_losses, coupling_losses, w)
    return report, g, cache


# -- training ------------------------------------------------------------


def _holdout_split(data, fraction, seed):
    """(training rows, held-out rows) of ``data``, each in file order."""
    held = np.zeros(len(data), dtype=bool)
    if fraction:
        n_eval = int(round(len(data) * fraction))
        held[np.random.default_rng(seed).permutation(len(data))[:n_eval]] = True
    return data.take(np.flatnonzero(~held)), data.take(np.flatnonzero(held))


def _validate_va_plan(plan, va_set_index):
    for it in range(plan.iteration_count):
        k = len(plan.slice_indices(va_set_index, it))
        if k == 1:
            raise ConfigError(
                "epoch plan produces a VA batch of size 1; CCC needs at least 2 "
                "(adjust max_batch or the VA set size)"
            )


def run_train(config: ExperimentConfig) -> dict:
    """Train per the config; write checkpoint, loss CSV, and manifest. Returns the manifest."""
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = load_relatedness(config)

    sets, heldout = {}, {}
    for si, name in enumerate(SET_NAMES):
        if name in config.data:
            sets[name], heldout[name] = _holdout_split(
                lab.read_samples_csv(config.data[name]), config.holdout_fraction,
                config.seed + 7919 * si)
    if not sets:
        raise ConfigError("no datasets configured")
    dims = {data.features.shape[1] for data in sets.values()}
    if len(dims) != 1:
        raise DataError(f"inconsistent feature dimensions across sets: {sorted(dims)}")
    input_dim = dims.pop()

    model = MultiHeadModel(input_dim, hidden=config.hidden, seed=config.seed)
    opt = SGDMomentum(model, lr=config.lr, momentum=config.momentum)
    sets, objective = build_objective(
        model, sets, table, config.coupling, config.loss_weights,
        config.reweight_observational,
    )

    set_names = list(sets)
    sizes = [len(sets[n]) for n in set_names]
    plan_summaries = []
    loss_csv = out_dir / "losses.csv"
    step = 0
    with open(loss_csv, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "epoch", "iteration"]
                   + LossReport.csv_header(TASK_NAMES, COUPLING_NAMES))
        for epoch in range(config.epochs):
            plan = plan_epoch(sizes, config.max_batch, seed=config.seed + 1000003 * epoch)
            if "va" in set_names:
                _validate_va_plan(plan, set_names.index("va"))
            if epoch == 0:
                plan_summaries.append(plan.summary())
            for it in range(plan.iteration_count):
                batch = dict(zip(set_names, next_joint_batch(plan, it)))
                report, grads = joint_loss_and_grads(model, sets, batch, objective)
                opt.step(model, grads)
                w.writerow([step, epoch, it]
                           + report.csv_row(TASK_NAMES, COUPLING_NAMES))
                step += 1

    ckpt = out_dir / "model.bin"
    model.save(ckpt)
    table.save(out_dir / "relatedness.json")

    eval_set = lab.SampleSet.concat(list(heldout.values()))
    final_metrics = (
        evaluate_model(model, eval_set, config.median_filter_window) if len(eval_set) else {}
    )
    manifest = {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "epoch_plans": plan_summaries,
        "steps": step,
        "final_metrics": final_metrics,
        "versions": _versions(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _versions() -> dict:
    from . import __version__

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "affectmtl": __version__,
    }


# -- evaluation ----------------------------------------------------------


def evaluate_model(model, data, median_window: int = 5) -> dict:
    """All applicable metrics on a :class:`~affectmtl.labels.SampleSet`; VA gets
    a median-filtered variant when every VA row has a sequence key."""
    if not len(data):
        raise DataError("nothing to evaluate")
    out, _ = model.forward(data.features)
    expr_rows, au_rows, va_rows = data.expr_rows, data.au_rows, data.va_rows
    results: dict = {}

    if expr_rows.size and "expr" in out:
        pred = np.argmax(out["expr"][expr_rows], axis=1)
        cm = ConfusionMatrix.from_labels(data.expr[expr_rows], pred, out["expr"].shape[1])
        results["expr"] = classification_metrics(cm)
        results["expr"]["confusion"] = cm.counts.tolist()

    if au_rows.size and "au" in out:
        results["au"] = au_metrics(out["au"][au_rows], data.au[au_rows])

    if va_rows.size >= 2 and "va" in out:
        pred, va, video = out["va"][va_rows], data.va[va_rows], data.video[va_rows]
        results["va"] = va_metrics(va, pred)
        if (video != "").all():
            filtered = _median_filter_by_video(video, data.frame[va_rows], pred, median_window)
            results["va_filtered"] = va_metrics(va, filtered)
    return results


def _median_filter_by_video(video, frame, predictions, window):
    """Median-filter each video's predictions in frame order; rows keep their order."""
    order, code = lab.frame_order(video, frame)
    first, last = np.searchsorted(code, code), np.searchsorted(code, code, side="right") - 1
    return median_filter(predictions[order], window, first, last)[np.argsort(order)]


def run_eval(checkpoint, dataset, out_path=None, median_window: int = 5) -> dict:
    """Evaluate a checkpoint on a dataset CSV; optionally write the JSON report."""
    if median_window < 1 or median_window % 2 == 0:
        raise ConfigError(f"median window must be odd and >= 1, got {median_window}")
    model = MultiHeadModel.load(checkpoint)
    results = evaluate_model(model, lab.read_samples_csv(dataset), median_window)
    if out_path is not None:
        Path(out_path).write_text(json.dumps(results, indent=2, sort_keys=True))
    return results


# -- gradient checking ---------------------------------------------------


def run_gradcheck(
    input_dim=16, hidden=(32, 32), batch_size=16, seed=0, modes=COUPLING_MODES,
    tolerance=1e-5,
):
    """Finite-difference check of the full training gradient for every coupling mode.

    Builds a small synthetic joint batch (all three label types), computes the
    analytic parameter gradients, and compares against central differences.
    Raises NumericalError if any mode exceeds the tolerance.
    """
    from .synthdata import GeneratorSpec, draw, split

    table = rel.domain_table()
    spec = GeneratorSpec(relatedness=table, feature_dim=input_dim, seed=seed)
    sets = dict(zip(SET_NAMES, split(draw(spec, 3 * max(2, batch_size // 3)))))
    batch = {name: np.arange(len(data)) for name, data in sets.items()}
    report = {}
    for mode in modes:
        model = MultiHeadModel(input_dim, hidden=hidden, seed=seed)
        mode_sets, objective = build_objective(model, sets, table, mode, LossWeights())
        err = gradient_check(
            model,
            value_fn=lambda m: joint_loss_value(m, mode_sets, batch, objective),
            grad_fn=lambda m: joint_loss_and_grads(m, mode_sets, batch, objective)[1],
            rng=np.random.default_rng(seed),
        )
        report[mode] = float(err)
    worst = max(report.values())
    if worst > tolerance:
        bad = {m: e for m, e in report.items() if e > tolerance}
        raise NumericalError(f"gradient check failed: {bad}")
    return report
