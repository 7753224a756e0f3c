"""Experiment configuration, the joint training loop, and evaluation runs.

The coupling mode is pure configuration: co-annotation rewrites labels before
training, soft co-annotation scores each step's AU-labelled rows against their
soft emotion labels, and distribution matching adds a prediction-alignment term
each step. :func:`build_objective` prepares a run's coupling once.
"""

import csv
import hashlib
import json
import math
import platform
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import csvio
from . import labels as lab
from . import relatedness as rel
from .errors import ConfigError, DataError, NumericalError, exact_keys, exact_type, read_json
from .losses import ccc_loss_grad, masked_bce_grad, sca_loss_grad, softmax_ce_grad
from .metrics import ConfusionMatrix, au_metrics, classification_metrics, va_metrics
from .model import MultiHeadModel, SGDMomentum, gradient_check, median_filter
from .scheduler import plan_epoch

COUPLING_MODES = ("none", "co_annotation", "soft_co_annotation", "distr_matching", "soft_plus_dm")
SCA_MODES = ("soft_co_annotation", "soft_plus_dm")
DM_MODES = ("distr_matching", "soft_plus_dm")
SET_NAMES = ("va", "au", "expr")
TASK_NAMES = ("expr", "au", "va")
COUPLING_NAMES = ("sca", "dm")
LOSS_NAMES = TASK_NAMES + COUPLING_NAMES  # the loss columns of losses.csv, before "total"
MEDIAN_WINDOW = 5  # frames in the sliding median of each video's VA predictions

# The JSON object that holds each nested setting; every other setting is a
# top-level key of the config. A setting's JSON type is its field's annotation.
SECTION = {"tasks": "loss_weights", "couplings": "loss_weights", "hidden": "model",
           "lr": "optimizer", "momentum": "optimizer"}
# The keys allowed in each setting that is itself a JSON object, and the type of each value
OBJECT_KEYS = {"data": dict.fromkeys(SET_NAMES, str),
               "relatedness": {"path": str},
               "tasks": dict.fromkeys(TASK_NAMES, float),
               "couplings": dict.fromkeys(COUPLING_NAMES, float)}


def _typed(value, kind: type, where: str):
    """``value``, whose own type must be ``kind`` (:func:`exact_type`); a float
    setting also takes an int, returned as a float. Nothing is truncated,
    converted from a string or bool, or made a string."""
    exact_type(value, (int, float) if kind is float else kind, where, ConfigError)
    try:
        return float(value) if kind is float else value
    except OverflowError as e:
        raise ConfigError(f"{where} is too large for a float") from e


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one training run: one field per setting
    of the JSON config, placed by :data:`SECTION` and checked on construction."""

    data: dict = field(default_factory=dict)  # set name -> CSV path
    relatedness: dict = field(default_factory=dict)  # {"path": table file}; {}: the bundled table
    coupling: str = "none"
    tasks: dict = field(default_factory=dict)  # task name -> loss weight
    couplings: dict = field(default_factory=dict)  # coupling name -> loss weight
    hidden: list = field(default_factory=lambda: [64, 64])
    max_batch: int = 200
    epochs: int = 10
    lr: float = 1e-4
    momentum: float = 0.9
    holdout_fraction: float = 0.2
    seed: int = 0
    out_dir: str = "runs/run"

    def __post_init__(self):
        for f in fields(self):
            where = f"{SECTION[f.name]}.{f.name}" if f.name in SECTION else f.name
            setattr(self, f.name, _typed(getattr(self, f.name), f.type, where))
            if f.name in OBJECT_KEYS:
                shape = OBJECT_KEYS[f.name]
                d = exact_keys(getattr(self, f.name), (), shape, f"config.{where}", ConfigError)
                for key, value in d.items():
                    _typed(value, shape[key], f"{where}.{key}")
        if self.coupling not in COUPLING_MODES:
            raise ConfigError(f"invalid coupling mode {self.coupling!r}")
        if not self.data:
            raise ConfigError("no datasets configured")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ConfigError("holdout_fraction must be in [0, 1)")
        if self.epochs < 1 or self.max_batch < 1:
            raise ConfigError("epochs and max_batch must be >= 1")
        if not all(exact_type(h, int, "model.hidden", ConfigError) > 0 for h in self.hidden):
            raise ConfigError(f"model.hidden must list positive ints, got {self.hidden}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.lr) and self.lr > 0 and 0.0 <= self.momentum < 1.0):
            raise ConfigError("optimizer needs a finite lr > 0 and a momentum in [0, 1)")
        for name, w in {**self.tasks, **self.couplings}.items():
            if not 0 <= w < math.inf:  # NaN fails too
                raise ConfigError(f"loss weight {w!r} for {name!r} is not finite and >= 0")

    @property
    def loss_weights(self) -> dict:
        """The weight of each loss term, by name; a term not set weighs 1."""
        set_weights = {**self.tasks, **self.couplings}
        return {name: float(set_weights.get(name, 1.0)) for name in LOSS_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        names = [f.name for f in fields(cls)]
        exact_keys(d, (), {SECTION.get(n, n) for n in names}, "config", ConfigError)
        sections = {s: d.get(s, {}) for s in SECTION.values()}
        for s, p in sections.items():
            exact_keys(p, (), {n for n in names if SECTION.get(n) == s}, f"config.{s}", ConfigError)
        # a nested setting is read from its section, any other from the top level
        holder = {n: sections[SECTION[n]] if n in SECTION else d for n in names}
        return cls(**{n: holder[n][n] for n in names if n in holder[n]})

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        return read_json(path, "config", ConfigError, cls.from_dict)

    def to_dict(self) -> dict:
        d: dict = {}
        for name, value in asdict(self).items():
            (d.setdefault(SECTION[name], {}) if name in SECTION else d)[name] = value
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def load_relatedness(config: ExperimentConfig) -> rel.RelatednessTable:
    """The table file of ``config``, or the bundled domain table when it names none."""
    path = config.relatedness.get("path")
    return rel.domain_table() if path is None else rel.RelatednessTable.load(path)


# -- joint objective -----------------------------------------------------


@dataclass(frozen=True)
class Objective:
    """The joint training loss of one run, built once by :func:`build_objective`.

    ``weights`` maps each name of :data:`LOSS_NAMES` to its weight.
    ``dm_matrix`` is the (classes, AUs) relatedness mixing matrix when
    distribution matching is on. ``sca_matrix`` is the same matrix when soft
    co-annotation is on: each step scores its AU-labelled rows' soft emotion
    labels with it. ``dm_targets``, set by :func:`run_gradcheck` alone, holds
    the DM targets of its one batch fixed.
    """

    weights: dict
    dm_matrix: np.ndarray | None = None
    sca_matrix: np.ndarray | None = None
    dm_targets: np.ndarray | None = None


def build_objective(sets, table, mode: str, weights: dict) -> tuple[tuple, Objective]:
    """Prepare a run's coupling: returns the label-rewritten sets and the objective.

    ``sets`` is a sequence of training sets, each a
    :class:`~affectmtl.labels.SampleSet`, returned as a tuple in the same
    order. Co-annotation rewrites every set's labels; the soft and the DM
    modes keep the table's ``weights`` for SCA and for DM.
    """
    if mode == "co_annotation":
        sets = [lab.co_annotate(data, table) for data in sets]
    r = table.weights
    return tuple(sets), Objective(weights, r if mode in DM_MODES else None,
                                  r if mode in SCA_MODES else None)


def joint_loss_and_grads(model, sets, batch, objective: Objective):
    """Compute all loss terms on one joint batch.

    ``batch`` holds, for each set of ``sets`` in order, the rows of that set in
    the batch: one entry of :func:`~affectmtl.scheduler.plan_epoch`'s list.
    Each row's terms follow the labels it carries, whatever its set. Returns
    the weighted total, each present term's value by name, and the parameter
    gradients of the total.
    """
    total, terms, out_grads, cache = _joint_loss(model, sets, batch, objective)
    losses = {name: value for name, (value, *_) in terms.items()}
    return total, losses, model.backward(cache, out_grads)


def joint_loss_value(model, sets, batch, objective: Objective) -> float:
    """The weighted total of :func:`joint_loss_and_grads` alone, with no backward pass."""
    return _joint_loss(model, sets, batch, objective)[0]


def _joint_loss(model, sets, batch, objective: Objective):
    """(total, terms, output gradients, forward cache) of one joint batch.

    ``terms`` maps each term present in the batch, in the order expr, au, va,
    sca, dm, to ``(value, head, rows, grad)``, the gradient on rows of the one head
    it writes (DM holds its target ``q``, so it writes the AU head alone). The total
    is the sum of weight * value, and each term adds weight * grad to its head's
    rows; each weight is read once.
    """
    data = lab.SampleSet.concat([d.take(rows) for d, rows in zip(sets, batch)])
    expr_rows, au_rows, va_rows = data.expr_rows, data.au_rows, data.va_rows
    out, cache = model.forward(data.features)
    terms: dict = {}

    if expr_rows.size:
        value, grad = softmax_ce_grad(out["expr"][expr_rows], data.expr[expr_rows])
        terms["expr"] = value, "expr", expr_rows, grad

    if au_rows.size:
        value, grad = masked_bce_grad(
            out["au"][au_rows], data.au[au_rows], data.au_weights[au_rows])
        terms["au"] = value, "au", au_rows, grad

    if va_rows.size:
        value, grad = ccc_loss_grad(data.va[va_rows], out["va"][va_rows])
        terms["va"] = value, "va", va_rows, grad

    if objective.sca_matrix is not None and au_rows.size:
        q = lab.soft_label(lab.indicator_scores(data.au[au_rows], objective.sca_matrix))
        value, grad = sca_loss_grad(out["expr"][au_rows], q)
        terms["sca"] = value, "expr", au_rows, grad

    r = objective.dm_matrix
    if r is not None:
        q = out["expr"] @ r if objective.dm_targets is None else objective.dm_targets
        if not np.isfinite(q).all():  # a NaN target would read as an unannotated AU
            raise NumericalError("non-finite total loss")
        value, grad = masked_bce_grad(out["au"], q)
        terms["dm"] = rel.NUM_AUS * value, "au", slice(None), rel.NUM_AUS * grad

    total = 0.0
    g = {h: np.zeros_like(out[h]) for h in out}
    for name, (value, head, rows, grad) in terms.items():
        weight = objective.weights[name]
        total += weight * value
        g[head][rows] += weight * grad
    if not np.isfinite(total):
        raise NumericalError("non-finite total loss")
    return float(total), terms, g, cache


# -- training ------------------------------------------------------------


def _holdout_split(data, fraction, seed):
    """(training rows, held-out rows) of ``data``, each in file order."""
    held = np.zeros(len(data), dtype=bool)
    if fraction:
        n_eval = int(round(len(data) * fraction))
        held[np.random.default_rng(seed).permutation(len(data))[:n_eval]] = True
    return data.take(np.flatnonzero(~held)), data.take(np.flatnonzero(held))


def run_train(config: ExperimentConfig) -> dict:
    """Train per the config; write checkpoint, loss CSV, and manifest. Returns the manifest.

    ``out_dir`` is made only once the table, the data, the objective and every
    epoch's batches are built, so a run that fails its set-up leaves no
    directory behind."""
    table = load_relatedness(config)

    sets, heldout = zip(*(_holdout_split(csvio.read_samples_csv(config.data[name]),
                                         config.holdout_fraction, config.seed + 7919 * si)
                          for si, name in enumerate(SET_NAMES) if name in config.data))
    dims = {data.features.shape[1] for data in sets}
    if len(dims) != 1:
        raise DataError(f"inconsistent feature dimensions across sets: {sorted(dims)}")
    input_dim = dims.pop()

    model = MultiHeadModel(input_dim, hidden=config.hidden, seed=config.seed)
    opt = SGDMomentum(model, lr=config.lr, momentum=config.momentum)
    sets, objective = build_objective(sets, table, config.coupling, config.loss_weights)
    sizes = [len(data) for data in sets]
    plans = [plan_epoch(sizes, config.max_batch, seed=config.seed + 1000003 * e)
             for e in range(config.epochs)]
    has_va = [~np.isnan(data.va[:, 0]) for data in sets]
    if any(sum(np.count_nonzero(va[rows]) for va, rows in zip(has_va, batch)) == 1
           for batches in plans for batch in batches):
        raise ConfigError(
            "epoch plan produces a VA batch of size 1; CCC needs at least 2 "
            "(adjust max_batch or the VA set size)"
        )
    plan = {"set_sizes": sizes, "batch_sizes": [len(rows) for rows in plans[0][0]],
            "iteration_count": len(plans[0]), "seed": config.seed}

    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    loss_csv = out_dir / "losses.csv"
    step = 0
    # a diverging run stops on its non-finite total alone, with no NumPy warning first
    with open(loss_csv, "w", newline="") as f, np.errstate(over="ignore", invalid="ignore"):
        w = csv.writer(f)
        w.writerow(["step", "epoch", "iteration", *LOSS_NAMES, "total"])
        for epoch, batches in enumerate(plans):
            for it, batch in enumerate(batches):
                total, losses, grads = joint_loss_and_grads(model, sets, batch, objective)
                opt.step(model, grads)
                values = [losses.get(name, 0.0) for name in LOSS_NAMES] + [total]
                w.writerow([step, epoch, it, *(repr(float(v)) for v in values)])
                step += 1

    ckpt = out_dir / "model.bin"
    model.save(ckpt)
    table.save(out_dir / "relatedness.json")

    eval_set = lab.SampleSet.concat(heldout)
    final_metrics = evaluate_model(model, eval_set) if len(eval_set) else {}
    return write_manifest(out_dir, {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "epoch_plans": [plan],
        "steps": step,
        "final_metrics": final_metrics,
    })


def write_manifest(out_dir, fields: dict) -> dict:
    """Write ``fields`` and the ``versions`` that made them to ``out_dir``/manifest.json,
    as sorted, indented JSON. Returns the manifest."""
    from . import __version__

    versions = {"python": platform.python_version(), "numpy": np.__version__,
                "affectmtl": __version__}
    manifest = {**fields, "versions": versions}
    (Path(out_dir) / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


# -- evaluation ----------------------------------------------------------


def evaluate_model(model, data) -> dict:
    """All applicable metrics on a :class:`~affectmtl.labels.SampleSet`; VA gets
    a variant median-filtered over :data:`MEDIAN_WINDOW` frames when every VA
    row has a sequence key."""
    if not len(data):
        raise DataError("nothing to evaluate")
    out, _ = model.forward(data.features)
    expr_rows, au_rows, va_rows = data.expr_rows, data.au_rows, data.va_rows
    results: dict = {}

    if expr_rows.size:
        pred = np.argmax(out["expr"][expr_rows], axis=1)
        cm = ConfusionMatrix.from_labels(data.expr[expr_rows], pred, out["expr"].shape[1])
        results["expr"] = classification_metrics(cm)
        results["expr"]["confusion"] = cm.counts.tolist()

    if au_rows.size:
        results["au"] = au_metrics(out["au"][au_rows], data.au[au_rows])

    if va_rows.size >= 2:
        pred, va, video = out["va"][va_rows], data.va[va_rows], data.video[va_rows]
        results["va"] = va_metrics(va, pred)
        if (video != "").all():
            filtered = _median_filter_by_video(video, data.frame[va_rows], pred, MEDIAN_WINDOW)
            results["va_filtered"] = va_metrics(va, filtered)
    return results


def _median_filter_by_video(video, frame, predictions, window):
    """Median-filter each video's predictions in frame order; rows keep their order."""
    order, code = lab.frame_order(video, frame)
    first, last = np.searchsorted(code, code), np.searchsorted(code, code, side="right") - 1
    return median_filter(predictions[order], window, first, last)[np.argsort(order)]


def run_eval(checkpoint, dataset, out_path=None) -> dict:
    """Evaluate a checkpoint on a dataset CSV; optionally write the JSON report."""
    model = MultiHeadModel.load(checkpoint)
    results = evaluate_model(model, csvio.read_samples_csv(dataset))
    if not results:
        raise DataError(f"checkpoint {checkpoint} scores nothing on {dataset}: it has no "
                        "labeled rows (VA needs two)")
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
    analytic parameter gradients, and compares against central differences; both
    hold the DM target ``q`` at the unperturbed model's value, as training holds it
    constant. Raises NumericalError if any mode exceeds the tolerance, which must
    be finite and > 0 for the check to mean anything.
    """
    if not 0 < tolerance < math.inf:  # NaN fails too
        raise ConfigError(f"tolerance must be finite and > 0, got {tolerance}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    from .synthdata import GeneratorSpec, draw, split

    table = rel.domain_table()
    spec = GeneratorSpec(relatedness=table, feature_dim=input_dim, seed=seed)
    sets = split(draw(spec, 3 * max(2, batch_size // 3)))
    batch = tuple(np.arange(len(data)) for data in sets)
    report = {}
    for mode in modes:
        model = MultiHeadModel(input_dim, hidden=hidden, seed=seed)
        mode_sets, objective = build_objective(sets, table, mode, dict.fromkeys(LOSS_NAMES, 1.0))
        if objective.dm_matrix is not None:  # q of the unperturbed model on the batch's rows
            out = model.forward(np.concatenate([d.features for d in sets]))[0]
            objective = replace(objective, dm_targets=out["expr"] @ objective.dm_matrix)
        err = gradient_check(
            model,
            value_fn=lambda m: joint_loss_value(m, mode_sets, batch, objective),
            grad_fn=lambda m: joint_loss_and_grads(m, mode_sets, batch, objective)[2],
            rng=np.random.default_rng(seed),
        )
        report[mode] = float(err)
    worst = max(report.values())
    if worst > tolerance:
        bad = {m: e for m, e in report.items() if e > tolerance}
        raise NumericalError(f"gradient check failed: {bad}")
    return report
