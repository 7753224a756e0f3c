"""Experiment configuration, the joint training loop, and evaluation runs.

The coupling mode is pure configuration: co-annotation rewrites labels and
weighs the AUs it fills, and soft co-annotation picks each AU-labelled row's
target emotion, once before training (:func:`build_objective`); distribution
matching adds a prediction-alignment term each step. Every term and metric runs
over the rows that :func:`~affectmtl.labels.label_masks` gives its label.
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
from .losses import ccc_loss_grad, masked_bce_grad, softmax_ce_grad
from .metrics import ConfusionMatrix, au_metrics, classification_metrics, va_metrics
from .model import HEAD_COLS, MultiHeadModel, SGDMomentum, gradient_check, median_filter
from .scheduler import plan_epoch

# Each coupling mode and the coupling terms it runs
COUPLING_TERMS = {"none": (), "co_annotation": (), "soft_co_annotation": ("sca",),
                  "distr_matching": ("dm",), "soft_plus_dm": ("sca", "dm")}
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
        if self.coupling not in COUPLING_TERMS:
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
        idle = [name for name in self.couplings if name not in COUPLING_TERMS[self.coupling]]
        if idle:
            raise ConfigError(f"loss_weights.couplings.{idle[0]} weighs a term that coupling "
                              f"mode {self.coupling!r} does not run")

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
    distribution matching is on. ``sca_targets`` (soft co-annotation) and
    ``au_weights`` (co-annotation) hold one array per training set, built once
    per run: each row's SCA target emotion from the table's mixing matrix (-1
    where the row has no AU label or its top emotion is tied), and the AU loss
    weights of :func:`~affectmtl.labels.co_annotate`. ``dm_targets``, set by
    :func:`run_gradcheck` alone, holds the DM targets of its one batch fixed.
    """

    weights: dict
    dm_matrix: np.ndarray | None = None
    sca_targets: tuple | None = None
    au_weights: tuple | None = None
    dm_targets: np.ndarray | None = None


def build_objective(sets, table, mode: str, weights: dict) -> tuple[tuple, Objective]:
    """Prepare a run's coupling: returns the label-rewritten sets and the objective.

    ``sets`` is a sequence of training sets, each a
    :class:`~affectmtl.labels.SampleSet`, returned as a tuple in the same
    order. Co-annotation rewrites every set's labels and weighs its AUs, the soft
    modes give each row its SCA target (:func:`~affectmtl.labels.top_emotion`),
    and the DM modes keep the table's ``weights``.
    """
    au_weights, terms = None, COUPLING_TERMS[mode]
    if mode == "co_annotation":
        sets, au_weights = zip(*(lab.co_annotate(data, table) for data in sets))
    r = table.weights
    sca = tuple(lab.top_emotion(data.au, r) for data in sets) if "sca" in terms else None
    return tuple(sets), Objective(weights, r if "dm" in terms else None, sca, au_weights)


def joint_loss_and_grads(model, sets, batch, objective: Objective, grads=None):
    """Compute all loss terms on one joint batch.

    ``batch`` holds, for each set of ``sets`` in order, the rows of that set in
    the batch: one entry of :func:`~affectmtl.scheduler.plan_epoch`'s list.
    Each row's terms follow the labels it carries, whatever its set. Returns
    the weighted total, each present term's value by name, and the parameter
    gradients of the total, written into ``grads``, the gradient holder of
    :meth:`~affectmtl.model.MultiHeadModel.backward` (a new one when None).
    """
    total, terms, gz, cache = _joint_loss(model, sets, batch, objective)
    losses = {name: value for name, (value, *_) in terms.items()}
    return total, losses, model.backward(cache, gz, grads)


def joint_loss_value(model, sets, batch, objective: Objective) -> float:
    """The weighted total of :func:`joint_loss_and_grads` alone, with no backward pass."""
    return _joint_loss(model, sets, batch, objective)[0]


def _joint_loss(model, sets, batch, objective: Objective):
    """(total, terms, gradient at the heads' input, forward cache) of one joint batch.

    ``terms`` maps each term present in the batch, in the order expr, au, va,
    sca, dm, to ``(value, head, rows, grad)``, the gradient on rows at the input of
    the one head it writes (DM holds its target ``q``, so it writes the AU head
    alone). The total is the sum of weight * value, and each term adds weight *
    grad to its rows of its head's :data:`~affectmtl.model.HEAD_COLS`; each weight
    is read once.
    """
    def gather(columns):  # the batch's rows of a column held as one array per set
        return np.concatenate([c[rows] for c, rows in zip(columns, batch)])

    features, expr, au, va = (gather([getattr(d, name) for d in sets])
                              for name in ("features", "expr", "au", "va"))
    expr_rows, au_rows, va_rows = map(np.flatnonzero, lab.label_masks(expr, au, va))
    out, cache = model.forward(features)
    terms: dict = {}

    if expr_rows.size:
        value, grad = softmax_ce_grad(out["expr"][expr_rows], expr[expr_rows])
        terms["expr"] = value, "expr", expr_rows, grad

    if au_rows.size:
        weights = None if objective.au_weights is None else gather(objective.au_weights)[au_rows]
        value, grad = masked_bce_grad(out["au"][au_rows], au[au_rows], weights)
        terms["au"] = value, "au", au_rows, grad

    if va_rows.size:
        value, grad = ccc_loss_grad(va[va_rows], out["va"][va_rows])
        terms["va"] = value, "va", va_rows, grad

    if objective.sca_targets is not None:
        target = gather(objective.sca_targets)
        rows = np.flatnonzero(target >= 0)
        if rows.size:
            value, grad = softmax_ce_grad(out["expr"][rows], target[rows])
            terms["sca"] = value, "expr", rows, grad

    r = objective.dm_matrix
    if r is not None:
        q = out["expr"] @ r if objective.dm_targets is None else objective.dm_targets
        if not np.isfinite(q).all():  # a NaN target would read as an unannotated AU
            raise NumericalError("non-finite total loss")
        value, grad = masked_bce_grad(out["au"], q)
        terms["dm"] = rel.NUM_AUS * value, "au", slice(None), rel.NUM_AUS * grad

    total = 0.0
    gz = np.zeros((len(features), model.head_W.shape[1]))
    for name, (value, head, rows, grad) in terms.items():
        weight = objective.weights[name]
        total += weight * value
        gz[rows, HEAD_COLS[head]] += weight * grad
    if not np.isfinite(total):
        raise NumericalError("non-finite total loss")
    return float(total), terms, gz, cache


# -- training ------------------------------------------------------------


def _holdout_split(path, fraction, seed):
    """(training rows, held-out rows) of the CSV at ``path``, each in file order."""
    data = csvio.read_samples_csv(path)
    held = np.zeros(len(data), dtype=bool)
    if fraction:
        n_eval = int(round(len(data) * fraction))
        held[np.random.default_rng(seed).permutation(len(data))[:n_eval]] = True
    if held.all():
        raise ConfigError(f"holdout_fraction {fraction} holds out all {len(data)} rows of {path}")
    return data.take(np.flatnonzero(~held)), data.take(np.flatnonzero(held))


def run_train(config: ExperimentConfig) -> dict:
    """Train per the config; write checkpoint, loss CSV, and manifest. Returns the manifest.

    ``out_dir`` is made only once the table, the data, the objective and every
    epoch's batches are built, so a run that fails its set-up leaves no
    directory behind. The checkpoint is saved and the held-out rows scored
    once :func:`_fit` has returned, so the training sets, the objective, the
    optimizer, the gradient holder and the epoch plans are released by then."""
    table = load_relatedness(config)
    model, heldout, plan, steps, out_dir = _fit(config, table)
    model.save(out_dir / "model.bin")
    table.save(out_dir / "relatedness.json")

    eval_set = lab.SampleSet.concat(heldout)
    final_metrics = evaluate_model(model, eval_set) if len(eval_set) else {}
    return write_manifest(out_dir, {
        "config": config.to_dict(),
        "config_hash": config.config_hash(),
        "seed": config.seed,
        "epoch_plans": [plan],
        "steps": steps,
        "final_metrics": final_metrics,
    })


def _fit(config: ExperimentConfig, table):
    """Set up a run, make its ``out_dir`` and train, writing ``losses.csv``.

    Returns (model, held-out sets, the manifest's epoch plan, steps, out_dir);
    the rest of the training state goes with this call's locals. Every step
    writes its gradients into the one holder of the run."""
    sets, heldout = zip(*(_holdout_split(config.data[name], config.holdout_fraction,
                                         config.seed + 7919 * si)
                          for si, name in enumerate(SET_NAMES) if name in config.data))
    dims = {data.features.shape[1] for data in sets}
    if len(dims) != 1:
        raise DataError(f"inconsistent feature dimensions across sets: {sorted(dims)}")
    input_dim = dims.pop()

    model = MultiHeadModel(input_dim, hidden=config.hidden, seed=config.seed)
    opt = SGDMomentum(model, lr=config.lr, momentum=config.momentum)
    holder = model.empty_like()
    sets, objective = build_objective(sets, table, config.coupling, config.loss_weights)
    sizes = [len(data) for data in sets]
    plans = [plan_epoch(sizes, config.max_batch, seed=config.seed + 1000003 * e)
             for e in range(config.epochs)]
    has_va = [lab.label_masks(data.expr, data.au, data.va)[2] for data in sets]
    if any(sum(np.count_nonzero(va[rows]) for va, rows in zip(has_va, batch)) == 1
           for batches in plans for batch in batches):
        raise ConfigError(
            "epoch plan produces a VA batch of size 1; CCC needs at least 2 "
            "(adjust max_batch or the VA set size)"
        )
    plan = {"set_sizes": sizes, "batch_sizes": [len(rows) for rows in plans[0][0]],
            "iteration_count": len(plans[0]), "seed": config.seed}

    out_dir = make_out_dir(config.out_dir, "losses.csv", "model.bin", "relatedness.json")
    loss_csv = out_dir / "losses.csv"
    step = 0
    # a diverging run stops on its first overflow or non-finite total, with no warning
    with open(loss_csv, "w", newline="") as f, np.errstate(over="raise", invalid="ignore"):
        w = csv.writer(f)
        w.writerow(["step", "epoch", "iteration", *LOSS_NAMES, "total"])
        for epoch, batches in enumerate(plans):
            for it, batch in enumerate(batches):
                try:
                    total, losses, grads = joint_loss_and_grads(model, sets, batch, objective,
                                                                holder)
                    opt.step(model, grads)
                except FloatingPointError as e:
                    raise NumericalError("non-finite total loss") from e
                values = [losses.get(name, 0.0) for name in LOSS_NAMES] + [total]
                w.writerow([step, epoch, it, *(repr(float(v)) for v in values)])
                step += 1
    return model, heldout, plan, step, out_dir


def make_out_dir(out_dir, *outputs) -> Path:
    """Make ``out_dir`` and remove its ``manifest.json`` and the other
    ``outputs`` that an earlier run may have left there: the manifest is written
    last, so a directory without one holds an unfinished run, and with none of
    an earlier run's files beside it."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("manifest.json", *outputs):
        (out_dir / name).unlink(missing_ok=True)
    return out_dir


def write_manifest(out_dir, fields: dict) -> dict:
    """Write ``fields`` and the ``versions`` that made them to ``out_dir``/manifest.json,
    as sorted, indented JSON. Returns the manifest."""
    from . import __version__

    versions = {"python": platform.python_version(), "numpy": np.__version__,
                "affectmtl": __version__, **_blas_versions()}
    manifest = {**fields, "versions": versions}
    (Path(out_dir) / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def _blas_versions() -> dict:
    """NumPy's BLAS build, and the CPU core and thread count that its bundled
    OpenBLAS runs with now: the bytes of a run depend on all three. Each is None
    where NumPy does not say it or the library does not export the function."""
    import ctypes
    from numpy.linalg import _umath_linalg  # linked against NumPy's BLAS

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    try:  # a handle to the module's library reaches the symbols of the libraries it links
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        lib = None

    def call(name, restype):
        f = getattr(lib, name, None)
        if f is None:
            return None
        f.argtypes, f.restype = [], restype
        return f()

    core = call("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return {"blas": " ".join(filter(None, (blas.get("name"), blas.get("version")))) or None,
            "blas_core": core.decode() if core else None,
            "blas_threads": call("scipy_openblas_get_num_threads64_", ctypes.c_int)}


# -- evaluation ----------------------------------------------------------


def evaluate_model(model, data) -> dict:
    """All applicable metrics on a :class:`~affectmtl.labels.SampleSet`; VA gets
    a variant median-filtered over :data:`MEDIAN_WINDOW` frames when every VA
    row has a sequence key."""
    if not len(data):
        raise DataError("nothing to evaluate")
    out, _ = model.forward(data.features)
    expr_rows, au_rows, va_rows = data.label_rows()
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
    input_dim=16, hidden=(32, 32), batch_size=16, seed=0, modes=tuple(COUPLING_TERMS),
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
