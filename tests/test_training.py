import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affectmtl import (
    AU_LABELS,
    EMOTIONS,
    ConfigError,
    DataError,
    ExperimentConfig,
    MultiHeadModel,
    NumericalError,
    RelatednessTable,
    SampleSet,
    domain_table,
)
from affectmtl.csvio import write_samples_csv
from affectmtl import labels
from affectmtl.labels import indicator_scores, top_emotion
from affectmtl.losses import ccc_loss_grad, masked_bce_grad, softmax_ce_grad
from affectmtl.metrics import au_metrics, va_metrics
from affectmtl.model import HEAD_COLS
from affectmtl.relatedness import NUM_AUS
from affectmtl.scheduler import plan_epoch
from affectmtl import training
from affectmtl.cli import main
from affectmtl.synthdata import GeneratorSpec, draw, split
from affectmtl.training import (
    COUPLING_MODES, LOSS_NAMES, SCA_MODES, SECTION, TASK_NAMES, _joint_loss,
    _median_filter_by_video, build_objective, joint_loss_and_grads, run_eval, run_gradcheck,
    run_train,
)

TABLE = domain_table()
ONES = dict.fromkeys(LOSS_NAMES, 1.0)
# every term weighted apart, so that a weight read under the wrong name shows
WEIGHTS = {"expr": 0.7, "au": 1.0, "va": 1.3, "sca": 0.6, "dm": 1.7}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=12, noise_scale=0.3, seed=0)
    va_set, au_set, expr_set = split(draw(spec, 360))
    write_samples_csv(out / "va.csv", va_set)
    write_samples_csv(out / "au.csv", au_set)
    write_samples_csv(out / "expr.csv", expr_set)
    return out


def make_config(dataset_dir, out_dir, **overrides):
    d = {
        "data": {
            "va": str(dataset_dir / "va.csv"),
            "au": str(dataset_dir / "au.csv"),
            "expr": str(dataset_dir / "expr.csv"),
        },
        "coupling": "none",
        "model": {"hidden": [16]},
        "max_batch": 40,
        "epochs": 2,
        "optimizer": {"lr": 0.05, "momentum": 0.9},
        "holdout_fraction": 0.2,
        "seed": 0,
        "out_dir": str(out_dir),
    }
    d.update(overrides)
    return ExperimentConfig.from_dict(d)


def test_run_train_writes_artifacts(dataset_dir, tmp_path):
    config = make_config(dataset_dir, tmp_path / "run")
    manifest = run_train(config)
    out = tmp_path / "run"
    assert (out / "model.bin").exists()
    assert (out / "losses.csv").exists()
    assert (out / "manifest.json").exists()
    assert manifest["config_hash"] == config.config_hash()
    assert manifest["steps"] > 0
    assert "expr" in manifest["final_metrics"]
    assert "va" in manifest["final_metrics"]
    # 120 rows a set, 24 held out; max_batch 40 cuts 96 rows into 3 batches of 32
    assert manifest["epoch_plans"] == [
        {"set_sizes": [96, 96, 96], "batch_sizes": [32, 32, 32], "iteration_count": 3, "seed": 0}]


@pytest.mark.parametrize(
    "mode", ["co_annotation", "soft_co_annotation", "distr_matching", "soft_plus_dm"]
)
def test_all_coupling_modes_train(dataset_dir, tmp_path, mode):
    config = make_config(dataset_dir, tmp_path / mode, coupling=mode, epochs=1)
    manifest = run_train(config)
    losses = (tmp_path / mode / "losses.csv").read_text().splitlines()
    header = losses[0].split(",")
    first = dict(zip(header, losses[1].split(",")))
    if mode in ("soft_co_annotation", "soft_plus_dm"):
        assert float(first["sca"]) > 0
    if mode in ("distr_matching", "soft_plus_dm"):
        assert float(first["dm"]) > 0
    if mode == "co_annotation":
        assert float(first["sca"]) == 0.0 and float(first["dm"]) == 0.0
    assert manifest["steps"] == int(first["step"]) + manifest["epoch_plans"][0]["iteration_count"] - 0


def test_determinism_byte_identical(dataset_dir, tmp_path):
    c1 = make_config(dataset_dir, tmp_path / "r1", coupling="soft_plus_dm", epochs=1)
    c2 = make_config(dataset_dir, tmp_path / "r2", coupling="soft_plus_dm", epochs=1)
    run_train(c1)
    run_train(c2)
    assert (tmp_path / "r1" / "losses.csv").read_bytes() == (tmp_path / "r2" / "losses.csv").read_bytes()
    assert (tmp_path / "r1" / "model.bin").read_bytes() == (tmp_path / "r2" / "model.bin").read_bytes()


def test_missing_dataset_path(dataset_dir, tmp_path):
    config = make_config(dataset_dir, tmp_path / "x")
    config.data["va"] = str(dataset_dir / "nope.csv")
    with pytest.raises(DataError, match="nope.csv"):
        run_train(config)
    assert not (tmp_path / "x").exists()  # a failed set-up makes no run directory


def test_invalid_coupling_mode(dataset_dir, tmp_path):
    with pytest.raises(ConfigError):
        make_config(dataset_dir, tmp_path / "x", coupling="all_of_them")


def test_va_batch_of_one_rejected(tmp_path):
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=1)
    va_set, au_set, expr_set = split(draw(spec, 90), partition=(0.1, 0.6, 0.3))
    out = tmp_path / "data"
    out.mkdir()
    write_samples_csv(out / "va.csv", va_set)
    write_samples_csv(out / "au.csv", au_set)
    write_samples_csv(out / "expr.csv", expr_set)
    # 9 VA training samples (holdout 0), 54 AU -> max_batch 6 gives 9 iterations
    # and VA batches of size 1
    config = make_config(out, tmp_path / "run", max_batch=6, holdout_fraction=0.0)
    with pytest.raises(ConfigError, match="VA batch"):
        run_train(config)
    assert not (tmp_path / "run").exists()


def test_single_set_training(dataset_dir, tmp_path):
    config = make_config(dataset_dir, tmp_path / "expr_only")
    config.data = {"expr": str(dataset_dir / "expr.csv")}
    manifest = run_train(config)
    assert list(manifest["final_metrics"]) == ["expr"]


def test_run_eval_with_and_without_sequence_keys(tmp_path):
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=2, frames_per_video=20)
    samples = split(draw(spec, 120))[0]
    keyed = tmp_path / "keyed.csv"
    write_samples_csv(keyed, samples)
    unkeyed = tmp_path / "unkeyed.csv"
    unkeyed_samples = replace(samples, video=np.full(len(samples), "", dtype=object),
                              frame=np.full(len(samples), -1))
    write_samples_csv(unkeyed, unkeyed_samples)
    config = make_config(tmp_path, tmp_path / "run", epochs=1)
    config.data = {"va": str(keyed)}
    run_train(config)
    ckpt = tmp_path / "run" / "model.bin"
    res_keyed = run_eval(ckpt, keyed, tmp_path / "metrics.json")
    assert "va" in res_keyed and "va_filtered" in res_keyed
    assert (tmp_path / "metrics.json").exists()
    res_unkeyed = run_eval(ckpt, unkeyed)
    assert "va" in res_unkeyed and "va_filtered" not in res_unkeyed


def test_empirical_relatedness_source(tmp_path):
    """A run trains on the table that ``infer-relatedness`` wrote, named by its path."""
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=3)
    corpus_csv = tmp_path / "corpus.csv"
    write_samples_csv(corpus_csv, draw(spec, 400))
    va_set, au_set, expr_set = split(draw(spec, 120))
    for name, group in [("va", va_set), ("au", au_set), ("expr", expr_set)]:
        write_samples_csv(tmp_path / f"{name}.csv", group)
    assert main(["infer-relatedness", "--corpus", str(corpus_csv), "--threshold", "0.1",
                 "--out", str(tmp_path / "empirical.json")]) == 0
    config = make_config(
        tmp_path, tmp_path / "run", epochs=1,
        relatedness={"path": str(tmp_path / "empirical.json")},
        coupling="distr_matching",
    )
    manifest = run_train(config)
    saved = (tmp_path / "run" / "relatedness.json").read_text()
    assert saved == (tmp_path / "empirical.json").read_text()
    assert json.loads(saved)["kind"] == "empirical"
    assert manifest["steps"] > 0


def test_run_gradcheck_passes_all_modes():
    report = run_gradcheck(batch_size=9, hidden=(8,), input_dim=8)
    assert set(report) == {"none", "co_annotation", "soft_co_annotation", "distr_matching", "soft_plus_dm"}
    assert max(report.values()) < 1e-5


# -- batch-form objective --------------------------------------------------


def _reference_loss(model, sets, batch, mode, table, weights, au_weights=None):
    """Per-row loop over the batch: every loss term sample by sample, each over
    the rows that carry its label whatever their set, AU loss weights from
    ``au_weights`` (one array per set; None: every AU weighs 1), SCA targets
    from one row's unique top indicator score, DM targets from one row at a
    time and held constant, so that DM writes to the AU head alone. Returns
    the terms' values and each head's gradient at its input."""
    picked = [(d, i) for d, rows in zip(sets, batch) for i in rows]
    unit = [np.ones_like(d.au) for d in sets]
    row_weights = [w[i] for w, rows in zip(au_weights or unit, batch) for i in rows]
    out, _ = model.forward(np.stack([d.features[i] for d, i in picked]))
    g = {h: np.zeros_like(v) for h, v in out.items()}
    losses = {}

    def mean_over(rows, term, head, weight):
        acc = 0.0
        for j in rows:
            v, grad = term(j, *picked[j])
            acc += v
            g[head][j] += weight * grad / len(rows)
        return acc / len(rows)

    rows = [j for j, (d, i) in enumerate(picked) if d.expr[i] >= 0]
    losses["expr"] = mean_over(
        rows, lambda j, d, i: softmax_ce_grad(out["expr"][j], d.expr[i]),
        "expr", weights["expr"],
    )
    au_rows = [j for j, (d, i) in enumerate(picked) if not np.isnan(d.au[i]).all()]
    losses["au"] = mean_over(
        au_rows, lambda j, d, i: masked_bce_grad(out["au"][j], d.au[i], row_weights[j]),
        "au", weights["au"],
    )
    rows = [j for j, (d, i) in enumerate(picked) if not np.isnan(d.va[i]).any()]
    va = np.array([d.va[i] for d, i in (picked[j] for j in rows)])
    losses["va"], grad = ccc_loss_grad(va, out["va"][rows])
    g["va"][rows] += weights["va"] * grad
    if mode in ("soft_co_annotation", "soft_plus_dm"):
        def top(d, i):
            scores = indicator_scores(d.au[i], table.weights)
            return np.flatnonzero(scores >= scores.max() - 1e-9)  # ties up to rounding

        sca_rows = [j for j in au_rows if len(top(*picked[j])) == 1]
        losses["sca"] = mean_over(
            sca_rows, lambda j, d, i: softmax_ce_grad(out["expr"][j], top(d, i)[0]),
            "expr", weights["sca"],
        )
    if mode in ("distr_matching", "soft_plus_dm"):
        def dm(j, d, i):
            v, grad = masked_bce_grad(out["au"][j], out["expr"][j] @ table.weights)
            return NUM_AUS * v, NUM_AUS * grad

        losses["dm"] = mean_over(range(len(picked)), dm, "au", weights["dm"])
    return losses, g


@pytest.mark.parametrize(
    "mode", ["none", "co_annotation", "soft_co_annotation", "distr_matching", "soft_plus_dm"]
)
def test_batch_objective_matches_per_row_loop(mode):
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=4)
    sets = tuple(group.take(np.arange(size))
                 for group, size in zip(split(draw(spec, 180)), (40, 50, 45)))
    model = MultiHeadModel(8, hidden=(16,), seed=1)
    sets, objective = build_objective(sets, TABLE, mode, WEIGHTS)
    # rows in a shuffled order, as the epoch plan draws them
    rng = np.random.default_rng(0)
    batch = tuple(rng.permutation(len(data)) for data in sets)
    if mode == "co_annotation":
        assert sets[2].label_rows()[1].size  # the expr set gained AU labels
    _, terms, g, _ = _joint_loss(model, sets, batch, objective)
    losses, g_ref = _reference_loss(model, sets, batch, mode, TABLE, WEIGHTS,
                                    objective.au_weights)
    assert set(terms) == set(losses)
    for name, (v, *_) in terms.items():
        assert abs(v - losses[name]) <= 1e-12, name
    for head in g_ref:
        assert np.max(np.abs(g[:, HEAD_COLS[head]] - g_ref[head])) <= 1e-12, head


def _whole_sets_batch(mode, weights):
    """The arguments of ``_joint_loss`` for one batch of every row of three small sets."""
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=4)
    model = MultiHeadModel(8, hidden=(16,), seed=1)
    sets, objective = build_objective(split(draw(spec, 90)), TABLE, mode, weights)
    return model, sets, tuple(np.arange(len(data)) for data in sets), objective


def test_joint_total_is_the_weighted_sum():
    reads = []

    class Counted(dict):
        def __getitem__(self, name):
            reads.append(name)
            return super().__getitem__(name)

    total, terms, _, _ = _joint_loss(*_whole_sets_batch("soft_plus_dm", Counted(WEIGHTS)))
    assert list(terms) == reads == ["expr", "au", "va", "sca", "dm"]  # each weight read once
    assert total == pytest.approx(sum(WEIGHTS[n] * v for n, (v, *_) in terms.items()))
    total, terms, _, _ = _joint_loss(*_whole_sets_batch("soft_plus_dm", ONES))
    assert total == pytest.approx(sum(v for v, *_ in terms.values()))
    # a coupling term of weight 0 adds 0 to the total and to every gradient
    zero = {**ONES, "dm": 0.0, "sca": 0.0}
    total, terms, g, _ = _joint_loss(*_whole_sets_batch("soft_plus_dm", zero))
    total_none, _, g_none, _ = _joint_loss(*_whole_sets_batch("none", zero))
    assert terms["sca"][0] > 0 and terms["dm"][0] > 0
    assert total == total_none
    assert np.array_equal(g, g_none)


def test_every_term_writes_one_head():
    """DM holds its target constant: in distr_matching the expr head's input
    gradient is that of none on the same batch, and DM writes the AU head alone."""
    _, terms, _, _ = _joint_loss(*_whole_sets_batch("soft_plus_dm", WEIGHTS))
    heads = {name: head for name, (_, head, _, _) in terms.items()}
    assert heads == {"expr": "expr", "au": "au", "va": "va", "sca": "expr", "dm": "au"}
    _, _, g_none, _ = _joint_loss(*_whole_sets_batch("none", WEIGHTS))
    _, _, g_dm, _ = _joint_loss(*_whole_sets_batch("distr_matching", WEIGHTS))
    for head in ("expr", "va"):
        assert np.array_equal(g_dm[:, HEAD_COLS[head]], g_none[:, HEAD_COLS[head]]), head
    assert not np.array_equal(g_dm[:, HEAD_COLS["au"]], g_none[:, HEAD_COLS["au"]])


def test_dm_gradient_pulls_p_toward_q():
    """The DM gradient at each AU logit has the sign of p - q, so a descent
    step moves the probability p toward its target q, and it is 0 where p == q."""
    model, sets, batch, objective = _whole_sets_batch("distr_matching", ONES)
    _, terms, _, _ = _joint_loss(model, sets, batch, objective)
    out, _ = model.forward(np.concatenate([d.features for d in sets]))
    p, q = out["au"], out["expr"] @ TABLE.weights
    grad = terms["dm"][3]
    assert (p != q).all() and (q < p).any() and (q > p).any()
    assert np.array_equal(np.sign(grad), np.sign(p - q))
    # a target equal to p on half the entries: the gradient is 0 there alone
    half = np.random.default_rng(0).random(p.shape) < 0.5
    held = replace(objective, dm_targets=np.where(half, p, q))
    grad = _joint_loss(model, sets, batch, held)[1]["dm"][3]
    assert (grad[half] == 0).all() and (grad[~half] != 0).all()


def test_non_finite_joint_total_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(training, "ccc_loss_grad",
                        lambda y, y_hat: (float("nan"), np.zeros_like(y_hat)))
    with pytest.raises(NumericalError, match="non-finite total loss"):
        _joint_loss(*_whole_sets_batch("none", ONES))


def test_sca_scores_the_rows_that_carry_au_labels():
    """SCA follows the labels a row carries, not its set: VA-set rows with AU
    labels are scored, and an AU-set row without one is not, nor is a row whose
    top indicator score is shared: an all-zero row, and a row with every AU of
    two emotions. Each scored row's gradient is the cross entropy's against its
    own top emotion, whatever the row's id."""
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=4)
    full = draw(spec, 90)
    va_set, au_set, expr_set = split(full)
    n_va = len(va_set)
    va_set = replace(va_set, au=full.au[:n_va], ids=np.full(n_va, "dup", dtype=object))
    no_au = np.arange(len(au_set)) == 3
    pair = [EMOTIONS.index("disgust"), EMOTIONS.index("happiness")]
    tied = np.stack([np.zeros(NUM_AUS), (TABLE.weights[pair] > 0).any(axis=0)])
    tie_scores = indicator_scores(tied, TABLE.weights)
    assert (tie_scores[0] == 0).all()
    assert np.flatnonzero(tie_scores[1] > 1 - 1e-12).tolist() == pair  # 1 up to rounding
    au = np.where(no_au[:, None], np.nan, au_set.au)
    au[4:6] = tied
    au_set = replace(au_set, au=au)
    model = MultiHeadModel(8, hidden=(16,), seed=1)
    sets, objective = build_objective((va_set, au_set, expr_set), TABLE, "soft_co_annotation",
                                      WEIGHTS)
    batch = tuple(np.random.default_rng(0).permutation(len(data)) for data in sets)
    _, terms, g, _ = _joint_loss(model, sets, batch, objective)
    data = SampleSet.concat([d.take(rows) for d, rows in zip(sets, batch)])
    _, head, rows, grad = terms["sca"]
    assert head == "expr"
    at = {k: n_va + np.flatnonzero(batch[1] == k)[0] for k in (3, 4, 5)}  # AU-set row k's place
    au_rows = data.label_rows()[1]
    assert at[3] not in au_rows and at[4] in au_rows and at[5] in au_rows
    assert set(rows.tolist()) <= set(au_rows.tolist()) - {at[4], at[5]}
    assert set(rows.tolist()) & set(range(n_va))  # VA-set rows with AU labels are scored
    scores = indicator_scores(data.au[rows], TABLE.weights)
    onehot = np.eye(len(EMOTIONS))[scores.argmax(axis=1)]
    p = model.forward(data.features)[0]["expr"][rows]
    assert np.allclose(grad, (p - onehot) / len(rows), rtol=1e-12, atol=0)
    assert len({row_grad.tobytes() for row_grad in grad}) > 1
    # the whole objective matches the per-row loop, which picks rows by label too
    losses, g_ref = _reference_loss(model, sets, batch, "soft_co_annotation", TABLE, WEIGHTS)
    assert set(terms) == set(losses)
    for name, (v, *_) in terms.items():
        assert abs(v - losses[name]) <= 1e-12, name
    for head in g_ref:
        assert np.max(np.abs(g[:, HEAD_COLS[head]] - g_ref[head])) <= 1e-12, head


# -- the joint step's bytes ------------------------------------------------


def _masked_bce_grad_with_mask(p_au, y_au, weights=None):
    """``masked_bce_grad`` as it was when every call built its NaN mask and
    weights, with its gradient at the head's input."""
    p, y = np.atleast_2d(np.asarray(p_au, float)), np.atleast_2d(np.asarray(y_au, float))
    mask = ~np.isnan(y)
    if weights is None:
        w = mask.astype(float)
    else:
        w = np.where(mask, np.nan_to_num(np.atleast_2d(np.asarray(weights, float)), nan=0.0), 0.0)
    pc = np.clip(p, 1e-7, 1.0 - 1e-7)
    ys = np.where(mask, y, 0.0)
    terms = ys * np.log(pc) + (1.0 - ys) * np.log(1.0 - pc)
    wsum = w.sum(axis=1, keepdims=True) * len(p)
    val = -float(((w * np.where(mask, terms, 0.0)).sum(axis=1, keepdims=True) / wsum).sum())
    grad = np.where(mask & (p == pc), w * (p - ys) / wsum, 0.0)
    return val, grad.reshape(np.shape(p_au))


def _per_step_sca_joint_loss(model, sets, batch, objective, sca_matrix):
    """The joint step as it was when each step gathered a whole SampleSet of its
    rows, with the AU loss weights in it (1 on each annotated AU outside
    co-annotation), and picked the SCA targets of its AU rows with ``sca_matrix``."""
    data = SampleSet.concat([d.take(rows) for d, rows in zip(sets, batch)])
    if objective.au_weights is None:
        au_weights = np.where(np.isnan(data.au), np.nan, 1.0)
    else:
        au_weights = np.concatenate([w[rows] for w, rows in zip(objective.au_weights, batch)])
    expr_rows, au_rows = np.flatnonzero(data.expr >= 0), np.flatnonzero(~np.isnan(data.au).all(1))
    va_rows = np.flatnonzero(~np.isnan(data.va[:, 0]))
    out, cache = model.forward(data.features)
    terms: dict = {}
    if expr_rows.size:
        value, grad = softmax_ce_grad(out["expr"][expr_rows], data.expr[expr_rows])
        terms["expr"] = value, "expr", expr_rows, grad
    if au_rows.size:
        value, grad = _masked_bce_grad_with_mask(
            out["au"][au_rows], data.au[au_rows], au_weights[au_rows])
        terms["au"] = value, "au", au_rows, grad
    if va_rows.size:
        value, grad = ccc_loss_grad(data.va[va_rows], out["va"][va_rows])
        terms["va"] = value, "va", va_rows, grad
    if sca_matrix is not None:
        target = top_emotion(data.au[au_rows], sca_matrix)
        rows = au_rows[target >= 0]
        if rows.size:
            value, grad = softmax_ce_grad(out["expr"][rows], target[target >= 0])
            terms["sca"] = value, "expr", rows, grad
    r = objective.dm_matrix
    if r is not None:
        q = out["expr"] @ r if objective.dm_targets is None else objective.dm_targets
        value, grad = _masked_bce_grad_with_mask(out["au"], q)
        terms["dm"] = NUM_AUS * value, "au", slice(None), NUM_AUS * grad
    total = 0.0
    gz = np.zeros((len(data), model.head_W.shape[1]))
    for name, (value, head, rows, grad) in terms.items():
        weight = objective.weights[name]
        total += weight * value
        gz[rows, HEAD_COLS[head]] += weight * grad
    return float(total), terms, gz, cache


@pytest.mark.parametrize("mode", COUPLING_MODES)
def test_joint_step_keeps_the_bytes_of_the_per_step_form(mode):
    """Per-run SCA targets, a gather of the loss columns alone and DM without
    mask work change no bit of the total, of a term or of a head gradient, on
    shuffled batches of two epochs and with a held DM target."""
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=6)
    model = MultiHeadModel(8, hidden=(16,), seed=2)
    sets, objective = build_objective(split(draw(spec, 240)), TABLE, mode, WEIGHTS)
    sca_matrix = TABLE.weights if mode in SCA_MODES else None
    batches = [batch for seed in (3, 4)
               for batch in plan_epoch([len(d) for d in sets], 30, seed=seed)]
    assert len(batches) >= 6
    rng = np.random.default_rng(1)
    for batch in batches:
        held = replace(objective, dm_targets=rng.random((sum(map(len, batch)), NUM_AUS)))
        for obj in (objective, held) if objective.dm_matrix is not None else (objective,):
            total, terms, g, _ = _joint_loss(model, sets, batch, obj)
            ref_total, ref_terms, ref_g, _ = _per_step_sca_joint_loss(
                model, sets, batch, obj, sca_matrix)
            assert total == ref_total
            assert list(terms) == list(ref_terms)
            assert ("sca" in terms) == (mode in SCA_MODES)
            for name, (value, head, rows, grad) in terms.items():
                ref_value, ref_head, ref_rows, ref_grad = ref_terms[name]
                assert value == ref_value and head == ref_head, name
                assert np.array_equal(np.arange(len(g))[rows], np.arange(len(g))[ref_rows]), name
                assert np.array_equal(grad, ref_grad), name
            assert np.array_equal(g, ref_g)


@pytest.mark.parametrize("mode", COUPLING_MODES)
def test_sca_targets_are_built_once_per_run(mode, monkeypatch):
    """``build_objective`` calls ``top_emotion`` once per training set in the SCA
    modes and never otherwise; no step calls it. Each set's targets are its
    rows' top emotions, -1 on every row without an AU label."""
    calls = []
    monkeypatch.setattr(labels, "top_emotion", lambda au, r: calls.append(len(au)) or
                        top_emotion(au, r))
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=4)
    sets, objective = build_objective(split(draw(spec, 180)), TABLE, mode, WEIGHTS)
    sca = mode in SCA_MODES
    assert calls == ([len(d) for d in sets] if sca else [])
    model = MultiHeadModel(8, hidden=(16,), seed=1)
    batches = plan_epoch([len(d) for d in sets], 20, seed=0)
    assert len(batches) >= 3
    for batch in batches:
        joint_loss_and_grads(model, sets, batch, objective)
    assert len(calls) == (len(sets) if sca else 0)
    if not sca:
        assert objective.sca_targets is None
        return
    assert len(objective.sca_targets) == len(sets)
    unlabelled = 0
    for data, target in zip(sets, objective.sca_targets):
        assert np.array_equal(target, top_emotion(data.au, TABLE.weights))
        no_au = np.isnan(data.au).all(axis=1)
        assert (target[no_au] == -1).all()
        unlabelled += no_au.sum()
    assert unlabelled and (objective.sca_targets[1] >= 0).any()


def _mixed_label_set(rng, n, dim):
    """``n`` rows, each carrying a non-empty random mix of an expression,
    partially annotated AUs (at least one) and VA."""
    carried = rng.random((n, 3)) < 0.5
    carried[~carried.any(axis=1), rng.integers(3)] = True
    annotated = rng.random((n, NUM_AUS)) < 0.3
    annotated[np.arange(n), rng.integers(NUM_AUS, size=n)] = True
    au = np.where(annotated & carried[:, 1:2], rng.integers(0, 2, (n, NUM_AUS)), np.nan)
    return SampleSet(
        ids=np.array([f"r{i}" for i in range(n)], dtype=object),
        features=rng.normal(size=(n, dim)),
        expr=np.where(carried[:, 0], rng.integers(0, len(EMOTIONS), n), -1), au=au,
        va=np.where(carried[:, 2:], rng.uniform(-1, 1, (n, 2)), np.nan),
        video=np.full(n, "", dtype=object), frame=np.full(n, -1),
        compound=np.full(n, "", dtype=object))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_training_and_evaluation_score_the_rows_of_label_masks(data):
    """Whatever mix of labels the rows carry, each task term of the joint step
    runs over the rows of the gathered batch that ``label_masks`` gives its
    label, and ``evaluate_model`` scores those same rows: VA only with two."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    sizes = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))
    mode = data.draw(st.sampled_from(COUPLING_MODES))
    sets, objective = build_objective([_mixed_label_set(rng, n, 4) for n in sizes], TABLE,
                                      mode, WEIGHTS)
    batch = tuple(rng.permutation(n)[: rng.integers(n + 1)] for n in sizes)
    batched = SampleSet.concat([d.take(rows) for d, rows in zip(sets, batch)])
    masks = labels.label_masks(batched.expr, batched.au, batched.va)
    assume(len(batched) and np.count_nonzero(masks[2]) != 1)  # CCC needs 2 rows
    model = MultiHeadModel(4, hidden=(5,), seed=0)
    _, terms, _, _ = _joint_loss(model, sets, batch, objective)
    for name, mask in zip(TASK_NAMES, masks):
        assert (name in terms) == mask.any(), name
        if mask.any():
            assert np.array_equal(terms[name][2], np.flatnonzero(mask)), name

    results = training.evaluate_model(model, batched)
    out, _ = model.forward(batched.features)
    expr_rows, au_rows, va_rows = map(np.flatnonzero, masks)
    assert ("expr" in results) == bool(expr_rows.size)
    if expr_rows.size:
        assert np.sum(results["expr"]["confusion"]) == expr_rows.size
    assert ("au" in results) == bool(au_rows.size)
    if au_rows.size:
        assert results["au"] == au_metrics(out["au"][au_rows], batched.au[au_rows])
    assert ("va" in results) == (va_rows.size >= 2)
    if va_rows.size >= 2:
        assert results["va"] == va_metrics(batched.va[va_rows], out["va"][va_rows])


def test_table_head_mismatch_is_a_data_error(dataset_dir, tmp_path):
    six = [c for c in EMOTIONS if c != "anger"]
    (tmp_path / "six.json").write_text(json.dumps({
        "classes": six, "labels": list(AU_LABELS), "kind": "empirical",
        "entries": {"happiness": {"AU12": 0.9}},
    }))
    config = make_config(
        dataset_dir, tmp_path / "run", epochs=1, coupling="distr_matching",
        relatedness={"path": str(tmp_path / "six.json")},
    )
    with pytest.raises(DataError, match=f"{tmp_path / 'six.json'}: classes .* in that order"):
        run_train(config)
    assert not (tmp_path / "run").exists()


def test_empirical_table_keeps_a_class_missing_from_the_corpus(tmp_path):
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=3)
    anger = EMOTIONS.index("anger")
    full = draw(spec, 400)
    corpus = full.take(full.expr != anger)
    write_samples_csv(tmp_path / "corpus.csv", corpus)
    for name, group in zip(("va", "au", "expr"), split(draw(spec, 120))):
        write_samples_csv(tmp_path / f"{name}.csv", group)
    assert main(["infer-relatedness", "--corpus", str(tmp_path / "corpus.csv"),
                 "--out", str(tmp_path / "empirical.json")]) == 0
    config = make_config(
        tmp_path, tmp_path / "run", epochs=1, coupling="soft_plus_dm",
        relatedness={"path": str(tmp_path / "empirical.json")},
    )
    manifest = run_train(config)
    table = RelatednessTable.load(tmp_path / "run" / "relatedness.json")
    assert table.to_dict()["classes"] == list(EMOTIONS)
    assert not table.weights[anger].any()
    assert manifest["steps"] == manifest["epoch_plans"][0]["iteration_count"]


@pytest.mark.parametrize("relatedness, error", [
    # the keys of earlier versions: a source, its corpus and threshold
    ({"source": "file"}, ConfigError),
    ({"path": "broken.json"}, DataError),
    ({"source": "fiel", "path": "broken.json"}, ConfigError),
    ({"source": "empirical", "path": "broken.json"}, ConfigError),
    ({"corpus": "c.csv"}, ConfigError),
    ({"source": "domain", "corpus": "c.csv"}, ConfigError),
    ({"path": "broken.json", "threshold": 0.2}, ConfigError),
    ({"source": "empirical", "corpus": "c.csv", "path": "broken.json"}, ConfigError),
])
def test_relatedness_file_errors_are_typed(dataset_dir, tmp_path, relatedness, error):
    """A relatedness key other than ``path`` is refused by name where the config
    is built; a file that is not a table, where the run reads it."""
    (tmp_path / "broken.json").write_text("{not json")
    if "path" in relatedness:
        relatedness = {**relatedness, "path": str(tmp_path / relatedness["path"])}
    if error is ConfigError:
        old = ", ".join(repr(key) for key in relatedness if key != "path")
        with pytest.raises(ConfigError, match=f"config.relatedness: unknown key\\(s\\) {old}$"):
            make_config(dataset_dir, tmp_path / "run", relatedness=relatedness)
        return
    config = make_config(dataset_dir, tmp_path / "run", relatedness=relatedness)
    with pytest.raises(DataError, match="relatedness"):
        run_train(config)


@pytest.mark.parametrize("loss_weights", [
    {"tasks": {"expr": -1.0}}, {"epsilon": 0.5}, {"couplings": {"dm": -0.5}}, {"epsilon": 0.1},
    {"epsilon": 0.0},
])
def test_loss_weight_errors_are_config_errors(dataset_dir, tmp_path, loss_weights):
    """A negative weight is refused, and so is any epsilon: the loss terms
    clamp at their fixed ``DEFAULT_EPS``."""
    refused = r"loss weight -\d\.\d for '\w+'|unknown key\(s\) 'epsilon'"
    with pytest.raises(ConfigError, match=refused):
        make_config(dataset_dir, tmp_path / "run", loss_weights=loss_weights)


@pytest.mark.parametrize("overrides", [
    {"epochz": 50},
    {"model": {"hidden": [8], "dropout": 0.1}},
    {"model": [16]},
    {"optimizer": {"learning_rate": 0.1}},
    {"loss_weights": {"tasks": {"expresion": 0.0}}},
    {"loss_weights": {"couplings": {"dms": 0.5}}},
    {"loss_weights": {"eps": 1e-6}},
    {"relatedness": {"file": "table.json"}},
])
def test_unknown_config_keys_are_config_errors(dataset_dir, tmp_path, overrides):
    with pytest.raises(ConfigError, match="config"):
        make_config(dataset_dir, tmp_path / "run", **overrides)


@pytest.mark.parametrize("overrides", [
    {"model": {"hidden": [16.5]}},
    {"model": {"hidden": "ab"}},
    {"model": {"hidden": [0]}},
    {"seed": -1},
    {"epochs": float("inf")},
    {"median_filter_window": 4},
    {"optimizer": {"lr": float("nan")}},
    {"optimizer": {"momentum": 1.0}},
    {"data": {"va": 5}},
    {"relatedness": {"path": None}},
    {"relatedness": {"path": 5}},
    {"relatedness": {"path": True}},
    {"relatedness": {"path": ["t.json"]}},
    {"relatedness": "t.json"},
    {"relatedness": None},
    {"reweight_observational": "false"},
    {"epochs": 2.7},
    {"max_batch": 20.9},
    {"seed": True},
    {"median_filter_window": 5.0},
    {"optimizer": {"lr": "0.01"}},
    {"optimizer": {"momentum": False}},
    {"holdout_fraction": False},
    {"loss_weights": {"couplings": {"dm": True}}},
    {"loss_weights": {"epsilon": "1e-7"}},
    {"loss_weights": {"tasks": {"au": float("inf")}}},
    {"loss_weights": {"couplings": {"dm": float("nan")}}},
    {"data": [["va", "x.csv"]]},
    {"model": {"hidden": ""}},
])
def test_malformed_config_values_are_config_errors(dataset_dir, tmp_path, overrides):
    with pytest.raises(ConfigError):
        make_config(dataset_dir, tmp_path / "run", **overrides)


def test_float_settings_take_json_ints(dataset_dir, tmp_path):
    config = make_config(dataset_dir, tmp_path / "run", optimizer={"lr": 1, "momentum": 0},
                         holdout_fraction=0, loss_weights={"tasks": {"expr": 2}})
    assert (config.lr, config.momentum, config.holdout_fraction) == (1.0, 0.0, 0.0)
    assert config.loss_weights == {**ONES, "expr": 2.0}
    assert type(config.loss_weights["expr"]) is float


def test_config_defaults_are_the_field_defaults(dataset_dir):
    d = {"expr": str(dataset_dir / "expr.csv")}
    assert ExperimentConfig.from_dict({"data": d}).to_dict() == ExperimentConfig(data=d).to_dict()


def test_config_keys_round_trip(dataset_dir, tmp_path):
    config = make_config(dataset_dir, tmp_path / "run", relatedness={"path": "t.json"},
        loss_weights={"tasks": {"expr": 0.5}, "couplings": {"dm": 2.0}})
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(["not", "an", "object"])
    with pytest.raises(ConfigError, match="out_dir must be of type str"):
        ExperimentConfig.from_dict({**config.to_dict(), "out_dir": 5})


def test_direct_and_replaced_configs_are_checked(dataset_dir):
    config = ExperimentConfig(data={"expr": str(dataset_dir / "expr.csv")}, tasks={"au": 2},
                              lr=1)
    assert (config.lr, config.loss_weights["au"]) == (1.0, 2.0)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        replace(config, seed=-3)
    with pytest.raises(ConfigError, match="out_dir must be of type str"):
        replace(config, out_dir=None)
    with pytest.raises(ConfigError, match="model.hidden must be of type list"):
        replace(config, hidden=(8,))
    with pytest.raises(ConfigError, match="loss_weights.couplings"):
        replace(config, couplings={"dms": 1.0})
    with pytest.raises(ConfigError):
        replace(config, couplings={"dm": "1.0"})


@pytest.mark.parametrize("overrides", [{"lr": np.float64(0.01)}, {"epochs": True}])
def test_config_values_have_their_json_type_exactly(dataset_dir, overrides):
    """A config takes the JSON types only: no NumPy float for a float, no bool for an int."""
    with pytest.raises(ConfigError, match="must be of type"):
        ExperimentConfig(data={"expr": str(dataset_dir / "expr.csv")}, **overrides)


def test_readme_config_table_lists_every_setting():
    """The README's table of settings has one row per key path that a config writes."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme[readme.index("| Key path |"):].split("\n\n")[0].splitlines()[2:]
    documented = [row.split("`")[1] for row in table]
    d = ExperimentConfig(data={"expr": "expr.csv"}).to_dict()
    sections = set(SECTION.values())
    written = [f"{s}.{name}" for s in sections for name in d[s]]
    written += [key for key in d if key not in sections]
    assert sorted(documented) == sorted(written)
    assert len(documented) == len(set(documented))


def test_config_hash_is_pinned():
    """The hash of a config, and so each manifest's, does not move between versions
    unless a setting is added or removed."""
    readme = {
        "data": {"va": "data/va.csv", "au": "data/au.csv", "expr": "data/expr.csv"},
        "coupling": "soft_plus_dm", "model": {"hidden": [64, 64]}, "max_batch": 200,
        "epochs": 10, "optimizer": {"lr": 0.01, "momentum": 0.9}, "holdout_fraction": 0.2,
        "seed": 0, "out_dir": "runs/demo",
    }
    every_key = {
        "data": {"va": "va.csv", "au": "au.csv", "expr": "expr.csv"},
        "relatedness": {"path": "t.json"},
        "coupling": "soft_plus_dm",
        "loss_weights": {"tasks": {"expr": 0.5, "au": 2, "va": 1.0},
                         "couplings": {"sca": 0.25, "dm": 2.0}},
        "model": {"hidden": [8, 4]}, "max_batch": 20, "epochs": 3,
        "optimizer": {"lr": 1, "momentum": 0}, "holdout_fraction": 0.1,
        "seed": 7, "out_dir": "o",
    }
    assert ExperimentConfig.from_dict(readme).config_hash() \
        == "6b126fbbd7b5dd89742fc4752b8c9c741c9531038ebb5de1a4b77e88dd314081"
    assert ExperimentConfig.from_dict(every_key).config_hash() \
        == "70f962f59f9b386acf1375e4f65afbfdeb4962b4a16d34f5fd71b7762dd82a19"
    assert ExperimentConfig.from_dict(every_key).to_dict() == every_key


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_video_median_filter_matches_per_video_loop(reference_median_filter_by_video, data):
    """Any videos (single frames too), duplicate frame numbers, rows in any order."""
    n = data.draw(st.integers(1, 40))
    video = np.array(data.draw(st.lists(st.sampled_from(["a", "b", "vid", ""]),
                                        min_size=n, max_size=n)), dtype=object)
    frame = np.array(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    predictions = np.random.default_rng(data.draw(st.integers(0, 99))).normal(size=(n, 2))
    window = data.draw(st.sampled_from([1, 3, 5]))
    got = _median_filter_by_video(video, frame, predictions, window)
    want = reference_median_filter_by_video(video, frame, predictions, window)
    assert got.tobytes() == want.tobytes()


def test_video_median_filter_cases(reference_median_filter_by_video):
    video = np.array(["b", "a", "b", "c", "a", "b", "a", "b"], dtype=object)
    frame = np.array([2, 0, 0, 5, 1, 1, 1, 3])  # "c" is one frame; "a" repeats frame 1
    predictions = np.array([[3.0, 9.0], [0.0, 1.0], [1.0, 7.0], [4.0, 4.0],
                            [10.0, 2.0], [2.0, 8.0], [-5.0, 3.0], [9.0, 6.0]])
    got = _median_filter_by_video(video, frame, predictions, 3)
    assert got.tolist() == [[3.0, 8.0], [0.0, 1.0], [1.0, 7.0], [4.0, 4.0],
                            [0.0, 2.0], [2.0, 8.0], [-5.0, 3.0], [9.0, 6.0]]
    for window in (1, 3, 5):
        want = reference_median_filter_by_video(video, frame, predictions, window)
        assert _median_filter_by_video(video, frame, predictions, window).tobytes() == want.tobytes()
    with pytest.raises(DataError, match="odd"):
        _median_filter_by_video(video, frame, predictions, 4)
