import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl import (
    AU_LABELS,
    EMOTIONS,
    ConfigError,
    DataError,
    ExperimentConfig,
    LossWeights,
    MultiHeadModel,
    RelatednessTable,
    SampleSet,
    domain_table,
)
from affectmtl.labels import EmotionSoftLabel, indicator_scores, write_samples_csv
from affectmtl.losses import (
    SoftTargets,
    ccc_loss_grad,
    dm_loss_grad,
    masked_bce_grad,
    sca_loss_grad,
    softmax_ce_grad,
)
from affectmtl.synthdata import GeneratorSpec, draw, split
from affectmtl.training import (
    _joint_loss, _median_filter_by_video, build_objective, run_eval, run_gradcheck, run_train,
)

TABLE = domain_table()


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
    plans = manifest["epoch_plans"]
    assert plans and plans[0]["iteration_count"] >= 1


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
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=3)
    corpus_csv = tmp_path / "corpus.csv"
    write_samples_csv(corpus_csv, draw(spec, 400))
    va_set, au_set, expr_set = split(draw(spec, 120))
    for name, group in [("va", va_set), ("au", au_set), ("expr", expr_set)]:
        write_samples_csv(tmp_path / f"{name}.csv", group)
    config = make_config(
        tmp_path, tmp_path / "run", epochs=1,
        relatedness={"source": "empirical", "corpus": str(corpus_csv), "threshold": 0.1},
        coupling="distr_matching",
    )
    manifest = run_train(config)
    saved = json.loads((tmp_path / "run" / "relatedness.json").read_text())
    assert saved["kind"] == "empirical"
    assert manifest["steps"] > 0


def test_run_gradcheck_passes_all_modes():
    report = run_gradcheck(batch_size=9, hidden=(8,), input_dim=8)
    assert set(report) == {"none", "co_annotation", "soft_co_annotation", "distr_matching", "soft_plus_dm"}
    assert max(report.values()) < 1e-5


# -- batch-form objective --------------------------------------------------


def _reference_loss(model, sets, batch, mode, table, weights):
    """Per-row loop over the batch: every loss term sample by sample, SCA
    targets from one row's soft label, DM targets from one row at a time."""
    picked = [(name, sets[name], i) for name, rows in batch.items() for i in rows]
    out, _ = model.forward(np.stack([d.features[i] for _, d, i in picked]))
    eps = weights.epsilon
    g = {h: np.zeros_like(v) for h, v in out.items()}
    losses = {}

    def mean_over(rows, term, head, weight):
        acc = 0.0
        for j in rows:
            v, grad = term(j, *picked[j][1:])
            acc += v
            g[head][j] += weight * grad / len(rows)
        return acc / len(rows)

    rows = [j for j, (_, d, i) in enumerate(picked) if d.expr[i] >= 0]
    losses["expr"] = mean_over(
        rows, lambda j, d, i: softmax_ce_grad(out["expr"][j], d.expr[i], eps),
        "expr", weights.task("expr"),
    )
    rows = [j for j, (_, d, i) in enumerate(picked) if not np.isnan(d.au[i]).all()]
    losses["au"] = mean_over(
        rows, lambda j, d, i: masked_bce_grad(out["au"][j], d.au[i], d.au_weights[i], eps),
        "au", weights.task("au"),
    )
    rows = [j for j, (_, d, i) in enumerate(picked) if not np.isnan(d.va[i]).any()]
    va = np.array([picked[j][1].va[picked[j][2]] for j in rows])
    losses["va"], grad = ccc_loss_grad(va, out["va"][rows])
    g["va"][rows] += weights.task("va") * grad
    if mode in ("soft_co_annotation", "soft_plus_dm"):
        rows = [j for j, (name, _, _) in enumerate(picked) if name == "au"]
        losses["sca"] = mean_over(
            rows, lambda j, d, i: sca_loss_grad(
                out["expr"][j],
                EmotionSoftLabel.from_indicators(
                    indicator_scores(d.au[i], table.weight_matrix(True))),
                eps),
            "expr", weights.coupling("sca"),
        )
    if mode in ("distr_matching", "soft_plus_dm"):
        r = table.weight_matrix(True)
        acc = 0.0
        for j in range(len(picked)):
            q = SoftTargets(q_binary=out["expr"][j] @ r)
            v, grad_p, grad_q = dm_loss_grad(out["au"][j], q, eps)
            acc += v
            g["au"][j] += weights.coupling("dm") * grad_p / len(picked)
            g["expr"][j] += weights.coupling("dm") * (r @ grad_q) / len(picked)
        losses["dm"] = acc / len(picked)
    return losses, g


@pytest.mark.parametrize(
    "mode", ["none", "co_annotation", "soft_co_annotation", "distr_matching", "soft_plus_dm"]
)
def test_batch_objective_matches_per_row_loop(mode):
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=4)
    va_set, au_set, expr_set = split(draw(spec, 180))
    sets = {name: group.take(np.arange(size))
            for name, group, size in (("va", va_set, 40), ("au", au_set, 50), ("expr", expr_set, 45))}
    weights = LossWeights({"expr": 0.7, "va": 1.3}, {"sca": 0.6, "dm": 1.7})
    model = MultiHeadModel(8, hidden=(16,), seed=1)
    sets, objective = build_objective(model, sets, TABLE, mode, weights)
    # rows in a shuffled order, as the epoch plan draws them
    rng = np.random.default_rng(0)
    batch = {name: rng.permutation(len(sets[name])) for name in ("va", "au", "expr")}
    if mode == "co_annotation":
        assert sets["expr"].au_rows.size  # the expr set gained AU labels
    report, g, _ = _joint_loss(model, sets, batch, objective)
    losses, g_ref = _reference_loss(model, sets, batch, mode, TABLE, weights)
    assert set(report.task_losses) | set(report.coupling_losses) == set(losses)
    for name, v in {**report.task_losses, **report.coupling_losses}.items():
        assert abs(v - losses[name]) <= 1e-12, name
    for head in g_ref:
        assert np.max(np.abs(g[head] - g_ref[head])) <= 1e-12, head


def test_sca_targets_follow_rows_not_ids(one_row):
    happy, sad = np.zeros(17), np.zeros(17)
    happy[[4, 9, 15]] = 1.0  # AU6, AU12, AU25
    sad[[2, 10]] = 1.0  # AU4, AU15
    au_set = SampleSet.concat([one_row("dup", np.zeros(8), au=a) for a in (happy, sad)])
    model = MultiHeadModel(8, hidden=(4,))
    _, objective = build_objective(
        model, {"au": au_set}, TABLE, "soft_co_annotation", LossWeights()
    )
    r = TABLE.weight_matrix(True)
    for au, q in zip(au_set.au, objective.sca_targets):
        assert np.allclose(q, EmotionSoftLabel.from_indicators(indicator_scores(au, r)).q,
                           atol=1e-15)
    assert not np.allclose(objective.sca_targets[0], objective.sca_targets[1])


def test_table_head_mismatch_is_a_data_error(dataset_dir, tmp_path):
    six = [c for c in EMOTIONS if c != "anger"]
    (tmp_path / "six.json").write_text(json.dumps({
        "classes": six, "labels": list(AU_LABELS), "kind": "empirical",
        "entries": {"happiness": {"AU12": {"w": 0.9, "proto": False}}},
    }))
    config = make_config(
        dataset_dir, tmp_path / "run", epochs=1, coupling="distr_matching",
        relatedness={"source": "file", "path": str(tmp_path / "six.json")},
    )
    with pytest.raises(DataError, match="relatedness table shape"):
        run_train(config)


def test_empirical_table_keeps_a_class_missing_from_the_corpus(tmp_path):
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=8, seed=3)
    anger = EMOTIONS.index("anger")
    full = draw(spec, 400)
    corpus = full.take(full.expr != anger)
    write_samples_csv(tmp_path / "corpus.csv", corpus)
    for name, group in zip(("va", "au", "expr"), split(draw(spec, 120))):
        write_samples_csv(tmp_path / f"{name}.csv", group)
    config = make_config(
        tmp_path, tmp_path / "run", epochs=1, coupling="soft_plus_dm",
        relatedness={"source": "empirical", "corpus": str(tmp_path / "corpus.csv")},
    )
    manifest = run_train(config)
    table = RelatednessTable.load(tmp_path / "run" / "relatedness.json")
    assert table.class_names == EMOTIONS
    assert table.lookup(anger) == ()
    assert manifest["steps"] == manifest["epoch_plans"][0]["iteration_count"]


@pytest.mark.parametrize("relatedness, error", [
    ({"source": "file"}, ConfigError),
    ({"source": "file", "path": "broken.json"}, DataError),
])
def test_relatedness_file_errors_are_typed(dataset_dir, tmp_path, relatedness, error):
    (tmp_path / "broken.json").write_text("{not json")
    if "path" in relatedness:
        relatedness = {**relatedness, "path": str(tmp_path / relatedness["path"])}
    config = make_config(dataset_dir, tmp_path / "run", relatedness=relatedness)
    with pytest.raises(error, match="relatedness"):
        run_train(config)


@pytest.mark.parametrize("loss_weights", [{"tasks": {"expr": -1.0}}, {"epsilon": 0.5}])
def test_loss_weight_errors_are_config_errors(dataset_dir, tmp_path, loss_weights):
    with pytest.raises(ConfigError):
        make_config(dataset_dir, tmp_path / "run", loss_weights=loss_weights)


@pytest.mark.parametrize("overrides", [
    {"epochz": 50},
    {"model": {"hidden": [8], "dropout": 0.1}},
    {"model": [16]},
    {"optimizer": {"learning_rate": 0.1}},
    {"loss_weights": {"tasks": {"expresion": 0.0}}},
    {"loss_weights": {"couplings": {"dms": 0.5}}},
    {"loss_weights": {"eps": 1e-6}},
    {"relatedness": {"source": "file", "file": "table.json"}},
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
    {"relatedness": {"source": "empirical", "corpus": None}},
    {"relatedness": {"source": "empirical", "corpus": "c.csv", "threshold": "high"}},
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
])
def test_malformed_config_values_are_config_errors(dataset_dir, tmp_path, overrides):
    with pytest.raises(ConfigError):
        make_config(dataset_dir, tmp_path / "run", **overrides)


def test_float_settings_take_json_ints(dataset_dir, tmp_path):
    config = make_config(dataset_dir, tmp_path / "run", optimizer={"lr": 1, "momentum": 0},
                         holdout_fraction=0, loss_weights={"tasks": {"expr": 2}})
    assert (config.lr, config.momentum, config.holdout_fraction) == (1.0, 0.0, 0.0)
    assert config.loss_weights.task("expr") == 2.0


def test_config_keys_round_trip(dataset_dir, tmp_path):
    config = make_config(dataset_dir, tmp_path / "run", relatedness={
        "source": "empirical", "corpus": "c.csv", "threshold": 0.2, "path": "t.json"},
        loss_weights={"tasks": {"expr": 0.5}, "couplings": {"dm": 2.0}, "epsilon": 1e-6})
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(["not", "an", "object"])
    with pytest.raises(ConfigError, match="out_dir must be of type str"):
        ExperimentConfig.from_dict({**config.to_dict(), "out_dir": 5})


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
