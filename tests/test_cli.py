import csv
import json
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl import MultiHeadModel, domain_table, save_compound_profiles, default_compound_classes
from affectmtl import cli
from affectmtl.cli import main
from affectmtl.zeroshot import CompoundScores
from affectmtl.labels import read_samples_csv

TABLE = domain_table()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("cli")
    assert main([
        "gen-data", "--out", str(ws / "data"), "--n", "240",
        "--feature-dim", "10", "--seed", "0", "--full",
    ]) == 0
    config = {
        "data": {
            "va": str(ws / "data" / "va.csv"),
            "au": str(ws / "data" / "au.csv"),
            "expr": str(ws / "data" / "expr.csv"),
        },
        "coupling": "soft_plus_dm",
        "model": {"hidden": [16]},
        "max_batch": 40,
        "epochs": 1,
        "optimizer": {"lr": 0.05, "momentum": 0.9},
        "seed": 0,
        "out_dir": str(ws / "run"),
    }
    (ws / "config.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(ws / "config.json")]) == 0
    return ws


def test_gen_data_outputs(workspace):
    for name in ("va.csv", "au.csv", "expr.csv", "full.csv", "manifest.json"):
        assert (workspace / "data" / name).exists()


def test_gen_data_full_rows_carry_the_unstripped_labels(workspace):
    """``full.csv`` holds each sample of ``va.csv``, ``au.csv`` and ``expr.csv``
    once, with the same features and that set's label, plus the other two."""
    full = read_samples_csv(workspace / "data" / "full.csv")
    assert len(full.expr_rows) == len(full.au_rows) == len(full.va_rows) == len(full)
    index = {sid: i for i, sid in enumerate(full.ids)}
    seen = []
    for name in ("va", "au", "expr"):
        part = read_samples_csv(workspace / "data" / f"{name}.csv")
        rows = [index[sid] for sid in part.ids]
        assert part.features.tobytes() == full.features[rows].tobytes()
        assert np.array_equal(getattr(part, name), getattr(full, name)[rows])
        seen += rows
    assert sorted(seen) == list(range(len(full)))


def test_train_artifacts_and_manifest(workspace):
    manifest = json.loads((workspace / "run" / "manifest.json").read_text())
    assert manifest["config"]["coupling"] == "soft_plus_dm"
    assert manifest["config_hash"]
    assert manifest["versions"]["numpy"]


def test_train_missing_dataset_exit_code(workspace, tmp_path):
    config = json.loads((workspace / "config.json").read_text())
    config["data"]["va"] = str(tmp_path / "missing.csv")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2


def test_train_bad_config_exit_code(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["train", "--config", str(p)]) == 1


def test_eval_command(workspace, tmp_path):
    out = tmp_path / "metrics.json"
    assert main([
        "eval", "--checkpoint", str(workspace / "run" / "model.bin"),
        "--data", str(workspace / "data" / "expr.csv"), "--out", str(out),
    ]) == 0
    metrics = json.loads(out.read_text())
    assert "expr" in metrics and "accuracy" in metrics["expr"]


@pytest.mark.parametrize("window", [4, 0, -3])
@pytest.mark.parametrize("keyed", [False, True])
def test_eval_bad_median_window_is_a_usage_error(workspace, tmp_path, capsys, window, keyed):
    """An even window or one below 1 fails before any data is read, whether
    the CSV has sequence keys (the filter would run) or not."""
    data = workspace / "data" / "va.csv"
    if keyed:
        assert main(["gen-data", "--out", str(tmp_path), "--n", "60", "--feature-dim", "10",
                     "--full", "--frames-per-video", "20"]) == 0
        data = tmp_path / "full.csv"
    args = ["eval", "--checkpoint", str(workspace / "run" / "model.bin"), "--data", str(data)]
    assert main(args + ["--median-window", "3"]) == 0
    capsys.readouterr()
    assert main(args + ["--median-window", str(window)]) == 1
    assert "median window" in capsys.readouterr().err


def test_infer_relatedness_command(workspace, tmp_path):
    out = tmp_path / "empirical.json"
    assert main([
        "infer-relatedness", "--corpus", str(workspace / "data" / "full.csv"),
        "--out", str(out),
    ]) == 0
    table = json.loads(out.read_text())
    assert table["kind"] == "empirical"


def test_infer_relatedness_without_coannotation(workspace, tmp_path):
    # the VA-only set has no (expr, au) pairs: a data error, as in train
    assert main([
        "infer-relatedness", "--corpus", str(workspace / "data" / "va.csv"),
        "--out", str(tmp_path / "x.json"),
    ]) == 2


@pytest.mark.parametrize("corpus, code", [("full.csv", 0), ("va.csv", 2)])
def test_train_empirical_relatedness_matches_infer_relatedness(workspace, tmp_path, corpus, code):
    corpus = workspace / "data" / corpus
    inferred = tmp_path / "inferred.json"
    assert main(["infer-relatedness", "--corpus", str(corpus), "--out", str(inferred)]) == code
    config = json.loads((workspace / "config.json").read_text())
    config["relatedness"] = {"source": "empirical", "corpus": str(corpus)}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "run")]) == code
    if code == 0:
        assert (tmp_path / "run" / "relatedness.json").read_text() == inferred.read_text()


def test_zero_shot_command(workspace, tmp_path):
    profiles = tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    out = tmp_path / "zs"
    assert main([
        "zero-shot", "--checkpoint", str(workspace / "run" / "model.bin"),
        "--profiles", str(profiles), "--data", str(workspace / "data" / "expr.csv"),
        "--out", str(out),
    ]) == 0
    with open(out / "compound_scores.csv") as f:
        rows = list(csv.DictReader(f))
    n_classes = 11
    assert len(rows) % n_classes == 0
    per_sample = rows[:n_classes]
    assert sum(int(r["predicted"]) for r in per_sample) == 1
    for r in per_sample:
        total = float(r["i_au"]) + float(r["f_emo"]) + float(r["d_va"])
        assert total == pytest.approx(float(r["total"]))
    # output ordering matches input ordering
    ids = [r["id"] for r in rows[::n_classes]]
    assert ids == sorted(ids, key=ids.index)


def test_zero_shot_empty_profile_exit_code(workspace, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main([
        "zero-shot", "--checkpoint", str(workspace / "run" / "model.bin"),
        "--profiles", str(empty), "--data", str(workspace / "data" / "expr.csv"),
        "--out", str(tmp_path / "zs"),
    ]) == 2


def test_zero_shot_with_compound_truth(workspace, tmp_path):
    # append a compound ground-truth column naming one default class
    src = (workspace / "data" / "expr.csv").read_text().splitlines()
    header = src[0] + ",compound"
    rows = [line + ",happily_surprised" for line in src[1:3]]
    data = tmp_path / "compound.csv"
    data.write_text("\n".join([header] + rows) + "\n")
    profiles = tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    out = tmp_path / "zs"
    assert main([
        "zero-shot", "--checkpoint", str(workspace / "run" / "model.bin"),
        "--profiles", str(profiles), "--data", str(data), "--out", str(out),
    ]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert 0.0 <= metrics["compound_accuracy"] <= 1.0


def _zero_shot(workspace, profiles, data, out, checkpoint=None):
    checkpoint = checkpoint or workspace / "run" / "model.bin"
    return main(["zero-shot", "--checkpoint", str(checkpoint), "--profiles", str(profiles),
                 "--data", str(data), "--out", str(out)])


def test_zero_shot_accuracy_lines_up_truth_by_row(workspace, tmp_path):
    # two rows share an id and features but carry different compound labels
    header, row = (workspace / "data" / "expr.csv").read_text().splitlines()[:2]
    profiles = tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    (tmp_path / "one.csv").write_text(f"{header}\n{row}\n")
    assert _zero_shot(workspace, profiles, tmp_path / "one.csv", tmp_path / "probe") == 0
    with open(tmp_path / "probe" / "compound_scores.csv") as f:
        picked = next(r["class"] for r in csv.DictReader(f) if r["predicted"] == "1")
    other = next(c.name for c in default_compound_classes(TABLE) if c.name != picked)
    data = tmp_path / "twice.csv"
    data.write_text(f"{header},compound\n{row},{picked}\n{row},{other}\n")
    assert _zero_shot(workspace, profiles, data, tmp_path / "zs") == 0
    metrics = json.loads((tmp_path / "zs" / "metrics.json").read_text())
    assert metrics["compound_accuracy"] == 0.5


def test_zero_shot_compound_truth_after_a_multi_line_cell(workspace, tmp_path):
    # a quoted cell with a line break and a comma comes before the compound column
    header, *rows = (workspace / "data" / "expr.csv").read_text().splitlines()[:4]
    profiles = tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    (tmp_path / "probe.csv").write_text("\n".join([header, *rows]) + "\n")
    assert _zero_shot(workspace, profiles, tmp_path / "probe.csv", tmp_path / "probe") == 0
    with open(tmp_path / "probe" / "compound_scores.csv", newline="") as f:
        picked = [r["class"] for r in csv.DictReader(f) if r["predicted"] == "1"]
    other = next(c.name for c in default_compound_classes(TABLE) if c.name != picked[2])
    truth = [picked[0], picked[1], other]
    note = '"two\nlines, one ""quoted"""'
    data = tmp_path / "noted.csv"
    data.write_text("\n".join([f"{header},note,compound", f"{rows[0]},{note},{truth[0]}",
                               f"{rows[1]},{note},{truth[1]}", f"{rows[2]},,{truth[2]}",
                               f"{rows[0]},{note},"]) + "\n")
    assert _zero_shot(workspace, profiles, data, tmp_path / "zs") == 0
    metrics = json.loads((tmp_path / "zs" / "metrics.json").read_text())
    assert metrics["compound_accuracy"] == 2 / 3


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_shot_scores_csv_matches_row_by_row_writer(
        workspace, reference_write_compound_scores, csv_cells, data):
    """``compound_scores.csv`` holds what the row-by-row csv.writer code writes,
    for any ids and class names, and for data CSVs in either feature form."""
    text, floats = csv_cells
    ids = data.draw(st.lists(text, min_size=1, max_size=6), label="ids")
    names = data.draw(st.lists(text, min_size=1, max_size=4), label="class names")
    n, k = len(ids), len(names)

    def matrix(values):
        return np.array(data.draw(st.lists(values, min_size=n * k, max_size=n * k))).reshape(n, k)

    total = matrix(floats)
    scores = CompoundScores(matrix(floats), matrix(floats), matrix(st.sampled_from([0.0, 1.0])),
                            total, total.argmax(axis=1))
    classes = [replace(c, name=name) for c, name in zip(default_compound_classes(TABLE), names)]
    features = np.random.default_rng(0).normal(size=(n, 10))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_compound_profiles(tmp / "profiles.json", classes)
        with open(tmp / "data.csv", "w", newline="") as f:
            w = csv.writer(f)
            if data.draw(st.booleans(), label="feature_file"):
                np.save(tmp / "x.npy", features)
                w.writerow(["id", "feature_file", "expr"])
                w.writerows((i, f"x.npy:{row}", 1) for row, i in enumerate(ids))
            else:
                w.writerow(["id", *(f"f{j}" for j in range(10)), "expr"])
                w.writerows((i, *x, 1) for i, x in zip(ids, features.tolist()))
        with patch.object(cli, "compound_scores", lambda heads, profiles: scores):
            assert _zero_shot(workspace, tmp / "profiles.json", tmp / "data.csv", tmp / "zs") == 0
        reference_write_compound_scores(tmp / "want.csv", ids, names, scores)
        assert (tmp / "zs" / "compound_scores.csv").read_bytes() == (tmp / "want.csv").read_bytes()


@pytest.mark.parametrize("key, value", [
    ("emo1", -1), ("emo2", 7), ("positive_valence", "false"), ("aus", {"12": "x"}),
    ("aus", {"twelve": 1.0}), ("aus", [12]),
])
def test_zero_shot_malformed_profile_exit_code(workspace, tmp_path, capsys, key, value):
    profiles = tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    payload = json.loads(profiles.read_text())
    payload[0][key] = value
    profiles.write_text(json.dumps(payload))
    assert _zero_shot(workspace, profiles, workspace / "data" / "expr.csv", tmp_path / "zs") == 2
    assert str(profiles) in capsys.readouterr().err


@pytest.mark.parametrize("heads", [
    {"va": ("tanh", 2), "expr": ("softmax", 7), "au": ("sigmoid", 5)},
    {"expr": ("softmax", 7), "au": ("sigmoid", 17)},
])
def test_zero_shot_checkpoint_heads_exit_code(workspace, tmp_path, capsys, heads):
    checkpoint = tmp_path / "model.bin"
    MultiHeadModel(10, hidden=(4,), heads=heads).save(checkpoint)
    profiles = tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    data = workspace / "data" / "expr.csv"
    assert _zero_shot(workspace, profiles, data, tmp_path / "zs", checkpoint) == 2
    assert str(checkpoint) in capsys.readouterr().err


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 30) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_profile_files(draw, payload):
    """The bytes of a valid profile ``payload`` after one structural or textual mutation."""
    entry = draw(st.sampled_from(payload))
    au = draw(st.sampled_from(sorted(entry["aus"])))
    kinds = ["value", "drop", "entry", "au_key", "au_weight", "payload", "bytes"]
    kind = draw(st.sampled_from(kinds))
    if kind == "value":
        entry[draw(st.sampled_from(sorted(entry)))] = draw(JSON_VALUES)
    elif kind == "drop":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif kind == "entry":
        payload[payload.index(entry)] = draw(JSON_VALUES)
    elif kind == "au_key":
        entry["aus"][draw(st.text(max_size=4))] = entry["aus"].pop(au)
    elif kind == "au_weight":
        entry["aus"][au] = draw(JSON_VALUES)
    elif kind == "payload":
        payload = draw(JSON_VALUES)
    blob = json.dumps(payload).encode()
    if kind == "bytes":
        cut = draw(st.integers(0, len(blob)))
        blob = blob[:cut] + draw(st.binary(max_size=3)) + blob[cut + draw(st.integers(0, 3)):]
    return blob


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_shot_mutated_profile_file_exit_code(workspace, data):
    profiles = workspace / "mutated.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    profiles.write_bytes(data.draw(mutated_profile_files(json.loads(profiles.read_text()))))
    data_csv, out = workspace / "data" / "expr.csv", workspace / "zs_mutated"
    assert _zero_shot(workspace, profiles, data_csv, out) in (0, 2)


def test_gradcheck_command(capsys):
    assert main(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "gradient check passed" in out


def test_gradcheck_failure_exit_code(monkeypatch):
    import affectmtl.cli as cli

    def boom(**kwargs):
        from affectmtl.errors import NumericalError

        raise NumericalError("gradient check failed")

    monkeypatch.setattr(cli, "run_gradcheck", boom)
    assert main(["gradcheck"]) == 3


def test_train_prints_the_output_directory(workspace, tmp_path, capsys):
    config = json.loads((workspace / "config.json").read_text())
    config["out_dir"] = str(tmp_path / "printed")
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json")]) == 0
    assert f"-> {tmp_path / 'printed'}" in capsys.readouterr().out


@pytest.mark.parametrize("loss_weights", [{"tasks": {"au": -0.5}}, {"epsilon": 1.0}])
def test_train_bad_loss_weights_exit_code(workspace, tmp_path, loss_weights):
    config = json.loads((workspace / "config.json").read_text())
    config["loss_weights"] = loss_weights
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json")]) == 1


def _eval(workspace, data, checkpoint=None):
    checkpoint = checkpoint or workspace / "run" / "model.bin"
    return main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)])


def _split_checkpoint(blob):
    hlen = int.from_bytes(blob[:8], "little")
    return json.loads(blob[8 : 8 + hlen]), blob[8 + hlen :]


def _join_checkpoint(header, params):
    raw = json.dumps(header).encode()
    return len(raw).to_bytes(8, "little") + raw + params


@pytest.mark.parametrize("damage", [
    "trailing", "missing_key", "short", ("hidden", [400000, 400000]), ("hidden", [16.0]),
    ("hidden", 16), ("input_dim", True), ("input_dim", -10), ("input_dim", "10"),
    ("heads", {"expr": ["softmax"]}), ("heads", {"expr": ["relu", 7]}), ("heads", []),
    ("heads", {"expr": ["softmax", 10**12]}), ("seed", -1), ("seed", 0.5),
    ("trunk_frozen", "no"), ("header", [1, 2]),
], ids=str)
def test_eval_malformed_checkpoint_exit_code(workspace, tmp_path, capsys, damage):
    header, params = _split_checkpoint((workspace / "run" / "model.bin").read_bytes())
    if damage == "trailing":
        params += b"\0"
    elif damage == "missing_key":
        del header["input_dim"]
    elif damage == "short":
        params = params[:-8]
    elif damage[0] == "header":
        header = damage[1]
    else:
        header[damage[0]] = damage[1]
    (tmp_path / "model.bin").write_bytes(_join_checkpoint(header, params))
    assert _eval(workspace, workspace / "data" / "full.csv", tmp_path / "model.bin") == 2
    assert str(tmp_path / "model.bin") in capsys.readouterr().err


def test_eval_huge_declared_checkpoint_is_a_data_error(tmp_path, capsys):
    # a small file declaring a ~1 TiB trunk must fail before anything is allocated
    header = {"input_dim": 10, "hidden": [400000, 400000], "seed": 0,
              "heads": {"va": ["tanh", 2], "expr": ["softmax", 7], "au": ["sigmoid", 17]}}
    blob = _join_checkpoint(header, bytes(300 - 8 - len(json.dumps(header))))
    assert len(blob) == 300
    (tmp_path / "model.bin").write_bytes(blob)
    assert _eval(None, tmp_path / "unused.csv", tmp_path / "model.bin") == 2
    assert "parameter bytes" in capsys.readouterr().err


def test_eval_non_finite_checkpoint_parameter_is_a_data_error(workspace, tmp_path):
    header, params = _split_checkpoint((workspace / "run" / "model.bin").read_bytes())
    params = np.frombuffer(params, "<f8").copy()
    params[3] = np.nan
    (tmp_path / "model.bin").write_bytes(_join_checkpoint(header, params.tobytes()))
    assert _eval(workspace, workspace / "data" / "full.csv", tmp_path / "model.bin") == 2


@st.composite
def mutated_checkpoints(draw, blob):
    """The bytes of a valid checkpoint after one header or byte-level mutation.

    Declared sizes may be huge: the loader must reject them by the file size
    before it allocates anything."""
    header, params = _split_checkpoint(blob)
    sizes = st.integers(-2, 40) | st.integers(0, 2**64)
    kinds = ["value", "drop", "key", "dims", "head", "flip", "truncate", "append", "length"]
    kind = draw(st.sampled_from(kinds))
    if kind == "value":
        header[draw(st.sampled_from(sorted(header)))] = draw(JSON_VALUES)
    elif kind == "drop":
        del header[draw(st.sampled_from(sorted(header)))]
    elif kind == "key":
        header[draw(st.text(max_size=4))] = draw(JSON_VALUES)
    elif kind == "dims":
        header["input_dim"] = draw(sizes)
        header["hidden"] = draw(st.lists(sizes, max_size=3))
    elif kind == "head":
        name = draw(st.sampled_from(sorted(header["heads"])) | st.text(max_size=3))
        header["heads"][name] = [draw(st.sampled_from(["tanh", "softmax", "sigmoid", "relu"])),
                                 draw(sizes)]
    blob = bytearray(_join_checkpoint(header, params))
    if kind == "flip":
        blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
    elif kind == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    elif kind == "append":
        blob += draw(st.binary(min_size=1, max_size=16))
    elif kind == "length":
        blob[:8] = draw(st.integers(0, 2**64 - 1)).to_bytes(8, "little")
    return bytes(blob)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_eval_mutated_checkpoint_exit_code(workspace, data):
    """Whatever one mutation does to a valid checkpoint, eval succeeds or fails
    with a data error."""
    checkpoint = workspace / "mutated.bin"
    checkpoint.write_bytes(data.draw(mutated_checkpoints((workspace / "run" / "model.bin").read_bytes())))
    rows = workspace / "rows.csv"
    if not rows.exists():
        rows.write_text("\n".join((workspace / "data" / "full.csv").read_text().splitlines()[:30]) + "\n")
    assert _eval(workspace, rows, checkpoint) in (0, 2)


CONFIG_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-2.0, 30.0)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e-7, 2.7, 20.9, 2.0, "none",
                       "soft_plus_dm", "domain", "file", "empirical"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3) | st.sampled_from(["va", "expr", "au", "dm", "sca"]),
                      inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutated_configs(draw, config):
    """The bytes of a valid config after one value, key, section or byte mutation.

    Drawn numbers stay small, so a config that parses trains a few small epochs."""
    sections = sorted(k for k, v in config.items() if isinstance(v, dict))
    kind = draw(st.sampled_from(["value", "drop", "key", "section_value", "section_key", "bytes"]))
    if kind in ("section_value", "section_key"):
        target = config[draw(st.sampled_from(sections))]
        if "tasks" in target and draw(st.booleans()):
            target = target["tasks"]
    else:
        target = config
    if kind in ("value", "section_value"):
        target[draw(st.sampled_from(sorted(target)))] = draw(CONFIG_VALUES)
    elif kind == "drop":
        del target[draw(st.sampled_from(sorted(target)))]
    elif kind in ("key", "section_key"):
        target[draw(st.text(max_size=6))] = draw(CONFIG_VALUES)
    blob = json.dumps(config).encode()
    if kind == "bytes":
        cut = draw(st.integers(0, len(blob)))
        blob = blob[:cut] + draw(st.binary(max_size=3)) + blob[cut + draw(st.integers(0, 3)):]
    return blob


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_train_mutated_config_exit_code(workspace, tmp_path_factory, data):
    """Whatever one mutation does to a valid config, train succeeds or fails
    with a config or data error."""
    small = workspace / "small"
    if not small.exists():
        small.mkdir()
        for name in ("va", "au", "expr", "full"):
            lines = (workspace / "data" / f"{name}.csv").read_text().splitlines()[:41]
            (small / f"{name}.csv").write_text("\n".join(lines) + "\n")
    config = {
        "data": {name: str(small / f"{name}.csv") for name in ("va", "au", "expr")},
        "relatedness": {"source": "empirical", "corpus": str(small / "full.csv"),
                        "threshold": 0.1},
        "coupling": "soft_plus_dm",
        "reweight_observational": True,
        "loss_weights": {"tasks": {"expr": 1.0, "au": 1.0, "va": 1.0},
                         "couplings": {"sca": 1.0, "dm": 1.0}, "epsilon": 1e-7},
        "model": {"hidden": [8]},
        "max_batch": 20,
        "epochs": 1,
        "optimizer": {"lr": 0.01, "momentum": 0.9},
        "holdout_fraction": 0.2,
        "median_filter_window": 5,
        "seed": 0,
        "out_dir": "unused",
    }
    path = workspace / "mutated_config.json"
    blob = data.draw(mutated_configs(config))
    path.write_bytes(blob)
    out = tmp_path_factory.mktemp("mutated_run")
    code = main(["train", "--config", str(path), "--out", str(out)])
    assert code in (0, 1, 2)
    if _inexact_setting(blob):
        assert code == 1


def _inexact_setting(blob: bytes) -> bool:
    """Whether a config holds a non-int where an int belongs (a float, even a
    whole one, or a bool), a non-number where a float belongs (a string or a
    bool) or a non-string ``out_dir``: values that must not be truncated,
    converted or stringified."""
    try:
        d = json.loads(blob)
    except ValueError:
        return False
    if not isinstance(d, dict):
        return False

    def section(d, key):
        return d[key] if isinstance(d.get(key), dict) else {}

    lw = section(d, "loss_weights")
    ints = [d[k] for k in ("epochs", "max_batch", "median_filter_window", "seed") if k in d]
    floats = [*(d[k] for k in ("holdout_fraction",) if k in d),
              *(v for k, v in section(d, "optimizer").items() if k in ("lr", "momentum")),
              *(v for k, v in lw.items() if k == "epsilon"),
              *section(lw, "tasks").values(), *section(lw, "couplings").values()]
    return (any(type(v) is not int for v in ints) or type(d.get("out_dir", "")) is not str
            or any(type(v) not in (int, float) for v in floats))


def _rewrite_first_row(src, dst, **cells):
    with open(src, newline="") as f:
        rows = list(csv.DictReader(f))
    rows[0].update(cells)
    with open(dst, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)


@pytest.mark.parametrize("cells", [
    {"f0": "abc"},
    {"valence": "high", "arousal": "0.1"},
    {"expr": "happy"},
    {"expr": "9"},
    {"au_12": "yes"},
    {"au_12": "2"},
    {"video_id": "v0", "frame_idx": "first"},
    {"f3": "nan"},
    {"f3": "inf"},
    {"valence": "0.5", "arousal": ""},
    {"valence": "", "arousal": "0.1"},
    {"valence": "nan"},
    {"arousal": "-inf"},
    {"video_id": "v0", "frame_idx": "99999999999999999999"},
])
def test_eval_malformed_csv_cell_exit_code(workspace, tmp_path, capsys, cells):
    data = tmp_path / "bad.csv"
    _rewrite_first_row(workspace / "data" / "full.csv", data, **cells)
    assert _eval(workspace, data) == 2
    assert f"{data}, line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ref",
    ["missing.npy:0", "empty.npy:0", "feats.npy:7", "feats.npy:-1", "feats.npy:x", "feats.npy",
     "wide.npy:0", "feats.npz:0", "inf.npy:1"],
)
def test_eval_bad_feature_file_reference_exit_code(workspace, tmp_path, capsys, ref):
    np.save(tmp_path / "feats.npy", np.zeros((2, 10)))
    np.save(tmp_path / "inf.npy", np.array([[0.0] * 10, [np.inf] * 10]))
    np.save(tmp_path / "wide.npy", np.zeros((2, 11)))
    np.savez(tmp_path / "feats.npz", x=np.zeros((2, 10)))
    (tmp_path / "empty.npy").write_bytes(b"")
    data = tmp_path / "npy.csv"
    data.write_text(f"id,feature_file,expr\na,feats.npy:0,1\nb,{ref},2\n")
    assert _eval(workspace, data) == 2
    assert f"{data}, line 3" in capsys.readouterr().err


@st.composite
def mutated_csv_files(draw, text: str) -> bytes:
    """The bytes of a valid annotation CSV after one textual mutation."""
    lines = [line.split(",") for line in text.splitlines()]
    kind = draw(st.sampled_from(["cell", "drop_cell", "add_cell", "line", "bytes", "truncate"]))
    i = draw(st.integers(0, len(lines) - 1))
    j = draw(st.integers(0, len(lines[i]) - 1))
    if kind == "cell":
        lines[i][j] = draw(st.text(max_size=6) | st.sampled_from(
            ["", "nan", "inf", "-1", "7", "2", "1e999", "99999999999999999999", "x.npy:0"]))
    elif kind == "drop_cell":
        del lines[i][j]
    elif kind == "add_cell":
        lines[i].insert(j, draw(st.text(max_size=3)))
    elif kind == "line":
        lines[i:i + 1] = [] if draw(st.booleans()) else [lines[i]] * 2
    blob = "".join(",".join(line) + "\n" for line in lines).encode()
    cut = draw(st.integers(0, len(blob)))
    if kind == "bytes":
        blob = blob[:cut] + draw(st.binary(min_size=1, max_size=3)) + blob[cut:]
    elif kind == "truncate":
        blob = blob[:cut]
    return blob


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_eval_mutated_csv_exit_code(workspace, data):
    """Whatever one mutation does to a valid CSV, in either feature form, eval
    succeeds or fails with a data error."""
    rows = (workspace / "data" / "full.csv").read_text().splitlines()[:30]
    if data.draw(st.booleans(), label="feature_file"):
        header = rows[0].split(",")
        fcols = [k for k, c in enumerate(header) if c[:1] == "f" and c[1:].isdigit()]
        cells = [row.split(",") for row in rows]
        features = [[float(r[k]) for k in fcols] for r in cells[1:]]
        np.save(workspace / "mutated.npy", np.array(features))
        refs = ["feature_file", *(f"mutated.npy:{i}" for i in range(len(rows) - 1))]
        rows = [",".join([c for k, c in enumerate(r) if k not in fcols] + [ref])
                for r, ref in zip(cells, refs)]
    path = workspace / "mutated.csv"
    path.write_bytes(data.draw(mutated_csv_files("\n".join(rows))))
    assert _eval(workspace, path) in (0, 2)
