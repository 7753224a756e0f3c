import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affectmtl import AU_LABELS, EMOTIONS
from affectmtl import CompoundProfiles, domain_table, save_compound_profiles
from affectmtl import default_compound_classes, infer_empirical
from affectmtl import cli
from affectmtl.cli import main
from affectmtl.zeroshot import CompoundScores
from affectmtl.csvio import read_samples_csv, write_samples_csv
from affectmtl.synthdata import GeneratorSpec, split

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
    assert all(len(rows) == len(full) for rows in full.label_rows())
    index = {sid: i for i, sid in enumerate(full.ids)}
    seen = []
    for name in ("va", "au", "expr"):
        part = read_samples_csv(workspace / "data" / f"{name}.csv")
        rows = [index[sid] for sid in part.ids]
        assert part.features.tobytes() == full.features[rows].tobytes()
        assert np.array_equal(getattr(part, name), getattr(full, name)[rows])
        seen += rows
    assert sorted(seen) == list(range(len(full)))


@pytest.mark.parametrize("flag, value", [
    ("--n", "-5"), ("--n", "0"), ("--noise", "-1"), ("--noise", "nan"), ("--feature-dim", "0"),
    ("--frames-per-video", "-2"), ("--frames-per-video", "0"), ("--seed", "-1"),
    ("--partition", "a,b,c"), ("--partition", "nan,0,1"), ("--partition", "0.5,0.5"),
])
def test_gen_data_bad_number_exit_code(tmp_path, capsys, flag, value):
    out = tmp_path / "data"
    assert main(["gen-data", "--out", str(out), "--n", "60", flag, value]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_writes_the_reference_draw(tmp_path, reference_draw):
    """Every CSV that ``gen-data`` writes holds the bytes of the row-by-row
    reference draw, split and written by ``write_samples_csv``."""
    assert main(["gen-data", "--out", str(tmp_path / "data"), "--n", "90", "--feature-dim", "6",
                 "--noise", "0.05", "--seed", "4", "--partition", "0.3,0.05,0.65", "--full",
                 "--frames-per-video", "20"]) == 0
    full = reference_draw(GeneratorSpec(relatedness=TABLE, feature_dim=6, noise_scale=0.05,
                                        seed=4, frames_per_video=20), 90)
    want = dict(zip(("va", "au", "expr"), split(full, (0.3, 0.05, 0.65))), full=full)
    for name, data in want.items():
        write_samples_csv(tmp_path / f"{name}.csv", data)
        assert (tmp_path / "data" / f"{name}.csv").read_bytes() == \
            (tmp_path / f"{name}.csv").read_bytes(), name


def test_train_artifacts_and_manifest(workspace):
    manifest = json.loads((workspace / "run" / "manifest.json").read_text())
    assert manifest["config"]["coupling"] == "soft_plus_dm"
    assert manifest["config_hash"]
    assert manifest["versions"]["numpy"]


# Writes a manifest into argv[1] and prints its versions.
_WRITE_MANIFEST = """import json, sys
from affectmtl.training import write_manifest
print(json.dumps(write_manifest(sys.argv[1], {})["versions"]))
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_manifest_records_the_blas_build_core_and_threads(tmp_path, threads):
    """A run's bytes depend on the BLAS build, core and thread count, so each
    manifest records them: null where the library does not say."""
    import affectmtl

    env = {**os.environ, "PYTHONPATH": str(Path(affectmtl.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": str(threads)}
    proc = subprocess.run([sys.executable, "-c", _WRITE_MANIFEST, str(tmp_path)],
                          capture_output=True, text=True, env=env, check=True)
    versions = json.loads(proc.stdout)
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    assert versions["blas"] == (f"{blas['name']} {blas['version']}" if blas else None)
    assert versions["blas_threads"] in (threads, None)
    assert versions["blas_core"] is None or versions["blas_core"].isprintable()
    if blas.get("name") == "scipy-openblas":  # NumPy's bundled build exports both
        assert versions["blas_threads"] == threads and versions["blas_core"]


def test_train_missing_dataset_exit_code(workspace, tmp_path):
    config = json.loads((workspace / "config.json").read_text())
    config["data"]["va"] = str(tmp_path / "missing.csv")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_train_bad_config_exit_code(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["train", "--config", str(p)]) == 1


def test_train_config_with_a_repeated_key_exit_code(workspace, tmp_path, capsys):
    # json.loads alone keeps the last value: this config would train 70 epochs
    config = json.loads((workspace / "config.json").read_text())
    p = tmp_path / "repeated.json"
    p.write_text('{"epochs": 5, ' + json.dumps({**config, "epochs": 70})[1:])
    assert main(["train", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    assert "repeated key 'epochs'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting, message", [
    ({"epochs": True}, "epochs must be of type int, got True"),
    ({"epochz": 5}, "unknown key(s) 'epochz'"),
    ({"relatedness": {"source": "file"}}, "unknown key(s) 'source'"),
    ({"holdout_fraction": 1.0}, "holdout_fraction must be in [0, 1)"),
    ({"holdout_fraction": -0.1}, "holdout_fraction must be in [0, 1)"),
    ({"epochs": 0}, "epochs and max_batch must be >= 1"),
    ({"max_batch": 0}, "epochs and max_batch must be >= 1"),
    ({"coupling": "none", "loss_weights": {"couplings": {"dm": 5, "sca": 3}}},
     "loss_weights.couplings.dm weighs a term that coupling mode 'none' does not run"),
])
def test_train_config_error_names_the_config_file(workspace, tmp_path, capsys, setting, message):
    config = json.loads((workspace / "config.json").read_text())
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({**config, **setting}))
    assert main(["train", "--config", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config {p}: ") and message in err
    assert not (tmp_path / "out").exists()


def test_gen_data_leaves_the_siblings_that_a_read_writes(tmp_path, monkeypatch):
    """Every CSV that ``gen-data`` writes has its parsed sibling, with the bytes
    that a cold read writes, so the commands that read the data parse nothing."""
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--n", "120", "--feature-dim", "5",
                 "--seed", "2", "--full", "--frames-per-video", "10"]) == 0
    siblings = {p.name: p.read_bytes() for p in data.glob(".*.affectmtl")}
    assert sorted(siblings) == [f".{p.name}.affectmtl" for p in sorted(data.glob("*.csv"))]
    config = {"data": {name: str(data / f"{name}.csv") for name in ("va", "au", "expr")},
              "model": {"hidden": [8]}, "epochs": 1, "out_dir": str(tmp_path / "run")}
    (tmp_path / "config.json").write_text(json.dumps(config))
    with monkeypatch.context() as m:
        m.setattr(cli.csvio, "_parse", None)  # any parse fails
        assert main(["train", "--config", str(tmp_path / "config.json")]) == 0
        assert main(["eval", "--checkpoint", str(tmp_path / "run" / "model.bin"),
                     "--data", str(data / "full.csv"), "--out", str(tmp_path / "eval.json")]) == 0
        assert main(["infer-relatedness", "--corpus", str(data / "full.csv"),
                     "--out", str(tmp_path / "table.json")]) == 0
    for name, blob in siblings.items():
        (data / name).unlink()
        read_samples_csv(data / name[1 : -len(".affectmtl")])
        assert (data / name).read_bytes() == blob, name


def test_gen_data_checks_the_partition_before_the_draw(tmp_path, capsys, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew samples for a partition that cannot be used")

    monkeypatch.setattr(cli, "draw", no_draw)
    out = tmp_path / "data"
    for partition in ("0.5,0.5", "0.5,0.5,0.5", "-0.5,1,0.5"):
        assert main(["gen-data", "--out", str(out), f"--partition={partition}"]) == 2
        assert "partition fractions" in capsys.readouterr().err
    assert not out.exists()
    # a set with no rows, which the writer would refuse after the others were written
    for args in (["--n", "2"], ["--n", "10", "--partition", "0.5,0,0.5"]):
        assert main(["gen-data", "--out", str(out), *args]) == 2
        assert "no samples in the set au" in capsys.readouterr().err
        assert not out.exists()


def test_eval_command(workspace, tmp_path):
    out = tmp_path / "metrics.json"
    assert main([
        "eval", "--checkpoint", str(workspace / "run" / "model.bin"),
        "--data", str(workspace / "data" / "expr.csv"), "--out", str(out),
    ]) == 0
    metrics = json.loads(out.read_text())
    assert "expr" in metrics and "accuracy" in metrics["expr"]


def test_eval_median_filter_does_not_import_numpy_ma(workspace, tmp_path):
    """The first ``np.median`` call of a process imports ``numpy.ma`` (19-35 ms
    of an ``eval`` run); the median filter gives its values without it."""
    import affectmtl

    assert main(["gen-data", "--out", str(tmp_path), "--n", "60", "--feature-dim", "10",
                 "--full", "--frames-per-video", "20"]) == 0
    script = ("import sys\nfrom affectmtl.cli import main\n"
              "assert main(sys.argv[1:]) == 0\nsys.exit('numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(Path(affectmtl.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", script, "eval", "--checkpoint", str(workspace / "run" / "model.bin"),
         "--data", str(tmp_path / "full.csv"), "--out", str(tmp_path / "eval.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "va_filtered" in json.loads((tmp_path / "eval.json").read_text())


@pytest.mark.parametrize("window", [4, 0, -3])
@pytest.mark.parametrize("keyed", [False, True])
def test_eval_bad_median_window_is_a_usage_error(workspace, tmp_path, capsys, window, keyed):
    """The median window is fixed at ``MEDIAN_WINDOW`` frames: ``--median-window``
    is no option of eval, so any window (the odd 3 too) is a usage error
    before any data is read, whether the CSV has sequence keys (the filter
    runs) or not."""
    data = workspace / "data" / "va.csv"
    if keyed:
        assert main(["gen-data", "--out", str(tmp_path), "--n", "60", "--feature-dim", "10",
                     "--full", "--frames-per-video", "20"]) == 0
        data = tmp_path / "full.csv"
    args = ["eval", "--checkpoint", str(workspace / "run" / "model.bin"), "--data", str(data)]
    assert main(args) == 0
    capsys.readouterr()
    for value in ("3", str(window)):
        assert main(args + ["--median-window", value]) == 1  # a usage error
        assert "unrecognized arguments: --median-window" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["gen-data", "--out", "d", "--n", "abc"], "invalid int value: 'abc'"),
    (["eval", "--checkpoint", "x"], "the following arguments are required: --data"),
    (["gen-data", "--out", "d", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_usage_error_exit_code(tmp_path, monkeypatch, capsys, args, message):
    """A usage error exits 1, the config-error code, not argparse's 2, which is
    the data-error code; nothing is written."""
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", [["--help"], ["gen-data", "--help"]])
def test_help_exit_code(capsys, args):
    assert main(args) == 0
    assert "usage: affectmtl" in capsys.readouterr().out


def test_infer_relatedness_command(workspace, tmp_path):
    out = tmp_path / "empirical.json"
    assert main([
        "infer-relatedness", "--corpus", str(workspace / "data" / "full.csv"),
        "--out", str(out),
    ]) == 0
    table = json.loads(out.read_text())
    assert table["kind"] == "empirical"


def test_infer_relatedness_without_coannotation(workspace, tmp_path, capsys):
    # the VA-only set has no (expr, au) pairs: a data error that names the corpus
    corpus = workspace / "data" / "va.csv"
    assert main(["infer-relatedness", "--corpus", str(corpus),
                 "--out", str(tmp_path / "x.json")]) == 2
    assert capsys.readouterr().err.startswith(f"error: corpus {corpus}: ")


@pytest.mark.parametrize("name", ["f²", "f01", "f١"])
def test_feature_column_name_exit_code(workspace, tmp_path, capsys, name):
    """A corpus whose header spells feature 1 otherwise than ``f1`` is a data
    error naming the column, not a traceback, and nothing is written."""
    header, *rows = (workspace / "data" / "full.csv").read_text().splitlines()
    corpus = tmp_path / "corpus.csv"
    corpus.write_text("\n".join([header.replace(",f1,", f",{name},"), *rows]) + "\n")
    assert main(["infer-relatedness", "--corpus", str(corpus),
                 "--out", str(tmp_path / "t.json")]) == 2
    assert f"feature column {name!r}" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


@pytest.mark.parametrize("threshold", ["5", "-1", "NaN", "Infinity"])
def test_relatedness_threshold_outside_0_1_exit_code(workspace, tmp_path, capsys, threshold):
    """A bad threshold is a usage error before any corpus is read: the corpus
    named here does not exist, and reading it would be a data error."""
    missing = str(tmp_path / "missing.csv")
    assert main(["infer-relatedness", "--corpus", missing, "--threshold", threshold,
                 "--out", str(tmp_path / "t.json")]) == 1
    assert "threshold must be in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()
    # a config infers no table: a threshold there is a key of earlier versions
    config = json.loads((workspace / "config.json").read_text())
    config["relatedness"] = {"threshold": json.loads(threshold)}
    (tmp_path / "c.json").write_text(json.dumps(config))  # NaN and Infinity as written
    assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "run")]) == 1
    assert "unknown key(s) 'threshold'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("corpus, code", [("full.csv", 0), ("mixed.csv", 0), ("va.csv", 2)])
def test_infer_relatedness_counts_the_co_annotated_rows_alone(workspace, tmp_path, corpus, code):
    """``infer-relatedness`` writes the bytes of ``infer_empirical`` over the rows
    that carry both an expression and AU labels, among rows that carry one or
    neither; a run that names the file trains on those bytes."""
    data = workspace / "data"
    if corpus == "mixed.csv":  # full.csv's rows shuffled in among single-label rows
        header, *rows = (data / "full.csv").read_text().splitlines()
        for name in ("va", "au", "expr"):
            lines = (data / f"{name}.csv").read_text().splitlines()
            assert lines[0] == header
            rows += lines[1:]
        order = np.random.default_rng(0).permutation(len(rows))
        (tmp_path / corpus).write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")
        corpus = tmp_path / corpus
    else:
        corpus = data / corpus
    inferred = tmp_path / "inferred.json"
    assert main(["infer-relatedness", "--corpus", str(corpus), "--out", str(inferred)]) == code
    if code:
        assert not inferred.exists()
        return
    samples = read_samples_csv(corpus)
    both = np.intersect1d(*samples.label_rows()[:2])
    full = corpus.name == "full.csv"  # every row co-annotated; mixed.csv mixes the kinds
    assert len(both) == len(samples) if full else 0 < len(both) < len(samples)
    infer_empirical(samples.expr[both], samples.au[both]).save(tmp_path / "reference.json")
    assert inferred.read_bytes() == (tmp_path / "reference.json").read_bytes()
    config = json.loads((workspace / "config.json").read_text())
    config["relatedness"] = {"path": str(inferred)}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "relatedness.json").read_bytes() == inferred.read_bytes()


def test_co_annotation_on_an_empirical_table_exit_code(workspace, tmp_path, capsys):
    """Co-annotation reads the prototypical/observational split, which an
    ``infer-relatedness`` table does not have: refused before the run directory."""
    assert main(["infer-relatedness", "--corpus", str(workspace / "data" / "full.csv"),
                 "--out", str(tmp_path / "empirical.json")]) == 0
    config = {**json.loads((workspace / "config.json").read_text()), "coupling": "co_annotation",
              "relatedness": {"path": str(tmp_path / "empirical.json")}}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "run")]) == 2
    assert ("co-annotation requires a prototypical/observational table"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_train_table_in_another_class_order_exit_code(workspace, tmp_path, capsys):
    """A table file whose classes are not in the canonical order is a data
    error, though its shape matches the heads: index 0 would be surprise."""
    d = TABLE.to_dict()
    d["classes"] = d["classes"][::-1]
    (tmp_path / "reversed.json").write_text(json.dumps(d))
    config = json.loads((workspace / "config.json").read_text())
    config["relatedness"] = {"path": str(tmp_path / "reversed.json")}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "run")]) == 2
    assert "in that order" in capsys.readouterr().err


def _old_table_forms():
    """The domain table in the two file forms that earlier versions read: each
    saved entry a {"w", "proto"} object, and the bundled file's rows of
    prototypical labels and observational weights."""
    names = {"classes": list(EMOTIONS), "labels": list(AU_LABELS)}
    entries = {c: {a: w for a, w in zip(AU_LABELS, ws) if w}
               for c, ws in zip(EMOTIONS, TABLE.weights.tolist()) if any(ws)}
    saved = {c: {a: {"w": w, "proto": w == 1.0} for a, w in row.items()}
             for c, row in entries.items()}
    rows = [{"class": c, "prototypical": [a for a, w in row.items() if w == 1.0],
             "observational": {a: w for a, w in row.items() if w < 1.0}}
            for c, row in entries.items()]
    return {"w_proto": {**names, "entries": saved, "kind": "prototypical_observational"},
            "source": {**names, "table": rows}}


@pytest.mark.parametrize("form", ["w_proto", "source"])
def test_train_on_an_old_table_file_form_exit_code(workspace, tmp_path, capsys, form):
    """A table file in a form of earlier versions is a data error that names
    the file, and the run makes no directory."""
    table = tmp_path / "old.json"
    table.write_text(json.dumps(_old_table_forms()[form]))
    config = json.loads((workspace / "config.json").read_text())
    config["relatedness"] = {"path": str(table)}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "run")]) == 2
    assert f"error: relatedness table {table}: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("frames", [[], ["--frames-per-video", "20"]], ids=["frames", "videos"])
def test_train_prints_the_headline_metric_of_each_task(workspace, tmp_path, capsys, frames):
    """The held-out line gives the expression macro F1, the AU mean F1, the
    mean VA CCC and, when every held-out VA row is in a video, the mean CCC of
    the median-filtered VA."""
    data = tmp_path / "data"
    assert main(["gen-data", "--out", str(data), "--n", "240", "--feature-dim", "10", *frames]) == 0
    config = json.loads((workspace / "config.json").read_text())
    config["data"] = {name: str(data / f"{name}.csv") for name in ("va", "au", "expr")}
    (tmp_path / "c.json").write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["train", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "run")]) == 0
    final = json.loads((tmp_path / "run" / "manifest.json").read_text())["final_metrics"]
    headline = [("expr", "macro_f1"), ("au", "mean_f1"), ("va", "mean_ccc"),
                *([("va_filtered", "mean_ccc")] if frames else [])]
    assert sorted(final) == sorted(task for task, _ in headline)
    line = ", ".join(f"{task} {name}={final[task][name]:.4f}" for task, name in headline)
    assert capsys.readouterr().out.endswith(f"\nheld-out: {line}\n")


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
    # a rerun on data without truth leaves no accuracy of the earlier data behind
    assert _zero_shot(workspace, profiles, workspace / "data" / "expr.csv", out) == 0
    assert not (out / "metrics.json").exists()


@pytest.mark.parametrize("truth", ["happily_surprized", "Happily_Surprised", "happily_surprised "])
def test_zero_shot_unknown_compound_truth_exit_code(workspace, tmp_path, capsys, truth):
    """A compound truth that names no profile class would only lower the
    accuracy; it is refused before anything is written."""
    src = (workspace / "data" / "expr.csv").read_text().splitlines()
    rows = [src[1] + ",happily_surprised", src[2] + f",{truth}", src[3] + ","]
    data = tmp_path / "compound.csv"
    data.write_text("\n".join([src[0] + ",compound", *rows]) + "\n")
    profiles = tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    assert _zero_shot(workspace, profiles, data, tmp_path / "zs") == 2
    assert f"compound truth {truth!r} names no profile class" in capsys.readouterr().err
    assert not (tmp_path / "zs").exists()


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
    other = next(name for name in default_compound_classes(TABLE).names if name != picked)
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
    other = next(name for name in default_compound_classes(TABLE).names if name != picked[2])
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
    for any ids and distinct class names, and for data CSVs in either feature form."""
    text, floats = csv_cells
    ids = data.draw(st.lists(text, min_size=1, max_size=6), label="ids")
    # a profile file names each class once, and no class ""
    names = data.draw(st.lists(text.filter(bool), min_size=1, max_size=4, unique=True),
                      label="class names")
    n, k = len(ids), len(names)

    def matrix(values):
        return np.array(data.draw(st.lists(values, min_size=n * k, max_size=n * k))).reshape(n, k)

    total = matrix(floats)
    scores = CompoundScores(matrix(floats), matrix(floats), matrix(st.sampled_from([0.0, 1.0])),
                            total, total.argmax(axis=1))
    default = default_compound_classes(TABLE)
    classes = CompoundProfiles(names, default.pairs[:k], default.weights[:k], default.positive[:k])
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
    ("aus", {"twelve": 1.0}), ("aus", [12]), ("aus", {"\u0661\u0662": 1.0}), ("aus", {"012": 1.0}),
    ("name", "happily_disgusted"),  # the name of the second class too
    ("name", ""),  # an empty compound cell is "no truth", so this class could never be scored
])
def test_zero_shot_malformed_profile_exit_code(workspace, tmp_path, capsys, key, value):
    profiles = tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    payload = json.loads(profiles.read_text())
    payload[0][key] = value
    profiles.write_text(json.dumps(payload))
    assert _zero_shot(workspace, profiles, workspace / "data" / "expr.csv", tmp_path / "zs") == 2
    assert str(profiles) in capsys.readouterr().err


@pytest.mark.parametrize(
    "blob", [None, b"{not json", b"\xff[]", b"\xef\xbb\xbf[]", b'{"a": 1, "a": 2}'],
    ids=["missing", "not JSON", "not UTF-8", "BOM", "repeated key"])
@pytest.mark.parametrize("what, code", [("config", 1), ("relatedness table", 2),
                                        ("compound profiles", 2)])
def test_unreadable_json_input_exit_code(workspace, tmp_path, capsys, what, code, blob):
    """A JSON input that cannot be read, or is not UTF-8 JSON without a repeated
    key, is refused in one wording that names the file, and nothing is written."""
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    if blob is not None:
        bad.write_bytes(blob)
    args = ["train", "--config", str(bad)]
    if what == "relatedness table":
        config = json.loads((workspace / "config.json").read_text())
        config["relatedness"] = {"path": str(bad)}
        (tmp_path / "config.json").write_text(json.dumps(config))
        args = ["train", "--config", str(tmp_path / "config.json")]
    elif what == "compound profiles":
        args = ["zero-shot", "--checkpoint", str(workspace / "run" / "model.bin"),
                "--profiles", str(bad), "--data", str(workspace / "data" / "expr.csv")]
    assert main([*args, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(f"error: cannot read {what} {bad}: ")
    assert not out.exists()


@pytest.mark.parametrize("heads", [
    {"va": ["tanh", 2], "expr": ["softmax", 7], "au": ["sigmoid", 5]},
    {"expr": ["softmax", 7], "au": ["sigmoid", 17]},
])
def test_zero_shot_checkpoint_heads_exit_code(workspace, tmp_path, capsys, heads):
    checkpoint = tmp_path / "model.bin"
    checkpoint.write_bytes(_checkpoint_with_heads(heads))
    profiles = tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    data = workspace / "data" / "expr.csv"
    assert _zero_shot(workspace, profiles, data, tmp_path / "zs", checkpoint) == 2
    assert f"checkpoint {checkpoint}: heads" in capsys.readouterr().err


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


@pytest.mark.parametrize("flags, message", [
    *((["--tolerance", t], "tolerance must be finite and > 0") for t in ("nan", "inf", "0", "-1")),
    (["--seed", "-1"], "seed must be >= 0, got -1"),  # the message of train --seed -1
], ids=["nan", "inf", "0", "-1", "--seed -1"])
def test_gradcheck_tolerance_that_checks_nothing_exit_code(monkeypatch, capsys, flags, message):
    import affectmtl.training as training

    monkeypatch.setattr(training, "gradient_check", None)  # rejected before any work
    assert main(["gradcheck", *flags]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_train_prints_the_output_directory(workspace, tmp_path, capsys):
    config = json.loads((workspace / "config.json").read_text())
    config["out_dir"] = str(tmp_path / "printed")
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json")]) == 0
    assert f"-> {tmp_path / 'printed'}" in capsys.readouterr().out


@pytest.mark.parametrize("loss_weights", [{"tasks": {"au": -0.5}}, {"epsilon": 1.0},
                                          {"tasks": {"au": float("inf")}}])
def test_train_bad_loss_weights_exit_code(workspace, tmp_path, loss_weights):
    config = json.loads((workspace / "config.json").read_text())
    config["loss_weights"] = loss_weights
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json")]) == 1


@pytest.mark.parametrize("setting, key", [
    ({"reweight_observational": True}, "reweight_observational"),
    ({"median_filter_window": 5}, "median_filter_window"),
    ({"loss_weights": {"epsilon": 1e-7}}, "epsilon"),
    ({"relatedness": {"source": "file", "path": "empirical.json"}}, "source"),
    ({"relatedness": {"corpus": "full.csv"}}, "corpus"),
])
def test_train_setting_that_nothing_reads_exit_code(workspace, tmp_path, capsys, setting, key):
    """A setting that the run would not read is refused, naming its key: the
    median window, epsilon and observational reweighting, which are fixed, and
    the relatedness source and corpus of earlier versions (a table file is
    named by ``path`` alone, and ``infer-relatedness`` infers a table)."""
    config = {**json.loads((workspace / "config.json").read_text()), **setting}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json"),
                 "--out", str(tmp_path / "run")]) == 1
    assert f"unknown key(s) {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_refuses_a_lone_va_row_in_any_set(workspace, tmp_path, capsys):
    """One VA label in a set other than ``va`` would be a batch of one VA row,
    whose CCC term trains nothing: the run is refused before it writes."""
    data = workspace / "data"
    _rewrite_first_row(data / "expr.csv", tmp_path / "x.csv", valence="0.5", arousal="-0.25")
    config = {**json.loads((workspace / "config.json").read_text()), "holdout_fraction": 0,
              "data": {"au": str(data / "au.csv"), "expr": str(tmp_path / "x.csv")}}
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "c.json"),
                 "--out", str(tmp_path / "run")]) == 1
    assert "VA batch of size 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _train_diverging(workspace, tmp_path, **setting):
    """The exit code and stderr of a ``train`` at lr 1e308 into ``tmp_path``/run,
    in a child process: pytest would record NumPy's warnings before they reach stderr."""
    import affectmtl

    config = {**json.loads((workspace / "config.json").read_text()), "max_batch": 20,
              "epochs": 2, "optimizer": {"lr": 1e308, "momentum": 0.9}, **setting}
    (tmp_path / "c.json").write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(Path(affectmtl.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "affectmtl.cli", "train", "--config", str(tmp_path / "c.json"),
         "--out", str(tmp_path / "run")], capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def test_train_divergence_prints_only_its_error(workspace, tmp_path):
    """A run whose loss overflows exits 3 with its one ``error:`` line, and
    no NumPy warning before it."""
    assert _train_diverging(workspace, tmp_path, coupling="none") == (
        3, "error: non-finite total loss\n")


@pytest.mark.parametrize("coupling", ["distr_matching", "soft_plus_dm"])
def test_train_divergence_in_a_dm_mode_is_numerical(workspace, tmp_path, coupling):
    """A DM run that diverges exits 3 with the same line: the NaN DM target of a
    NaN expression output is not read as a row without AU labels (exit 2)."""
    assert _train_diverging(workspace, tmp_path, coupling=coupling) == (
        3, "error: non-finite total loss\n")


def test_train_divergence_that_overflows_the_trunk_alone_is_numerical(workspace, tmp_path):
    """A run whose trunk overflows while its losses stay finite (each loss
    column constant from the first step) is diverged too: it exits 3 with the
    same line, not 0 with a model that overflows on every forward pass."""
    assert _train_diverging(workspace, tmp_path, max_batch=40, epochs=3) == (
        3, "error: non-finite total loss\n")


def test_train_that_fails_leaves_no_manifest_of_an_earlier_run(workspace, tmp_path):
    """A run into a finished run's directory first removes the files it writes:
    a directory without a manifest holds an unfinished run, and no checkpoint
    or table of an earlier one."""
    shutil.copytree(workspace / "run", tmp_path / "run")
    (tmp_path / "run" / "notes.txt").write_text("kept")
    assert _train_diverging(workspace, tmp_path, coupling="none")[0] == 3
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["losses.csv", "notes.txt"]


@pytest.mark.parametrize("command", ["gen-data", "zero-shot"])
def test_a_failed_write_leaves_no_file_of_an_earlier_run(workspace, tmp_path, command):
    """``gen-data`` removes each CSV it writes and that CSV's sibling, and
    ``zero-shot`` its scores and metrics, before it writes the first of them."""
    out = tmp_path / "out"
    profiles = tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    args = {"gen-data": ["gen-data", "--n", "60", "--out", str(out)],
            "zero-shot": ["zero-shot", "--checkpoint", str(workspace / "run" / "model.bin"),
                          "--profiles", str(profiles),
                          "--data", str(workspace / "data" / "expr.csv"), "--out", str(out)]}[command]
    assert main(args) == 0
    if command == "zero-shot":  # as a run on data with compound truth writes it
        (out / "metrics.json").write_text("{}")
    (out / "notes.txt").write_text("kept")

    def refuse(*args, **kwargs):
        raise PermissionError("the disk is full")

    writer = "write_samples_csv" if command == "gen-data" else "write_csv_columns"
    with patch.object(cli.csvio, writer, refuse):
        assert main(args) == 1
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]


def test_gen_data_without_full_removes_an_earlier_full_csv(tmp_path):
    """A ``gen-data`` run without ``--full`` into a directory of a ``--full``
    run leaves no ``full.csv`` of that run beside its own sets."""
    out = tmp_path / "data"
    assert main(["gen-data", "--n", "60", "--seed", "0", "--full", "--out", str(out)]) == 0
    assert main(["gen-data", "--n", "90", "--seed", "1", "--out", str(out)]) == 0
    csvs = ["au.csv", "expr.csv", "va.csv"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["manifest.json", *csvs, *(f".{c}.affectmtl" for c in csvs)])


def test_train_holdout_that_empties_a_set_is_a_config_error(tmp_path, capsys):
    """A ``holdout_fraction`` that holds out every row of a set is refused
    (exit 1) with a line that names the setting and the CSV, and no run
    directory is made."""
    data = tmp_path / "data"
    assert main(["gen-data", "--n", "60", "--feature-dim", "4", "--out", str(data)]) == 0
    capsys.readouterr()
    config = {"data": {name: str(data / f"{name}.csv") for name in ("va", "au", "expr")},
              "holdout_fraction": 0.99, "out_dir": str(tmp_path / "run")}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["train", "--config", str(tmp_path / "config.json")]) == 1
    assert capsys.readouterr().err == (
        f"error: holdout_fraction 0.99 holds out all 20 rows of {data / 'va.csv'}\n")
    assert not (tmp_path / "run").exists()


def test_train_seed_override_is_checked(workspace):
    """``--seed`` is checked like the file's seed, in the console entry point."""
    import affectmtl

    env = {**os.environ, "PYTHONPATH": str(Path(affectmtl.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "affectmtl.cli", "train", "--config",
         str(workspace / "config.json"), "--seed", "-3"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "error: seed must be >= 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def _eval(workspace, data, checkpoint=None):
    checkpoint = checkpoint or workspace / "run" / "model.bin"
    return main(["eval", "--checkpoint", str(checkpoint), "--data", str(data)])


def _split_checkpoint(blob):
    hlen = int.from_bytes(blob[:8], "little")
    return json.loads(blob[8 : 8 + hlen]), blob[8 + hlen :]


def _join_checkpoint(header, params):
    raw = (header if isinstance(header, str) else json.dumps(header)).encode()
    return len(raw).to_bytes(8, "little") + raw + params


@pytest.mark.parametrize("damage", [
    "trailing", "missing_key", "short", ("hidden", [400000, 400000]), ("hidden", [16.0]),
    ("hidden", 16), ("input_dim", True), ("input_dim", -10), ("input_dim", "10"),
    ("heads", {"expr": ["softmax"]}), ("heads", {"expr": ["relu", 7]}), ("heads", []),
    ("heads", {"expr": ["softmax", 10**12]}), ("seed", -1), ("seed", 0.5),
    ("trunk_frozen", "no"), ("header", [1, 2]), "repeated_key", ("dropout", 0.5),
    ("trunk_frozen", True), ("trunk_frozen", False),
], ids=str)
def test_eval_malformed_checkpoint_exit_code(workspace, tmp_path, capsys, damage):
    header, params = _split_checkpoint((workspace / "run" / "model.bin").read_bytes())
    if damage == "trailing":
        params += b"\0"
    elif damage == "missing_key":
        del header["input_dim"]
    elif damage == "short":
        params = params[:-8]
    elif damage == "repeated_key":  # the first seed would be dropped without a word
        header = '{"seed": 1, ' + json.dumps(header)[1:]
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


def _checkpoint_with_heads(heads, input_dim=10, hidden=4):
    """Checkpoint bytes whose header declares ``heads`` (name -> [kind, width]),
    with as many zero parameters as that header implies."""
    n = (input_dim + 1) * hidden + sum((hidden + 1) * width for _, width in heads.values())
    header = {"input_dim": input_dim, "hidden": [hidden], "heads": heads, "seed": 0}
    return _join_checkpoint(header, bytes(8 * n))


@pytest.mark.parametrize("heads, rows", [
    ({}, None), ({"expression": ["softmax", 7]}, None),
    ({"va": ["tanh", 2], "expr": ["softmax", 7], "au": ["sigmoid", 17]}, 1),
], ids=["none", "expression", "one_va_row"])
def test_eval_checkpoint_that_scores_nothing_exit_code(workspace, tmp_path, capsys, heads, rows):
    """A checkpoint without the va/expr/au heads is refused when it is read; one
    with them scores nothing on a single VA row, since CCC needs two."""
    checkpoint = tmp_path / "model.bin"
    checkpoint.write_bytes(_checkpoint_with_heads(heads))
    data = workspace / "data" / "full.csv"
    if rows:
        data = tmp_path / "one_va_row.csv"
        data.write_text("\n".join((workspace / "data" / "va.csv").read_text().splitlines()[:2]))
    assert _eval(workspace, data, checkpoint) == 2
    err = capsys.readouterr().err
    assert str(checkpoint) in err
    assert ("scores nothing" if rows else "heads") in err


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
                       "soft_plus_dm", "path", "table.json"])
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
        assert main(["infer-relatedness", "--corpus", str(small / "full.csv"),
                     "--out", str(small / "table.json")]) == 0
    config = {
        "data": {name: str(small / f"{name}.csv") for name in ("va", "au", "expr")},
        "relatedness": {"path": str(small / "table.json")},
        "coupling": "soft_plus_dm",
        "loss_weights": {"tasks": {"expr": 1.0, "au": 1.0, "va": 1.0},
                         "couplings": {"sca": 1.0, "dm": 1.0}},
        "model": {"hidden": [8]},
        "max_batch": 20,
        "epochs": 1,
        "optimizer": {"lr": 0.01, "momentum": 0.9},
        "holdout_fraction": 0.2,
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
    ints = [d[k] for k in ("epochs", "max_batch", "seed") if k in d]
    floats = [*(d[k] for k in ("holdout_fraction",) if k in d),
              *(v for k, v in section(d, "optimizer").items() if k in ("lr", "momentum")),
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
    # float() and int() take these spellings; the format does not
    {"f0": "1_5"}, {"f0": "\u0663"}, {"valence": "0_5"}, {"valence": " 0.25"},
    {"expr": "\u0663"}, {"expr": " 4"}, {"expr": "+4"}, {"au_12": "0_0"}, {"au_12": "NaN"},
    {"video_id": "v0", "frame_idx": "1_0"}, {"video_id": "v0", "frame_idx": " 2"},
    {"video_id": "v0", "frame_idx": "+2"}, {"video_id": "v0", "frame_idx": "-1"},
])
def test_eval_malformed_csv_cell_exit_code(workspace, tmp_path, capsys, cells):
    data = tmp_path / "bad.csv"
    _rewrite_first_row(workspace / "data" / "full.csv", data, **cells)
    assert _eval(workspace, data) == 2
    assert f"{data}, line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ref",
    ["missing.npy:0", "empty.npy:0", "feats.npy:7", "feats.npy:-1", "feats.npy:x", "feats.npy",
     "wide.npy:0", "feats.npz:0", "inf.npy:1", "feats.npy:0_1", "feats.npy: 1",
     "feats.npy:\u0661", "feats.npy:+1", "badzip.npy:0",
     # a matrix that is not of real numbers, which astype(float) would read anyway
     "complex.npy:0", "bool.npy:0", "text.npy:0", "date.npy:0", "struct.npy:0"],
)
def test_eval_bad_feature_file_reference_exit_code(workspace, tmp_path, capsys, ref):
    np.save(tmp_path / "feats.npy", np.zeros((2, 10)))
    np.save(tmp_path / "inf.npy", np.array([[0.0] * 10, [np.inf] * 10]))
    np.save(tmp_path / "wide.npy", np.zeros((2, 11)))
    np.savez(tmp_path / "feats.npz", x=np.zeros((2, 10)))
    (tmp_path / "empty.npy").write_bytes(b"")
    (tmp_path / "badzip.npy").write_bytes(b"PK\x03\x04" + bytes(40))  # np.load opens a zip
    np.save(tmp_path / "complex.npy", np.full((2, 10), 1 + 2j))
    np.save(tmp_path / "bool.npy", np.ones((2, 10), dtype=bool))
    np.save(tmp_path / "text.npy", np.full((2, 10), "1"))
    np.save(tmp_path / "date.npy", np.zeros((2, 10), dtype="datetime64[D]"))
    np.save(tmp_path / "struct.npy", np.zeros((2, 10), dtype=[("x", float)]))
    data = tmp_path / "npy.csv"
    data.write_text(f"id,feature_file,expr\na,feats.npy:0,1\nb,{ref},2\n")
    assert _eval(workspace, data) == 2
    err = capsys.readouterr().err
    assert f"{data}, line 3" in err
    if ref[:-2] in ("complex.npy", "bool.npy", "text.npy", "date.npy", "struct.npy"):
        assert f"{ref[:-2]!r} holds " in err and "not real numbers" in err


def test_eval_zero_width_feature_file_exit_code(workspace, tmp_path, capsys):
    """A matrix with rows but no columns is no feature matrix, though every
    row of the CSV names it, so no width differs."""
    np.save(tmp_path / "zero.npy", np.zeros((40, 0)))
    data = tmp_path / "npy.csv"
    data.write_text("id,feature_file,expr\n" + "".join(f"r{i},zero.npy:{i},{i % 7}\n"
                                                      for i in range(40)))
    assert _eval(workspace, data) == 2
    err = capsys.readouterr().err
    assert f"{data}, line 2" in err and "'zero.npy' holds no 2-D feature matrix" in err


@pytest.mark.parametrize("dtype", [np.float32, np.int64, np.uint8])
def test_feature_file_of_real_numbers_reads_as_float64(tmp_path, dtype):
    m = (np.arange(20).reshape(2, 10) / (10 if dtype is np.float32 else 1)).astype(dtype)
    np.save(tmp_path / "m.npy", m)
    data = tmp_path / "npy.csv"
    data.write_text("id,feature_file,expr\na,m.npy:1,1\nb,m.npy:0,2\n")
    features = read_samples_csv(data).features
    assert features.dtype == np.float64
    assert np.array_equal(features, m[[1, 0]].astype(np.float64))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_feature_file_read_whole_and_in_order_is_c_ordered_float64(tmp_path, dtype, order):
    """A matrix read whole and in order, in either memory order, reads as
    C-ordered float64."""
    m = np.array(np.arange(20).reshape(2, 10) / 10, dtype=dtype, order=order)
    np.save(tmp_path / "m.npy", m)
    data = tmp_path / "npy.csv"
    data.write_text("id,feature_file,expr\na,m.npy:0,1\nb,m.npy:1,2\n")
    features = read_samples_csv(data).features
    assert features.dtype == np.float64 and features.flags.c_contiguous
    assert np.array_equal(features, m.astype(np.float64))


@pytest.mark.parametrize("command", ["gen-data", "infer-relatedness", "train", "eval",
                                     "zero-shot"])
def test_unwritable_output_exit_code(workspace, tmp_path, capsys, command):
    """An output path that cannot be written, under a directory that does not
    exist or under a regular file, is a usage error with one line, not a traceback."""
    (tmp_path / "afile").write_text("")
    nodir, under_file = str(tmp_path / "nodir" / "o.json"), str(tmp_path / "afile" / "x")
    data, profiles = workspace / "data", tmp_path / "profiles.json"
    save_compound_profiles(profiles, default_compound_classes(TABLE))
    args = {
        "gen-data": ["gen-data", "--n", "30", "--out", under_file],
        "infer-relatedness": ["infer-relatedness", "--corpus", str(data / "full.csv"),
                              "--out", nodir],
        "train": ["train", "--config", str(workspace / "config.json"), "--out", under_file],
        "eval": ["eval", "--checkpoint", str(workspace / "run" / "model.bin"),
                 "--data", str(data / "expr.csv"), "--out", nodir],
        "zero-shot": ["zero-shot", "--checkpoint", str(workspace / "run" / "model.bin"),
                      "--profiles", str(profiles),
                      "--data", str(data / "expr.csv"), "--out", under_file],
    }[command]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "nodir").exists()


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
