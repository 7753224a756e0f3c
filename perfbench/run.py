#!/usr/bin/env python3
"""Benchmark of the affectmtl command-line pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train_coupled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every program command runs as a fresh ``affectmtl`` child process, one after
another (a closed loop with one client), on inputs generated from ``--seed``.
With ``--trace 0`` the last line of stdout reports the end-to-end metrics, with
times scaled to a fixed machine speed measured by ``reference.py``. With
``--trace 1`` each iteration runs twice, untraced and then through
``trace_boot.py``, and the last line reports per-layer metrics. The lines before
it give the environment and every metric by name with its unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The console-script entry point of the package, so an untraced child starts
# exactly as the installed ``affectmtl`` command does.
ENTRY = "import sys; from affectmtl.cli import main; sys.exit(main())"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 100.0
# Wall time of reference.py on the machine the benchmark was defined on (2-core
# x86-64 VM, Intel Xeon at 2.1 GHz); times and throughputs are reported as if the
# machine ran at that speed.
REFERENCE_S = 0.75
# Dimension that the 32-d generator features are projected to for the .npy inputs.
WIDE_DIM = 512

WALKTHROUGH_CONFIG = {
    "data": {"va": "data/va.csv", "au": "data/au.csv", "expr": "data/expr.csv"},
    "coupling": "soft_plus_dm",
    "model": {"hidden": [64, 64]},
    "max_batch": 200,
    "optimizer": {"lr": 0.01, "momentum": 0.9},
    "holdout_fraction": 0.2,
}

LAYERS = ("cli", "training", "labels", "relatedness", "losses", "model", "scheduler",
          "zeroshot", "metrics")
# Metric prefix -> traced span name; inclusive time and calls are reported for each.
FUNCTIONS = {
    "model.forward": "model.MultiHeadModel.forward",
    "model.backward": "model.MultiHeadModel.backward",
    "model.step": "model.SGDMomentum.step",
    "model.load": "model.MultiHeadModel.load",
    "losses.softmax_ce_grad": "losses.softmax_ce_grad",
    "losses.masked_bce_grad": "losses.masked_bce_grad",
    "losses.ccc_loss_grad": "losses.ccc_loss_grad",
    "losses.sca_loss_grad": "losses.sca_loss_grad",
    "losses.dm_loss_grad": "losses.dm_loss_grad",
    "labels.read_samples_csv": "labels.read_samples_csv",
    "labels.soft_co_annotate": "labels.soft_co_annotate",
    "labels.co_annotate_emotion_to_aus": "labels.co_annotate_emotion_to_aus",
    "labels.co_annotate_aus_to_emotion": "labels.co_annotate_aus_to_emotion",
    "scheduler.plan_epoch": "scheduler.plan_epoch",
    "scheduler.next_joint_batch": "scheduler.next_joint_batch",
    "training.joint_loss_and_grads": "training.joint_loss_and_grads",
    "training.evaluate_model": "training.evaluate_model",
    "zeroshot.compound_scores": "zeroshot.compound_scores",
    "zeroshot.predict_compound": "zeroshot.predict_compound",
}
# Metric prefix -> traced span name; only calls are reported for each.
COUNTED = {
    "relatedness.weight_matrix": "relatedness.RelatednessTable.weight_matrix",
    "relatedness.lookup": "relatedness.RelatednessTable.lookup",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MiB",
    "expr_macro_f1": "ratio",
    "va_mean_ccc": "ratio",
}

# Figures printed beside the metrics but not listed in BENCHMARK.json.
EXTRA_UNITS = {
    "raw_setup_s": "s",
    "raw_samples_per_s": "samples/s",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "zeroshot_samples_per_s": "samples/s",
    "reference_s": "s",
    "au_mean_f1": "ratio",
    "error_rate": "ratio",
    "iterations": "count",
    "measured_s": "s",
    "pairs": "count",
}


def _per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
        units[f"{layer}.calls"] = "count"
    for prefix in FUNCTIONS:
        units[f"{prefix}.ms"] = "ms"
        units[f"{prefix}.calls"] = "count"
    for prefix in COUNTED:
        units[f"{prefix}.calls"] = "count"
    units.update({
        "trace.other_self_ms": "ms",
        "trace.uninstrumented_ms": "ms",
        "trace.wall_ms": "ms",
        "trace.overhead_ratio": "ratio",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


class CommandFailed(Exception):
    pass


# A failed command, or output too malformed to check, fails the iteration.
ITERATION_ERRORS = (CommandFailed, OSError, KeyError, ValueError, IndexError)


@dataclass
class Child:
    """One finished child process, timed from spawn to reap."""

    start: float
    end: float
    maxrss_mb: float
    spans_path: Path | None
    stdout: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digest(root: Path) -> str:
    """Digest of every file under ``root`` but bytecode caches, by path and content."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file() and "__pycache__" not in q.parts):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class Runner:
    """Starts affectmtl children and counts operations and failures."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._traced = 0

    def command(self, args, cwd: Path, traced: bool = False, count: bool = True) -> Child:
        """Run one CLI command; ``count`` makes it an operation toward ``error_rate``."""
        spans = None
        if traced:
            self._traced += 1
            spans = self.work / f"spans{self._traced}.marshal"
            argv = [sys.executable, str(HERE / "trace_boot.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-c", ENTRY, *args]
        if count:
            self.attempted += 1
        return self.spawn(argv, cwd, spans, name="affectmtl " + " ".join(args))

    def spawn(self, argv, cwd: Path, spans=None, name=None) -> Child:
        out_path, err_path = self.work / "child.stdout", self.work / "child.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            # A blocking wait4 reaps at once and gives this child's own rusage;
            # the timer only guards against a hung child.
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-3:]
            raise CommandFailed(f"{name or ' '.join(argv)}: exit {proc.returncode}: "
                                + " | ".join(tail))
        return Child(start, end, usage.ru_maxrss / 1024.0, spans,
                     out_path.read_text(errors="replace"))

    def check(self, label: str, problems: list[str]) -> None:
        """Record one output check as an operation that fails if there are problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


@dataclass
class Iteration:
    """The timed commands of one pass over a workload and what they produced."""

    children: dict = field(default_factory=dict)  # command label -> Child
    samples: dict = field(default_factory=dict)  # command label -> rows processed
    hashes: dict = field(default_factory=dict)  # artifact name -> sha256
    quality: dict = field(default_factory=dict)
    scale: float = 1.0  # Reference.scale() for this iteration

    def samples_per_s(self) -> float:
        return sum(self.samples.values()) / sum(c.wall_s for c in self.children.values())


# -- output checks ----------------------------------------------------------


def check_train(out: Path, manifest: dict) -> list[str]:
    """Steps match the epoch plans and every losses.csv value is finite."""
    problems = []
    iters = manifest["epoch_plans"][0]["iteration_count"]
    epochs = manifest["config"]["epochs"]
    if manifest["steps"] != epochs * iters:
        problems.append(f"{manifest['steps']} steps, plans give {epochs} x {iters}")
    with open(out / "losses.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    if len(rows) != manifest["steps"]:
        problems.append(f"losses.csv has {len(rows)} rows for {manifest['steps']} steps")
    for i, row in enumerate(rows):
        if [int(x) for x in row[:3]] != [i, i // iters, i % iters]:
            problems.append(f"losses.csv row {i} is numbered {row[:3]}")
        if not all(math.isfinite(float(x)) for x in row[3:]):
            problems.append(f"losses.csv row {i} has a non-finite value")
    return problems


def check_eval(results: dict) -> list[str]:
    """eval reports expr, au, va and va_filtered, each within its valid range."""
    problems = []
    bounded = {
        "expr": [("accuracy", 0, 1), ("macro_f1", 0, 1), ("uar", 0, 1)],
        "au": [("mean_f1", 0, 1), ("mean_accuracy", 0, 1), ("afa", 0, 1)],
        "va": [("ccc_v", -1, 1), ("ccc_a", -1, 1), ("mean_ccc", -1, 1)],
        "va_filtered": [("ccc_v", -1, 1), ("ccc_a", -1, 1), ("mean_ccc", -1, 1)],
    }
    for task, keys in bounded.items():
        if task not in results:
            problems.append(f"no {task!r} in the eval report")
            continue
        for key, lo, hi in keys:
            v = results[task].get(key)
            if not (isinstance(v, (int, float)) and lo <= v <= hi):
                problems.append(f"{task}.{key} = {v!r} outside [{lo}, {hi}]")
    return problems


def check_zero_shot(path: Path, ids: list[str], n_classes: int) -> list[str]:
    """rows x classes lines, finite scores, and exactly one predicted=1 per id."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))[1:]
    problems = []
    if len(rows) != len(ids) * n_classes:
        problems.append(f"{len(rows)} rows for {len(ids)} samples x {n_classes} classes")
    predicted: dict[str, int] = {}
    for row in rows:
        predicted[row[0]] = predicted.get(row[0], 0) + int(row[6])
        if not all(math.isfinite(float(x)) for x in row[2:6]):
            problems.append(f"non-finite score for {row[0]}")
    if sorted(predicted) != sorted(ids):
        problems.append("scored ids differ from the input ids")
    wrong = [i for i, n in predicted.items() if n != 1]
    if wrong:
        problems.append(f"{len(wrong)} ids without exactly one prediction, e.g. {wrong[0]}")
    return problems


def check_gradcheck(stdout: str) -> list[str]:
    modes = ("none", "co_annotation", "soft_co_annotation", "distr_matching", "soft_plus_dm")
    errors = {}
    for line in stdout.splitlines():
        mode, sep, rest = line.partition(": max relative error ")
        if sep:
            errors[mode] = float(rest)
    return [f"{m}: {errors.get(m)!r}" for m in modes if not errors.get(m, 1.0) <= 1e-5]


# -- workloads --------------------------------------------------------------


def write_config(path: Path, **overrides) -> None:
    config = dict(WALKTHROUGH_CONFIG, **overrides)
    path.write_text(json.dumps(config, indent=2, sort_keys=True))


def gen_data(runner: Runner, cwd: Path, out: str, n: int, seed: int, *extra) -> None:
    runner.command(["gen-data", "--out", out, "--n", str(n), "--feature-dim", "32",
                    "--seed", str(seed), *extra], cwd, count=False)


def widen_features(src: Path, dst: Path, seed: int) -> None:
    """Rewrite generated CSVs as 512-d .npy rows referenced by a feature_file column."""
    import numpy as np

    dst.mkdir()
    projection = None
    for name in ("va", "au", "expr"):
        with open(src / f"{name}.csv", newline="") as f:
            reader = csv.reader(f)
            header = next(reader)
            rows = list(reader)
        fcols = [i for i, c in enumerate(header) if c[:1] == "f" and c[1:].isdigit()]
        x = np.array([[float(row[i]) for i in fcols] for row in rows])
        if projection is None:
            rng = np.random.default_rng(seed)
            projection = rng.normal(size=(x.shape[1], WIDE_DIM)) / math.sqrt(x.shape[1])
        np.save(dst / f"{name}.npy", x @ projection)
        keep = [i for i in range(len(header)) if i not in fcols]
        with open(dst / f"{name}.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow([header[i] for i in keep] + ["feature_file"])
            w.writerows([row[i] for i in keep] + [f"{name}.npy:{j}"] for j, row in enumerate(rows))


def quality(final: dict) -> dict:
    return {
        "expr_macro_f1": final["expr"]["macro_f1"],
        "au_mean_f1": final["au"]["mean_f1"],
        "va_mean_ccc": final["va"]["mean_ccc"],
    }


class TrainWorkload:
    """Repeated ``affectmtl train`` on one generated dataset and config."""

    commands = ("train",)

    def __init__(self, name, why, n, epochs, wide, config):
        self.name, self.why = name, why
        self.n, self.epochs, self.wide, self.config = n, epochs, wide, config

    def setup(self, runner: Runner, d: Path, seed: int) -> dict:
        if self.wide:
            gen_data(runner, d, "raw", self.n, seed)
            widen_features(d / "raw", d / "data", seed)
            shutil.rmtree(d / "raw")
        else:
            gen_data(runner, d, "data", self.n, seed)
        write_config(d / "config.json", epochs=self.epochs, seed=seed, **self.config)
        return {"dir": d, "inputs": tree_digest(d)}

    def iterate(self, runner: Runner, state: dict, out: Path, traced=False) -> Iteration:
        child = runner.command(["train", "--config", "config.json", "--out", str(out)],
                               state["dir"], traced)
        manifest = json.loads((out / "manifest.json").read_text())
        plan = manifest["epoch_plans"][0]
        runner.check("train outputs", check_train(out, manifest))
        return Iteration(
            children={"train": child},
            samples={"train": manifest["config"]["epochs"] * sum(plan["set_sizes"])},
            hashes={f: sha256(out / f) for f in ("model.bin", "losses.csv")},
            quality=quality(manifest["final_metrics"]),
        )

    def final_checks(self, runner: Runner, state: dict) -> None:
        """Finite-difference gradient check of every coupling mode (untimed)."""
        child = runner.command(["gradcheck", "--tolerance", "1e-5"], state["dir"], count=False)
        runner.check("gradcheck", check_gradcheck(child.stdout))


PROFILES_SCRIPT = (
    "import sys\n"
    "from affectmtl.relatedness import domain_table\n"
    "from affectmtl.zeroshot import default_compound_classes, save_compound_profiles\n"
    "save_compound_profiles(sys.argv[1], default_compound_classes(domain_table()))\n"
)


class InferWorkload:
    """``affectmtl eval`` then ``affectmtl zero-shot`` against a setup checkpoint."""

    commands = ("eval", "zero-shot")
    name = "infer_compound"
    why = ("read side: one large forward pass, CSV parsing and per-row zero-shot "
           "scoring, with no losses, scheduler or optimizer")
    n = 6000
    frames_per_video = 50
    checkpoint_epochs = 10

    def setup(self, runner: Runner, d: Path, seed: int) -> dict:
        gen_data(runner, d, "data", self.n, seed, "--full",
                 "--frames-per-video", str(self.frames_per_video))
        runner.spawn([sys.executable, "-c", PROFILES_SCRIPT, "profiles.json"], d)
        write_config(d / "config.json", epochs=self.checkpoint_epochs, seed=seed,
                     out_dir="ckpt", coupling="none")
        runner.command(["train", "--config", "config.json"], d, count=False)
        with open(d / "data" / "full.csv", newline="") as f:
            ids = [row["id"] for row in csv.DictReader(f)]
        n_classes = len(json.loads((d / "profiles.json").read_text()))
        return {"dir": d, "ids": ids, "classes": n_classes, "inputs": tree_digest(d / "data")
                + sha256(d / "ckpt" / "model.bin") + sha256(d / "profiles.json")}

    def iterate(self, runner: Runner, state: dict, out: Path, traced=False) -> Iteration:
        d = state["dir"]
        out.mkdir()
        common = ["--checkpoint", "ckpt/model.bin", "--data", "data/full.csv"]
        ev = runner.command(["eval", *common, "--out", str(out / "eval.json")], d, traced)
        results = json.loads((out / "eval.json").read_text())
        runner.check("eval report", check_eval(results))
        zs = runner.command(["zero-shot", *common, "--profiles", "profiles.json",
                             "--out", str(out / "zs")], d, traced)
        scores = out / "zs" / "compound_scores.csv"
        runner.check("zero-shot scores", check_zero_shot(scores, state["ids"], state["classes"]))
        rows = len(state["ids"])
        return Iteration(
            children={"eval": ev, "zero-shot": zs},
            samples={"eval": rows, "zero-shot": rows},
            hashes={"eval.json": sha256(out / "eval.json"), "compound_scores.csv": sha256(scores)},
            quality=quality(results),
        )

    def final_checks(self, runner: Runner, state: dict) -> None:
        pass

WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train_coupled",
            "per-sample loss loops, CSV text parsing and SCA soft labels dominate; "
            "the model is a small share",
            n=12000, epochs=3, wide=False, config={}),
        TrainWorkload(
            "train_wide",
            "512-d .npy features and a [512, 512] trunk make forward, backward and the "
            "step dominate; runs co-annotation both ways and the path:row reader",
            n=6000, epochs=2, wide=True,
            config={"coupling": "co_annotation", "model": {"hidden": [512, 512]}}),
        InferWorkload(),
    )
}


# -- measurement --------------------------------------------------------------


class Reference:
    """Runs reference.py to scale wall times to a fixed machine speed.

    A scale factor of ``REFERENCE_S`` over the mean of the reference's wall time
    just before and just after some work turns that work's wall time into the
    time it would take on a machine where reference.py takes ``REFERENCE_S``.
    """

    def __init__(self, runner: Runner, cwd: Path):
        self.runner, self.cwd = runner, cwd
        self.readings = [self._run()]

    def _run(self) -> float:
        return self.runner.spawn([sys.executable, str(HERE / "reference.py")], self.cwd).wall_s

    def scale(self) -> float:
        """Scale factor for the work done since the previous reading."""
        self.readings.append(self._run())
        return REFERENCE_S / ((self.readings[-2] + self.readings[-1]) / 2)


def timed_setup(workload, runner: Runner, base: Path, seed: int, repeats: int,
                reference: Reference | None = None):
    """Set up ``repeats`` times from scratch; returns the first state, each set-up's
    wall time and, with ``reference``, each wall time scaled to reference speed."""
    states, walls, scaled = [], [], []
    for i in range(repeats):
        d = base / f"setup{i}"
        d.mkdir(parents=True)
        t0 = time.perf_counter()
        states.append(workload.setup(runner, d, seed))
        walls.append(time.perf_counter() - t0)
        if reference is not None:
            scaled.append(walls[-1] * reference.scale())
    digests = {s["inputs"] for s in states}
    runner.check("setup reproducible", [] if len(digests) == 1 else ["inputs differ"])
    for s in states[1:]:
        shutil.rmtree(s["dir"])
    return states[0], walls, scaled


def check_rerun(runner: Runner, first: Iteration, it: Iteration, label: str) -> None:
    diff = [k for k in first.hashes if first.hashes[k] != it.hashes.get(k)]
    runner.check(label, [f"{k} differs" for k in diff])


def measure(workload, runner: Runner, base: Path, seed: int, seconds: float) -> tuple:
    """Untraced run: set-up, then iterations until ``seconds`` have passed."""
    reference = Reference(runner, base)
    state, setup_walls, setup_scaled = timed_setup(
        workload, runner, base, seed, SETUP_REPEATS, reference)
    iterations: list[Iteration] = []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or k < MIN_ITERATIONS:
        out = base / f"iter{k}"
        k += 1
        try:
            it = workload.iterate(runner, state, out)
        except ITERATION_ERRORS as e:
            runner.fail(f"iteration {k}: {e!r}")
            continue
        it.scale = reference.scale()
        if iterations:
            check_rerun(runner, iterations[0], it, "rerun byte-identical")
            shutil.rmtree(out)
        iterations.append(it)
    measured = time.perf_counter() - start
    try:
        workload.final_checks(runner, state)
    except ITERATION_ERRORS as e:
        runner.fail(f"final checks: {e!r}")
    if not iterations:
        return None, {}
    report = {
        "setup_s": statistics.median(setup_scaled),
        "samples_per_s": statistics.median(it.samples_per_s() / it.scale for it in iterations),
        "peak_rss_mb": max(c.maxrss_mb for it in iterations for c in it.children.values()),
    }
    report.update({k: v for k, v in iterations[0].quality.items() if k in END_TO_END_UNITS})
    extra = {
        f"{label.replace('-', '')}_samples_per_s": statistics.median(
            it.samples[label] / it.children[label].wall_s / it.scale for it in iterations)
        for label in workload.commands
    }
    extra["raw_setup_s"] = statistics.median(setup_walls)
    extra["raw_samples_per_s"] = statistics.median(it.samples_per_s() for it in iterations)
    extra["reference_s"] = statistics.median(reference.readings)
    extra["au_mean_f1"] = iterations[0].quality["au_mean_f1"]
    extra["iterations"] = len(iterations)
    extra["measured_s"] = measured
    return report, extra


def trace_metrics(untraced: Iteration, traced: Iteration, runner: Runner) -> tuple:
    """Per-layer metrics of one traced iteration, summed over its commands, and the
    named functions that no longer exist."""
    m = {name: 0.0 for name in PER_LAYER_UNITS}
    untraced_wall = 0.0
    absent = set()
    for label, child in traced.children.items():
        spans, instrumented = tracing.load_spans(child.spans_path)
        wanted = {**FUNCTIONS, **COUNTED}
        agg = tracing.aggregate(spans, wanted.values())
        absent |= {p for p, name in wanted.items() if name not in instrumented}
        layer_self = sum(v["self"] for v in agg["layers"].values())
        uninstrumented = child.wall_s - agg["roots"]
        problems = []
        if abs(layer_self + uninstrumented - child.wall_s) > 1e-6:
            problems.append("layer self times and uninstrumented time do not add up to wall")
        if agg["first_start"] is None or agg["first_start"] < child.start \
                or agg["last_end"] > child.end:
            problems.append("root spans fall outside the child's wall-clock window")
        runner.check(f"{label} span accounting", problems)
        for layer, v in agg["layers"].items():
            if layer in LAYERS:
                m[f"{layer}.self_ms"] += v["self"] * 1e3
                m[f"{layer}.calls"] += v["calls"]
            else:
                m["trace.other_self_ms"] += v["self"] * 1e3
        for prefix, name in FUNCTIONS.items():
            m[f"{prefix}.ms"] += agg["functions"][name]["inclusive"] * 1e3
            m[f"{prefix}.calls"] += agg["functions"][name]["calls"]
        for prefix, name in COUNTED.items():
            m[f"{prefix}.calls"] += agg["functions"][name]["calls"]
        m["trace.uninstrumented_ms"] += uninstrumented * 1e3
        m["trace.wall_ms"] += child.wall_s * 1e3
        untraced_wall += untraced.children[label].wall_s
        child.spans_path.unlink()
    m["trace.overhead_ratio"] = m["trace.wall_ms"] / (untraced_wall * 1e3)
    return m, absent


def measure_traced(workload, runner: Runner, base: Path, seed: int, seconds: float) -> tuple:
    """Traced run: pairs of an untraced and a traced iteration until ``seconds`` pass."""
    state, _, _ = timed_setup(workload, runner, base, seed, 1)
    samples: list[dict] = []
    absent: set = set()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or k < 1:
        k += 1
        try:
            plain = workload.iterate(runner, state, base / f"plain{k}")
            traced = workload.iterate(runner, state, base / f"traced{k}", traced=True)
        except ITERATION_ERRORS as e:
            runner.fail(f"pair {k}: {e!r}")
            continue
        check_rerun(runner, plain, traced, "traced artifacts byte-identical")
        metrics, missing = trace_metrics(plain, traced, runner)
        absent |= missing
        samples.append(metrics)
        shutil.rmtree(base / f"plain{k}")
        shutil.rmtree(base / f"traced{k}")
    if not samples:
        return None, {}
    report = {name: statistics.median(s[name] for s in samples) for name in PER_LAYER_UNITS}
    return report, {"pairs": len(samples), "absent": sorted(absent)}


# -- reporting ----------------------------------------------------------------


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip() or commit
    return {
        "commit": commit,
        "source_sha256": tree_digest(SRC / "affectmtl")[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: str(BLAS_THREADS) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<40} {value:>16.6g} {units.get(name, '')}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    workload = WORKLOADS[name]
    base = WORK / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    base.mkdir(parents=True)
    runner = Runner(base)
    try:
        if trace:
            metrics, info = measure_traced(workload, runner, base, seed, seconds)
            units = PER_LAYER_UNITS
        else:
            metrics, info = measure(workload, runner, base, seed, seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for p in runner.problems:
        print(f"FAILED {name}: {p}", file=sys.stderr)
    if metrics is None:
        return None, runner
    error_rate = runner.failed / max(runner.attempted, 1)
    print_table(f"workload {name} (seed {seed}, trace {int(trace)}): "
                f"{runner.failed} of {runner.attempted} operations failed", metrics, units)
    shown = {k: v for k, v in info.items() if isinstance(v, (int, float))}
    shown["error_rate"] = error_rate
    print_table("  also", shown, EXTRA_UNITS)
    if info.get("absent"):
        print(f"  absent functions (reported as 0): {', '.join(info['absent'])}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, runner


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "affectmtl" / "cli.py").is_file():
        print(f"error: no affectmtl sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result, runner = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if result is None:
            print(f"error: workload {name} produced no successful iteration", file=sys.stderr)
            return 1
        attempted += runner.attempted
        failed += runner.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in result.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
