"""Acceptance suite: one pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they print; without ``-s`` they appear in pytest's captured output on failure.
"""

import math
from collections import Counter

import numpy as np
import pytest

from affectmtl import (
    CANONICAL_AUS,
    EMOTIONS,
    ExperimentConfig,
    ccc,
    clean_va_expr,
    compound_scores,
    default_compound_classes,
    dm_targets,
    domain_table,
    infer_empirical,
    median_filter,
    next_joint_batch,
    plan_epoch,
    subsample_frames,
)
from affectmtl.labels import SampleSet, write_samples_csv
from affectmtl.synthdata import GeneratorSpec, draw, split
from affectmtl.training import run_gradcheck, run_train

AU_IDX = {au: i for i, au in enumerate(CANONICAL_AUS)}
TABLE = domain_table()

TABLE_1 = {
    "happiness": ({12, 25}, {6: 0.51}),
    "sadness": ({4, 15}, {1: 0.6, 6: 0.5, 11: 0.26, 17: 0.67}),
    "fear": ({1, 4, 20, 25}, {2: 0.57, 5: 0.63, 26: 0.33}),
    "anger": ({4, 7, 24}, {10: 0.26, 17: 0.52, 23: 0.29}),
    "surprise": ({1, 2, 25, 26}, {5: 0.66}),
    "disgust": ({9, 10, 17}, {4: 0.31, 24: 0.26}),
    "neutral": (set(), {}),
}


def verdict(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_gradient_fidelity():
    report = run_gradcheck(seed=0)
    worst = max(report.values())
    ok = set(report) == {
        "none", "co_annotation", "soft_co_annotation", "distr_matching", "soft_plus_dm"
    } and worst < 1e-5
    verdict(1, "gradient fidelity across coupling modes", ok, f"max rel err {worst:.2e}")


def test_criterion_2_domain_table_fidelity():
    ok = list(TABLE.class_names) == list(EMOTIONS)
    for emotion, (proto, obs) in TABLE_1.items():
        entries = TABLE.lookup(EMOTIONS.index(emotion))
        got_proto = {CANONICAL_AUS[e.index] for e in entries if e.prototypical}
        got_obs = {CANONICAL_AUS[e.index]: e.weight for e in entries if not e.prototypical}
        ok = ok and got_proto == proto and got_obs == obs
        ok = ok and all(e.weight == 1.0 for e in entries if e.prototypical)
    verdict(2, "bundled relatedness table matches every published entry", ok)


def test_criterion_3_distribution_matching_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        p = rng.dirichlet(np.ones(7))
        for reweight in (False, True):
            q = dm_targets(p, TABLE, reweight=reweight).q_binary
            brute = np.zeros(17)
            for k in range(7):
                for e in TABLE.lookup(k):
                    brute[e.index] += p[k] * (e.weight if reweight else 1.0)
            worst = max(worst, float(np.abs(q - brute).max()))
    happy = np.zeros(7)
    happy[EMOTIONS.index("happiness")] = 1.0
    qh = dm_targets(happy, TABLE).q_binary
    identities = all(abs(qh[AU_IDX[au]] - 1.0) <= 1e-12 for au in (12, 25, 6))
    p = rng.dirichlet(np.ones(7))
    q2 = dm_targets(p, TABLE).q_binary[AU_IDX[2]]
    expected = p[EMOTIONS.index("surprise")] + p[EMOTIONS.index("fear")]
    identities = identities and abs(q2 - expected) <= 1e-12
    ok = worst <= 1e-12 and identities
    verdict(3, "dm_targets matches brute force and worked identities", ok,
            f"max dev {worst:.1e}")


def test_criterion_4_ccc_correctness():
    rng = np.random.default_rng(4)
    ok = abs(ccc(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 4.0])) - 8 / 13) <= 1e-12
    for _ in range(100):
        y = rng.normal(size=rng.integers(3, 40))
        ok = ok and abs(ccc(y, y) - 1.0) <= 1e-9
        if np.std(y) > 1e-6:
            ok = ok and ccc(y, 2 * y) < 1.0
    verdict(4, "CCC self-agreement, worked example 8/13, scale sensitivity", ok)


def test_criterion_5_empirical_relatedness_recovery():
    corpus = draw(GeneratorSpec(relatedness=TABLE, seed=0), 10_000)
    inferred = infer_empirical(corpus.expr, corpus.au, threshold=0.05)
    r_true = TABLE.weight_matrix(reweight=True)
    worst = 0.0
    for cname in TABLE.class_names:
        k = EMOTIONS.index(cname)
        got = {}
        if cname in inferred.class_names:
            got = {e.index: e.weight for e in inferred.lookup(inferred.class_names.index(cname))}
        for b in range(17):
            if r_true[k, b] >= 0.1:
                worst = max(worst, abs(got.get(b, 0.0) - r_true[k, b]))
    verdict(5, "empirical relatedness recovers generator weights", worst <= 0.03,
            f"max |dev| {worst:.4f} vs 0.03")


def test_criterion_6_scheduler_coverage():
    rng = np.random.default_rng(6)
    ok = True
    for trial in range(200):
        sizes = tuple(int(rng.integers(1, 400)) for _ in range(int(rng.integers(1, 5))))
        plan = plan_epoch(sizes, max_batch=int(rng.integers(1, 51)), seed=trial)
        sets = [[(s, i) for i in range(n)] for s, n in enumerate(sizes)]
        seen = Counter()
        for it in range(plan.iteration_count):
            batch = next_joint_batch(plan, it)
            seen.update(sets[si][i] for si, rows in enumerate(batch) for i in rows)
        expected = Counter(x for group in sets for x in group)
        ok = ok and seen == expected
    ratio = plan_epoch((1000, 620, 260), max_batch=200, seed=0)
    ok = ok and ratio.batch_sizes == (200, 124, 52)
    verdict(6, "scheduler covers every sample exactly once; 200:124:52 ratio", ok)


@pytest.fixture(scope="module")
def benefit_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("benefit")
    spec = GeneratorSpec(relatedness=TABLE, feature_dim=32, noise_scale=0.3, seed=0)
    va, au, expr = split(draw(spec, 6000), partition=(0.49, 0.49, 0.02))
    for name, group in [("va", va), ("au", au), ("expr", expr)]:
        write_samples_csv(root / f"{name}.csv", group)
    return root


def _held_out_expr_accuracy(root, coupling, seed, sets, loss_weights=None):
    d = {
        "data": {k: str(root / f"{k}.csv") for k in sets},
        "coupling": coupling,
        "model": {"hidden": [32, 32]},
        "max_batch": 200,
        "epochs": 1,
        "optimizer": {"lr": 0.015, "momentum": 0.9},
        "holdout_fraction": 0.2,
        "seed": seed,
        "out_dir": str(root / f"run_{coupling}_{seed}_{len(sets)}"),
    }
    if loss_weights:
        d["loss_weights"] = {"couplings": loss_weights}
    manifest = run_train(ExperimentConfig.from_dict(d))
    return manifest["final_metrics"]["expr"]["accuracy"]


def test_criterion_7_coupling_benefit_trend(benefit_dataset):
    seeds = (0, 1, 2)
    all_sets = ("va", "au", "expr")
    coupled = np.mean([
        _held_out_expr_accuracy(
            benefit_dataset, "soft_plus_dm", s, all_sets, {"sca": 3.0, "dm": 0.02}
        )
        for s in seeds
    ])
    uncoupled = np.mean(
        [_held_out_expr_accuracy(benefit_dataset, "none", s, all_sets) for s in seeds]
    )
    single = np.mean(
        [_held_out_expr_accuracy(benefit_dataset, "none", s, ("expr",)) for s in seeds]
    )
    margin_none = coupled - uncoupled
    margin_single = coupled - single
    ok = margin_none >= 0.0 and margin_single >= 0.0
    verdict(7, "coupling-benefit trend on held-out expression accuracy", ok,
            f"soft_plus_dm {coupled:.4f}; margin vs none {margin_none:+.4f}, "
            f"vs single-task {margin_single:+.4f}")


def test_criterion_8_zero_shot_mechanics(reference_compound_scores):
    classes = default_compound_classes(TABLE)
    rng = np.random.default_rng(8)
    n = 10_000
    out = {"va": rng.uniform(-1, 1, (n, 2)), "expr": rng.dirichlet(np.ones(7), n),
           "au": rng.random((n, 17))}
    s = compound_scores(out, classes)
    ok = bool(((0.0 <= s.i_au) & (s.i_au <= 1.0) & (0.0 <= s.f_emo) & (s.f_emo <= 1.0)).all())
    ok = ok and np.isin(s.d_va, (0.0, 1.0)).all()
    ok = ok and np.array_equal(s.total, s.i_au + s.f_emo + s.d_va)
    terms = np.stack([s.i_au, s.f_emo, s.d_va, s.total], axis=2)
    ok = ok and np.abs(terms - reference_compound_scores(out, classes)).max() <= 1e-12
    flagged = next(c for c in classes if c.requires_positive_valence)
    va = np.array([[-1e-9, 0.0], [0.0, 0.0], [1e-9, 0.0]])
    flat = {"va": va, "expr": np.full((3, 7), 1 / 7), "au": np.full((3, 17), 0.5)}
    ok = ok and compound_scores(flat, [flagged]).d_va[:, 0].tolist() == [0.0, 0.0, 1.0]
    verdict(8, "compound score ranges and valence-sign flip at zero", ok)


def test_criterion_9_cleaning_rules(one_row):
    def kept(emotion, v, a):
        s = one_row(id="x", features=np.zeros(4), va=(v, a), expr=EMOTIONS.index(emotion))
        return bool(clean_va_expr(s.expr, s.va)[0])

    cases = [
        ("neutral", 0.149, 0.0, True),
        ("neutral", 0.151, 0.0, False),
        ("neutral", 0.0, -0.151, False),
        ("sadness", -0.1, 0.5, True),
        ("sadness", 0.1, 0.5, False),
        ("disgust", -0.1, -0.9, True),
        ("disgust", 0.1, 0.0, False),
        ("fear", -0.1, 0.9, True),
        ("fear", 0.1, 0.9, False),
        ("anger", -0.1, 0.1, True),
        ("anger", -0.1, -0.1, False),
        ("anger", 0.1, 0.1, False),
        ("happiness", 0.1, -0.9, True),
        ("happiness", -0.1, 0.9, False),
        ("surprise", -0.9, -0.9, True),
        ("surprise", 0.9, 0.9, True),
    ]
    ok = all(kept(e, v, a) == want for e, v, a, want in cases)

    frames = SampleSet.concat([
        one_row(id=f"f{i}", features=np.zeros(2), va=(0.0, 0.0), sequence_key=("vid", i))
        for i in range(12)
    ])
    kept_frames = frames.take(subsample_frames(frames.video, frames.frame))
    ok = ok and kept_frames.frame.tolist() == [0, 5, 10]

    spike = median_filter(np.array([0.0, 0.0, 10.0, 0.0, 0.0]), window=3)
    ok = ok and np.array_equal(spike, np.zeros(5))
    edges = median_filter(np.array([1.0, 2.0, 3.0, 4.0, 100.0]), window=3)
    ok = ok and np.array_equal(edges, [1.0, 2.0, 3.0, 4.0, 100.0])
    verdict(9, "cleaning, subsampling, and median-filter rules", ok)


def test_criterion_10_determinism(benefit_dataset, tmp_path):
    def run(out):
        config = ExperimentConfig.from_dict({
            "data": {k: str(benefit_dataset / f"{k}.csv") for k in ("va", "au", "expr")},
            "coupling": "soft_plus_dm",
            "model": {"hidden": [16]},
            "max_batch": 200,
            "epochs": 1,
            "optimizer": {"lr": 0.015, "momentum": 0.9},
            "holdout_fraction": 0.2,
            "seed": 0,
            "out_dir": str(out),
        })
        run_train(config)
        return (out / "losses.csv").read_bytes(), (out / "model.bin").read_bytes()

    losses_a, model_a = run(tmp_path / "a")
    losses_b, model_b = run(tmp_path / "b")
    ok = losses_a == losses_b and model_a == model_b
    verdict(10, "byte-identical loss logs and checkpoints across reruns", ok)
