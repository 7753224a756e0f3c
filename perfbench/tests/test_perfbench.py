"""Tests of the benchmark's tracing, metric names and input generation.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import importlib
import json
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class TickClock:
    """Each reading advances time by one unit."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_self_time_nested_same_and_other_layer():
    tracer = tracing.Tracer(clock=TickClock())
    inner_other = tracer.wrap(lambda: None, "b.inner", "b")
    inner_same = tracer.wrap(lambda: inner_other(), "a.inner", "a")

    def body():
        inner_same()
        inner_other()

    outer = tracer.wrap(body, "a.outer", "a")
    outer()
    # Ticks: outer [1, 8], inner_same [2, 5] holding inner_other [3, 4],
    # then inner_other [6, 7].
    spans = {(s[0], s[2]): s for s in tracer.spans}
    assert [s[3] - s[2] for s in tracer.spans] == [7, 3, 1, 1]
    agg = tracing.aggregate(tracer.spans, ["a.inner", "b.inner"])
    assert agg["layers"]["a"] == {"self": (7 - 3 - 1) + (3 - 1), "calls": 2}
    assert agg["layers"]["b"] == {"self": 2, "calls": 2}
    assert agg["roots"] == 7
    assert sum(v["self"] for v in agg["layers"].values()) == agg["roots"]
    assert agg["functions"]["b.inner"] == {"inclusive": 2, "calls": 2}
    assert spans[("b.inner", 3.0)][tracing.PARENT] == 1


def test_recursive_calls_count_once_and_raised_spans_are_marked():
    tracer = tracing.Tracer(clock=TickClock())

    def fact(n):
        if n == 0:
            raise ValueError("bottom")
        return fact_traced(n - 1)

    fact_traced = tracer.wrap(fact, "m.fact", "m")
    with pytest.raises(ValueError):
        fact_traced(2)
    agg = tracing.aggregate(tracer.spans, ["m.fact"])
    assert agg["functions"]["m.fact"]["calls"] == 1
    assert agg["functions"]["m.fact"]["inclusive"] == agg["roots"]
    assert [s[tracing.RAISED] for s in tracer.spans] == [True, True, True]


def _make_package(root: Path, name: str) -> None:
    pkg = root / name
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .losses import ce_grad\n")
    (pkg / "losses.py").write_text(textwrap.dedent("""
        def ce_grad(x):
            return x + 1

        def _private(x):
            return x
    """))
    (pkg / "model.py").write_text(textwrap.dedent("""
        class Net:
            def forward(self, x):
                return x * 2

            @classmethod
            def load(cls):
                return cls()

            @staticmethod
            def header():
                return "h"
    """))
    (pkg / "training.py").write_text(textwrap.dedent("""
        from .losses import ce_grad
        from .losses import ce_grad as aliased
        from .model import Net

        def step(x):
            return aliased(ce_grad(Net.load().forward(x))) + len(Net.header())
    """))


def test_instrument_patches_every_binding_site(tmp_path, monkeypatch):
    _make_package(tmp_path, "fakepkg")
    monkeypatch.syspath_prepend(str(tmp_path))
    pkg = importlib.import_module("fakepkg")
    try:
        tracer = tracing.Tracer(clock=TickClock())
        tracer.instrument(pkg)
        training = sys.modules["fakepkg.training"]
        assert training.step(1) == 5
        names = [(s[tracing.NAME], s[tracing.LAYER]) for s in tracer.spans]
        assert names == [
            ("training.step", "training"),
            ("model.Net.load", "model"),
            ("model.Net.forward", "model"),
            ("losses.ce_grad", "losses"),
            ("losses.ce_grad", "losses"),
            ("model.Net.header", "model"),
        ]
        assert all(s[tracing.PARENT] == 0 for s in tracer.spans[1:])
        assert pkg.ce_grad is sys.modules["fakepkg.losses"].ce_grad is training.ce_grad
        assert "losses._private" not in tracer.instrumented
    finally:
        for mod in [m for m in sys.modules if m.split(".")[0] == "fakepkg"]:
            del sys.modules[mod]


def test_instrument_reaches_affectmtl_training_copies(tmp_path):
    """The training module's imported loss functions are the traced ones."""
    script = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import affectmtl, tracing
        tracer = tracing.Tracer()
        tracer.instrument(affectmtl)
        from affectmtl import losses, training
        assert training.softmax_ce_grad is losses.softmax_ce_grad
        assert training.softmax_ce_grad.__wrapped__ is not None
        training.run_gradcheck(input_dim=4, hidden=(4,), batch_size=6,
                               modes=("soft_plus_dm",))
        spans = tracer.spans
        hits = [s for s in spans if s[0] == "losses.softmax_ce_grad"]
        assert hits and all(s[1] == "losses" for s in hits)
        parents = {spans[s[4]][0] for s in hits}
        assert parents == {"training.joint_loss_and_grads", "training.joint_loss_value"}, parents
        print("ok")
    """)
    env = dict(run.Runner(tmp_path).env)
    out = subprocess.run([sys.executable, "-c", script, str(BENCH)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == run.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    for name in [*e2e, *layer, *run.WORKLOADS]:
        assert NAME_RE.fullmatch(name), name
    for prefix in [*run.FUNCTIONS, *run.COUNTED]:
        assert prefix.split(".")[0] in run.LAYERS


def _small_workloads():
    wide = run.TrainWorkload("t", "", n=300, epochs=1, wide=True,
                             config={"coupling": "co_annotation"})
    infer = run.InferWorkload()
    infer.n, infer.checkpoint_epochs = 300, 1
    return wide, infer


@pytest.mark.parametrize("index", [0, 1])
def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path, index):
    workload = _small_workloads()[index]
    runner = run.Runner(tmp_path)
    digests = []
    for i, seed in enumerate((5, 5, 6)):
        d = tmp_path / f"s{i}"
        d.mkdir()
        digests.append(workload.setup(runner, d, seed)["inputs"])
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]
    assert runner.failed == 0


def test_zero_shot_check_flags_double_prediction(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text(
        "id,class,i_au,f_emo,d_va,total,predicted\n"
        "a,x,0.1,0.2,0.0,0.3,1\n"
        "a,y,0.1,0.2,0.0,0.3,1\n"
    )
    assert run.check_zero_shot(path, ["a"], 2)
    path.write_text(
        "id,class,i_au,f_emo,d_va,total,predicted\n"
        "a,x,0.1,0.2,0.0,0.3,0\n"
        "a,y,0.1,0.2,0.0,0.3,1\n"
    )
    assert run.check_zero_shot(path, ["a"], 2) == []


def test_gradcheck_check_requires_every_mode():
    good = "\n".join(f"{m}: max relative error 1.0e-09" for m in
                     ("none", "co_annotation", "soft_co_annotation", "distr_matching",
                      "soft_plus_dm"))
    assert run.check_gradcheck(good) == []
    assert run.check_gradcheck(good.replace("1.0e-09", "2.0e-05", 1))
    assert run.check_gradcheck("\n".join(good.splitlines()[1:]))
