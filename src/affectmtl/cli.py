"""Command-line entry points for the full pipeline.

Subcommands: gen-data, infer-relatedness, train, eval, zero-shot, gradcheck.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import labels as lab
from . import relatedness as rel
from .errors import AffectMTLError, DataError
from .model import MultiHeadModel
from .synthdata import GeneratorSpec, draw, split
from .training import (
    ExperimentConfig, empirical_table, run_eval, run_gradcheck, run_train, _versions,
)
from .zeroshot import compound_scores, load_compound_profiles


def _write_manifest(out_dir: Path, command: str, args: dict, extra: dict | None = None):
    manifest = {"command": command, "args": args, "versions": _versions()}
    if extra:
        manifest.update(extra)
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = GeneratorSpec(
        relatedness=rel.domain_table(),
        feature_dim=args.feature_dim,
        noise_scale=args.noise,
        seed=args.seed,
        frames_per_video=args.frames_per_video,
    )
    fractions = tuple(float(x) for x in args.partition.split(","))
    full = draw(spec, args.n)
    va_set, au_set, expr_set = split(full, fractions)
    sets = {"va": va_set, "au": au_set, "expr": expr_set, **({"full": full} if args.full else {})}
    for name, data in sets.items():
        lab.write_samples_csv(out / f"{name}.csv", data)
    _write_manifest(
        out, "gen-data",
        {"n": args.n, "feature_dim": args.feature_dim, "noise": args.noise,
         "seed": args.seed, "partition": args.partition,
         "frames_per_video": args.frames_per_video},
        {"set_sizes": {"va": len(va_set), "au": len(au_set), "expr": len(expr_set)}},
    )
    print(f"wrote {len(va_set)}/{len(au_set)}/{len(expr_set)} va/au/expr samples to {out}")
    return 0


def _cmd_infer_relatedness(args) -> int:
    table = empirical_table(args.corpus, args.threshold)
    table.save(args.out)
    print(f"inferred empirical table over {len(table.class_names)} classes -> {args.out}")
    return 0


def _load_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_json(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.out_dir = args.out
    return config


def _cmd_train(args) -> int:
    manifest = run_train(_load_config(args))
    final = manifest.get("final_metrics", {})
    line = ", ".join(
        f"{task} {sorted(m)[0]}={m[sorted(m)[0]]:.4f}" if isinstance(m, dict) else task
        for task, m in final.items()
    )
    print(f"run complete: {manifest['steps']} steps -> {manifest['config']['out_dir']}")
    if line:
        print(f"held-out: {line}")
    return 0


def _cmd_eval(args) -> int:
    results = run_eval(args.checkpoint, args.data, args.out, args.median_window)
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


def _cmd_zero_shot(args) -> int:
    model = MultiHeadModel.load(args.checkpoint)
    classes = load_compound_profiles(args.profiles)
    data = lab.read_samples_csv(args.data)
    heads, _ = model.forward(data.features)
    try:
        scores = compound_scores(heads, classes)
    except DataError as e:
        raise DataError(f"checkpoint {args.checkpoint}: {e}") from e
    # one CSV row per (sample, class); d_va is 0.0 or 1.0
    picked = np.arange(len(classes)) == scores.predicted[:, None]
    columns = [np.repeat(lab.text_cells(data.ids), len(classes)),
               np.tile(lab.text_cells([c.name for c in classes]), len(data)),
               scores.i_au.ravel(), scores.f_emo.ravel(),
               np.where(scores.d_va.ravel() > 0, "1.0", "0.0"), scores.total.ravel(),
               np.where(picked.ravel(), "1", "0")]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lab.write_csv_columns(out / "compound_scores.csv",
                          ["id", "class", "i_au", "f_emo", "d_va", "total", "predicted"], columns)
    extra = {}
    hits = [classes[p].name == t for p, t in zip(scores.predicted.tolist(), data.compound) if t]
    if hits:
        extra["compound_accuracy"] = sum(hits) / len(hits)
        (out / "metrics.json").write_text(json.dumps(extra, indent=2, sort_keys=True))
    _write_manifest(out, "zero-shot",
                    {"checkpoint": args.checkpoint, "profiles": args.profiles,
                     "data": args.data}, extra)
    print(f"scored {len(data)} samples over {len(classes)} compound classes -> {out}")
    return 0


def _cmd_gradcheck(args) -> int:
    report = run_gradcheck(seed=args.seed, tolerance=args.tolerance)
    for mode, err in report.items():
        print(f"{mode}: max relative error {err:.3e}")
    print("gradient check passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="affectmtl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a synthetic heterogeneous dataset")
    g.add_argument("--out", required=True)
    g.add_argument("--n", type=int, default=6000)
    g.add_argument("--feature-dim", type=int, default=32)
    g.add_argument("--noise", type=float, default=0.3)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--partition", default="0.3333,0.3333,0.3334")
    g.add_argument("--frames-per-video", type=int, default=None)
    g.add_argument("--full", action="store_true",
                   help="also write the unstripped co-annotated corpus")
    g.set_defaults(func=_cmd_gen_data)

    r = sub.add_parser("infer-relatedness", help="infer an empirical relatedness table")
    r.add_argument("--corpus", required=True)
    r.add_argument("--threshold", type=float, default=0.1)
    r.add_argument("--out", required=True)
    r.set_defaults(func=_cmd_infer_relatedness)

    t = sub.add_parser("train", help="train per an experiment config")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=int, default=None)
    t.add_argument("--out", default=None)
    t.set_defaults(func=_cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", default=None)
    e.add_argument("--median-window", type=int, default=5)
    e.set_defaults(func=_cmd_eval)

    z = sub.add_parser("zero-shot", help="compound-expression scoring")
    z.add_argument("--checkpoint", required=True)
    z.add_argument("--profiles", required=True)
    z.add_argument("--data", required=True)
    z.add_argument("--out", required=True)
    z.set_defaults(func=_cmd_zero_shot)

    c = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--tolerance", type=float, default=1e-5)
    c.set_defaults(func=_cmd_gradcheck)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AffectMTLError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
