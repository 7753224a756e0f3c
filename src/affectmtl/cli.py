"""Command-line entry points for the full pipeline.

Subcommands: gen-data, infer-relatedness, train, eval, zero-shot, gradcheck.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import csvio
from . import relatedness as rel
from .errors import AffectMTLError, ConfigError, DataError
from .model import MultiHeadModel
from .synthdata import GeneratorSpec, draw, partition_cuts, split
from .training import (
    SET_NAMES, ExperimentConfig, run_eval, run_gradcheck, run_train, write_manifest,
)
from .zeroshot import compound_scores, load_compound_profiles


def _cmd_gen_data(args) -> int:
    spec = GeneratorSpec(
        relatedness=rel.domain_table(),
        feature_dim=args.feature_dim,
        noise_scale=args.noise,
        seed=args.seed,
        frames_per_video=args.frames_per_video,
    )
    try:
        fractions = tuple(float(x) for x in args.partition.split(","))
    except ValueError as e:
        raise DataError(f"--partition must list three numbers, got {args.partition!r}") from e
    # before the draw, which takes long for a large --n, and before anything is written
    cuts = partition_cuts(args.n, fractions)
    sizes = {name: b - a for name, a, b in zip(SET_NAMES, cuts, cuts[1:])}
    empty = [name for name, size in sizes.items() if not size]
    if empty:
        raise DataError(f"--n {args.n} with --partition {args.partition} leaves no samples "
                        f"in the set {', '.join(empty)}")
    full = draw(spec, args.n)
    cells = csvio.float_cells(full.features)  # formatted once: split's sets are runs of full's rows
    sets = {name: (data, cells[a:b]) for name, data, a, b
            in zip(SET_NAMES, split(full, fractions), cuts, cuts[1:])}
    if args.full:
        sets["full"] = (full, cells)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (data, feature_cells) in sets.items():
        csvio.write_samples_csv(out / f"{name}.csv", data, feature_cells)
    write_manifest(out, {
        "command": "gen-data",
        "args": {"n": args.n, "feature_dim": args.feature_dim, "noise": args.noise,
                 "seed": args.seed, "partition": args.partition,
                 "frames_per_video": args.frames_per_video},
        "set_sizes": sizes,
    })
    print(f"wrote {'/'.join(map(str, sizes.values()))} va/au/expr samples to {out}")
    return 0


def _cmd_infer_relatedness(args) -> int:
    if not 0.0 <= args.threshold <= 1.0:  # NaN fails too; before the corpus is read
        raise ConfigError(f"relatedness threshold must be in [0, 1], got {args.threshold}")
    data = csvio.read_samples_csv(args.corpus)
    try:  # a row without an expression or without AU labels adds no count
        table = rel.infer_empirical(data.expr, data.au, args.threshold)
    except DataError as e:
        raise DataError(f"corpus {args.corpus}: {e}") from e
    table.save(args.out)
    print(f"inferred empirical table over {len(rel.EMOTIONS)} classes -> {args.out}")
    return 0


def _load_config(args) -> ExperimentConfig:
    """The config file, with ``--seed`` and ``--out`` applied and checked like it."""
    overrides = {"seed": args.seed, "out_dir": args.out}
    return replace(ExperimentConfig.from_json(args.config),
                   **{key: value for key, value in overrides.items() if value is not None})


# The held-out metric that ``train`` prints for each task it evaluated
SUMMARY_METRICS = {"expr": "macro_f1", "au": "mean_f1", "va": "mean_ccc", "va_filtered": "mean_ccc"}


def _cmd_train(args) -> int:
    manifest = run_train(_load_config(args))
    final = manifest["final_metrics"]
    line = ", ".join(f"{task} {name}={final[task][name]:.4f}"
                     for task, name in SUMMARY_METRICS.items() if task in final)
    print(f"run complete: {manifest['steps']} steps -> {manifest['config']['out_dir']}")
    if line:
        print(f"held-out: {line}")
    return 0


def _cmd_eval(args) -> int:
    results = run_eval(args.checkpoint, args.data, args.out)
    print(json.dumps(results, indent=2, sort_keys=True))
    return 0


def _cmd_zero_shot(args) -> int:
    model = MultiHeadModel.load(args.checkpoint)
    profiles = load_compound_profiles(args.profiles)
    data = csvio.read_samples_csv(args.data)
    unknown = set(data.compound) - {"", *profiles.names}
    if unknown:
        raise DataError(f"{args.data}: compound truth {min(unknown)!r} names no profile class")
    scores = compound_scores(model.forward(data.features)[0], profiles)
    # one CSV row per (sample, class); d_va is 0.0 or 1.0
    picked = np.arange(len(profiles.names)) == scores.predicted[:, None]
    sample, klass = np.indices(picked.shape).reshape(2, -1)  # of each row
    columns = [(data.ids, sample), (profiles.names, klass), scores.i_au.ravel(),
               scores.f_emo.ravel(), (["0.0", "1.0"], scores.d_va.ravel() > 0),
               scores.total.ravel(), (["0", "1"], picked.ravel())]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csvio.write_csv_columns(out / "compound_scores.csv",
                            ["id", "class", "i_au", "f_emo", "d_va", "total", "predicted"], columns)
    extra = {}
    truth = data.compound != ""
    if truth.any():
        hits = (np.array(profiles.names, dtype=object)[scores.predicted] == data.compound)[truth]
        extra["compound_accuracy"] = int(hits.sum()) / len(hits)
        (out / "metrics.json").write_text(json.dumps(extra, indent=2, sort_keys=True))
    write_manifest(out, {"command": "zero-shot", **extra,
                         "args": {"checkpoint": args.checkpoint, "profiles": args.profiles,
                                  "data": args.data}})
    print(f"scored {len(data)} samples over {len(profiles.names)} compound classes -> {out}")
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
    r.add_argument("--threshold", type=float, default=rel.EMPIRICAL_THRESHOLD)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:  # argparse exits 2 on a usage error, the data-error code
        return 1 if e.code else 0
    try:
        return args.func(args)
    except (AffectMTLError, OSError) as e:  # OSError: an output that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code if isinstance(e, AffectMTLError) else 1  # a failed read is a DataError


if __name__ == "__main__":
    sys.exit(main())
