"""Zero-shot compound-expression scoring from trained-model outputs.

Each compound class blends two basic emotions and carries an AU profile. The
candidate score sums an AU agreement term, the two constituent emotion
probabilities, and a valence-sign bonus restricted to positive-valence blends.
Every (sample, class) pair is scored at once, as matrix operations over a batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, exact_keys, exact_type, read_json
from .relatedness import CANONICAL_AUS, EMOTIONS, NUM_AUS, RelatednessTable

# A profile file's AU keys, as save_compound_profiles writes them ("12" for AU12), to columns
_AU_KEYS = {str(au): b for b, au in enumerate(CANONICAL_AUS)}


@dataclass(frozen=True, eq=False)
class CompoundProfiles:
    """Compound classes, one row each: a blend of two basic emotions with an AU profile.

    ``names``: distinct, non-empty strings. ``pairs``: (C, 2) integers, two
    different ``EMOTIONS`` indices per class. ``weights``: (C, NUM_AUS) floats in
    ``AU_LABELS`` column order, p(au | compound) in (0, 1] and 0 where a class has
    no AU, at least one AU per class. ``positive``: (C,) bools, true where a class
    needs positive valence. The arrays are read-only copies of those passed.
    """

    names: tuple
    pairs: np.ndarray
    weights: np.ndarray
    positive: np.ndarray

    def __post_init__(self):
        names = tuple(self.names)
        for name in names:
            if not exact_type(name, (str, np.str_), "a compound name", DataError):
                raise DataError("a compound name must not be empty")
        if not names:
            raise DataError("no compound classes")
        if len(set(names)) < len(names):
            raise DataError(f"class name {max(names, key=names.count)!r} is listed more than once")
        object.__setattr__(self, "names", names)
        c = len(names)
        for field, shape, kind in (("pairs", (c, 2), np.integer), ("positive", (c,), np.bool_),
                                   ("weights", (c, NUM_AUS), np.floating)):
            a = np.array(getattr(self, field))
            if a.shape != shape or not np.issubdtype(a.dtype, kind):
                raise DataError(f"compound {field} must be {kind.__name__} of shape {shape}, "
                                f"got dtype {a.dtype} and shape {a.shape}")
            a.flags.writeable = False
            object.__setattr__(self, field, a)
        pairs, w, k = self.pairs, self.weights, len(EMOTIONS)
        for what, bad in {
            f"emotion index outside 0..{k - 1}": ((pairs < 0) | (pairs >= k)).any(1),
            "constituent emotions must differ": pairs[:, 0] == pairs[:, 1],
            "weight outside (0, 1] (0 is no AU)": ~((w >= 0.0) & (w <= 1.0)).all(1),
            "empty AU profile": ~w.any(1),
        }.items():
            if bad.any():
                raise DataError(f"compound {names[bad.argmax()]!r}: {what}")


@dataclass(frozen=True)
class CompoundScores:
    """Score terms of every (sample, compound class) pair as (n, C) arrays.

    ``predicted`` is each row's argmax of ``total``; ties go to the lowest index.
    """

    i_au: np.ndarray
    f_emo: np.ndarray
    d_va: np.ndarray
    total: np.ndarray
    predicted: np.ndarray


def compound_scores(out: dict, profiles: CompoundProfiles) -> CompoundScores:
    """Score every compound class for every row of ``MultiHeadModel.forward`` outputs.

    ``out`` maps each head name to its (n, width) outputs.
    """
    w, pairs = profiles.weights, profiles.pairs
    i_au = out["au"] @ w.T / w.sum(axis=1)
    f_emo = out["expr"][:, pairs[:, 0]] + out["expr"][:, pairs[:, 1]]
    d_va = ((out["va"][:, :1] > 0) & profiles.positive).astype(float)
    total = i_au + f_emo + d_va
    return CompoundScores(i_au, f_emo, d_va, total, total.argmax(axis=1))


# (emo1, emo2, positive valence) for the standard eleven blends.
_DEFAULT_BLENDS = [
    ("happily_surprised", "happiness", "surprise", True),
    ("happily_disgusted", "happiness", "disgust", True),
    ("sadly_fearful", "sadness", "fear", False),
    ("sadly_angry", "sadness", "anger", False),
    ("sadly_surprised", "sadness", "surprise", False),
    ("sadly_disgusted", "sadness", "disgust", False),
    ("fearfully_angry", "fear", "anger", False),
    ("fearfully_surprised", "fear", "surprise", False),
    ("angrily_surprised", "anger", "surprise", False),
    ("angrily_disgusted", "anger", "disgust", False),
    ("disgustedly_surprised", "disgust", "surprise", False),
]


def default_compound_classes(table: RelatednessTable) -> CompoundProfiles:
    """The standard eleven two-emotion blends, each profiled as the union of its
    two emotions' table rows: an AU in both takes the larger weight."""
    names, first, second, positive = zip(*_DEFAULT_BLENDS)
    pairs = np.array([[EMOTIONS.index(e1), EMOTIONS.index(e2)] for e1, e2 in zip(first, second)])
    weights = np.maximum(table.weights[pairs[:, 0]], table.weights[pairs[:, 1]])
    return CompoundProfiles(names, pairs, weights, positive)


def save_compound_profiles(path, profiles: CompoundProfiles) -> None:
    rows = zip(profiles.names, profiles.pairs.tolist(), profiles.weights.tolist(),
               profiles.positive.tolist())
    payload = [{"name": name, "emo1": e1, "emo2": e2, "positive_valence": positive,
                "aus": {str(au): w for au, w in zip(CANONICAL_AUS, ws) if w}}
               for name, (e1, e2), ws, positive in rows]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_compound_profiles(path) -> CompoundProfiles:
    """Read a profile file as written by :func:`save_compound_profiles`."""
    return read_json(path, "compound profiles", DataError, _profiles)


def _profiles(payload) -> CompoundProfiles:
    """The classes of a profile file's JSON list, each name once."""
    exact_type(payload, list, "the payload", DataError)
    weights = np.zeros((len(payload), NUM_AUS))
    for i, d in enumerate(payload):
        where = f"entry {i}"
        exact_keys(d, ("name", "emo1", "emo2", "aus"), ("positive_valence",), where, DataError)
        for key, kind in (("emo1", int), ("emo2", int), ("positive_valence", bool)):
            exact_type(d.get(key, False), kind, f"{where}: {key}", DataError)
        for au, w in exact_keys(d["aus"], (), _AU_KEYS, f"{where}: aus", DataError).items():
            if not 0.0 < exact_type(w, (int, float), f"{where}: AU{au} weight", DataError) <= 1.0:
                raise DataError(f"{where}: AU{au} weight {w!r} outside (0, 1]")
            weights[i, _AU_KEYS[au]] = w
    return CompoundProfiles([d["name"] for d in payload], [[d["emo1"], d["emo2"]] for d in payload],
                            weights, [d.get("positive_valence", False) for d in payload])
