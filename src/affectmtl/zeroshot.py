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
from .relatedness import CANONICAL_AUS, EMOTIONS, RelatednessTable

_AU_TO_INDEX = {au: i for i, au in enumerate(CANONICAL_AUS)}
# A profile file's AU keys, as save_compound_profiles writes them: "12" for AU12
_AU_KEYS = {str(au): au for au in CANONICAL_AUS}


def _check_emotion(name, emo) -> None:
    # built in Python, a profile may hold the NumPy scalars of an argmax or a table row
    exact_type(emo, (int, np.int64), f"compound {name!r}: emotion index", DataError)
    if not 0 <= emo < len(EMOTIONS):
        raise DataError(f"compound {name!r}: emotion index {emo!r} outside 0..{len(EMOTIONS) - 1}")


@dataclass
class CompoundClass:
    """A blend of two basic emotions with an AU activation profile.

    ``au_profile`` maps AU number (canonical set) -> p(au | compound) in (0, 1].
    """

    name: str
    emo1: int
    emo2: int
    au_profile: dict[int, float]
    requires_positive_valence: bool = False

    def __post_init__(self):
        exact_type(self.name, (str, np.str_), "a compound name", DataError)
        for emo in (self.emo1, self.emo2):
            _check_emotion(self.name, emo)
        if self.emo1 == self.emo2:
            raise DataError(f"compound {self.name!r}: constituent emotions must differ")
        exact_type(self.requires_positive_valence, bool,
                   f"compound {self.name!r}: positive valence flag", DataError)
        if not self.au_profile:
            raise DataError(f"compound {self.name!r}: empty AU profile")
        for au, w in self.au_profile.items():
            if au not in _AU_TO_INDEX:
                raise DataError(f"compound {self.name!r}: AU{au} outside the canonical set")
            where = f"compound {self.name!r}: weight"
            if not 0.0 < exact_type(w, (int, float, np.float64), where, DataError) <= 1.0:
                raise DataError(f"compound {self.name!r}: weight {w!r} outside (0, 1]")


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


def compound_scores(out: dict, classes) -> CompoundScores:
    """Score every compound class for every row of ``MultiHeadModel.forward`` outputs.

    ``out`` maps each head name to its (n, width) outputs.
    """
    classes = list(classes)
    if not classes:
        raise DataError("no compound classes to score")
    profiles = np.array([[c.au_profile.get(au, 0.0) for au in CANONICAL_AUS] for c in classes])
    pairs = np.array([(c.emo1, c.emo2) for c in classes])
    positive = np.array([c.requires_positive_valence for c in classes])
    i_au = out["au"] @ profiles.T / profiles.sum(axis=1)
    f_emo = out["expr"][:, pairs[:, 0]] + out["expr"][:, pairs[:, 1]]
    d_va = ((out["va"][:, :1] > 0) & positive).astype(float)
    total = i_au + f_emo + d_va
    return CompoundScores(i_au, f_emo, d_va, total, total.argmax(axis=1))


def compound_class_from_emotions(
    name: str,
    emo1: int,
    emo2: int,
    table: RelatednessTable,
    positive_valence: bool = False,
) -> CompoundClass:
    """Build a compound profile as the union of two emotions' table entries.

    AUs present in both constituents take the larger weight.
    """
    for emo in (emo1, emo2):  # a bool or a float would index the weights otherwise
        _check_emotion(name, emo)
    row = np.maximum(table.weights[emo1], table.weights[emo2])
    profile = {CANONICAL_AUS[i]: float(row[i]) for i in np.flatnonzero(row)}
    return CompoundClass(name, emo1, emo2, profile, positive_valence)


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


def default_compound_classes(table: RelatednessTable) -> list[CompoundClass]:
    """The standard eleven two-emotion blends, profiled from the domain table."""
    return [
        compound_class_from_emotions(
            name, EMOTIONS.index(e1), EMOTIONS.index(e2), table, pos
        )
        for name, e1, e2, pos in _DEFAULT_BLENDS
    ]


def save_compound_profiles(path, classes) -> None:
    payload = [
        {
            "name": c.name,
            "emo1": c.emo1,
            "emo2": c.emo2,
            "aus": {str(au): w for au, w in sorted(c.au_profile.items())},
            "positive_valence": c.requires_positive_valence,
        }
        for c in classes
    ]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def load_compound_profiles(path) -> list[CompoundClass]:
    """Read a profile file as written by :func:`save_compound_profiles`."""
    return read_json(path, "compound profiles", DataError, _profiles)


def _profiles(payload) -> list[CompoundClass]:
    """The classes of a profile file's JSON list, each name once."""
    if not exact_type(payload, list, "the payload", DataError):
        raise DataError("no compound profiles")
    classes = [_profile_from_dict(d, f"entry {i}") for i, d in enumerate(payload)]
    names = [c.name for c in classes]
    if len(set(names)) < len(names):
        raise DataError(f"class name {max(names, key=names.count)!r} is listed more than once")
    return classes


def _profile_from_dict(d, where: str) -> CompoundClass:
    exact_keys(d, ("name", "emo1", "emo2", "aus"), ("positive_valence",), where, DataError)
    exact_keys(d["aus"], (), _AU_KEYS, f"{where}: aus", DataError)
    profile = {_AU_KEYS[au]: w for au, w in d["aus"].items()}
    return CompoundClass(d["name"], d["emo1"], d["emo2"], profile,
                         d.get("positive_valence", False))
