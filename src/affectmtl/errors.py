"""Exception hierarchy mapped to CLI exit codes, and the JSON read and checks
(repeated keys, exact types, exact key sets) that every reader of an input file
shares."""

import json
from pathlib import Path


class AffectMTLError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(AffectMTLError):
    """Invalid configuration or command usage."""

    exit_code = 1


class DataError(AffectMTLError):
    """Unreadable, malformed, or inconsistent input data."""

    exit_code = 2


class NumericalError(AffectMTLError):
    """Numerical failure: non-finite loss, failed gradient check, etc."""

    exit_code = 3


def unique_keys(pairs) -> dict:
    """``object_pairs_hook`` for ``json.loads``: the object's dict, or a
    ValueError naming a key that the object repeats (plain ``json.loads``
    keeps the last value without a word)."""
    d = {}
    for key, value in pairs:
        if key in d:
            raise ValueError(f"repeated key {key!r}")
        d[key] = value
    return d


def exact_type(value, kinds, where: str, error):
    """``value``, whose own type is one of ``kinds`` (so a bool is no int), or an ``error``."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        raise error(f"{where} must be of type {names}, got {value!r}")
    return value


def exact_keys(d, required, optional, where: str, error) -> dict:
    """``d``, a dict with every ``required`` key and no key beyond ``optional``, or
    an ``error`` that names each missing and each unknown key."""
    exact_type(d, dict, where, error)
    wrong = {"missing": [k for k in required if k not in d],
             "unknown": [k for k in d if k not in required and k not in optional]}
    if any(wrong.values()):
        raise error(f"{where}: " + "; ".join(f"{kind} key(s) {', '.join(map(repr, keys))}"
                                             for kind, keys in wrong.items() if keys))
    return d


def read_json(path, what: str, error, parse):
    """``parse`` of the JSON in the file ``path``, a ``what`` such as "config". A file
    that cannot be read, or is not JSON without a repeated key, is an ``error``
    "cannot read <what> <path>: ..."; one from ``parse`` is raised as "<what> <path>: ..."."""
    try:
        d = json.loads(Path(path).read_text(), object_pairs_hook=unique_keys)
    except (OSError, ValueError) as e:  # ValueError: not text or not JSON, a repeated key
        raise error(f"cannot read {what} {path}: {e}") from e
    try:
        return parse(d)
    except error as e:
        raise error(f"{what} {path}: {e}") from e
