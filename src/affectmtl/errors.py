"""Exception hierarchy mapped to CLI exit codes, and the JSON key check that
every reader of an input file shares."""


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
