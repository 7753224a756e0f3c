import pytest

from affectmtl.errors import ConfigError, DataError, exact_keys, exact_type


@pytest.mark.parametrize("value, kinds, ok", [
    (1, int, True),
    (1.5, float, True),
    (1, float, False),  # an int is a float only where the caller lists both
    (1, (int, float), True),
    (1.5, (int, float), True),
    (True, int, False),  # a bool never passes for a number
    (False, (int, float), False),
    (True, bool, True),
    (0, bool, False),
    ("1", (int, float), False),
    (None, str, False),
    ([], list, True),
    ((), list, False),
    ({}, dict, True),
    ([], dict, False),
])
@pytest.mark.parametrize("error", [ConfigError, DataError])
def test_exact_type(value, kinds, ok, error):
    if ok:
        assert exact_type(value, kinds, "x", error) is value
    else:
        with pytest.raises(error, match="^the value must be of type "):
            exact_type(value, kinds, "the value", error)


@pytest.mark.parametrize("d, named, hidden", [
    ({"a": 1, "b": 2}, [], []),
    ({"a": 1, "b": 2, "c": 3}, [], []),
    ({"b": 2}, ["missing key(s) 'a'"], ["unknown"]),
    ({"a": 1, "b": 2, "z": 0}, ["unknown key(s) 'z'"], ["missing"]),
    ({"c": 3, "y": 0, "z": 0}, ["missing key(s) 'a', 'b'", "unknown key(s) 'y', 'z'"], []),
    ([("a", 1), ("b", 2)], ["must be of type dict"], []),
])
@pytest.mark.parametrize("error", [ConfigError, DataError])
def test_exact_keys(d, named, hidden, error):
    """Required keys a and b, optional key c: each missing and unknown key is
    named, and only what is wrong."""
    if not named:
        assert exact_keys(d, ("a", "b"), ("c",), "the object", error) is d
        return
    with pytest.raises(error, match="^the object") as caught:
        exact_keys(d, ("a", "b"), ("c",), "the object", error)
    for text in named:
        assert text in str(caught.value)
    for text in hidden:
        assert text not in str(caught.value)
