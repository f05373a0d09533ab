import numpy as np
import pytest

from notegrid import SynthConfig, TrainConfig, util
from notegrid.util import brief, fits


@pytest.mark.parametrize("value,echo", [
    (0, "0"), (-5, "-5"), (2 ** 64 - 1, "18446744073709551615"),
    (2 ** 64, "1.84e+19"), (10 ** 400, "1.00e+400"), (10 ** 400 + 1, "1.00e+400"),
    (-10 ** 400, "-1.00e+400"), (np.int64(-2 ** 63), "-9223372036854775808"),
    (np.uint64(2 ** 64 - 1), "18446744073709551615"),
    (True, "True"), (None, "None"), (1.5, "1.5"), (float("inf"), "inf"),
    ("abc", "'abc'"), ([1, 2], "[1, 2]"), ({"a": 1}, "{'a': 1}"),
])
def test_short_values_echo_as_repr_huge_integers_in_three_digits(value, echo):
    assert brief(value) == echo


@pytest.mark.parametrize("value", ["x" * 10 ** 4, list(range(10 ** 4)),
                                   [[[[[[[1]]]]]]]])
def test_long_values_are_abbreviated(value):
    assert len(brief(value)) < 50


@pytest.mark.parametrize("kind,value,fit", [
    (int, 3, True), (int, np.int64(3), True), (int, np.uint8(3), True), (int, 10 ** 400, True),
    (int, True, False), (int, np.bool_(True), False), (int, 3.0, False), (int, "3", False),
    (float, 0.5, True), (float, 3, True), (float, np.float64(0.5), True),
    (float, np.int64(3), True), (float, float("nan"), False), (float, float("inf"), False),
    (float, 10 ** 400, False), (float, False, False), (float, np.float32(0.5), False),
    (tuple[float, float], [0.1, 0.5], True), (tuple[float, float], (0.1,), False),
    (tuple[tuple[int, float], ...] | None, None, True),
    (tuple[tuple[int, float], ...] | None, [[1, 0.5], (2, 1)], True),
    (tuple[tuple[int, float], ...] | None, [[1]], False),
    (list[int], [1, 2], True), (list[int], [1, 2.0], False), (list[str], "ab", False),
])
def test_fits_reads_the_declared_type(kind, value, fit):
    """A bool is no number, an int any integer (NumPy's too), and a float a
    finite float or int: a NumPy float other than float64 is not one."""
    assert fits(kind, value) == fit


def test_config_type_hints_resolve_once_per_class():
    """check_config resolves a config class's string annotations on its
    first construction only, not on every one."""
    util._field_types.cache_clear()
    for seed in range(3):
        SynthConfig(seed=seed)
        TrainConfig(seed=seed)
    resolved = util._field_types.cache_info()
    assert (resolved.misses, resolved.hits) == (2, 4)
