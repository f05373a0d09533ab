import numpy as np
import pytest

from notegrid.util import brief


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
