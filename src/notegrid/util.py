"""Deterministic seed derivation, and one rule each for text lines and echoed values.

All randomness in the package flows from explicit integer seeds. Derived
seeds are produced with a splitmix64-style hash so that streams for
different (seed, purpose) pairs are decorrelated but fully reproducible,
independent of platform and library versions.
"""

from __future__ import annotations

import numbers
import reprlib
from decimal import Decimal

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x):
    """Hash a 64-bit value to a well-mixed 64-bit value. Works elementwise
    on an np.uint64 array too, whose arithmetic wraps at 2**64 like the masks."""
    z = (x + _GOLDEN) & MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & MASK64
    z ^= z >> 31
    return z


def derive_seed(a: int, b: int) -> int:
    """Combine two integers into one decorrelated 64-bit seed.

    Order-sensitive: derive_seed(a, b) != derive_seed(b, a) in general.
    """
    return splitmix64(splitmix64(a & MASK64) ^ (b & MASK64))


def split_lines(text: str) -> list[str]:
    """The lines of a text file, broken at \\n, \\r\\n and \\r only, with no
    empty line after a final break. str.splitlines also breaks at \\v, \\f,
    \\x1c-\\x1e, \\x85, \\u2028 and \\u2029, so its line numbers would not be
    the file's own."""
    if "\r" in text:  # one scan, where replacing would take two even with no \r
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def count_line_breaks(data: str | bytes) -> int:
    """The line breaks that split_lines finds in data's text, given as text
    or as bytes."""
    lf, cr = ("\n", "\r") if isinstance(data, str) else (b"\n", b"\r")
    return data.count(lf) + data.count(cr) - data.count(cr + lf)


def line_and_column(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of text[pos] under split_lines' rule."""
    head = text[:pos]
    return count_line_breaks(head) + 1, pos - max(head.rfind("\n"), head.rfind("\r"))


def brief(value) -> str:
    """A value as an error echoes it: an integer (NumPy's too) in full below
    2**64 in size, else in three digits (1.00e+400); the rest as reprlib has it."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return f"{Decimal(int(value)):.3g}" if abs(int(value)) >= 2 ** 64 else str(value)
    return reprlib.repr(value)
