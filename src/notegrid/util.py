"""Deterministic seeds, and one rule each for text lines, echoed values and config fields.

All randomness in the package flows from explicit integer seeds. Derived
seeds are produced with a splitmix64-style hash so that streams for
different (seed, purpose) pairs are decorrelated but fully reproducible,
independent of platform and library versions.
"""

from __future__ import annotations

import dataclasses
import functools
import numbers
import os
import reprlib
import sys
import typing
from decimal import Decimal

from .errors import ContractError

MASK64 = (1 << 64) - 1

_GOLDEN = 0x9E3779B97F4A7C15


def is_seed(value: int) -> bool:
    """The one seed rule: an integer below 2**64 in size. Every stream reads
    seed & MASK64, so a larger seed would only alias a smaller one."""
    return abs(value) <= MASK64


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
    2**64 in size, else in three digits (1.00e+400); a path as its text, and
    the rest as reprlib has it."""
    if isinstance(value, os.PathLike):
        value = os.fspath(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return f"{Decimal(int(value)):.3g}" if abs(int(value)) >= 2 ** 64 else str(value)
    return reprlib.repr(value)


def fits(kind, value) -> bool:
    """Whether value has the declared type `kind`, where a bool is no number,
    an `int` is any integer (NumPy's too) and a `float` a finite float or int."""
    if isinstance(value, bool):
        return False
    if kind is float:
        return isinstance(value, (numbers.Integral, float)) and abs(value) <= sys.float_info.max
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is None:
        return isinstance(value, numbers.Integral if kind is int else kind)
    if origin not in (list, tuple):
        return any(fits(arg, value) for arg in args)  # a union such as X | None
    if not isinstance(value, (list, tuple)):
        return False
    if origin is list or args[-1] is Ellipsis:
        return all(fits(args[0], item) for item in value)
    return len(value) == len(args) and all(map(fits, args, value))


_field_types = functools.cache(typing.get_type_hints)  # a class's hints, resolved once


def check_config(cfg, rules: dict) -> None:
    """Check the fields of the frozen dataclass `cfg` in order, as a ContractError:
    each one's type (a float field leaves NaN and infinity to its rule; an int
    becomes a Python int), then rules[name] = (what it must be, test[, budget, unit])."""
    kinds = _field_types(type(cfg))
    for field in dataclasses.fields(cfg):
        name, value = field.name, getattr(cfg, field.name)
        if not (fits(kinds[name], value) or kinds[name] is float and isinstance(value, float)):
            raise ContractError(f"{name} must be {field.type}, got {brief(value)}")
        if kinds[name] is int:  # a NumPy integer would overflow `seed & MASK64`
            object.__setattr__(cfg, name, value := int(value))
        if name not in rules:
            continue
        want, test, *budget = rules[name]
        if not test(value):
            raise ContractError(f"{name} must be {want}, got {brief(value)}")
        if budget and value > budget[0]:
            raise ContractError(f"{name} = {brief(value)} exceeds the budget of "
                                f"{budget[0]} {budget[1]}")
