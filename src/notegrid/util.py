"""Deterministic seed derivation helpers.

All randomness in the package flows from explicit integer seeds. Derived
seeds are produced with a splitmix64-style hash so that streams for
different (seed, purpose) pairs are decorrelated but fully reproducible,
independent of platform and library versions.
"""

from __future__ import annotations

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
