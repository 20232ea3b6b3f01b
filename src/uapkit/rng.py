"""Portable 64-bit LCG used for all weight/dataset randomness.

state <- state * 6364136223846793005 + 1442695040888963407 (mod 2^64)

Every language binding of the file formats can replay the exact stream, so
encoder weights and generated datasets are reproducible from the seed alone.

The scalar methods (next_u64, uniform, uniform_in, gaussian) are the
specification. The bulk fills return the same bits: they build the states by
LCG jump-ahead (n steps map s to A_n*s + C_n mod 2^64, and (A, C) doubles to
(A^2, A*C + C); F. Brown, "Random Number Generation with Arbitrary Strides",
1994) and apply the same IEEE operations elementwise.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1
MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407


class Lcg:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state * MULTIPLIER + INCREMENT) & MASK64
        return self.state

    def uniform(self) -> float:
        """Uniform in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform_in(self, low: float, high: float) -> float:
        return low + (high - low) * self.uniform()

    def gaussian(self) -> float:
        """Standard normal via Box-Muller (one value per pair, no caching)."""
        u1 = self.uniform()
        while u1 <= 0.0:
            u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def _uniforms(self, n: int) -> np.ndarray:
        """The next n uniform() values; the states are built by doubling in
        one array, which then holds the values in place of the states."""
        states = np.empty(n, dtype=np.uint64)
        if n:
            states[0] = self.next_u64()
            a, c, m = MULTIPLIER, INCREMENT, 1  # (a, c) steps a state m places
            with np.errstate(over="ignore"):  # uint64 products wrap mod 2^64
                while m < n:
                    k = min(m, n - m)
                    block = states[m:m + k]
                    np.multiply(states[:k], np.uint64(a), out=block)
                    block += np.uint64(c)
                    a, c, m = (a * a) & MASK64, (a * c + c) & MASK64, 2 * m
            self.state = int(states[-1])
        states >>= np.uint64(11)
        # a 1-D copy between arrays of one layout runs element by element in
        # order, so each state is read before its value overwrites it
        values = states.view(np.float64)
        np.copyto(values, states, casting="unsafe")
        values *= 2.0 ** -53
        return values

    def fill_uniform(self, n: int, low: float, high: float) -> np.ndarray:
        """n values of uniform_in(low, high), bit for bit."""
        values = self._uniforms(n)
        values *= high - low
        values += low
        return values

    def fill_gaussian(self, n: int) -> np.ndarray:
        """n values of gaussian(), bit for bit. log and cos stay libm's
        per value (numpy's may differ in the last bit), read one at a time
        off memoryviews; sqrt and the products are correctly rounded either
        way."""
        start = self.state
        u = self._uniforms(2 * n)
        u1, u2 = u[0::2], u[1::2]
        if not u1.all():  # gaussian() redraws a zero u1, which shifts the pairs
            self.state = start
            return np.array([self.gaussian() for _ in range(n)], dtype=np.float64)
        values = np.fromiter(map(math.log, memoryview(u1)), np.float64, n)
        u2 *= 2.0 * math.pi
        values *= -2.0
        np.sqrt(values, out=values)
        values *= np.fromiter(map(math.cos, memoryview(u2)), np.float64, n)
        return values
