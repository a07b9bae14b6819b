"""RNG plumbing shared by the simulation engines.

Counter-based Philox streams keyed by (seed, replica) give bit-exact
reproducibility.  Scalar engines read their uniforms and Exp(1) variates
from a ``DrawBuffer`` and pick discrete outcomes with ``AliasTable.draw_u``;
event kernels read a chunk of Poisson arrivals at a time with
``DrawBuffer.arrivals`` (their times and uniforms) and pick with
``AliasTable.draw_u_array``; both keep the scalar stream and arithmetic.
The vectorized sampler uses ``AliasTable.draw_many``.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

_MASK64 = (1 << 64) - 1


def substream(seed: int, replica: int = 0) -> np.random.Generator:
    key = np.array([seed & _MASK64, replica & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class AliasTable:
    """Walker alias method: O(1) draws from a fixed discrete distribution."""

    def __init__(self, weights: Sequence[float]):
        w = np.asarray(weights, dtype=float)
        if len(w) == 0 or np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum")
        self.total = float(w.sum())
        n = len(w)
        prob = w * n / self.total
        alias = np.zeros(n, dtype=np.int64)
        small = [i for i, p in enumerate(prob) if p < 1.0]
        large = [i for i, p in enumerate(prob) if p >= 1.0]
        prob = prob.copy()
        while small and large:
            s, l = small.pop(), large.pop()
            alias[s] = l
            prob[l] -= 1.0 - prob[s]
            (small if prob[l] < 1.0 else large).append(l)
        self.prob = prob
        self.alias = alias
        self.n = n

    def draw_many(self, gen: np.random.Generator, size: int) -> np.ndarray:
        i = gen.integers(self.n, size=size)
        take = gen.random(size) < self.prob[i]
        return np.where(take, i, self.alias[i])

    def draw_u(self, u: float) -> int:
        """Draw from a single uniform: integer part picks the bucket, fraction decides."""
        scaled = u * self.n
        i = int(scaled)
        return i if scaled - i < self.prob[i] else int(self.alias[i])

    def draw_u_array(self, u: np.ndarray) -> np.ndarray:
        """``draw_u`` on each uniform of an array, with the same float arithmetic."""
        scaled = u * self.n
        i = scaled.astype(np.int64)
        return np.where(scaled - i < self.prob[i], i, self.alias[i])


class DrawBuffer:
    """Scalar uniforms and Exp(1) variates prefetched in fixed blocks.

    Per-call Generator draws dominate tight event loops.  Both blocks refill
    from one generator in the order they run out, so the values drawn depend
    on how uniform and exponential calls interleave; each engine's draw order
    is fixed, which makes its runs reproducible at a fixed seed.  Block
    kernels read the unread parts with ``blocks`` and mark what they used
    with ``consume``.
    """

    def __init__(self, gen: np.random.Generator, block: int = 4096):
        self._gen = gen
        self._block = block
        self._u: np.ndarray = gen.random(block)
        self._iu = 0
        self._e: np.ndarray = gen.standard_exponential(block)
        self._ie = 0

    def _refill_u(self) -> None:
        self._u = self._gen.random(self._block)
        self._iu = 0

    def _refill_e(self) -> None:
        self._e = self._gen.standard_exponential(self._block)
        self._ie = 0

    def uniform(self) -> float:
        if self._iu == self._block:
            self._refill_u()
        v = self._u[self._iu]
        self._iu += 1
        return float(v)

    def std_exponential(self) -> float:
        if self._ie == self._block:
            self._refill_e()
        v = self._e[self._ie]
        self._ie += 1
        return float(v)

    def arrivals(self, t: float, T: float, rate: float, cap: int) -> Tuple[np.ndarray, np.ndarray]:
        """Times of at most ``cap`` > 0 arrivals of a rate-``rate`` Poisson
        clock after time t, and the uniforms of those at or before T.

        Arrival j reads the j-th unread Exp(1) variate and uniform, as
        alternating ``std_exponential`` / ``uniform`` calls would: times are
        the running sum ``t += e / rate``, and an empty block is refilled
        when the first arrival reads it, the exponential one first and the
        uniform one only if that arrival is at or before T.  Nothing counts
        as read until ``consume``.
        """
        if self._ie == self._block:
            self._refill_e()
        m = min(self._block - self._ie, cap)
        if self._iu < self._block:
            m = min(m, self._block - self._iu)
        times = self._e[self._ie:self._ie + m] / rate
        times[0] += t
        np.add.accumulate(times, out=times)  # sequential, so bit-equal to the scalar sum
        k = int(times.searchsorted(T, side="right"))
        if k and self._iu == self._block:
            self._refill_u()
        return times, self._u[self._iu:self._iu + k]

    def consume(self, k: int) -> None:
        """Mark the next k exponentials and the next k uniforms as read."""
        if not 0 <= k <= self._block - max(self._ie, self._iu):
            raise ValueError(f"cannot consume {k} draws from the unread blocks")
        self._ie += k
        self._iu += k
