"""Deterministic random number generation.

Everything that samples geometry, splits, shuffles or jitter goes through
SplitMix64, a 64-bit generator defined by pure integer arithmetic, so the
same seed reproduces the same stream on every platform and Python build.
Bulk pixel noise and weight init use numpy's PCG64 seeded from derived
seeds; both algorithms are fixed and version-stable.

Stream derivation is stateless: ``derive_seed(seed, index)`` mixes the
parent seed with the child index, so concurrent consumers can own
independent generators without coordinating draw order.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    """SplitMix64 output function: two xor-shift-multiply rounds."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for stream `index` of `seed`, independent of any state."""
    if index < 0:
        raise ValueError("stream index must be >= 0")
    return _mix((seed + (index + 1) * _GOLDEN) & _MASK64)


class SplitMix64:
    """Seeded 64-bit generator with integer, float and sequence helpers.

    State advances by the golden-ratio increment and is finalized with
    _mix; `uniform` takes the top 53 bits, `randint` uses rejection
    sampling so every value in the inclusive range is equally likely.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def spawn(self, index: int) -> "SplitMix64":
        """Independent child generator keyed by (this seed, index)."""
        return SplitMix64(derive_seed(self.seed, index))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix(self._state)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive.

        A single-value range consumes no randomness.
        """
        span = hi - lo + 1
        if span <= 0:
            raise ValueError(f"empty range [{lo}, {hi}]")
        if span == 1:
            return lo
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + (u % span)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(0, i)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, order given by a partial Fisher-Yates pass."""
        items = list(seq)
        if not 0 <= k <= len(items):
            raise ValueError(f"cannot sample {k} from {len(items)} items")
        for i in range(k):
            j = self.randint(i, len(items) - 1)
            items[i], items[j] = items[j], items[i]
        return items[:k]
