"""Deterministic pseudo-randomness for data generation and training.

Everything random in this package flows through :class:`Rng`, a pure-Python
xoshiro256** generator seeded via splitmix64 (Blackman & Vigna's recommended
seeding).  Substreams are derived from a single master seed and a
``(purpose, index)`` pair, so independent pieces of work (episodes, rollouts)
can be generated in any order and still produce byte-identical results.
``substream_randoms`` runs many substreams at once, in lockstep over numpy
arrays, and yields exactly the uniforms each one's ``Rng.randoms`` would.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

# splitmix64 constants (Steele, Lea & Flood).
_SM_GAMMA = 0x9E3779B97F4A7C15
_SM_MIX1 = 0xBF58476D1CE4E5B9
_SM_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _splitmix64_mix(z: int) -> int:
    """The splitmix64 output function: a 64-bit finalizer/bijection."""
    z = ((z ^ (z >> 30)) * _SM_MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _SM_MIX2) & MASK64
    return z ^ (z >> 31)


def splitmix64_stream(seed: int, n: int) -> list[int]:
    """First ``n`` outputs of splitmix64 starting from ``seed``."""
    state = seed & MASK64
    out = []
    for _ in range(n):
        state = (state + _SM_GAMMA) & MASK64
        out.append(_splitmix64_mix(state))
    return out


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & MASK64
    return h


def substream_seed(master_seed: int, purpose: str, index: int = 0) -> int:
    """Derive a 64-bit seed for the substream named by ``(purpose, index)``.

    The derivation is a fixed function of its inputs, so substreams can be
    created lazily, in parallel, or out of order without changing anything.
    """
    x = (master_seed & MASK64) ^ _fnv1a64(purpose.encode("utf-8"))
    x = (x + ((index + 1) * _SM_GAMMA)) & MASK64
    return _splitmix64_mix(x)


class Rng:
    """xoshiro256** 1.0 with distribution helpers.

    The core generator follows the reference implementation exactly; the
    helper methods (uniform, gamma, shuffle, ...) are all built from
    ``next_u64`` so a stream is fully determined by its seed.
    """

    __slots__ = ("s",)

    def __init__(self, seed: int):
        state = splitmix64_stream(seed, 4)
        if not any(state):  # xoshiro must not start from the all-zero state
            state[0] = 1
        self.s = state

    def next_u64(self) -> int:
        s = self.s
        result = (self._rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
        t = (s[1] << 17) & MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = self._rotl(s[3], 45)
        return result

    @staticmethod
    def _rotl(x: int, k: int) -> int:
        return ((x << k) | (x >> (64 - k))) & MASK64

    # ---- uniform variates -------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randoms(self, n: int) -> list[float]:
        return [self.random() for _ in range(n)]

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError(f"below() needs n >= 1, got {n}")
        limit = ((1 << 64) // n) * n
        r = self.next_u64()
        while r >= limit:
            r = self.next_u64()
        return r % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.below(hi - lo + 1)

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    # ---- collections ------------------------------------------------------

    def choice(self, seq):
        if len(seq) == 0:
            raise ValueError("choice() from empty sequence")
        return seq[self.below(len(seq))]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, drawn without replacement."""
        n = len(seq)
        if k > n:
            raise ValueError(f"sample of {k} from population of {n}")
        pool = list(seq)
        for i in range(k):
            j = i + self.below(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    # ---- non-uniform variates ---------------------------------------------

    def normal(self) -> float:
        """Standard normal via Box-Muller (one variate per call)."""
        u1 = 1.0 - self.random()  # (0, 1]: keeps the log finite
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def gamma(self, alpha: float) -> float:
        """Gamma(alpha, 1) via Marsaglia-Tsang squeeze rejection.

        For alpha < 1 uses the boosting identity
        Gamma(alpha) = Gamma(alpha + 1) * U^(1/alpha).
        """
        if alpha <= 0.0:
            raise ValueError(f"gamma() needs alpha > 0, got {alpha}")
        if alpha < 1.0:
            u = 1.0 - self.random()  # (0, 1]
            return self.gamma(alpha + 1.0) * math.exp(math.log(u) / alpha)
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        while True:
            x = self.normal()
            v = 1.0 + c * x
            if v <= 0.0:
                continue
            v = v * v * v
            u = self.random()
            if u < 1.0 - 0.0331 * x * x * x * x:
                return d * v
            if u > 0.0 and math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                return d * v

    def dirichlet(self, alpha: float, k: int) -> list[float]:
        """Symmetric Dirichlet(alpha) over k coordinates."""
        draws = [self.gamma(alpha) for _ in range(k)]
        total = sum(draws)
        return [g / total for g in draws]

    def categorical(self, probs) -> int:
        """Index drawn according to ``probs`` (assumed to sum to ~1)."""
        u = self.random()
        acc = 0.0
        for i, p in enumerate(probs):
            acc += p
            if u < acc:
                return i
        return len(probs) - 1


def derive_rng(master_seed: int, purpose: str, index: int = 0) -> Rng:
    """A fresh generator for the substream named by ``(purpose, index)``."""
    return Rng(substream_seed(master_seed, purpose, index))


def _splitmix64_mix_array(z: np.ndarray) -> np.ndarray:
    """``_splitmix64_mix`` on a uint64 array (products wrap modulo 2**64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_SM_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_SM_MIX2)
    return z ^ (z >> np.uint64(31))


def _rotl_array(x: np.ndarray, k: int) -> np.ndarray:
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


def lockstep_randoms(state: np.ndarray, k: int) -> np.ndarray:
    """(N, k) uniforms from N xoshiro256** generators advanced together.

    ``state`` is (4, N) uint64: column i holds the four splitmix64 words
    ``Rng.__init__`` seeds generator i with, and an all-zero column gets
    the same guard.  Row i of the result is that generator's ``randoms(k)``.
    """
    state = np.array(state, dtype=np.uint64)
    state[0, ~state.any(axis=0)] = 1
    s0, s1, s2, s3 = state
    out = np.empty((k, state.shape[1]))
    for j in range(k):
        result = _rotl_array(s1 * np.uint64(5), 7) * np.uint64(9)
        t = s1 << np.uint64(17)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3[:] = _rotl_array(s3, 45)
        out[j] = (result >> np.uint64(11)) * (1.0 / (1 << 53))
    return out.T


def substream_randoms(master_seed: int, purpose: str, first: int, n: int, k: int) -> np.ndarray:
    """(n, k) uniforms; row i equals ``derive_rng(master_seed, purpose, first + i).randoms(k)``.

    Each row is its own substream, so drawing more columns than a caller
    uses changes nothing in the columns it does use.
    """
    base = (master_seed & MASK64) ^ _fnv1a64(purpose.encode("utf-8"))
    steps = np.arange(first + 1, first + n + 1, dtype=np.uint64) * np.uint64(_SM_GAMMA)
    z = _splitmix64_mix_array(steps + np.uint64(base))  # the substream seeds
    state = np.empty((4, n), dtype=np.uint64)
    for w in range(4):  # splitmix64_stream(seed, 4), per column
        z = z + np.uint64(_SM_GAMMA)
        state[w] = _splitmix64_mix_array(z)
    return lockstep_randoms(state, k)
