"""Seeded randomness helpers.

A thin wrapper over :class:`random.Random` adding the distributions the
workload generators need (exponential inter-arrivals, truncated normals,
Zipf-like popularity).  Keeping everything behind one class makes the seed
the single source of nondeterminism in an experiment.
"""

from __future__ import annotations

import math
import random
import zlib


class SeededRng:
    """Deterministic random source for simulations."""

    def __init__(self, seed=0):
        self._random = random.Random(seed)
        self.seed = seed
        #: the stdlib's bound method itself: a draw costs no frame here
        self.random = self._random.random

    # -- pass-throughs -----------------------------------------------------
    def uniform(self, a, b):
        # random.Random.uniform's own formula, one frame fewer per draw
        return a + (b - a) * self.random()

    def randint(self, a, b):
        return self._random.randint(a, b)

    def choice(self, seq):
        return self._random.choice(seq)

    def sample(self, population, k):
        return self._random.sample(population, k)

    def shuffle(self, seq):
        self._random.shuffle(seq)

    def gauss(self, mu, sigma):
        return self._random.gauss(mu, sigma)

    # -- derived distributions ----------------------------------------------
    def expovariate(self, rate):
        """Exponential inter-arrival time with the given rate (events/s).

        random.Random.expovariate's own formula, one frame fewer per draw.
        """
        return -math.log(1.0 - self.random()) / rate

    def truncated_gauss(self, mu, sigma, low, high):
        """Normal sample clamped by resampling into ``[low, high]``.

        Falls back to clamping after 100 rejections so pathological
        parameters cannot loop forever.
        """
        for _ in range(100):
            value = self._random.gauss(mu, sigma)
            if low <= value <= high:
                return value
        return min(max(self._random.gauss(mu, sigma), low), high)

    def zipf_weights(self, n, skew=1.0):
        """Zipf popularity weights for ranks ``1..n`` (normalized to sum 1).

        Used to model traffic popularity: a few servers/endpoints receive
        most flows, which is what makes the reactive protocol's selective
        update property matter (paper sec. 3.4).
        """
        if n <= 0:
            return []
        raw = [1.0 / math.pow(rank, skew) for rank in range(1, n + 1)]
        total = sum(raw)
        return [w / total for w in raw]

    def weighted_index(self, weights):
        """Pick an index according to the (already normalized) weights."""
        target = self._random.random()
        acc = 0.0
        for index, weight in enumerate(weights):
            acc += weight
            if target < acc:
                return index
        return len(weights) - 1

    def spawn(self, label):
        """Create an independent child rng derived from this seed + label.

        Ensures subsystems (traffic vs. mobility vs. presence) do not
        perturb each other's random streams when one of them changes.
        The derivation uses CRC32 rather than ``hash()`` so child seeds —
        and therefore whole experiments — are identical across processes
        regardless of ``PYTHONHASHSEED``.
        """
        key = ("%r:%r" % (self.seed, label)).encode("utf-8")
        return SeededRng(zlib.crc32(key) & 0x7FFFFFFF)
