"""Deterministic random-number generation.

The scheduler, DSE explorer and workload generators all draw randomness
through :class:`DeterministicRng` so that a single seed reproduces a full
co-design run. The class wraps :class:`random.Random` and adds the few
helpers the framework needs: labelled forks and spawns, and Bernoulli
trials.
"""

import random


class DeterministicRng:
    """A seeded RNG with helpers for stochastic search.

    Parameters
    ----------
    seed:
        Any hashable seed. Two instances created with the same seed produce
        identical streams.
    """

    def __init__(self, seed=0):
        self.seed = seed
        if not isinstance(seed, (type(None), int, float, str, bytes,
                                 bytearray)):
            seed = repr(seed)  # tuples and other structured seeds
        self._random = random.Random(seed)

    def fork(self, label):
        """Return an independent RNG derived from this one.

        Forking lets subsystems (e.g. each DSE run) use isolated streams so
        adding draws in one subsystem does not perturb another.
        """
        return DeterministicRng(f"{self.seed}/{label}")

    def spawn(self, *key):
        """Return a child RNG keyed by ``key`` without consuming state.

        The child's seed is a pure function of ``(self.seed, key)``: the
        same parent seed and key always produce the same stream, in any
        process, no matter how many draws the parent (or any sibling) has
        made. The parallel DSE explorer uses this to hand every candidate
        of every generation — ``rng.spawn(iteration, candidate_idx)`` — a
        seed that is identical whether candidates are evaluated serially
        or across a process pool.
        """
        if not key:
            raise ValueError("spawn requires at least one key component")
        parts = []
        for component in key:
            if isinstance(component, (int, str, bytes)):
                parts.append(repr(component))
            else:
                raise TypeError(
                    "spawn keys must be int, str, or bytes; got "
                    f"{type(component).__name__}"
                )
        return DeterministicRng(f"{self.seed}::" + "::".join(parts))

    def random(self):
        """Uniform float in [0, 1)."""
        return self._random.random()

    def randint(self, low, high):
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, sequence):
        """Uniform choice from a non-empty sequence."""
        if not sequence:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(sequence)

    def sample(self, population, k):
        """Sample ``k`` distinct items."""
        return self._random.sample(list(population), k)

    def shuffle(self, items):
        """Shuffle a list in place and return it."""
        self._random.shuffle(items)
        return items

    def gauss(self, mu, sigma):
        """Gaussian sample."""
        return self._random.gauss(mu, sigma)

    def accept(self, probability):
        """Bernoulli trial: True with the given probability."""
        return self._random.random() < probability
