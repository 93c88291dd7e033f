"""The seed sequence through which ``fedcbo.rng`` hands Philox a derived key.

It is kept out of ``fedcbo.rng``: subclassing NumPy's ``ISeedSequence``
imports ``numpy.random``, which ``import numpy`` defers.  ``fedcbo.rng``
imports this module on its first stream, so the CLI's start-up does not pay
for ``numpy.random``.
"""

import numpy as np


class PhiloxKey(np.random.bit_generator.ISeedSequence):
    """A precomputed Philox key posing as the seed sequence that derived it."""

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key
