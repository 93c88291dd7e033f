"""Deterministic random streams.

Every stochastic component draws from a counter-based Philox generator keyed
by (seed, domain, index).  Agents own disjoint streams, so the order in which
agents are processed never changes the numbers each agent sees; a parallel
and a serial sweep over agents produce identical results.

A Philox generator's whole seeded state is its 128-bit key.  The key of
stream (seed, domain, index) is the one ``np.random.SeedSequence((seed,
domain, index))`` gives Philox: ``keys`` runs NumPy's SeedSequence
hash-and-mix (M. E. O'Neill's seed_seq design) with ``uint32`` array
arithmetic, so a whole column of indices is keyed in one batched call.
``tests/test_rng.py`` pins every key, and so every draw, to NumPy's own
SeedSequence.
"""

import operator

import numpy as np

# Domain tags keep streams for unrelated purposes disjoint even when they
# share a seed and an index.
DATA = 0
INIT = 1
AGENT = 2
ROUND = 3
PROJECTION = 4
SERVER = 5

# NumPy SeedSequence constants: a 4-word pool, 32-bit words.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _words(value):
    """Little-endian uint32 words of a non-negative int; 0 gives [0]."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashers(init, mult):
    """SeedSequence's hashmix over a hash constant that starts at ``init``.

    The constant advances on every call whatever the data, so one hasher
    serves every row of a batch."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = (const * mult) & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> _XSHIFT)
    return hashmix


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def keys(*values):
    """Philox keys of ``SeedSequence(entropy=values)``, batched over arrays.

    Each value is a non-negative int of any size, or a 1-D ``uint32`` array.
    Row r of the ``(n, 2)`` result is ``SeedSequence(entropy=...)
    .generate_state(2, np.uint64)`` with each array replaced by its r-th
    entry; with no array, n is 1.
    """
    columns = []
    n = 1
    for value in values:
        if isinstance(value, np.ndarray):
            n = value.shape[0]
            columns.append(value)
        else:
            columns.extend(np.uint32(word) for word in _words(value))
    entropy = [np.broadcast_to(column, (n,)) for column in columns]
    # Entropy shorter than the pool mixes exactly as if padded with zeros.
    entropy += [np.zeros(n, np.uint32)] * (_POOL_SIZE - len(entropy))

    hashmix = _hashers(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    # generate_state(2, np.uint64): four output words, paired little-endian.
    hashmix = _hashers(_INIT_B, _MULT_B)
    out = np.stack([hashmix(word) for word in pool], axis=1)
    return out.astype("<u4", copy=False).view("<u8")


def _generators(key_rows):
    from ._philox_key import PhiloxKey  # imports numpy.random; see there
    return [np.random.Generator(np.random.Philox(PhiloxKey(key))) for key in key_rows]


def streams(seed, domain, count):
    """Fresh Generators for (seed, domain, index), index 0..count-1."""
    return _generators(keys(seed, domain, np.arange(count, dtype=np.uint32)))


def stream(seed, domain, index=0):
    """Return a fresh Generator for (seed, domain, index)."""
    return _generators(keys(seed, domain, index))[0]


def agent_streams(seed, n_agents):
    """One independent stream per agent, keyed by agent id."""
    return streams(seed, AGENT, n_agents)
