"""Deterministic random streams.

Every stochastic quantity in the simulator is drawn from a counter-based
Philox4x64 substream keyed by (master_seed, *path). Trials can therefore
run in any order, or in parallel, and still reproduce bit-identical draws.

The words of (master_seed, p0, p1, p2) are placed directly, without
hashing, into Philox's state (Salmon et al., SC'11): master_seed and p0
form the 128-bit key, and the 256-bit counter starts at (0, p1, p2, n),
where n = len(path) and missing words are 0. The length word makes the map
injective across path lengths, so (s, i) and (s, i, 0) differ. Streams with
distinct keys are distinct Philox permutations. Streams that share a key
start at counters that differ in one of the three high words, and a stream
only advances the low word, one step per four 64-bit outputs, so two counter
ranges could meet only after 2^64 steps (2^66 outputs) of one stream.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_WORD = 1 << 64
_MAX_PATH = 3
# the last path word: a trial's channel and protocol streams, the moment oracle's
TAG_CHANNEL, TAG_PROTOCOL, TAG_MOMENTS = 0, 1, 2


class _PhiloxKey(ISeedSequence):
    """Hands Philox its two key words in place of a SeedSequence's hash."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one (master_seed, key path) combination.

    path holds at most three words. Every word must be an integer in
    [0, 2^64), and not a bool; anything else raises ValueError.
    """
    if len(path) > _MAX_PATH:
        raise ValueError(f"a stream path has at most {_MAX_PATH} words, got {len(path)}")
    words = (master_seed, *path)
    for word in words:
        if isinstance(word, bool) or not (isinstance(word, (int, np.integer))
                                          and 0 <= word < _WORD):
            raise ValueError(f"stream key words must be integers in [0, 2^64), got {word!r}")
    words += (0,) * (_MAX_PATH + 1 - len(words))
    state = np.array((words[0], words[1], 0, words[2], words[3], len(path)), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(state[:2]), counter=state[2:]))
