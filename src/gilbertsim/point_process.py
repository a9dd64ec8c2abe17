"""Poisson and binomial point process sampling with reproducible streams.

Replication r of stream s and batch b draws from a PCG64 generator in the
state numpy's default_rng(SeedSequence(master_seed, spawn_key=(s, b, r)))
gives it, bit for bit, so results are identical no matter how replications
are scheduled across threads, and pilot runs never share randomness with test
runs. The package computes that state itself (replication_rngs): the words a
run's replications share are mixed once, each replication mixes in only its
own, and one generator per chunk is reset to each state in turn. numpy's
SeedSequence is the tests' oracle for it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import ConvexWindow, sample_uniform

# Stream domains; keep disjoint so pilot/reference draws never collide with
# the main replication stream.
STREAM_SAMPLE = 0
STREAM_PILOT = 1
STREAM_REFERENCE = 2


# numpy's SeedSequence (numpy/random/bit_generator.pyx, fixed since numpy 1.17):
# a pool of four 32-bit words mixes in the entropy words, then hashes out the
# generator's state words. Hash step k xors a word with key k and multiplies it
# by key k + 1, the keys running through INIT * MULT^k mod 2^32.
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # keys of the mixing
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # keys of the state words
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's 128-bit multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _keys(init: int, mult: int, first: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pairs of hash steps first to first + count - 1."""
    key = init * pow(mult, first, 1 << 32) & _MASK32
    pairs = []
    for _ in range(count):
        nxt = key * mult & _MASK32
        pairs.append((key, nxt))
        key = nxt
    return pairs


@functools.lru_cache(maxsize=16)  # a run asks for a few: its shared words' and r's
def _word_keys(first: int, n_words: int) -> tuple[tuple, ...]:
    """For each of n_words words mixed in from hash step first on, its (pool
    index, xor, multiplier) triples: one step into each pool word."""
    pairs = _keys(_INIT_A, _MULT_A, first, _POOL * n_words)
    return tuple(tuple((i, *pairs[_POOL * k + i]) for i in range(_POOL))
                 for k in range(n_words))


# Steps 0-3 hash the first four entropy words into the pool. Steps 4-15 mix
# each pool word in turn into the three others; the words past the first four
# follow.
_FIRST_KEYS = _keys(_INIT_A, _MULT_A, 0, _POOL)
_CROSS_KEYS = tuple(
    tuple((dst, *pair) for dst, pair in zip(
        [dst for dst in range(_POOL) if dst != src],
        _keys(_INIT_A, _MULT_A, _POOL + (_POOL - 1) * src, _POOL - 1)))
    for src in range(_POOL))
_WORDS_STEP = _POOL * _POOL
# the eight state words PCG64 asks for: pool word k % 4 under the k-th pair
_STATE_KEYS = tuple((k % _POOL, *pair) for k, pair in enumerate(_keys(_INIT_B, _MULT_B, 0, 8)))


def _words(value: int) -> list[int]:
    """value's 32-bit words, least significant first, as SeedSequence reads an int."""
    if value < 0:
        raise ValueError(f"seeds and spawn keys must be >= 0, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _mix_in(pool: list[int], words, keys) -> None:
    """Hash each word under its (pool index, xor, multiplier) triples and mix
    it into those pool words, in place."""
    for word, word_keys in zip(words, keys):
        for i, x, m in word_keys:
            value = (word ^ x) * m & _MASK32
            value = (_MIX_MULT_L * pool[i] - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
            pool[i] = value ^ value >> 16


def _pcg64_state(pool: list[int]) -> dict:
    """The state PCG64(seed_sequence) takes from a mixed pool."""
    w = []
    for i, x, m in _STATE_KEYS:
        value = (pool[i] ^ x) * m & _MASK32
        w.append(value ^ value >> 16)
    # generate_state(4, uint64) pairs the words little-endian into u0..u3;
    # pcg64_set_seed reads the seed as u0:u1 and the stream as u2:u3
    seed = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
    # pcg_setseq_128_srandom_r: from state 0, step, add the seed, step
    state = ((inc + seed) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


@functools.lru_cache(maxsize=64)  # a run asks for a few: one per stream and batch
def _shared_pool(master_seed: int, stream: int, batch: int) -> tuple[tuple[int, ...], int]:
    """The pool once the words every replication of (master_seed, stream,
    batch) shares are mixed in, and the hash step a replication's own words
    start at."""
    seed = _words(master_seed)
    # SeedSequence pads the seed to the pool's size before a spawn key
    entropy = seed + [0] * (_POOL - len(seed)) + _words(stream) + _words(batch)
    pool = []
    for word, (x, m) in zip(entropy, _FIRST_KEYS):
        value = (word ^ x) * m & _MASK32
        pool.append(value ^ value >> 16)
    for src, keys in enumerate(_CROSS_KEYS):
        _mix_in(pool, [pool[src]], [keys])
    tail = entropy[_POOL:]
    _mix_in(pool, tail, _word_keys(_WORDS_STEP, len(tail)))
    return tuple(pool), _WORDS_STEP + _POOL * len(tail)


def replication_rngs(master_seed: int, replications, stream: int = STREAM_SAMPLE,
                     batch: int = 0):
    """For each replication r in turn, a generator in the state of
    default_rng(SeedSequence(master_seed, spawn_key=(stream, batch, r))).

    The seed, stream and batch words are mixed once and kept (_shared_pool);
    each r mixes in only its own words. One generator is yielded every time,
    reset to the next replication's state, so draw from it before asking for
    the next.
    """
    pool, r_step = _shared_pool(int(master_seed), int(stream), int(batch))
    bit_generator = np.random.PCG64(0)  # its state is set for each replication
    rng = np.random.Generator(bit_generator)
    for r in replications:
        words = _words(int(r))
        mixed = list(pool)
        _mix_in(mixed, words, _word_keys(r_step, len(words)))
        bit_generator.state = _pcg64_state(mixed)
        yield rng


def replication_rng(master_seed: int, replication: int, stream: int = STREAM_SAMPLE,
                    batch: int = 0) -> np.random.Generator:
    """Deterministic generator for one replication of one stream/batch: a
    generator of its own, in the state replication_rngs gives that replication."""
    return next(replication_rngs(master_seed, (replication,), stream, batch))


@dataclass(frozen=True, eq=False)
class PointSample:
    """One realization of a point process inside a window."""

    points: np.ndarray  # shape (n, dim)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _draw_distinct(window: ConvexWindow, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform points, redrawing any exact float duplicates."""
    pts = sample_uniform(window, rng, n)
    first = np.sort(pts[:, 0])
    if not (first[1:] == first[:-1]).any():
        return pts  # distinct first coordinates imply distinct rows
    while True:
        _, first_idx = np.unique(pts, axis=0, return_index=True)
        if first_idx.size == n:
            return pts
        dup = np.setdiff1d(np.arange(n), first_idx, assume_unique=False)
        pts[dup] = sample_uniform(window, rng, dup.size)


def sample_poisson(window: ConvexWindow, t: float, rng: np.random.Generator) -> PointSample:
    """Poisson process of intensity t: N ~ Poisson(t*V(W)) iid uniform points."""
    if not (t > 0):
        raise ValueError("intensity t must be > 0")
    n = int(rng.poisson(t * window.volume))
    pts = _draw_distinct(window, n, rng)
    return PointSample(points=pts)


def sample_binomial(window: ConvexWindow, n: int, rng: np.random.Generator) -> PointSample:
    """Binomial process: exactly n iid uniform points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = _draw_distinct(window, int(n), rng)
    return PointSample(points=pts)
