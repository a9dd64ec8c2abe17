"""Poisson and binomial point process sampling with reproducible streams.

Replication r of stream s and batch b draws from a PCG64 generator in the
state numpy's default_rng(SeedSequence(master_seed, spawn_key=(s, b, r)))
gives it, bit for bit, so results are identical no matter how replications
are scheduled across threads, and pilot runs never share randomness with test
runs. numpy's SeedSequence mixes the seed, stream and batch words a run's
replications share, once (replication_rngs); the package mixes in each r's own
words and sets PCG64's state from the pool, and one generator per chunk is
reset to each state in turn. This is the only module that seeds or draws
replications: replication_samples draws a chunk of them into one buffer.
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
# by key k + 1, the keys running through INIT * MULT^k mod 2^32. numpy's pool
# holds the shared words; the steps below mix in r's and hash out the state.
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
    start at: each entropy word takes four steps, and SeedSequence pads the
    seed to the pool's size before a spawn key."""
    pool = np.random.SeedSequence(master_seed, spawn_key=(stream, batch)).pool
    n_words = max(len(_words(master_seed)), _POOL) + len(_words(stream)) + len(_words(batch))
    return tuple(pool.tolist()), _POOL * n_words


def replication_rngs(master_seed: int, replications, stream: int = STREAM_SAMPLE,
                     batch: int = 0):
    """For each replication r in turn, a generator in the state of
    default_rng(SeedSequence(master_seed, spawn_key=(stream, batch, r))).

    numpy's SeedSequence mixes the seed, stream and batch words once, and its
    pool is kept (_shared_pool); each r's own words are mixed into a copy of it
    and PCG64's state is set from the result. One generator is yielded every
    time, reset to the next replication's state, so draw from it before asking
    for the next.
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


def _tied(points: np.ndarray) -> bool:
    """Whether two points share a first coordinate: distinct first coordinates
    imply distinct points."""
    first = np.sort(points[:, 0])
    return bool((first[1:] == first[:-1]).any())


def _draw_distinct(window: ConvexWindow, n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform points, redrawing any exact float duplicates."""
    pts = sample_uniform(window, rng, n)
    if not _tied(pts):
        return pts
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


def replication_samples(window: ConvexWindow, intensity: float, model: str, master_seed: int,
                        replications: range, *, stream: int = STREAM_SAMPLE, batch: int = 0
                        ) -> tuple[np.ndarray, list[int]]:
    """The points of consecutive replications in one (n, d) buffer, and each
    replication's point count: replication r's rows are the points sample_poisson
    (model "poisson", t = intensity) or sample_binomial (n = intensity) draws
    from replication_rng(master_seed, r, stream, batch), bit for bit, after
    those of the replications before it.

    Each replication draws its count and points once, a box's as
    sample_uniform draws them. The draws are joined into the buffer (a lone
    replication's draw is the buffer), a box's scaled by its sides once, in
    place: IEEE multiplication is correctly rounded, so each product is
    sample_uniform's. If two of the buffer's points share a first coordinate,
    the chunk is drawn again through _draw_distinct, which redraws duplicate
    points as sample_poisson and sample_binomial do.
    """
    poisson, box, mean = model == "poisson", window.kind == "box", float(intensity) * window.volume
    draws = []
    for rng in replication_rngs(master_seed, replications, stream, batch):
        n = int(rng.poisson(mean)) if poisson else int(intensity)
        draws.append(rng.random((n, window.dim)) if box else sample_uniform(window, rng, n))
    buffer = draws[0] if len(draws) == 1 else np.concatenate(draws)
    if box:
        buffer *= np.asarray(window.sides)
    if _tied(buffer):
        draws = [_draw_distinct(window, int(rng.poisson(mean)) if poisson else int(intensity), rng)
                 for rng in replication_rngs(master_seed, replications, stream, batch)]
        buffer = np.concatenate(draws)
    return buffer, [len(draw) for draw in draws]
