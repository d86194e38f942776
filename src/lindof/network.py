"""Topology model for linear interference networks with block erasures.

A network of k transmitter-receiver pairs has 2k-1 links: transmitter i
reaches receiver i (direct link) for every i, and receiver i+1 (cross
link) for i < k; the last transmitter has no cross link. In each block
every link is erased independently with probability p, and surviving
links carry generic complex gains.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

# Resampling floor for attached gains; keeps cancellation ratios well
# conditioned without changing which schedules are feasible.
MIN_GAIN_MAGNITUDE = 1e-3
# Each gain component has variance 1/2. Equal to 1.0 / np.sqrt(2.0) in
# every bit; math.sqrt(0.5) is one ulp larger.
_GAIN_SCALE = 1.0 / math.sqrt(2.0)
# Largest network size the tool samples or sweeps.
MAX_K = 10_000
# Most links one slab of `sample_trials` draws at once: 512 KB of floats.
SLAB_LINKS = 1 << 16

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# 32-bit words, filled and mixed with these hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable per-counter seed derived from a master seed.

    The result depends only on the arguments, never on call order, so
    trial seeds can be handed to workers in any split while keeping every
    run bit-for-bit reproducible.
    """
    entropy = [int(master_seed)] + [int(i) for i in indices]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _seed_sequence_state(prefix: list[int], values: np.ndarray, n_words: int) -> np.ndarray:
    """`SeedSequence(prefix + [v]).generate_state(n_words, uint64)` for
    each uint64 v of `values`, as an (len(values), n_words) array, step
    for step as numpy's mix_entropy and generate_state run.

    `prefix` holds at most two 32-bit words and v enters as its two
    little-endian words. numpy reads a v below 2^32 as one word, but it
    hashes each word missing from its pool of four as 0, so with at most
    two words before v both layouts give the same state. The hash
    constant evolves the same way for every v, so it stays one Python
    int, kept to 32 bits; uint32 arrays wrap silently, as the C code does.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> _XSHIFT

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> _XSHIFT

    entropy = [np.full(len(values), w, np.uint32) for w in prefix]
    entropy += [(values & _MASK32).astype(np.uint32), (values >> 32).astype(np.uint32)]
    entropy += [np.zeros(len(values), np.uint32)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hash_const = _INIT_B
    state = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append(value ^ value >> _XSHIFT)
    # little-endian word pairs, as SeedSequence views them
    return np.stack(state, axis=1).astype("<u4", copy=False).view("<u8")


def _trial_seeds(master_seed: int, trials: range) -> np.ndarray:
    """`derive_seed(master_seed, t)` for every t in `trials`, as uint64.
    A master seed from 2^64 up has more than two words, so its trial
    seeds come from `derive_seed` itself, one at a time."""
    if master_seed >> 64:
        return np.array([derive_seed(master_seed, t) for t in trials], np.uint64)
    indices = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64)
    prefix = [master_seed & _MASK32, master_seed >> 32] if master_seed >> 32 else [master_seed]
    return _seed_sequence_state(prefix, indices, 1)[:, 0]


def _pcg64_states(seeds: np.ndarray) -> Iterator[tuple[int, int]]:
    """(state, inc) of `PCG64(seed)` for each uint64 seed in turn: w0..w3
    = `SeedSequence(seed).generate_state(4, uint64)` seed the 128-bit LCG
    as numpy's pcg64_set_seed does."""
    for w0, w1, w2, w3 in _seed_sequence_state([], seeds, 4).tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        yield ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128, inc


@dataclass(frozen=True)
class NetworkRealization:
    """Survival pattern of one erasure draw.

    ``direct[i-1]`` is True iff the transmitter-i -> receiver-i link
    survived; ``cross[i-1]`` is True iff the transmitter-i ->
    receiver-(i+1) link survived. Gains are a separate value, from
    `attach_generic_coefficients`.
    """

    k: int
    direct: tuple[bool, ...]
    cross: tuple[bool, ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need at least one user, got k={self.k}")
        if len(self.direct) != self.k:
            raise ValueError(f"expected {self.k} direct links, got {len(self.direct)}")
        if len(self.cross) != self.k - 1:
            raise ValueError(f"expected {self.k - 1} cross links, got {len(self.cross)}")


def _check_k_p(k: int, p: float) -> None:
    if not 1 <= k <= MAX_K:
        raise ValueError(f"need 1 to {MAX_K} users, got k={k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability must lie in [0, 1], got {p}")


def sample_realization(k: int, p: float, trial_seed: int) -> NetworkRealization:
    """Draw one erasure pattern; each link dies independently with probability p.

    Pure function of its arguments: the same (k, p, trial_seed) always
    returns the identical realization. One `.tolist()` turns the draw
    into Python bools, the type `scheduler.decision_pass` reads.
    """
    _check_k_p(k, p)
    rng = np.random.default_rng(trial_seed)
    present = (rng.random(2 * k - 1) >= p).tolist()
    return NetworkRealization(k, tuple(present[:k]), tuple(present[k:]))


def sample_trials(k: int, p: float, master_seed: int, trials: range) -> Iterator[NetworkRealization]:
    """`sample_realization(k, p, derive_seed(master_seed, t))` for every t
    in `trials`, in order, drawn a slab of at most SLAB_LINKS links at a
    time, so memory does not grow with the number of trials."""
    _check_k_p(k, p)
    if master_seed < 0:
        raise ValueError(f"master seed must be at least 0, got {master_seed}")
    if trials and not 0 <= min(trials) <= max(trials) < 1 << 64:
        raise ValueError(f"trial indices must lie in [0, 2**64), got {trials}")
    per_slab = max(1, SLAB_LINKS // (2 * k - 1))
    for start in range(0, len(trials), per_slab):
        for present in _slab_links(k, p, master_seed, trials[start : start + per_slab]):
            yield NetworkRealization(k, tuple(present[:k]), tuple(present[k:]))


def _slab_links(k: int, p: float, master_seed: int, trials: range) -> list[list[bool]]:
    """The links of each trial of one slab, as `sample_realization` draws
    them. The slab's trial seeds and generator start states are hashed
    together; one generator is set to each trial's state and fills that
    trial's row, and the slab is compared with p once."""
    rng = np.random.Generator(np.random.PCG64(0))
    bits = rng.bit_generator
    inner: dict[str, int] = {}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    draws = np.empty((len(trials), 2 * k - 1))
    states = _pcg64_states(_trial_seeds(master_seed, trials))
    # each trial's state goes into the one dict the setter reads
    for row, (inner["state"], inner["inc"]) in zip(draws, states):
        bits.state = state
        rng.random(out=row)
    return (draws >= p).tolist()


def all_realizations(k: int) -> Iterator[NetworkRealization]:
    """Every erasure pattern of a k-user line, one at a time, in bit order.

    Pattern ``bits`` = 0 .. 2^(2k-1)-1 keeps direct link i iff bit i-1 is
    set and cross link j iff bit k+j-1 is set. This is the one
    enumerator, for the exhaustive checks; `oracle.exact_expected_dof`
    needs none, as it runs a DP over the scan's states instead.
    """
    for bits in range(1 << (2 * k - 1)):
        yield NetworkRealization(
            k,
            tuple(bool(bits >> i & 1) for i in range(k)),
            tuple(bool(bits >> (k + i) & 1) for i in range(k - 1)),
        )


def attach_generic_coefficients(r: NetworkRealization, trial_seed: int) -> tuple[tuple, tuple]:
    """Give every surviving link an independent complex-normal gain.

    Returns the pair (direct gains, cross gains), laid out as ``r.direct``
    and ``r.cross``: exactly zero on erased links, and redrawn while below
    MIN_GAIN_MAGNITUDE on surviving ones, so cancellation ratios formed
    from these gains stay well conditioned. The kept pairs are the first
    passing pairs of one normal stream, in link order (direct links, then
    cross links); each call draws only the pairs still missing, and
    Generator's normal stream is the same however it is split into calls,
    so this gives exactly the gains of one two-normal draw per attempt.
    """
    rng = np.random.default_rng(trial_seed)
    wanted = sum(r.direct) + sum(r.cross)
    floor = MIN_GAIN_MAGNITUDE
    draws: list[complex] = []
    while len(draws) < wanted:
        draws += [gain for gain in _draw_gains(rng, wanted - len(draws)) if abs(gain) >= floor]
    pairs = iter(draws)
    return (
        tuple([next(pairs) if present else 0j for present in r.direct]),
        tuple([next(pairs) if present else 0j for present in r.cross]),
    )


def _draw_gains(rng: np.random.Generator, n: int) -> list[complex]:
    """n gains from 2n normals of variance 1/2, paired in draw order.

    ``normal(scale=s)`` returns s * z, the same floats as ``normal() * s``;
    the complex128 view makes complex(z0 * s, z1 * s) from each pair.
    """
    return rng.normal(scale=_GAIN_SCALE, size=2 * n).view(np.complex128).tolist()


@dataclass(frozen=True)
class Cluster:
    """Maximal run of users whose internal cross links all survived."""

    start: int
    end: int

    @property
    def size(self) -> int:
        return self.end - self.start + 1


def partition_into_clusters(r: NetworkRealization) -> list[Cluster]:
    """Split the users at every erased cross link.

    The clusters are disjoint, ordered and cover 1..k. No transmitter in a
    cluster reaches a receiver outside it (the boundary cross link is the
    erased one), so clusters can be treated independently.
    """
    clusters = []
    start = 1
    for j in range(1, r.k):
        if not r.cross[j - 1]:
            clusters.append(Cluster(start, j))
            start = j + 1
    clusters.append(Cluster(start, r.k))
    return clusters


def realization_to_string(r: NetworkRealization) -> str:
    """``k;direct-bits;cross-bits`` with ``1`` marking a surviving link."""
    direct = "".join("1" if x else "0" for x in r.direct)
    cross = "".join("1" if x else "0" for x in r.cross)
    return f"{r.k};{direct};{cross}"


def parse_realization(text: str) -> NetworkRealization:
    """Inverse of realization_to_string; errors name the offending field."""
    parts = text.strip().split(";")
    if len(parts) != 3:
        raise ValueError(
            f"realization string needs 3 ';'-separated fields (k;direct-bits;cross-bits), got {len(parts)}"
        )
    k_text, direct_text, cross_text = parts
    try:
        k = int(k_text)
    except ValueError:
        raise ValueError(f"k field: expected an integer, got {k_text!r}") from None
    if k < 1:
        raise ValueError(f"k field: must be >= 1, got {k}")

    def parse_bits(name: str, bits: str, expected: int) -> tuple[bool, ...]:
        if len(bits) != expected:
            raise ValueError(f"{name} field: expected {expected} bits, got {len(bits)}")
        bad = set(bits) - {"0", "1"}
        if bad:
            raise ValueError(f"{name} field: invalid character {sorted(bad)[0]!r}")
        return tuple(c == "1" for c in bits)

    return NetworkRealization(
        k,
        parse_bits("direct-bits", direct_text, k),
        parse_bits("cross-bits", cross_text, k - 1),
    )
