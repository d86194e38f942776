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


def derive_seed(master_seed: int, *indices: int) -> int:
    """Stable per-counter seed derived from a master seed.

    The result depends only on the arguments, never on call order, so
    trial seeds can be handed to workers in any split while keeping every
    run bit-for-bit reproducible.
    """
    entropy = [int(master_seed)] + [int(i) for i in indices]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class NetworkRealization:
    """Survival pattern (and optional link gains) of one erasure draw.

    ``direct[i-1]`` is True iff the transmitter-i -> receiver-i link
    survived; ``cross[i-1]`` is True iff the transmitter-i ->
    receiver-(i+1) link survived. Gains, when attached, are exactly zero
    on erased links and nonzero on surviving ones.
    """

    k: int
    direct: tuple[bool, ...]
    cross: tuple[bool, ...]
    direct_gain: tuple[complex, ...] | None = None
    cross_gain: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need at least one user, got k={self.k}")
        if len(self.direct) != self.k:
            raise ValueError(f"expected {self.k} direct links, got {len(self.direct)}")
        if len(self.cross) != self.k - 1:
            raise ValueError(f"expected {self.k - 1} cross links, got {len(self.cross)}")
        for gains, links, name in (
            (self.direct_gain, self.direct, "direct"),
            (self.cross_gain, self.cross, "cross"),
        ):
            if gains is None:
                continue
            if len(gains) != len(links):
                raise ValueError(f"{name} gains: expected {len(links)} values, got {len(gains)}")
            if tuple(map(bool, gains)) == links:
                continue
            # Some gain disagrees with its link: name the first one.
            for idx, (present, gain) in enumerate(zip(links, gains), start=1):
                if present and gain == 0:
                    raise ValueError(f"surviving {name} link {idx} has zero gain")
                if not present and gain != 0:
                    raise ValueError(f"erased {name} link {idx} has nonzero gain")

    @property
    def has_gains(self) -> bool:
        return self.direct_gain is not None and self.cross_gain is not None

    def has_direct(self, i: int) -> bool:
        """Did the transmitter-i -> receiver-i link survive (1-based)?"""
        return self.direct[_position(i, self.k, "direct")]

    def has_cross(self, j: int) -> bool:
        """Did the transmitter-j -> receiver-(j+1) link survive (1-based)?"""
        return self.cross[_position(j, self.k - 1, "cross")]

    def gain_direct(self, i: int) -> complex:
        if self.direct_gain is None:
            raise ValueError("realization has no gains attached")
        return self.direct_gain[_position(i, self.k, "direct")]

    def gain_cross(self, j: int) -> complex:
        if self.cross_gain is None:
            raise ValueError("realization has no gains attached")
        return self.cross_gain[_position(j, self.k - 1, "cross")]


def _position(link: int, count: int, name: str) -> int:
    """Tuple position of 1-based link `link`; IndexError unless 1 <= link <= count."""
    if not 1 <= link <= count:
        raise IndexError(f"{name} link {link} outside 1..{count}")
    return link - 1


def sample_realization(k: int, p: float, trial_seed: int) -> NetworkRealization:
    """Draw one erasure pattern; each link dies independently with probability p.

    Pure function of its arguments: the same (k, p, trial_seed) always
    returns the identical realization. One `.tolist()` turns the draw
    into Python bools, the type `scheduler.decision_pass` reads.
    """
    if not 1 <= k <= MAX_K:
        raise ValueError(f"need 1 to {MAX_K} users, got k={k}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(trial_seed)
    present = (rng.random(2 * k - 1) >= p).tolist()
    return NetworkRealization(k, tuple(present[:k]), tuple(present[k:]))


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


def attach_generic_coefficients(r: NetworkRealization, trial_seed: int) -> NetworkRealization:
    """Give every surviving link an independent complex-normal gain.

    A draw is redone while its magnitude is below MIN_GAIN_MAGNITUDE, so
    cancellation ratios formed from these gains stay well conditioned.
    Erased links get exactly zero. One block of 2n normals is drawn for
    the n surviving links and read pair by pair in link order (direct
    links, then cross links), skipping rejected pairs; two more are drawn
    each time the block runs out. Generator's normal stream is the same
    however it is split into calls, so this gives exactly the gains of
    one two-normal draw per attempt.
    """
    rng = np.random.default_rng(trial_seed)
    wanted = sum(r.direct) + sum(r.cross)
    floor = MIN_GAIN_MAGNITUDE
    # Every pair of the block is read before the first top-up, so the
    # kept pairs are the block's passing pairs, then passing top-ups.
    draws = [gain for gain in _draw_gains(rng, wanted) if abs(gain) >= floor]
    while len(draws) < wanted:
        draws += [gain for gain in _draw_gains(rng, 1) if abs(gain) >= floor]
    pairs = iter(draws)
    return NetworkRealization(
        r.k,
        r.direct,
        r.cross,
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
        if not r.has_cross(j):
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
