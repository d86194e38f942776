"""Message-to-transmitter assignments under the two-transmitter budget.

Message i may be known at up to two transmitters (its transmit set T_i).
The parameterized family built here trades off two uses of the second
transmitter: as a redundant connected sender, or as a pure-cancellation
helper that is not connected to the message's own receiver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class MessageAssignment:
    """Transmit sets: ``transmit_sets[i-1]`` holds the transmitters knowing message i."""

    k: int
    transmit_sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need at least one user, got k={self.k}")
        if len(self.transmit_sets) != self.k:
            raise ValueError(f"expected {self.k} transmit sets, got {len(self.transmit_sets)}")
        for i, ts in enumerate(self.transmit_sets, start=1):
            if len(ts) > 2:
                raise ValueError(f"message {i}: at most two transmitters allowed, got {sorted(ts)}")
            if any(t < 1 or t > self.k for t in ts):
                raise ValueError(f"message {i}: transmitter indices must lie in 1..{self.k}")

    @functools.cached_property
    def shape(self) -> tuple[tuple[bool, bool, bool, bool], ...]:
        """Per message i: (i-1 in T_i, i-2 in T_i, i in T_i, i in T_{i-1}).

        The four memberships are all `scheduler.decision_pass` reads of the
        transmit sets; they are built once per object, not a field.
        """
        sets = self.transmit_sets
        return tuple(
            (i - 1 in ts, i - 2 in ts, i in ts, i > 1 and i in sets[i - 2])
            for i, ts in enumerate(sets, start=1)
        )


def build_assignment(k: int, f: Fraction | int) -> MessageAssignment:
    """Assignment family parameterized by the helper fraction f.

    A fraction f of the messages get one transmitter connected to their
    receiver plus one helper used purely for cancellation; the rest get
    both connected transmitters. Message 1 is known at {1, 2} and message
    k at {k-2, k-1}; message i in between at {i, i+1} if a forward rule
    names it, else at {i-1, i}. All index rules are evaluated in exact
    rational arithmetic. Rule ranges {1..x} are empty whenever x < 1.
    """
    f = Fraction(f)
    if k < 3:
        raise ValueError(f"assignment family needs k >= 3, got {k}")
    if not 0 <= f <= 1:
        raise ValueError(f"helper fraction must lie in [0, 1], got {f}")

    fk = f * k
    # Strided forward rows {i, i+1}. The stride divisor is only evaluated
    # once the range is known non-empty, which needs fk >= 3 > 1.
    forward = {1}  # message 1 is sent from {1, 2}
    hi = min(fk - 2, k // 2 - 1)
    if hi >= 1:
        stride = max(2, math.floor(Fraction(k) / (fk - 1)))
        forward.update(1 + n * stride for n in range(1, math.floor(hi) + 1))
    # Even-indexed forward rows, used once more than half the messages
    # carry a helper. The rules never overlap: a stride above 2 needs
    # f <= 1/3 + 1/k and even rows need f > 1/2 + 1/k, so with both the
    # stride is 2 and its rows are odd; all rows lie in 2..k-1.
    hi = math.ceil((f - Fraction(1, 2)) * k) - 1
    forward.update(range(2, 2 * hi + 1, 2))

    sets = tuple(
        frozenset({i, i + 1}) if i in forward else frozenset({i - 1, i})
        for i in range(1, k)
    )
    return MessageAssignment(k, sets + (frozenset({k - 2, k - 1}),))


def remove_transmitter(a: MessageAssignment, t: int) -> MessageAssignment:
    """Strip transmitter t from every transmit set (deactivating it)."""
    return MessageAssignment(a.k, tuple(ts - {t} for ts in a.transmit_sets))


def random_assignment(k: int, rng: np.random.Generator) -> MessageAssignment:
    """Random transmit sets with |T_i| <= 2 and unrestricted placement.

    Placement is uniform over all transmitters, so far-away helpers that
    cannot possibly serve their message do occur; empty sets occur too.
    """
    sets = []
    for _ in range(k):
        size = min(int(rng.choice(3, p=(0.05, 0.30, 0.65))), k)
        members = rng.choice(k, size=size, replace=False) + 1
        sets.append(frozenset(int(t) for t in members))
    return MessageAssignment(k, tuple(sets))


def assignment_label(k: int, f: Fraction) -> str:
    """Canonical report identifier for a family member."""
    return f"K={k},f={f.numerator}/{f.denominator}"


def format_assignment(a: MessageAssignment) -> str:
    """One line per message: ``i: t1[,t2]`` (bare ``i:`` for an empty set)."""
    lines = []
    for i, ts in enumerate(a.transmit_sets, start=1):
        body = ",".join(str(t) for t in sorted(ts))
        lines.append(f"{i}: {body}" if body else f"{i}:")
    return "\n".join(lines)
