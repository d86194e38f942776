"""Greedy zero-forcing scheduler and beamforming-weight construction.

Users are visited in ascending order in one scan; an erased cross link
starts a new cluster, which the scan decides as if it stood alone. A
message is sent whenever it can reach its own receiver without disturbing
a receiver that was already won, preferring delivery from the preceding
transmitter; a neighbouring transmitter that knows the message may be
enlisted to null the one receiver the delivery would disturb. Decisions
are never revised.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

from .assignment import MessageAssignment
from .network import NetworkRealization

# Verification thresholds: desired coefficients are bounded away from
# zero by the gain floor, interference must vanish to rounding noise.
MIN_DESIRED_MAGNITUDE = 1e-6
MAX_INTERFERENCE_RATIO = 1e-9


@dataclass(frozen=True)
class Schedule:
    """Send decisions as (message i, transmitter j) pairs, j in {i-2..i+1}.

    Message i is delivered iff it is sent from transmitter i-1 or i
    (never both); the pairs (i, i-2) and (i, i+1) are cancellation-only
    emissions that always accompany a delivery.
    """

    k: int
    entries: frozenset[tuple[int, int]]
    delivered: frozenset[int]

    def b(self, i: int, j: int) -> bool:
        """Decision variable; out-of-range indices read as 0."""
        return (i, j) in self.entries


# Scan state before user 1. After user i the state is (i, own and cancel
# of user i, busy_i, busy_{i-1}, whether cross link i-1 survived), where
# busy_j says receiver j was won and direct link j survived: an unnulled
# signal from transmitter j disturbs receiver j exactly then. The state
# names no transmit set: a resumed pass reads message i's set from
# `transmit_sets`. See `decision_pass`.
LINE_START = (0, False, False, False, False, False)


def decision_pass(
    direct: Sequence,
    cross: Sequence,
    transmit_sets: Sequence[frozenset[int]],
    record: tuple[list, list] | None = None,
    state: tuple = LINE_START,
):
    """The greedy pass as one left-to-right scan; returns (delivered, state).

    `direct` holds k link bits, `cross` k-1 (cross link j joins users j
    and j+1), all Python bools; `transmit_sets[i-1]` is message i's set.
    The rule is plain `not`, `and` and `or` on those bools, so every
    decision and every state field is a bool and the count an int.

    User i reads the decisions of users i-1 and i-2 only, and only while
    they share its cluster: `near` says user i-1 does (cross link i-1
    survived), `near2` says user i-2 does too. Of user i-2 it reads only
    busy_{i-2}; of user i-1, busy_{i-1}, its own send and its
    cancellation. An erased cross link thus resets the scan, which is the
    cluster split. With `record`, a pair of lists (users, entries), the
    scan writes the schedule itself: every delivered user i is appended
    to `users`, and its sends to `entries` as (message, transmitter)
    pairs: (i, i) or (i, i-1) for the delivery, then the cancellation
    (i-1, i) and the helper (i, i-2) when they go with it. Users that
    get nothing add nothing.

    The scan resumes after the last user of `state` (default: the start
    of the line) and runs to the last message of `transmit_sets`; the
    count covers the users it visited, and the state it returns resumes
    it. User i reads direct link i, cross link i-1 and the transmit sets
    of messages i-1 and i only. The state is a hashable tuple of an index
    and five bools, so `oracle.exact_expected_dof` can run the scan one
    user at a time and merge equal states.
    """
    if record is not None:
        users, entries = record
    i, own1, cancel1, busy1, busy2, near = state
    ts1 = transmit_sets[i - 1] if i else frozenset()
    delivered = 0
    for i, ts in enumerate(transmit_sets[i:], start=i + 1):
        d0 = direct[i - 1]
        link = i > 1 and cross[i - 2]
        near2 = near and link
        near = link
        own1_near = own1 and near
        # Try the preceding transmitter first: its signal can only disturb
        # receiver i-1, and only when that receiver is busy; a helper at
        # transmitter i-2 may null that unless receiver i-2 is busy too.
        back = near and i - 1 in ts and not own1_near
        can_help = near2 and i - 2 in ts and not busy2
        prev = back and (not busy1 or can_help)
        helper = prev and busy1
        # Otherwise send from the own transmitter. Receiver i must not
        # already be burdened by an uncancellable emission at transmitter
        # i-1; interference from a self-delivering transmitter i-1 can be
        # nulled from transmitter i when it also knows message i-1.
        own = d0 and i in ts and not prev and not (cancel1 and near) and (not own1_near or i in ts1)
        cancel = own and own1_near
        if own or prev:
            delivered += 1
            if record is not None:
                users.append(i)
                entries.append((i, i) if own else (i, i - 1))
                if cancel:
                    entries.append((i - 1, i))
                if helper:
                    entries.append((i, i - 2))
        busy2, busy1 = busy1, d0 and (own or prev)
        own1, cancel1, ts1 = own, cancel, ts
    return delivered, (i, own1, cancel1, busy1, busy2, near)


def schedule_network(r: NetworkRealization, a: MessageAssignment) -> Schedule:
    """Schedule a whole realization in one scan.

    Clusters cannot interfere with each other. They come from the cross
    link bits the scan reads, not from `partition_into_clusters`: an
    erased cross link hides users before it from the users after it, so
    every cluster is decided as if it stood alone.
    """
    if r.k != a.k:
        raise ValueError(f"realization has k={r.k} but assignment has k={a.k}")
    users, entries = [], []
    decision_pass(r.direct, r.cross, a.transmit_sets, (users, entries))
    return Schedule(r.k, frozenset(entries), frozenset(users))


def build_transmit_signals(s: Schedule, r: NetworkRealization) -> tuple[dict[int, complex], ...]:
    """Turn decisions into transmit weights, one schedule entry at a time.

    Returns one dict per transmitter: entry t-1 maps every message that
    transmitter t emits to its complex weight. Deliveries transmit at
    unit weight. A cancellation emission carries the exact gain ratio
    that nulls the message at the one receiver it would otherwise
    disturb: transmitter t nulls message t-1 at receiver t, and message
    t+2 at receiver t+1. An entry (m, t) must be one of
    (t, t), (t+1, t), (t-1, t) and (t+2, t) with m and t in 1..k, else
    ValueError; a cancellation over an erased link is RuntimeError.
    """
    k = r.k
    if k != s.k:
        raise ValueError(f"realization has k={k} but schedule has k={s.k}")
    if not r.has_gains:
        raise ValueError("realization has no gains attached")
    direct, cross = r.direct, r.cross
    direct_gain, cross_gain = r.direct_gain, r.cross_gain
    weights: list[dict[int, complex]] = [{} for _ in range(k)]
    for m, t in s.entries:
        if not (0 < t <= k and 0 < m <= k):
            raise ValueError(f"schedule entry {(m, t)} lies outside 1..{k}")
        if m == t or m == t + 1:
            weights[t - 1][m] = 1 + 0j
        elif m == t - 1:
            if not (cross[t - 2] and direct[t - 1]):
                raise RuntimeError(
                    f"transmitter {t}: cancelling message {m} needs links that are erased"
                )
            weights[t - 1][m] = -cross_gain[t - 2] / direct_gain[t - 1]
        elif m == t + 2:
            if not (direct[t] and cross[t - 1]):
                raise RuntimeError(
                    f"transmitter {t}: cancelling message {m} needs links that are erased"
                )
            weights[t - 1][m] = -direct_gain[t] / cross_gain[t - 1]
        else:
            raise ValueError(f"schedule entry {(m, t)}: transmitter {t} cannot send message {m}")
    return tuple(weights)


class ReceiverCheck(NamedTuple):
    receiver: int
    desired_magnitude: float
    interference_ratio: float


class ZeroForcingReport(NamedTuple):
    passed: bool
    checks: tuple[ReceiverCheck, ...]
    failures: tuple[str, ...]


def verify_zero_forcing(
    weights: Sequence[dict[int, complex]],
    s: Schedule,
    r: NetworkRealization,
) -> ZeroForcingReport:
    """Numerically confirm the zero-forcing contract under attached gains.

    `weights` holds one dict per transmitter, as `build_transmit_signals`
    returns them. For every active (delivered-to) receiver the net
    coefficient of each message is accumulated over the two incoming
    links. The check passes iff the receiver's own message survives with
    magnitude at least MIN_DESIRED_MAGNITUDE and every other message is
    suppressed below MAX_INTERFERENCE_RATIO relative to it. Inactive
    receivers may see anything.
    """
    if not r.has_gains:
        raise ValueError("realization has no gains attached")
    k = r.k
    if k != s.k or len(weights) != s.k:
        raise ValueError("plan, schedule and realization sizes disagree")
    direct_gain, cross_gain = r.direct_gain, r.cross_gain
    checks = []
    failures = []
    for i in sorted(s.delivered):
        if not 0 < i <= k:
            raise ValueError(f"delivered user {i} lies outside 1..{k}")
        # Net coefficient per message: the direct link first, then the cross one.
        gain = direct_gain[i - 1]
        net = {m: gain * w for m, w in weights[i - 1].items()} if gain else {}
        gain = cross_gain[i - 2] if i >= 2 else 0j
        if gain:
            for m, w in weights[i - 2].items():
                net[m] = net.get(m, 0j) + gain * w
        desired = abs(net.pop(i, 0j))
        interference = max(map(abs, net.values()), default=0.0)
        if desired > 0:
            ratio = interference / desired
        else:
            ratio = float("inf") if interference > 0 else 0.0
        checks.append(ReceiverCheck(i, desired, ratio))
        if desired < MIN_DESIRED_MAGNITUDE:
            failures.append(
                f"receiver {i}: desired coefficient {desired:.3e} below {MIN_DESIRED_MAGNITUDE:g}"
            )
        elif ratio > MAX_INTERFERENCE_RATIO:
            failures.append(
                f"receiver {i}: relative interference {ratio:.3e} above {MAX_INTERFERENCE_RATIO:g}"
            )
    return ZeroForcingReport(not failures, tuple(checks), tuple(failures))
