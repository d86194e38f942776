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
# names no transmit set: a resumed pass reads message i's four bits from
# `shape`. See `decision_pass`.
LINE_START = (0, False, False, False, False, False)


def decision_pass(
    direct: Sequence,
    links: Sequence,
    shape: Sequence[tuple[bool, bool, bool, bool]],
    state: tuple = LINE_START,
):
    """The greedy pass as one left-to-right scan; returns (users, entries, state).

    The scan visits one user per element of the three sequences, in
    order, numbering them on from the index in `state` (default: the
    start of the line). For each it reads `direct[j]`, its direct link
    bit; `links[j]`, the cross link into it from the user before (False
    for user 1, which has none); and `shape[j]`, its message's
    `MessageAssignment.shape` entry: (i-1 in T_i, i-2 in T_i, i in T_i,
    i in T_{i-1}), the only four bits of the transmit sets the rule
    reads. The rule is plain `not`, `and` and `or` on those bools, so
    every decision and every state field is a bool.

    User i reads the decisions of users i-1 and i-2 only, and only while
    they share its cluster: `link` says user i-1 does (cross link i-1
    survived), and `near`, the link before it, says user i-2 does too
    when `link` holds. Of user i-2 it reads only busy_{i-2}; of user i-1,
    busy_{i-1}, its own send and its cancellation. An erased cross link
    thus resets the scan, which is the cluster split. Every delivered
    user i goes to `users`, and its sends to `entries` as (message,
    transmitter) pairs. A delivery from the own transmitter adds (i, i),
    then the cancellation (i-1, i) if user i-1 shares its cluster and was
    sent from its own transmitter; one from the preceding transmitter
    adds (i, i-1), then the helper (i, i-2) if receiver i-1 is busy.
    Users that get nothing add nothing.

    The returned state resumes the scan after the last user visited. It
    is a hashable tuple of an index and five bools, so
    `oracle.exact_expected_dof` can run the scan one user at a time and
    merge equal states.
    """
    users, entries = [], []
    i, own1, cancel1, busy1, busy2, near = state
    for (at_prev, at_prev2, at_own, prev_at_own), d0, link in zip(shape, direct, links):
        i += 1
        own1_near = own1 and link
        # Try the preceding transmitter first: its signal can only disturb
        # receiver i-1, and only when that receiver is busy; a helper at
        # transmitter i-2 may null that unless receiver i-2 is busy too.
        prev = link and at_prev and not own1_near and (not busy1 or near and at_prev2 and not busy2)
        near = link
        # Otherwise send from the own transmitter. Receiver i must not
        # already be burdened by an uncancellable emission at transmitter
        # i-1; interference from a self-delivering transmitter i-1 can be
        # nulled from transmitter i when it also knows message i-1.
        own = d0 and at_own and not prev and not (cancel1 and link) and (not own1_near or prev_at_own)
        if own:
            users.append(i)
            entries.append((i, i))
            if own1_near:  # the cancellation
                entries.append((i - 1, i))
        elif prev:
            users.append(i)
            entries.append((i, i - 1))
            if busy1:  # the helper
                entries.append((i, i - 2))
        busy2, busy1 = busy1, d0 and (own or prev)
        own1, cancel1 = own, own and own1_near
    return users, entries, (i, own1, cancel1, busy1, busy2, near)


def schedule_network(r: NetworkRealization, a: MessageAssignment) -> Schedule:
    """Schedule a whole realization in one scan.

    Clusters cannot interfere with each other. They come from the cross
    link bits the scan reads, not from `partition_into_clusters`: an
    erased cross link hides users before it from the users after it, so
    every cluster is decided as if it stood alone.
    """
    if r.k != a.k:
        raise ValueError(f"realization has k={r.k} but assignment has k={a.k}")
    users, entries, _ = decision_pass(r.direct, (False, *r.cross), a.shape)
    return Schedule(r.k, frozenset(entries), frozenset(users))


def build_transmit_signals(s: Schedule, gains: tuple) -> tuple[dict[int, complex], ...]:
    """Turn decisions into transmit weights, one schedule entry at a time.

    Returns one dict per transmitter: entry t-1 maps every message that
    transmitter t emits to its complex weight. Deliveries transmit at
    unit weight. A cancellation emission carries the exact gain ratio
    that nulls the message at the one receiver it would otherwise
    disturb: transmitter t nulls message t-1 at receiver t, and message
    t+2 at receiver t+1. `gains` is the (direct, cross) pair that
    `network.attach_generic_coefficients` returns; a zero gain marks an
    erased link. An entry (m, t) must be one of (t, t), (t+1, t),
    (t-1, t) and (t+2, t) with m and t in 1..k, else ValueError; a
    cancellation over an erased link is RuntimeError.
    """
    direct_gain, cross_gain = gains
    k = len(direct_gain)
    if k != s.k:
        raise ValueError(f"gains have k={k} but schedule has k={s.k}")
    weights: list[dict[int, complex]] = [{} for _ in range(k)]
    for m, t in s.entries:
        if not (0 < t <= k and 0 < m <= k):
            raise ValueError(f"schedule entry {(m, t)} lies outside 1..{k}")
        if m == t or m == t + 1:
            weights[t - 1][m] = 1 + 0j
        elif m == t - 1:
            if not (cross_gain[t - 2] and direct_gain[t - 1]):
                raise RuntimeError(
                    f"transmitter {t}: cancelling message {m} needs links that are erased"
                )
            weights[t - 1][m] = -cross_gain[t - 2] / direct_gain[t - 1]
        elif m == t + 2:
            if not (direct_gain[t] and cross_gain[t - 1]):
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
    gains: tuple,
) -> ZeroForcingReport:
    """Numerically confirm the zero-forcing contract under attached gains.

    `weights` holds one dict per transmitter, as `build_transmit_signals`
    returns them, and `gains` the (direct, cross) pair they were built
    from. For every active (delivered-to) receiver the net coefficient of
    each message is accumulated over the two incoming links. The check
    passes iff the receiver's own message survives with magnitude at
    least MIN_DESIRED_MAGNITUDE and every other message is suppressed
    below MAX_INTERFERENCE_RATIO relative to it. Inactive receivers may
    see anything.
    """
    direct_gain, cross_gain = gains
    k = len(direct_gain)
    if k != s.k or len(weights) != s.k:
        raise ValueError("plan, schedule and gains sizes disagree")
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
