"""Independent references the tests check the shipped code against.

None of this runs in `lindof` itself. `feasible` states the zero-forcing
rule literally, per carrier configuration, for the oracle tests;
`schedule_cluster` and `restrict_to_cluster` decide one cluster on its
own; `schedule_problems`, `cluster_union` and `prefix_agrees` state the
schedule contract, cluster additivity and prefix stability once each,
for the scheduler and acceptance tests; `helper_fraction` counts the
helpers an assignment really has, for the assignment-family tests;
`build_transmit_signals` and `verify_zero_forcing` are the
transmitter-by-transmitter beamforming and the per-link zero-forcing
check that the shipped entry-driven versions must match. They read link
survival from the realization, where the shipped ones read it from the
gains, so a match also shows that the gains are zero exactly on the
erased links.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from lindof.assignment import MessageAssignment
from lindof.network import Cluster, NetworkRealization, partition_into_clusters
from lindof.scheduler import (
    MAX_INTERFERENCE_RATIO,
    MIN_DESIRED_MAGNITUDE,
    ReceiverCheck,
    Schedule,
    ZeroForcingReport,
    schedule_network,
)


def helper_fraction(a: MessageAssignment) -> Fraction:
    """Fraction of messages paired with a pure-cancellation helper.

    Counts messages whose transmit set holds exactly one transmitter
    connected to the message's receiver plus one that is not (the
    helper). Messages with both connected transmitters, a lone connected
    transmitter, or no connected transmitter at all do not count.
    """
    helpers = 0
    for i in range(1, a.k + 1):
        ts = a.transmit_sets[i - 1]
        connected = sum(1 for t in ts if t in (i - 1, i))
        if connected == 1 and len(ts) == 2:
            helpers += 1
    return Fraction(helpers, a.k)


def restrict_to_cluster(a: MessageAssignment, cluster: Cluster) -> MessageAssignment:
    """Project an assignment onto one cluster, re-indexed locally from 1.

    Transmitters outside the cluster are dropped: the boundary cross link
    is erased, so they cannot reach any receiver inside the cluster.
    """
    offset = cluster.start - 1
    sets = tuple(
        frozenset(t - offset for t in a.transmit_sets[i - 1] if cluster.start <= t <= cluster.end)
        for i in range(cluster.start, cluster.end + 1)
    )
    return MessageAssignment(cluster.size, sets)


def schedule_cluster(
    n: int,
    direct: Sequence[bool],
    transmit_sets: Sequence[frozenset[int]],
) -> Schedule:
    """Decision pass for a single cluster, in local indices 1..n.

    Cross links inside a cluster are present by definition and are not
    passed in; `direct[i-1]` is the survival of local direct link i. This
    is `schedule_network` on the realization with every cross link present.
    """
    r = NetworkRealization(n, tuple(direct), (True,) * (n - 1))
    return schedule_network(r, MessageAssignment(n, tuple(transmit_sets)))


def schedule_problems(s: Schedule, a: MessageAssignment) -> list[tuple[str, object]]:
    """Every broken clause of the schedule contract, as (clause, where).

    An entry (i, j) needs j in T_i and i-2 <= j <= i+1; message i is never
    sent from both i-1 and i; a helper (i, i-2) needs the delivery
    (i, i-1), and a helper (i, i+1) the self-deliveries of i and i+1;
    the delivered set holds exactly the messages i sent from i-1 or i.
    """
    e = s.entries
    problems: list[tuple[str, object]] = []
    for i, j in sorted(e):
        if j not in a.transmit_sets[i - 1] or not (i - 2 <= j <= i + 1):
            problems.append(("knowledge/band", (i, j)))
    for i in range(1, s.k + 1):
        if (i, i - 1) in e and (i, i) in e:
            problems.append(("double delivery", i))
        if (i, i - 2) in e and (i, i - 1) not in e:
            problems.append(("orphan backward helper", i))
        if (i, i + 1) in e and not ((i, i) in e and (i + 1, i + 1) in e):
            problems.append(("orphan forward helper", i))
    if s.delivered != {i for i in range(1, s.k + 1) if (i, i - 1) in e or (i, i) in e}:
        problems.append(("delivered set", None))
    return problems


def cluster_union(r: NetworkRealization, a: MessageAssignment) -> Schedule:
    """Each cluster scheduled on its own, in local indices, then shifted
    back by its start - 1: the schedule of the whole line if no decision
    reaches across an erased cross link."""
    entries, delivered = set(), set()
    for c in partition_into_clusters(r):
        off = c.start - 1
        local = restrict_to_cluster(a, c).transmit_sets
        part = schedule_cluster(c.size, r.direct[off : c.end], local)
        entries |= {(i + off, j + off) for i, j in part.entries}
        delivered |= {i + off for i in part.delivered}
    return Schedule(r.k, frozenset(entries), frozenset(delivered))


def prefix_agrees(
    direct: Sequence[bool], transmit_sets: Sequence[frozenset[int]], m: int
) -> bool:
    """Do one cluster and its first m users alone send messages 1..m-2 alike?

    The prefix keeps only transmitters 1..m.
    """
    full = schedule_cluster(len(direct), direct, transmit_sets)
    prefix_sets = tuple(frozenset(x for x in ts if x <= m) for ts in transmit_sets[:m])
    pref = schedule_cluster(m, direct[:m], prefix_sets)
    cutoff = m - 2
    return {e for e in full.entries if e[0] <= cutoff} == {
        e for e in pref.entries if e[0] <= cutoff
    }


@dataclass(frozen=True)
class CarrierConfig:
    """Candidate scheme: a delivered set plus, per message, the carriers.

    ``carriers[m-1]`` holds the transmitters actually emitting a signal
    derived from message m. Undelivered messages carry nothing: their
    emissions could only add interference.
    """

    k: int
    carriers: tuple[frozenset[int], ...]
    delivered: frozenset[int]

    def __post_init__(self):
        if len(self.carriers) != self.k:
            raise ValueError(f"expected {self.k} carrier sets, got {len(self.carriers)}")
        if any(m < 1 or m > self.k for m in self.delivered):
            raise ValueError("delivered messages must lie in 1..k")
        for m, c in enumerate(self.carriers, start=1):
            if len(c) > 2:
                raise ValueError(f"message {m}: at most two carriers allowed")
            if c and m not in self.delivered:
                raise ValueError(f"message {m} is undelivered but has carriers")


def _link_present(r: NetworkRealization, t: int, receiver: int) -> bool:
    if t == receiver:
        return r.direct[t - 1]
    if t == receiver - 1:
        return r.cross[t - 1]
    return False


def _reach(r: NetworkRealization, t: int) -> frozenset[int]:
    """Receivers transmitter t can still touch."""
    reached = set()
    if r.direct[t - 1]:
        reached.add(t)
    if t < r.k and r.cross[t - 1]:
        reached.add(t + 1)
    return frozenset(reached)


def feasible(cfg: CarrierConfig, r: NetworkRealization) -> bool:
    """Can this configuration deliver its whole set under generic gains?

    Requires, for every delivered message m: (a) some carrier holds a
    surviving link into receiver m; (b) the other active receivers its
    carriers touch number at most one, and any such receiver is touched
    by both carriers so the pair's free scale can null it there.
    """
    if cfg.k != r.k:
        raise ValueError(f"config has k={cfg.k} but realization has k={r.k}")
    for m in cfg.delivered:
        carriers = cfg.carriers[m - 1]
        if not any(t in (m - 1, m) and _link_present(r, t, m) for t in carriers):
            return False
        reaches = [_reach(r, t) for t in carriers]
        touched = frozenset().union(*reaches) if reaches else frozenset()
        conflicts = {rr for rr in cfg.delivered if rr != m and rr in touched}
        if not conflicts:
            continue
        if len(conflicts) > 1 or len(carriers) < 2:
            return False
        if not conflicts <= reaches[0] & reaches[1]:
            return False
    return True


def build_transmit_signals(
    s: Schedule, r: NetworkRealization, gains: tuple
) -> tuple[dict[int, complex], ...]:
    """Turn decisions into transmit weights under the gain pair `gains`.

    Deliveries transmit at unit weight. A cancellation emission carries
    the exact gain ratio that nulls the message at the one receiver it
    would otherwise disturb: transmitter t nulls message t-1 at receiver
    t, and message t+2 at receiver t+1.
    """
    if r.k != s.k:
        raise ValueError(f"realization has k={r.k} but schedule has k={s.k}")
    direct_gain, cross_gain = gains
    weights = []
    for t in range(1, r.k + 1):
        w: dict[int, complex] = {}
        if (t, t) in s.entries:
            w[t] = 1 + 0j
        if (t + 1, t) in s.entries:
            w[t + 1] = 1 + 0j
        if (t - 1, t) in s.entries:
            if not (r.cross[t - 2] and r.direct[t - 1]):
                raise RuntimeError(
                    f"transmitter {t}: cancelling message {t - 1} needs links that are erased"
                )
            w[t - 1] = -cross_gain[t - 2] / direct_gain[t - 1]
        if t + 2 <= r.k and (t + 2, t) in s.entries:
            if not (r.direct[t] and r.cross[t - 1]):
                raise RuntimeError(
                    f"transmitter {t}: cancelling message {t + 2} needs links that are erased"
                )
            w[t + 2] = -direct_gain[t] / cross_gain[t - 1]
        weights.append(w)
    return tuple(weights)


def verify_zero_forcing(
    plan: Sequence[dict[int, complex]],
    s: Schedule,
    r: NetworkRealization,
    gains: tuple,
) -> ZeroForcingReport:
    """Numerically confirm the zero-forcing contract under the gain pair `gains`.

    For every active (delivered-to) receiver the net coefficient of each
    message is accumulated over the two incoming links. The check passes
    iff the receiver's own message survives with magnitude at least
    MIN_DESIRED_MAGNITUDE and every other message is suppressed below
    MAX_INTERFERENCE_RATIO relative to it. Inactive receivers may see
    anything.
    """
    if r.k != s.k or len(plan) != s.k:
        raise ValueError("plan, schedule and realization sizes disagree")
    direct_gain, cross_gain = gains
    checks = []
    failures = []
    for i in sorted(s.delivered):
        net: dict[int, complex] = {}
        incoming = [(i, r.direct[i - 1], direct_gain[i - 1])]
        if i >= 2:
            incoming.append((i - 1, r.cross[i - 2], cross_gain[i - 2]))
        for t, present, gain in incoming:
            if not present:
                continue
            for m, w in plan[t - 1].items():
                net[m] = net.get(m, 0j) + gain * w
        desired = abs(net.get(i, 0j))
        interference = max((abs(c) for m, c in net.items() if m != i), default=0.0)
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
