"""Brute-force ground truth for zero-forcing delivery.

Finds the largest deliverable message set for a realization independently
of the greedy scheduler, and gives the greedy's exact expected delivery
count over all erasure patterns by a DP over the scan's states. Generic
gains make feasibility purely combinatorial: a lone carrier must disturb
no active receiver, a carrier pair has one free relative scale and can
null exactly one receiver that both of them reach. `tests/reference.py`
states that rule per carrier configuration as `feasible`.
"""

from __future__ import annotations

import math
from itertools import combinations

from .assignment import MessageAssignment, remove_transmitter
from .network import NetworkRealization
from .scheduler import LINE_START, decision_pass

ORACLE_K_LIMIT = 10  # exhaustive carrier search
# The exact expectation grows about as K^4 in time and K^3 in memory: one
# K=200 call for f=3/5 took 9 s and 130 MB peak on a 2-vCPU machine.
MAX_EXACT_K = 200


def _reach_masks(r: NetworkRealization) -> list[int]:
    """Per transmitter t, the receivers it still touches as a bitmask.

    ``reach[t]`` has bit t-1 set iff direct link t survived and bit t set
    iff cross link t survived (receiver bits are 1 << (receiver - 1));
    ``reach[0]`` is unused.
    """
    reach = [0] + [present << t for t, present in enumerate(r.direct)]
    for t, present in enumerate(r.cross, start=1):
        if present:
            reach[t] |= 1 << t
    return reach


def _carrier_options(
    reach: list[int], a: MessageAssignment, m: int
) -> list[tuple[int, int]]:
    """(reach, both-reach) bitmasks for every workable carrier choice of m.

    A choice is a non-empty subset of the transmit set containing at
    least one carrier with a surviving link into receiver m, read from
    the realization's reach masks: carrier t serves m iff
    ``reach[t] & 1 << (m - 1)``, and a pair's option is
    ``(r1 | r2, r1 & r2)``.
    """
    bit = 1 << (m - 1)
    ts = sorted(a.transmit_sets[m - 1])
    options = [(reach[t], 0) for t in ts if reach[t] & bit]
    if len(ts) == 2:
        r1, r2 = reach[ts[0]], reach[ts[1]]
        if (r1 | r2) & bit:
            options.append((r1 | r2, r1 & r2))
    return options


def optimal_zero_forcing_dof(r: NetworkRealization, a: MessageAssignment) -> int:
    """Largest |delivered set| over all feasible carrier configurations.

    The feasibility predicate couples each message's carriers only with
    the delivered set, never with other messages' carriers, so a set D
    works iff every member has some workable choice against D. The
    realization is read once, into one reach mask per transmitter, and
    every message's options come from those masks. Candidate sets are
    scanned by decreasing size with that per-message test; the first hit
    is the optimum. `feasible` in `tests/reference.py` states the same
    rule literally; the tests check this function against it.
    """
    if r.k != a.k:
        raise ValueError(f"realization has k={r.k} but assignment has k={a.k}")
    if r.k > ORACLE_K_LIMIT:
        raise ValueError(f"exhaustive search limited to k <= {ORACLE_K_LIMIT}, got k={r.k}")
    reach = _reach_masks(r)
    deliverable = []
    options = []
    for m in range(1, r.k + 1):
        opts = _carrier_options(reach, a, m)
        if opts:
            deliverable.append(m)
            options.append(opts)
    for size in range(len(deliverable), 0, -1):
        for combo in combinations(range(len(deliverable)), size):
            d_mask = 0
            for idx in combo:
                d_mask |= 1 << (deliverable[idx] - 1)
            ok = True
            for idx in combo:
                self_bit = 1 << (deliverable[idx] - 1)
                for reach, both in options[idx]:
                    z = reach & d_mask & ~self_bit
                    if z & ~both == 0 and z.bit_count() <= 1:
                        break
                else:
                    ok = False
                    break
            if ok:
                return size
    return 0


def exact_expected_dof(
    k: int,
    p: float,
    a: MessageAssignment,
    *,
    deactivate_last: bool = False,
) -> float:
    """Expected delivered count of the greedy pass, exact over all patterns.

    Adds DoF(pattern) * p^(#erased) * (1-p)^(#survived) over the
    2^(2k-1) patterns. With `deactivate_last` the last transmitter is
    removed from every transmit set, mirroring the Monte Carlo harness;
    its direct link then carries nothing. `k` may be at most MAX_EXACT_K.

    No pattern is listed. A forward DP runs `decision_pass` one user at a
    time, once per distinct scan state and per value of the user's direct
    link and the cross link before it, and merges equal states. A state
    is the user index and five bits, so at most 2^5 = 32 states are live
    after any user (8 on the family members). Each state counts the patterns
    that reach it per (erased links, delivered) in one integer: their
    generating polynomial, in x for an erased link and y for a delivery,
    taken at powers of two wide enough that no count spills into the
    next. The counts make the result a polynomial in p, evaluated by
    compensated summation, so it is order-independent.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability must lie in [0, 1], got {p}")
    if k > MAX_EXACT_K:
        raise ValueError(f"exact expectation needs k at most {MAX_EXACT_K}, got k={k}")
    if a.k != k:
        raise ValueError(f"assignment has k={a.k}, expected {k}")
    if deactivate_last:
        a = remove_transmitter(a, k)
    links = 2 * k - 1
    size = links // 8 + 1  # bytes per count; a count is below 2^links
    x_shift = 8 * size  # x = 2^x_shift
    y_shift = x_shift * (links + 1)  # y = 2^y_shift
    direct = [False] * k
    cross = [False] * (k - 1)
    polys = {LINE_START: 1}
    for i in range(1, k + 1):
        upto = a.transmit_sets[:i]
        reached: dict[tuple, int] = {}
        for d0 in (False, True):
            direct[i - 1] = d0
            for link in (False, True) if i > 1 else (True,):  # user 1 has no cross link
                if i > 1:
                    cross[i - 2] = link
                erased = 2 - d0 - link
                for state, poly in polys.items():
                    got, after = decision_pass(direct, cross, upto, state=state)
                    shift = erased * x_shift + got * y_shift
                    reached[after] = reached.get(after, 0) + (poly << shift)
        polys = reached
    raw = sum(polys.values()).to_bytes(size * (links + 1) * (k + 1), "little")
    counts = {}
    for at in range(0, len(raw), size):
        d, e = divmod(at // size, links + 1)
        counts[e, d] = int.from_bytes(raw[at : at + size], "little")
    return math.fsum(
        n * d * p**e * (1.0 - p) ** (links - e)
        for (e, d), n in sorted(counts.items())
    )
