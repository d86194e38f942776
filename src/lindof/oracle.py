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
# One K=200 exact expectation for f=3/5 takes about 0.08 s and under 1 MB
# above the interpreter on a 2-vCPU machine (Python 3.11).
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


def optimal_zero_forcing_dof(r: NetworkRealization, a: MessageAssignment) -> int:
    """Largest |delivered set| over all feasible carrier configurations.

    The feasibility predicate couples each message's carriers only with
    the delivered set, never with other messages' carriers, so a set D
    works iff every member has some workable choice against D. The
    realization is read once, into one reach mask per transmitter. A
    choice is a non-empty subset of message m's transmit set holding a
    carrier with a surviving link into receiver m, and is kept as
    (reach, both-reach) bitmasks: ``(reach[t], 0)`` for a lone carrier t
    with ``reach[t] & bit``, ``(r1 | r2, r1 & r2)`` for a pair, which is
    symmetric in its carriers. It works against D iff the other members
    it touches number at most one and both carriers reach that one.
    Candidate sets are scanned by decreasing size; the first hit is the
    optimum. `feasible` in `tests/reference.py` states the same rule
    literally; the tests check this function against it.
    """
    if r.k != a.k:
        raise ValueError(f"realization has k={r.k} but assignment has k={a.k}")
    if r.k > ORACLE_K_LIMIT:
        raise ValueError(f"exhaustive search limited to k <= {ORACLE_K_LIMIT}, got k={r.k}")
    reach = _reach_masks(r)
    members = []  # (receiver bit, options) of every message with an option
    bit = 1
    for ts in a.transmit_sets:
        options = [(reach[t], 0) for t in ts if reach[t] & bit]
        if len(ts) == 2:
            t1, t2 = ts
            r1, r2 = reach[t1], reach[t2]
            if (r1 | r2) & bit:
                options.append((r1 | r2, r1 & r2))
        if options:
            members.append((bit, options))
        bit <<= 1
    for size in range(len(members), 0, -1):
        for combo in combinations(members, size):
            d_mask = 0
            for bit, _ in combo:
                d_mask |= bit
            for bit, options in combo:
                others = d_mask ^ bit
                for reach_m, both in options:
                    z = reach_m & others
                    if z & ~both == 0 and z.bit_count() <= 1:
                        break
                else:
                    break
            else:
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

    No pattern is listed. A forward DP hands `decision_pass` one user at
    a time, its shape entry with each value of its direct link and the
    cross link before it, once per distinct scan state, and merges equal
    states. A state is the user index and five
    bits, so at most 2^5 = 32 states are live after any user (8 on the
    family members). Per state the DP keeps the pattern count and the
    delivered sum per number of erased links, each as one integer: a
    polynomial in x for an erased link, taken at a power of two wide
    enough that no coefficient spills into the next. The sums make the
    result a polynomial in p, evaluated by compensated summation, so it
    is order-independent.
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
    # a pattern count is below 2^links, a delivered sum below k * 2^links
    width = links + k.bit_length()
    polys = {LINE_START: (1, 0)}  # state -> (patterns, delivered)
    for i, code in enumerate(a.shape, start=1):
        reached: dict[tuple, tuple[int, int]] = {}
        for d0 in (False, True):
            # user 1 has no cross link: the pass reads False, one link is counted
            for link in (False, True) if i > 1 else (False,):
                shift = (2 - d0 - link if i > 1 else 1 - d0) * width
                for state, (patterns, delivered) in polys.items():
                    users, _, after = decision_pass((d0,), (link,), (code,), state)
                    n, d = reached.get(after, (0, 0))
                    d += (delivered + len(users) * patterns) << shift
                    reached[after] = (n + (patterns << shift), d)
        polys = reached
    total = sum(d for _, d in polys.values())
    mask = (1 << width) - 1
    return math.fsum(
        (total >> e * width & mask) * p**e * (1.0 - p) ** (links - e)
        for e in range(links + 1)
    )
