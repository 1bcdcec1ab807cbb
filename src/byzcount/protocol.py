"""Core counting protocol: colors, phase schedule, node transitions, defenses.

A run proceeds in phases i = 1, 2, ...; phase i consists of alpha_i
subphases and each subphase floods freshly drawn geometric colors along H
for exactly i rounds under max-flooding suppression (a node forwards only a
strictly increased running maximum, once).  A node keeps the per-round
reception maxima k_1..k_i; the phase's termination flag survives a subphase
unless the round-i maximum strictly beats every earlier round and clears
the phase threshold.  A node whose flag survives every subphase of phase i
decides the estimate i and stops generating colors (it keeps forwarding).

The hardened variant adds a setup exchange of claimed H-adjacency lists
(crash on contradictory claims) and per-token provenance verification that
walks the claimed forwarding chain backwards over L edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Mapping

import numpy as np

__all__ = [
    "ORIGIN",
    "Token",
    "PhaseParams",
    "NodeState",
    "RoundContext",
    "LocalView",
    "TopologyConflict",
    "claim_table",
    "draw_colors",
    "alpha_subphases",
    "continuation_threshold",
    "phase_params",
    "honest_node_step",
    "byzantine_node_step",
    "reconstruct_local_topology",
    "verify_color_provenance",
]

# Predecessor marker for self-generated colors.
ORIGIN = -1


@dataclass(frozen=True)
class Token:
    """One flooded color message.

    Carries two node references (sender and the sender's claimed
    predecessor) plus small bounded counters, matching the small-message
    regime: the phase/subphase/round stamps and the color are O(log log n)
    to O(log n) bits.
    """

    color: int
    phase: int
    subphase: int
    hop: int
    src: int
    pred: int


@dataclass(frozen=True)
class PhaseParams:
    """Schedule of one phase: subphase count and continuation threshold."""

    phase: int
    alpha: int
    subphases: int
    threshold: float


# ---------------------------------------------------------------------------
# colors and phase schedule
# ---------------------------------------------------------------------------


def draw_colors(rng: np.random.Generator, size: int) -> np.ndarray:
    """Vector of independent colors (geometric, Pr[c = r] = 2^-r)."""
    return rng.geometric(0.5, size=size).astype(np.int64)


def alpha_subphases(i: int, epsilon: float, d: int) -> int:
    """Number of subphases alpha_i of phase i, by the pseudocode's two-case rule.

    While the round-i boundary d(d-1)^(i-2) is still small relative to
    2/epsilon,

        alpha_i = ceil( (log2(1/eps) + i + 1) / (log2 d + (i-2) log2(d-1) - 1) ),

    afterwards alpha_i = ceil(1 + (i+1)/log2(1/eps)).  The denominator is
    clamped to >= 1 (it crosses zero for i <= 2) and the result is clamped
    to >= 1.
    """
    if i < 1:
        raise ValueError("phase index must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if d < 2:
        raise ValueError("d must be >= 2")
    log_inv_eps = math.log2(1.0 / epsilon)
    if d * (d - 1) ** (i - 2) <= 2.0 / epsilon:
        num = log_inv_eps + i + 1
        den = max(1.0, math.log2(d) + (i - 2) * math.log2(d - 1) - 1.0)
        val = math.ceil(num / den)
    else:
        val = math.ceil(1.0 + (i + 1) / log_inv_eps)
    return max(1, val)


def continuation_threshold(i: int, d: int) -> float:
    """Phase-i color threshold: l - log2(l) with l = log2(d (d-1)^(i-1))."""
    if i < 1:
        raise ValueError("phase index must be >= 1")
    if d < 2:
        raise ValueError("d must be >= 2")
    l = math.log2(d) + (i - 1) * math.log2(d - 1)
    if l <= 0:
        raise ValueError("degenerate threshold: log2(d (d-1)^(i-1)) <= 0")
    return l - math.log2(l) if l >= 1 else l


def phase_params(i: int, epsilon: float, d: int,
                 subphase_factor: int | str = 1) -> PhaseParams:
    """Bundle alpha_i, the effective subphase count and the threshold.

    ``subphase_factor`` multiplies the subphase count; the literal
    ``"phase"`` selects the i * alpha_i reading.
    """
    alpha = alpha_subphases(i, epsilon, d)
    if subphase_factor == "phase":
        subphases = alpha * i
    else:
        factor = int(subphase_factor)
        if factor < 1:
            raise ValueError("subphase_factor must be >= 1")
        subphases = alpha * factor
    return PhaseParams(phase=i, alpha=alpha, subphases=subphases,
                       threshold=continuation_threshold(i, d))


# ---------------------------------------------------------------------------
# per-node state machine
# ---------------------------------------------------------------------------


@dataclass
class NodeState:
    """Everything one node carries across rounds.

    ``fwd_log`` maps (phase, subphase, round) to the (color, predecessor)
    the node sent that round; it is what the node answers verification
    queries from, and queries only ever ask about the current subphase.
    ``fwd_log``, ``k_values`` and ``best``/``best_src``/``last_sent`` are
    subphase-local and reset by round 1 of each subphase.
    """

    node: int
    ports: tuple[int, ...]
    active: bool = True
    decided: int | None = None
    crashed: bool = False
    flag_terminate: bool = True
    k_values: dict[int, int] = field(default_factory=dict)
    best: int = 0
    best_src: int = ORIGIN
    last_sent: int = 0
    fwd_log: dict[tuple[int, int, int], tuple[int, int]] = field(default_factory=dict)
    dropped: int = 0
    rejected: int = 0


@dataclass(frozen=True)
class RoundContext:
    """Inputs a node needs for one engine round of a subphase.

    Engine rounds t = 1..i+1 map onto flooding as follows: tokens sent in
    round t arrive in the round t+1 inbox carrying hop = t, and their
    colors are recorded as k_t (received "by the end of round t").  Round 1
    draws and emits the node's own color (which counts into k_1); round
    i+1 only collects the final hop and, being the end of flooding,
    evaluates the continuation criterion.
    """

    phase: int
    subphase: int
    t: int
    flood_rounds: int
    threshold: float
    own_color: int | None = None
    last_subphase: bool = False
    verify: Callable[[int, Token], bool] | None = None


def _successor(state: NodeState, t: int) -> NodeState:
    """Shallow copy of ``state`` for round t: round 1 starts the
    subphase-local fields afresh, later rounds copy the two tables."""
    st = object.__new__(NodeState)
    st.__dict__.update(state.__dict__)
    if t == 1:
        st.k_values, st.fwd_log = {}, {}
        st.best, st.best_src, st.last_sent = 0, ORIGIN, 0
    else:
        st.k_values, st.fwd_log = dict(state.k_values), dict(state.fwd_log)
    return st


def honest_node_step(state: NodeState, inbox: Iterable[Token],
                     ctx: RoundContext) -> tuple[NodeState, list[tuple[int, Token]]]:
    """Pure transition of an honest node for one engine round.

    Returns the successor state and an outbox of (destination, token)
    pairs, one per H-port.  Crashed nodes never emit.  Malformed tokens
    (stale stamps, impossible hop, non-positive color) are dropped and
    counted.  Decided nodes keep forwarding but no longer draw colors or
    evaluate the criterion.
    """
    st = _successor(state, ctx.t)
    if st.crashed:
        return st, []
    i, t = ctx.phase, ctx.t
    out: list[tuple[int, Token]] = []

    if t == 1:
        if st.active:
            color = int(ctx.own_color) if ctx.own_color is not None else 0
            if color >= 1:
                st.best = color
                st.k_values[1] = color
                st.fwd_log[(i, ctx.subphase, 1)] = (color, ORIGIN)
                st.last_sent = color
                tok = Token(color=color, phase=i, subphase=ctx.subphase,
                            hop=1, src=st.node, pred=ORIGIN)
                out = [(dst, tok) for dst in st.ports]
        return st, out

    # rounds 2..i+1: collect hop-(t-1) tokens, highest color first; the
    # first token that survives the checks is the round maximum, so lower
    # colors never need verification
    best_new = 0
    best_new_src = ORIGIN
    for tok in sorted(inbox, key=lambda m: (-m.color, m.src)):
        if (tok.phase != i or tok.subphase != ctx.subphase
                or tok.hop != t - 1 or tok.color < 1):
            st.dropped += 1
            continue
        if ctx.verify is not None and not ctx.verify(st.node, tok):
            st.rejected += 1
            continue
        best_new = tok.color
        best_new_src = tok.src
        break
    if best_new >= 1:
        st.k_values[t - 1] = max(st.k_values.get(t - 1, 0), best_new)
        if best_new > st.best:
            st.best = best_new
            st.best_src = best_new_src

    if t <= ctx.flood_rounds:
        if st.best > st.last_sent:
            tok = Token(color=st.best, phase=i, subphase=ctx.subphase,
                        hop=t, src=st.node, pred=st.best_src)
            st.fwd_log[(i, ctx.subphase, t)] = (st.best, st.best_src)
            st.last_sent = st.best
            out = [(dst, tok) for dst in st.ports]
        return st, out

    # t == i+1: flooding is over, judge the subphase
    if st.active and st.decided is None:
        k_i = st.k_values.get(ctx.flood_rounds, 0)
        prev = max((v for r, v in st.k_values.items() if r < ctx.flood_rounds),
                   default=-math.inf)
        if k_i > prev and k_i > ctx.threshold:
            st.flag_terminate = False
        if ctx.last_subphase:
            if st.flag_terminate:
                st.decided = i
                st.active = False
            st.flag_terminate = True  # rearm for the next phase
    return st, out


def byzantine_node_step(state: NodeState, inbox: Iterable[Token], ctx: RoundContext,
                        policy) -> tuple[NodeState, list[tuple[int, Token]]]:
    """Transition of a Byzantine node under a strategy policy.

    The default behaviour is exactly the honest transition (honest-mimic);
    the policy may suppress all emissions or substitute/append injected
    tokens for this node and round.  Injections that replace the node's
    own emission also rewrite its state (best/last_sent/log), so the node
    later answers truthfully about its own lie.
    """
    if policy is None:
        return honest_node_step(state, inbox, ctx)
    if policy.suppress_sends:
        return _successor(state, ctx.t), []

    st, out = honest_node_step(state, inbox, ctx)
    injections = policy.injections_for(st.node, ctx)
    for inj in injections:
        tok = Token(color=inj.color, phase=ctx.phase, subphase=ctx.subphase,
                    hop=ctx.t, src=st.node, pred=inj.pred)
        targets = inj.targets if inj.targets is not None else st.ports
        if inj.replace:
            out = [(dst, tok) for dst in targets]
            st.best = inj.color
            st.best_src = inj.pred
            st.last_sent = inj.color
            st.k_values[1 if ctx.t == 1 else ctx.t - 1] = inj.color
            st.fwd_log[(ctx.phase, ctx.subphase, ctx.t)] = (inj.color, inj.pred)
        else:
            out.extend((dst, tok) for dst in targets)
    return st, out


# ---------------------------------------------------------------------------
# setup: local topology reconstruction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyConflict:
    """Contradictory adjacency claims observed during setup; the holder crashes."""

    center: int
    a: int
    b: int
    detail: str


class LocalView:
    """A node's reconstructed picture of B_H(self, k).

    ``tables`` maps each member of the ball to its {neighbor: multiplicity}
    claim table; the members are its keys.  The tables are held by
    reference, not copied: a table may name nodes outside the ball and may
    be shared with other views, so lookups cut it to the members and
    nothing may mutate it.  Edges claimed by only one endpoint (the other
    never reported) are taken on the claimant's word.
    """

    def __init__(self, center: int, k: int,
                 tables: Mapping[int, Mapping[int, int]]) -> None:
        self.center = center
        self.k = k
        self.tables = tables
        self.members = tables.keys()

    def h_adjacent(self, a: int, b: int) -> bool:
        return b in self.tables.get(a, ()) and b in self.members


def claim_table(ports: Iterable[int]) -> dict[int, int]:
    """Tally an adjacency list into a {neighbor: multiplicity} claim table."""
    out: dict[int, int] = {}
    for x in map(int, ports):
        out[x] = out.get(x, 0) + 1
    return out


def reconstruct_local_topology(
    center: int,
    own: Mapping[int, int],
    reports: Mapping[int, Mapping[int, int]],
    k: int,
    expected_degree: int | None = None,
    trusted: Collection[int] = frozenset(),
) -> LocalView | TopologyConflict:
    """Assemble B_H(center, k) from neighbor reports, or detect a conflict.

    Parameters
    ----------
    center : int
    own : mapping
        The claim table of the node's own H-ports (neighbor ->
        multiplicity, see ``claim_table``); trusted.
    reports : mapping
        reporter -> claim table of its claimed H-neighbors, one entry per
        G-neighbor that answered.  Missing reporters are allowed; their
        edges are taken from the other endpoint's claim.  The tables are
        read, never written, and the returned view holds them by
        reference, so callers may share one table among many receivers.
    k : int
        Ball radius to reconstruct.
    expected_degree : int, optional
        When set, any untrusted report whose multiplicities do not sum to
        it is itself a conflict.
    trusted : collection of int, optional
        Holders whose claim table is their real row of H and, when
        ``expected_degree`` is set, of that length: a real row's length is
        its holder's H degree, so the caller checks it once per holder
        rather than once per receiver.  H is symmetric with multiplicity,
        so trusted x, y have ``T_x.get(y, 0) == T_y.get(x, 0)``: the scan
        skips such pairs and finds the same first conflict and view.
        Empty (the default) checks every report and scans every pair.

    Returns
    -------
    LocalView or TopologyConflict
        A conflict is returned iff two claim holders disagree on the
        multiplicity of an edge between them (one claiming an edge the
        other denies is the multiplicity pair 1 vs 0), or a report is
        malformed.  Honest, truthful reports can never produce one.
    """
    claims = {center: own}
    for reporter, table in reports.items():
        if (expected_degree is not None and reporter not in trusted
                and sum(table.values()) != expected_degree):
            return TopologyConflict(center=center, a=int(reporter), b=int(reporter),
                                    detail="report length != d")
        claims[int(reporter)] = table

    # Any one-sided mention of a pair where both hold claim tables, not
    # both trusted, is a contradiction (covers both "claims an edge the
    # other denies" and mismatched parallel-edge multiplicities).
    untrusted = claims.keys() - trusted
    if untrusted:
        for x, nbrs in claims.items():
            others = claims if x in untrusted else untrusted
            for y, mult in nbrs.items():
                if y in others and claims[y].get(x, 0) != mult:
                    return TopologyConflict(center=center, a=x, b=y,
                                            detail="asymmetric adjacency claim")

    # Past the scan, any two holders agree on every edge between them: a
    # holder's neighbors are its own claim, and a node without a claim is
    # known only from the holders that name it.
    def claimed_neighbors(x: int) -> Mapping[int, int]:
        if x in claims:
            return claims[x]
        return {y: their[x] for y, their in claims.items() if x in their}

    # BFS over the claimed edge relation out to depth k
    tables = {center: claimed_neighbors(center)}
    frontier = [center]
    for _ in range(k):
        nxt = []
        for u in frontier:
            for w in tables[u]:
                if w not in tables:
                    tables[w] = claimed_neighbors(w)
                    nxt.append(w)
        frontier = nxt
    # agreement makes the tables symmetric already; the view cuts them to
    # the ball on lookup
    return LocalView(center=center, k=k, tables=tables)


# ---------------------------------------------------------------------------
# provenance verification
# ---------------------------------------------------------------------------


def verify_color_provenance(
    view: LocalView,
    token: Token,
    query: Callable[[int, int, int], int | None],
) -> bool:
    """Decide whether a received color token's claimed history holds up.

    The claimed forwarding chain is walked backwards for min(hop, k) - 1
    steps.  ``query(target, color, round)`` asks the target whether it sent
    the color in that subphase round; it returns the target's own claimed
    predecessor (ORIGIN for an origination) or None for denial or silence.
    Each hop must be H-adjacent in the verifier's reconstructed view.  A
    token claiming origination anywhere but round 1 is rejected, as is any
    denial, silence, or edge missing from the view.  Round-1 tokens carry
    no history and are accepted as originations.
    """
    t = token.hop
    if t < 1 or token.color < 1:
        return False
    if not view.h_adjacent(view.center, token.src):
        return False
    if t == 1:
        return token.pred == ORIGIN
    if token.pred == ORIGIN:
        return False  # nothing may originate mid-subphase
    hops = min(t, view.k) - 1
    prev_node = token.src
    pred = int(token.pred)
    r = t - 1
    for _ in range(hops):
        if pred == ORIGIN:
            return False
        if not view.h_adjacent(prev_node, pred):
            return False
        ans = query(pred, token.color, r)
        if ans is None:
            return False
        if r == 1:
            return ans == ORIGIN
        if ans == ORIGIN:
            return False
        prev_node, pred, r = pred, int(ans), r - 1
    return True
