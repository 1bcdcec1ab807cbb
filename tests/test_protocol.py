"""Protocol core: colors, schedules, the node state machine, setup
reconstruction, and provenance verification.

The six-node path trace is worked out by hand (colors scripted, every
message accounted for) and then checked through both executors.
"""

import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from byzcount.engine import deliver_round, simulate_subphase
from byzcount.graph import (augment_small_world, census_locally_tree_like,
                            classify_nodes, generate_h_graph)
from byzcount.adversary import Injection
from byzcount.protocol import (
    ORIGIN,
    LocalView,
    NodeState,
    RoundContext,
    Token,
    TopologyConflict,
    alpha_subphases,
    byzantine_node_step,
    claim_table,
    continuation_threshold,
    draw_colors,
    honest_node_step,
    phase_params,
    reconstruct_local_topology,
    verify_color_provenance,
)
from byzcount.rng import stream


# ---------------------------------------------------------------------------
# geometric colors
# ---------------------------------------------------------------------------

def test_color_distribution():
    rng = stream(0, "colors")
    colors = draw_colors(rng, 1_000_000)
    assert colors.min() >= 1
    assert abs((colors == 1).mean() - 0.5) < 0.002
    assert abs(colors.mean() - 2.0) < 0.01
    assert (colors >= 1).all()
    for r in range(2, 13):
        p = 2.0 ** (1 - r)
        tol = 4 * math.sqrt(p * (1 - p) / colors.size)
        assert abs((colors >= r).mean() - p) < tol, f"tail at r={r}"


def test_colors_equal_the_geometric_draw_of_the_same_stream():
    # the closed form reads the doubles numpy's p >= 1/3 geometric search reads
    for seed in range(200):
        for size in (0, 1, 7, 1024, 2**16):
            want = stream(seed, "colors", 0, 1, 1).geometric(0.5, size=size)
            got = draw_colors(stream(seed, "colors", 0, 1, 1), size)
            assert got.dtype == np.uint8
            np.testing.assert_array_equal(got, want)
            if size:
                assert 1 <= got.min() and got.max() <= 53


@pytest.mark.parametrize("seed,extra", [(-1, ()), (2**64, ()), (0, (-1,)), (0, (1, 2**64))])
def test_streams_reject_seeds_and_counters_outside_the_range(seed, extra):
    # masked, 2^64 would alias 0 and -1 would alias 2^64 - 1
    with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
        stream(seed, "colors", *extra)


def test_streams_accept_the_ends_of_the_range():
    a = stream(2**64 - 1, "colors", 0, 2**64 - 1).integers(0, 2**32, size=4)
    b = stream(0, "colors", 0, 2**64 - 1).integers(0, 2**32, size=4)
    assert (a != b).any()


# ---------------------------------------------------------------------------
# subphase counts and thresholds
# ---------------------------------------------------------------------------

def test_alpha_frozen_values():
    assert alpha_subphases(3, 0.1, 8) == 3
    assert alpha_subphases(1, 0.5, 8) == 3
    assert [alpha_subphases(i, 0.1, 8) for i in range(1, 6)] == [6, 4, 3, 3, 3]
    assert [alpha_subphases(i, 0.1, 8) for i in range(3, 13)] == \
        [3, 3, 3, 4, 4, 4, 5, 5, 5, 5]


def test_alpha_is_non_decreasing_past_the_crossover():
    vals = [alpha_subphases(i, 0.1, 8) for i in range(3, 61)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("i,eps,d", [
    (0, 0.1, 8),
    (3, 0.0, 8),
    (3, 1.2, 8),
    (3, 0.1, 1),
])
def test_alpha_rejects_bad_arguments(i, eps, d):
    with pytest.raises(ValueError):
        alpha_subphases(i, eps, d)


def test_threshold_frozen_values():
    assert continuation_threshold(1, 8) == pytest.approx(1.415037499278844, abs=1e-9)
    assert continuation_threshold(5, 8) == pytest.approx(10.398614767036197, abs=1e-9)
    assert continuation_threshold(2, 2) == 1.0


def test_threshold_strictly_increasing():
    vals = [continuation_threshold(i, 8) for i in range(1, 41)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("i,d", [(0, 8), (3, 1)])
def test_threshold_rejects_bad_arguments(i, d):
    with pytest.raises(ValueError):
        continuation_threshold(i, d)


def test_phase_params_factor_readings():
    base = phase_params(4, 0.1, 8)
    assert base.alpha == 3 and base.subphases == 3
    assert phase_params(4, 0.1, 8, subphase_factor=2).subphases == 6
    assert phase_params(4, 0.1, 8, subphase_factor="phase").subphases == 12
    assert base.threshold == continuation_threshold(4, 8)
    with pytest.raises(ValueError):
        phase_params(4, 0.1, 8, subphase_factor=0)


# ---------------------------------------------------------------------------
# honest node transitions, one round at a time
# ---------------------------------------------------------------------------

def _ctx(t, *, phase=3, threshold=2.0, own_color=None, last=False, verify=None):
    return RoundContext(phase=phase, subphase=1, t=t, flood_rounds=phase,
                        threshold=threshold, own_color=own_color,
                        last_subphase=last, verify=verify)


def _tok(color, hop, src, *, phase=3, subphase=1, pred=ORIGIN):
    return Token(color=color, phase=phase, subphase=subphase, hop=hop,
                 src=src, pred=pred)


def test_round_one_draws_and_floods():
    st, out = honest_node_step(NodeState(node=0, ports=(1, 2)), [],
                               _ctx(1, own_color=5))
    assert st.k_values == {1: 5} and st.best == 5 and st.last_sent == 5
    assert [dst for dst, _ in out] == [1, 2]
    assert all(t.color == 5 and t.hop == 1 and t.pred == ORIGIN for _, t in out)


def test_round_two_takes_the_maximum_and_forwards():
    st, _ = honest_node_step(NodeState(node=0, ports=(1, 2)), [],
                             _ctx(1, own_color=2))
    inbox = [_tok(3, 1, 1), _tok(5, 1, 2), _tok(2, 1, 3)]
    st, out = honest_node_step(st, inbox, _ctx(2))
    assert st.k_values == {1: 5}
    assert st.best == 5 and st.best_src == 2
    assert len(out) == 2 and out[0][1].color == 5 and out[0][1].hop == 2
    assert out[0][1].pred == 2


def test_malformed_tokens_are_dropped_not_accepted():
    st = NodeState(node=0, ports=(1,))
    st, _ = honest_node_step(st, [], _ctx(1, own_color=1))
    inbox = [
        _tok(9, 1, 1, phase=99),       # stale phase stamp
        _tok(9, 2, 1),                 # impossible hop for this round
        _tok(0, 1, 1),                 # non-positive color
        _tok(9, 1, 1, subphase=7),     # wrong subphase
    ]
    st, _ = honest_node_step(st, inbox, _ctx(2))
    assert st.dropped == 4
    assert st.k_values == {1: 1}


def test_rejected_tokens_are_counted_and_skipped():
    st = NodeState(node=0, ports=(1,))
    st, _ = honest_node_step(st, [], _ctx(1, own_color=1))
    veto = lambda node, tok: tok.color != 9
    st, _ = honest_node_step(st, [_tok(9, 1, 1), _tok(4, 1, 2)],
                             _ctx(2, verify=veto))
    assert st.rejected == 1
    assert st.k_values == {1: 4}


def test_crashed_node_is_silent():
    st = NodeState(node=0, ports=(1, 2), crashed=True)
    st, out = honest_node_step(st, [_tok(5, 1, 1)], _ctx(2))
    assert out == [] and st.k_values == {}


def test_decided_node_forwards_but_never_redecides():
    st = NodeState(node=0, ports=(1,), active=False, decided=2)
    st, out = honest_node_step(st, [], _ctx(1, own_color=7))
    assert out == [] and st.k_values == {}        # no fresh color
    st, out = honest_node_step(st, [_tok(6, 1, 1)], _ctx(2))
    assert len(out) == 1 and out[0][1].color == 6  # still a relay
    st, _ = honest_node_step(st, [], _ctx(4, last=True))
    assert st.decided == 2 and st.active is False


def test_continuation_criterion_and_flag_rearm():
    # k_3 = 6 beats k_1=5, k_2=5 and the threshold: the flag clears, the
    # node survives the last subphase undecided, and the flag rearms.
    # (A round-t arrival carries hop t-1 and lands in k_{t-1}, so the
    # decisive k_3 token arrives in the criterion round t=4.)
    st = NodeState(node=0, ports=(1,))
    st, _ = honest_node_step(st, [], _ctx(1, own_color=5))
    st, _ = honest_node_step(st, [_tok(5, 1, 1)], _ctx(2))
    st, _ = honest_node_step(st, [_tok(5, 2, 1, pred=2)], _ctx(3))
    st, _ = honest_node_step(st, [_tok(6, 3, 1, pred=2)], _ctx(4, last=True))
    assert st.k_values == {1: 5, 2: 5, 3: 6}
    assert st.decided is None and st.active
    assert st.flag_terminate is True


def test_no_new_record_means_decision():
    st = NodeState(node=0, ports=(1,))
    st, _ = honest_node_step(st, [], _ctx(1, own_color=5))
    st, _ = honest_node_step(st, [_tok(4, 1, 1)], _ctx(2))
    st, _ = honest_node_step(st, [_tok(3, 2, 1, pred=2)], _ctx(3))
    st, _ = honest_node_step(st, [], _ctx(4, last=True))
    assert st.k_values == {1: 5, 2: 3}
    assert st.decided == 3 and st.active is False


def _mid_subphase_state():
    st = NodeState(node=0, ports=(1, 2))
    st, _ = honest_node_step(st, [], _ctx(1, own_color=2))
    st, _ = honest_node_step(st, [_tok(4, 1, 1)], _ctx(2))
    assert st.k_values == {1: 4} and st.fwd_log == {(3, 1, 1): (2, ORIGIN),
                                                    (3, 1, 2): (4, 1)}
    return st


class _Policy:
    """A strategy stand-in: optionally silent, else one injection per round."""

    def __init__(self, *, suppress=False, replace=False):
        self.suppress_sends = suppress
        self.replace = replace

    def injections_for(self, node, ctx):
        return [Injection(color=9, pred=1, replace=self.replace)]


@pytest.mark.parametrize("step", [
    lambda st, inbox, ctx: honest_node_step(st, inbox, ctx),
    lambda st, inbox, ctx: byzantine_node_step(st, inbox, ctx, None),
    lambda st, inbox, ctx: byzantine_node_step(st, inbox, ctx, _Policy()),
    lambda st, inbox, ctx: byzantine_node_step(st, inbox, ctx, _Policy(replace=True)),
    lambda st, inbox, ctx: byzantine_node_step(st, inbox, ctx, _Policy(suppress=True)),
], ids=["honest", "byz-none", "byz-append", "byz-replace", "byz-silent"])
@pytest.mark.parametrize("t", [1, 3, 4])
def test_node_steps_leave_the_input_state_alone(step, t):
    st = _mid_subphase_state()
    k_values, fwd_log = st.k_values, st.fwd_log
    snapshot = (dict(k_values), dict(fwd_log), st.best, st.best_src, st.last_sent)
    inbox = [_tok(7, t - 1, 2, pred=5)] if t > 1 else []
    nst, _ = step(st, inbox, _ctx(t, own_color=3, last=True))
    assert st.k_values is k_values and st.fwd_log is fwd_log
    assert (st.k_values, st.fwd_log, st.best, st.best_src, st.last_sent) == snapshot
    assert nst.k_values is not k_values and nst.fwd_log is not fwd_log


@pytest.mark.parametrize("policy,expected", [
    (None, {(3, 2, 1): (6, ORIGIN)}),
    (_Policy(replace=True), {(3, 2, 1): (9, 1)}),
    (_Policy(suppress=True), {}),
], ids=["honest", "byz-replace", "byz-silent"])
def test_round_one_starts_a_fresh_forwarding_log(policy, expected):
    st = _mid_subphase_state()
    for t in (3, 4):
        st, _ = byzantine_node_step(st, [], _ctx(t), policy)
    ctx = RoundContext(phase=3, subphase=2, t=1, flood_rounds=3, threshold=2.0,
                       own_color=6)
    st, _ = byzantine_node_step(st, [], ctx, policy)
    assert st.fwd_log == expected


def test_byzantine_step_without_a_policy_is_the_honest_step():
    inboxes = {1: [], 2: [_tok(4, 1, 1), _tok(6, 1, 2)], 3: [_tok(6, 2, 1, pred=2)],
               4: [_tok(8, 3, 2, pred=1)]}
    honest = byz = NodeState(node=0, ports=(1, 2))
    for t in (1, 2, 3, 4):
        ctx = _ctx(t, own_color=5, last=True, verify=lambda node, tok: tok.color != 8)
        honest, h_out = honest_node_step(honest, inboxes[t], ctx)
        byz, b_out = byzantine_node_step(byz, inboxes[t], ctx, None)
        assert byz == honest and b_out == h_out
    assert honest.rejected == 1 and honest.decided == 3


# ---------------------------------------------------------------------------
# the six-node path, both executors
# ---------------------------------------------------------------------------

PATH_COLORS = np.array([2, 1, 4, 1, 3, 1])
PATH_K1 = [2, 4, 4, 4, 3, 3]
PATH_K2 = [4, 0, 4, 0, 4, 0]
PATH_CONTINUERS = [0, 4]
PATH_DECIDERS = [1, 2, 3, 5]
PATH_FLOOD_MESSAGES = 15            # 10 at t=1, then 5 from nodes 1, 3, 5


def test_path_trace_reference_route(path6):
    h = path6.h
    states = {v: NodeState(node=v, ports=tuple(int(x) for x in h.neighbors(v)))
              for v in range(6)}
    counters = SimpleNamespace(sent=0, dropped=0)
    inboxes: dict[int, list] = {}
    for t in (1, 2, 3):
        outboxes = {}
        for v in range(6):
            ctx = RoundContext(phase=2, subphase=1, t=t, flood_rounds=2,
                               threshold=1.0, last_subphase=True,
                               own_color=int(PATH_COLORS[v]) if t == 1 else None)
            states[v], outboxes[v] = honest_node_step(
                states[v], inboxes.get(v, []), ctx)
        inboxes = deliver_round(outboxes, path6, counters)

    assert counters.sent == PATH_FLOOD_MESSAGES
    assert counters.dropped == 0
    for v in range(6):
        assert states[v].k_values.get(1, 0) == PATH_K1[v]
        assert states[v].k_values.get(2, 0) == PATH_K2[v]
        decided = states[v].decided
        assert (decided == 2) == (v in PATH_DECIDERS)
        assert states[v].active == (v in PATH_CONTINUERS)


def test_path_trace_fast_route(path6):
    tr = simulate_subphase(path6, 2, colors=PATH_COLORS, algorithm="basic",
                           relax_degree=True)
    np.testing.assert_array_equal(tr.k_rows[1], PATH_K1)
    np.testing.assert_array_equal(tr.k_rows[2], PATH_K2)
    np.testing.assert_array_equal(np.flatnonzero(tr.continue_event),
                                  PATH_CONTINUERS)
    # the fast route also counts the 10 setup adjacency reports
    assert tr.messages_sent == PATH_FLOOD_MESSAGES + 10
    assert not tr.crashed.any()


# ---------------------------------------------------------------------------
# local topology reconstruction
# ---------------------------------------------------------------------------

def _cycle8_reports():
    # truthful reports for center 0 on the 8-cycle, k=2
    return {1: (0, 2), 2: (1, 3), 6: (5, 7), 7: (6, 0)}


def _tallied(reports):
    return {u: claim_table(lst) for u, lst in reports.items()}


def test_reconstruction_faithful_cycle():
    view = reconstruct_local_topology(0, claim_table((1, 7)),
                                      _tallied(_cycle8_reports()), 2,
                                      expected_degree=2)
    assert isinstance(view, LocalView)
    assert view.members == frozenset({0, 1, 2, 6, 7})
    for a, b in [(0, 1), (1, 2), (0, 7), (7, 6)]:
        assert view.h_adjacent(a, b) and view.h_adjacent(b, a)
    assert not view.h_adjacent(1, 7)
    assert not view.h_adjacent(2, 3)      # 3 lies outside the ball
    assert {b for b in view.members if view.h_adjacent(0, b)} == {1, 7}


def test_reconstruction_detects_denied_edge():
    reports = dict(_cycle8_reports())
    reports[1] = (2, 5)                   # claims the center is not a neighbor
    out = reconstruct_local_topology(0, claim_table((1, 7)), _tallied(reports), 2,
                                     expected_degree=2)
    assert isinstance(out, TopologyConflict)
    assert out.detail == "asymmetric adjacency claim"
    assert {out.a, out.b} == {0, 1}


def test_reconstruction_detects_short_report():
    reports = dict(_cycle8_reports())
    reports[1] = (0,)
    out = reconstruct_local_topology(0, claim_table((1, 7)), _tallied(reports), 2,
                                     expected_degree=2)
    assert isinstance(out, TopologyConflict)
    assert out.detail == "report length != d"


def test_reconstruction_detects_multiplicity_mismatch():
    # center's port table shows a double edge to 1; 1 claims a single edge
    reports = {1: (0, 2), 2: (1, 1)}
    out = reconstruct_local_topology(0, claim_table((1, 1)), _tallied(reports), 1,
                                     expected_degree=2)
    assert isinstance(out, TopologyConflict)
    assert out.detail == "asymmetric adjacency claim"


def test_reconstruction_tolerates_missing_report():
    reports = {1: (0, 2), 7: (6, 0), 6: (5, 7)}   # node 2 stays silent
    view = reconstruct_local_topology(0, claim_table((1, 7)), _tallied(reports), 2,
                                      expected_degree=2)
    assert isinstance(view, LocalView)
    assert 2 in view.members                       # on node 1's word alone
    assert view.h_adjacent(1, 2)


def test_reconstruction_keeps_phantom_on_claimants_word():
    reports = {1: (0, 99), 7: (6, 0), 6: (5, 7)}
    view = reconstruct_local_topology(0, claim_table((1, 7)), _tallied(reports), 2,
                                      expected_degree=2)
    assert isinstance(view, LocalView)
    assert 99 in view.members and view.h_adjacent(1, 99)


def test_reconstruction_needs_h_row_for_trusted_holders():
    with pytest.raises(ValueError, match="h_row"):
        reconstruct_local_topology(0, claim_table((1, 7)), {}, 2, trusted={0, 1})


def _reconstruct_before(center, own_ports, reports, k, expected_degree=None):
    """The reconstruction rule before its fast rewrite, kept verbatim as the
    reference; it returns the view's adjacency tables instead of a view."""
    claims: dict[int, dict[int, int]] = {}

    def tally(node, lst):
        out: dict[int, int] = {}
        for x in lst:
            out[int(x)] = out.get(int(x), 0) + 1
        return out

    claims[center] = tally(center, own_ports)
    for reporter, lst in reports.items():
        lst = list(lst)
        if expected_degree is not None and len(lst) != expected_degree:
            return TopologyConflict(center=center, a=int(reporter), b=int(reporter),
                                    detail="report length != d")
        claims[int(reporter)] = tally(int(reporter), lst)

    for x, nbrs in claims.items():
        for y, mult in nbrs.items():
            if y in claims and claims[y].get(x, 0) != mult:
                return TopologyConflict(center=center, a=x, b=y,
                                        detail="asymmetric adjacency claim")

    reverse: dict[int, dict[int, int]] = {}
    for y, their in claims.items():
        for x, m in their.items():
            reverse.setdefault(x, {})[y] = m

    def claimed_neighbors(x):
        nbrs = dict(claims.get(x, {}))
        for y, m in reverse.get(x, {}).items():
            if y != x and nbrs.get(y, 0) < m:
                nbrs[y] = m
        return nbrs

    adj: dict[int, dict[int, int]] = {}
    depth = {center: 0}
    frontier = [center]
    adj[center] = claimed_neighbors(center)
    for depth_next in range(1, k + 1):
        nxt = []
        for u in frontier:
            for w in adj[u]:
                if w not in depth:
                    depth[w] = depth_next
                    nxt.append(w)
                    adj[w] = claimed_neighbors(w)
        frontier = nxt
    members = set(depth)
    view_adj: dict[int, dict[int, int]] = {x: {} for x in members}
    for x in members:
        for y, m in adj[x].items():
            if y in members:
                view_adj[x][y] = max(view_adj[x].get(y, 0), m)
                view_adj[y][x] = max(view_adj[y].get(x, 0), m)
    return view_adj


_PERTURBATIONS = ("drop", "phantom", "add", "remove", "self_loop", "center")


@st.composite
def _claim_sets(draw):
    """Truthful reports on a small random multigraph, then a few lies.

    Returns (center, real ports of every node, reports, k, expected
    degree, trusted): the trusted set holds the center and every reporter
    whose list the perturbations left as its real ports."""
    n = draw(st.integers(min_value=2, max_value=9))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=3 * n))
    ports: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in pairs:
        if u != v:                          # parallel edges stay
            ports[u].append(v)
            ports[v].append(u)
    center = draw(st.integers(0, n - 1))
    reports = {u: list(ports[u]) for u in range(n) if u != center}
    perturbed = set()
    for op, x in draw(st.lists(st.tuples(st.sampled_from(_PERTURBATIONS),
                                         st.integers(0, 50)), max_size=4)):
        if op == "center":
            reports[center] = list(ports[center])
            perturbed.discard(center)
            continue
        if not reports:
            break
        u = sorted(reports)[x % len(reports)]
        lst = reports[u]
        perturbed.add(u)
        if op == "drop":
            del reports[u]
        elif op == "phantom":
            lst.append(n + x)
        elif op == "add":
            lst.append(x % n)
        elif op == "remove" and lst:
            lst.pop(x % len(lst))
        elif op == "self_loop":
            lst.append(u)
    order = draw(st.permutations(sorted(reports)))
    reports = {u: reports[u] for u in order}
    k = draw(st.integers(min_value=0, max_value=3))
    expected = draw(st.sampled_from([None, len(ports[center])]))
    trusted = {center, *reports} - perturbed
    return center, ports, reports, k, expected, trusted


def _real_rows(ports):
    """``h_row`` over the real ports: a node's real claim table, {} for an id
    that is no node."""
    return lambda u: claim_table(ports.get(u, ()))


def _trusted_call(center, ports, tables, k, expected, trusted):
    """Reconstruct as the engine does: the trusted holders, except any real
    row of a length other than ``expected`` (the caller vouches only for
    the rest), are read through their real rows; everyone else's report
    is passed."""
    vouched = {u for u in trusted
               if u not in tables or expected is None or len(ports[u]) == expected}
    return reconstruct_local_topology(
        center, claim_table(ports[center]),
        {u: t for u, t in tables.items() if u not in vouched}, k,
        expected_degree=expected, trusted=vouched, h_row=_real_rows(ports))


@settings(max_examples=400, deadline=None)
@given(_claim_sets())
def test_reconstruction_equals_the_reference_rule(case):
    center, ports, reports, k, expected, trusted = case
    own = ports[center]
    want = _reconstruct_before(center, own, reports, k, expected)
    tables = _tallied(reports)
    before = {u: dict(t) for u, t in tables.items()}
    # the scan of every pair finds the reference's first conflict
    got = reconstruct_local_topology(center, claim_table(own), tables, k,
                                     expected_degree=expected)
    _assert_same_reconstruction(got, want, tables)
    # the scan from the untrusted holders finds a conflict iff it does
    got = _trusted_call(center, ports, tables, k, expected, trusted)
    _assert_same_reconstruction(got, want, tables, same_pair=False)
    assert tables == before                 # the claim tables are only read


_SETUP_LIES = ("truth", "silent", "hide_phantom", "phantom", "drop", "add", "swap",
               "duplicate", "name_liar")


@st.composite
def _setup_cases(draw):
    """One receiver's setup as the engine runs it.

    H is the union of d/2 random Hamiltonian cycles (parallel edges
    occur), plus up to two extra edges that give their ends odd degree.
    The receiver hears its H-ball of radius k; each Byzantine sender in
    it tells the truth, stays silent or lies: ``topology_liar``'s hidden
    child and phantom (the hidden child may be out of the ball or
    silent), a phantom or a dropped port (wrong length), a real node
    added or swapped in, a port doubled, or a port swapped for the
    smallest other liar (two such liars name each other).  Returns
    (center, real ports, reports, k, expected degree, trusted)."""
    n = draw(st.integers(min_value=3, max_value=10))
    d = draw(st.sampled_from([2, 4]))
    ports: dict[int, list[int]] = {v: [] for v in range(n)}
    cycles = [draw(st.permutations(range(n))) for _ in range(d // 2)]
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=2))
    for a, b in [e for c in cycles for e in zip(c, c[1:] + c[:1])] + extra:
        if a != b:
            ports[a].append(b)
            ports[b].append(a)
    center = draw(st.integers(0, n - 1))
    k = draw(st.integers(min_value=1, max_value=3))
    ball, frontier = {center}, {center}
    for _ in range(k):
        frontier = {w for u in frontier for w in ports[u]} - ball
        ball |= frontier
    byz = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=4)))
    reports, trusted = {}, {center}
    for u in sorted(ball - {center}):
        lst = list(ports[u])
        how = draw(st.sampled_from(_SETUP_LIES)) if u in byz else "truth"
        x = draw(st.integers(0, 50))
        others = [b for b in byz if b != u]
        if how == "truth":
            trusted.add(u)
        elif how == "silent":
            continue
        elif how == "hide_phantom" and lst:
            lst.remove(min(lst))
            lst.append(n + u)
        elif how == "phantom":
            lst.append(n + u)
        elif how == "drop" and lst:
            lst.pop(x % len(lst))
        elif how == "add":
            lst.append(x % n)
        elif how == "swap" and lst:
            lst[x % len(lst)] = (x // 7) % n
        elif how == "duplicate" and lst:
            lst[x % len(lst)] = lst[(x + 1) % len(lst)]
        elif how == "name_liar" and lst and others:
            lst[lst.index(min(lst))] = others[0]
        reports[u] = lst
    order = draw(st.permutations(sorted(reports)))
    expected = draw(st.sampled_from([None, d]))
    return center, ports, {u: reports[u] for u in order}, k, expected, trusted


@settings(max_examples=600, deadline=None)
@given(_setup_cases())
def test_lie_only_scan_finds_a_conflict_iff_the_all_pairs_scan_does(case):
    # oracle: _reconstruct_before, the scan of every pair of holders, with
    # every report length-checked and tallied
    center, ports, reports, k, expected, trusted = case
    want = _reconstruct_before(center, ports[center], reports, k, expected)
    tables = _tallied(reports)
    got = _trusted_call(center, ports, tables, k, expected, trusted)
    _assert_same_reconstruction(got, want, tables, same_pair=False)


def _assert_same_reconstruction(got, want, tables, same_pair=True):
    if isinstance(want, TopologyConflict):
        assert isinstance(got, TopologyConflict)
        assert (got.center, got.detail) == (want.center, want.detail)
        if same_pair:
            assert (got.a, got.b) == (want.a, want.b)
    else:
        assert isinstance(got, LocalView)
        assert got.members == frozenset(want)
        cut = {x: {y: m for y, m in got.tables[x].items() if y in got.members}
               for x in got.members}
        assert cut == want
        probe = set(want) | {y for t in tables.values() for y in t}
        for a in probe:
            for b in probe:
                assert got.h_adjacent(a, b) == (b in want.get(a, ()))


# ---------------------------------------------------------------------------
# provenance verification
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cycle_view():
    view = reconstruct_local_topology(0, claim_table((1, 7)),
                                      _tallied(_cycle8_reports()), 2,
                                      expected_degree=2)
    assert isinstance(view, LocalView)
    return view


def _query_table(table):
    return lambda target, color, r: table.get((target, color, r))


def test_verify_accepts_honest_chain(cycle_view):
    tok = _tok(4, 2, 1, pred=2)
    ok = verify_color_provenance(cycle_view, tok,
                                 _query_table({(2, 4, 1): ORIGIN}))
    assert ok


def test_verify_rejects_silence(cycle_view):
    tok = _tok(4, 2, 1, pred=2)
    assert not verify_color_provenance(cycle_view, tok, _query_table({}))


def test_verify_rejects_wrong_round_answer(cycle_view):
    # the chain member answers, but claims a predecessor where an
    # origination is the only legal round-1 answer
    tok = _tok(4, 2, 1, pred=2)
    assert not verify_color_provenance(cycle_view, tok,
                                       _query_table({(2, 4, 1): 3}))


def test_verify_rejects_non_adjacent_predecessor(cycle_view):
    tok = _tok(4, 2, 1, pred=7)     # 1 and 7 are not H-adjacent
    assert not verify_color_provenance(cycle_view, tok,
                                       _query_table({(7, 4, 1): ORIGIN}))


def test_verify_accepts_first_hop_unconditionally(cycle_view):
    assert verify_color_provenance(cycle_view, _tok(4, 1, 1),
                                   _query_table({}))
    # ... but only from a real H-neighbor
    assert not verify_color_provenance(cycle_view, _tok(4, 1, 2),
                                       _query_table({}))


def test_verify_rejects_mid_flood_origination(cycle_view):
    tok = _tok(4, 3, 1, pred=ORIGIN)
    assert not verify_color_provenance(cycle_view, tok, _query_table({}))


def test_verify_walk_is_depth_limited(cycle_view):
    # hop 3 with k=2 walks a single step; a valid round-2 answer ends it
    tok = _tok(4, 3, 1, pred=2)
    assert verify_color_provenance(cycle_view, tok,
                                   _query_table({(2, 4, 2): 3}))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_verify_never_accepts_malformed(cycle_view, seed):
    rng = np.random.default_rng(seed)
    color = int(rng.integers(-2, 3))     # includes non-positive colors
    hop = int(rng.integers(-1, 2))       # includes non-positive hops
    if color >= 1 and hop >= 1:
        return
    tok = _tok(max(color, -1), max(hop, -1), 1)
    assert not verify_color_provenance(cycle_view, tok, _query_table({}))


# ---------------------------------------------------------------------------
# single-subphase failure statistics at scale
# ---------------------------------------------------------------------------

def test_early_max_event_rate_on_safe_tree_like_nodes():
    """The probability that a safe tree-like node's round-i maximum fails
    to set a new record decays like 1/(d (d-1)^(i-2)) plus the protocol's
    error budget; checked at eps=0.5 where the finite-n constants fit."""
    n = 100_000
    topo = augment_small_world(generate_h_graph(n, 8, seed=3))
    cls = classify_nodes(topo, np.zeros(0, dtype=np.int64), delta=0.6)
    eligible = cls.byz_safe & cls.ltl
    assert eligible.sum() >= 10_000
    eps = 0.5
    for i in (3, 4, 5):
        tr = simulate_subphase(topo, i, algorithm="basic", seed=0)
        k = tr.k_rows
        fail = (k[1:i].max(axis=0) >= k[i])
        freq = fail[eligible].mean()
        bound = 1.0 / (8 * 7 ** (i - 2)) + eps / 2 + 0.05
        assert freq <= bound, f"phase {i}: {freq:.4f} > {bound:.4f}"
