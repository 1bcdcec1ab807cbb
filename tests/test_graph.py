"""Graph layer: generation, balls, census, classification, chains, spectra, I/O."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from byzcount import graph
from byzcount.graph import (
    HMultigraph,
    PowerIterationError,
    augment_small_world,
    balls,
    census_locally_tree_like,
    classify_nodes,
    count_parallel_pairs,
    default_a_radius,
    default_k,
    default_tree_radius,
    estimate_spectral_gap,
    full_tree_ball_size,
    generate_h_graph,
    is_locally_tree_like,
    load_topology,
    longest_byzantine_chain,
    place_byzantine,
    reach_within,
    save_topology,
)
from helpers import assert_hamiltonian_decomposition, bfs_ball, edge_adjacency


# ---------------------------------------------------------------------------
# references: the rules the port-matrix kernels replaced, kept as oracles
# ---------------------------------------------------------------------------

def _bfs_levels(h, v, r):
    """Nodes within H-distance r of v and their distances (BFS on simple adjacency)."""
    dist = {v: 0}
    frontier = [v]
    for depth in range(1, r + 1):
        nxt = []
        for u in frontier:
            for w in np.unique(h.neighbors(u)):
                w = int(w)
                if w not in dist:
                    dist[w] = depth
                    nxt.append(w)
        frontier = nxt
        if not frontier:
            break
    nodes = np.fromiter(dist.keys(), dtype=np.int64, count=len(dist))
    depths = np.fromiter(dist.values(), dtype=np.int64, count=len(dist))
    order = np.argsort(nodes)
    return nodes[order], depths[order]


def _ball(h, v, r):
    """Sorted nodes at H-distance <= r from v, v included (B(v, r))."""
    return _bfs_levels(h, v, r)[0]


def _boundary(h, v, r):
    """Sorted nodes at H-distance exactly r from v (Bd(v, r))."""
    nodes, depths = _bfs_levels(h, v, r)
    return nodes[depths == r]


def _tree_like(h, w, r):
    """Tree-likeness by its definition, on the BFS ball."""
    nodes = _ball(h, w, r)
    if len(nodes) != full_tree_ball_size(h.d, r):
        return False
    members = set(int(x) for x in nodes)
    induced = sum(int(x) in members for u in members for x in h.neighbors(u))
    return induced == 2 * (len(nodes) - 1)


def _arcs(h):
    """Both directions of every H-edge, (src, dst), straight from ``h.edges``."""
    u, v = h.edges[:, 0], h.edges[:, 1]
    return np.concatenate([u, v]), np.concatenate([v, u])


def _edge_neighbors(h):
    """Each node's sorted neighbor list with multiplicity, from ``h.edges``
    alone (a self-loop lists its node twice)."""
    out = [[] for _ in range(h.n)]
    for s, t in zip(*(a.tolist() for a in _arcs(h))):
        out[s].append(t)
    return [sorted(row) for row in out]


def _lexsort_build(n, edges):
    """The H build before the one-sort rule: lexsort plus np.add.at.

    Returns the degrees, the port matrix and every node's neighbor list
    with multiplicity."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 3)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(ptr, src + 1, 1)
    np.cumsum(ptr, out=ptr)
    degs = np.diff(ptr)
    width = max(int(degs.max(initial=0)), 1)
    ports = np.full((width, n), n, dtype=np.intp)
    ports[np.arange(src.size) - ptr[src], src] = dst
    nbrs = [dst[ptr[v]:ptr[v + 1]] for v in range(n)]
    return degs, ports, nbrs


@st.composite
def multigraphs(draw):
    """Small irregular multigraphs: parallel edges, self-loops, isolated
    nodes, and degrees on both sides of d."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(0, 5))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.just(1)), max_size=3 * n))
    return HMultigraph.from_edges(n, d, edges)


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_d2_generation_is_a_single_cycle():
    h = generate_h_graph(4, 2, seed=0)
    assert h.edges.shape == (4, 3)
    assert_hamiltonian_decomposition(h)
    for v in range(4):
        assert h.degrees[v] == 2


def test_generation_row_count_and_decomposition():
    h = generate_h_graph(10_000, 8, seed=1)
    assert h.edges.shape == (40_000, 3)
    assert_hamiltonian_decomposition(h)
    degs = np.bincount(h.edges[:, :2].ravel(), minlength=h.n)
    assert np.all(degs == 8)
    np.testing.assert_array_equal(h.degrees, degs)


def test_generation_is_deterministic():
    a = generate_h_graph(300, 8, seed=42)
    b = generate_h_graph(300, 8, seed=42)
    c = generate_h_graph(300, 8, seed=43)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.ids, b.ids)
    assert not np.array_equal(a.edges, c.edges)


def test_node_ids_are_distinct():
    h = generate_h_graph(5000, 8, seed=9)
    assert len(set(h.ids.tolist())) == 5000


@pytest.mark.parametrize("n,d", [(2, 2), (1, 4), (10, 3), (10, 7), (10, 0)])
def test_generation_rejects_bad_parameters(n, d):
    with pytest.raises(ValueError):
        generate_h_graph(n, d, seed=0)


def test_parallel_pair_count_matches_analytic_mean():
    # For the union of c = d/2 independent cycles, a fixed pair of cycles
    # shares a given edge with probability (2/(n-1))^2, so
    # E[pairs] = C(c,2) * C(n,2) * (2/(n-1))^2 ~ 12 at d=8, n large.
    for n in (1024, 2048):
        counts = [count_parallel_pairs(generate_h_graph(n, 8, seed=s))
                  for s in range(200)]
        mean = float(np.mean(counts))
        assert 10.5 < mean < 13.5, f"n={n}: mean parallel pairs {mean}"


# ---------------------------------------------------------------------------
# port matrix
# ---------------------------------------------------------------------------

def _assert_ports_list_neighbors(h):
    nbrs = _edge_neighbors(h)
    degs = [len(row) for row in nbrs]
    assert h.degrees.tolist() == degs
    assert h.ports.shape == (max(max(degs), 1), h.n)
    for v in range(h.n):
        col = h.ports[:, v]
        assert col[:degs[v]].tolist() == nbrs[v] == h.neighbors(v).tolist()
        assert np.all(col[degs[v]:] == h.n)
        assert h.degrees[v] == degs[v]


def test_ports_on_irregular_fixtures(path6, tree_d8):
    _assert_ports_list_neighbors(path6.h)
    assert path6.h.ports.T.tolist() == [[1, 6], [0, 2], [1, 3], [2, 4],
                                        [3, 5], [4, 6]]
    _assert_ports_list_neighbors(tree_d8)
    assert tree_d8.ports[:, 0].tolist() == list(range(1, 9))
    assert tree_d8.ports[:, 1].tolist() == [0] + list(range(9, 16))
    assert tree_d8.ports[:, 64].tolist() == [8] + [65] * 7


def test_ports_keep_parallel_edges():
    h = HMultigraph.from_edges(4, 4, [(0, 1, 1), (1, 2, 1), (2, 3, 1),
                                      (3, 0, 2), (1, 0, 2)])
    _assert_ports_list_neighbors(h)
    assert h.ports.T.tolist() == [[1, 1, 3], [0, 0, 2], [1, 3, 4], [0, 2, 4]]


def _assert_build_matches_lexsort(h):
    degs, ports, nbrs = _lexsort_build(h.n, h.edges)
    for got, want in ((h.degrees, degs), (h.ports, ports)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for v in range(h.n):
        np.testing.assert_array_equal(h.neighbors(v), nbrs[v])


@settings(max_examples=200, deadline=None)
@given(h=multigraphs())
def test_one_sort_build_equals_the_lexsort_rule(h):
    _assert_build_matches_lexsort(h)


@pytest.mark.parametrize("n", [3, 257, 5000])
def test_one_sort_build_equals_the_lexsort_rule_on_generated_graphs(n):
    _assert_build_matches_lexsort(generate_h_graph(n, 8, seed=n))


def test_port_gather_equals_arc_scatter(tree_d8):
    rng = np.random.default_rng(0)
    for h in (tree_d8, generate_h_graph(40, 4, seed=2)):
        send = np.append(rng.geometric(0.5, size=h.n) * (rng.random(h.n) < 0.5), 0)
        src, dst = _arcs(h)
        scatter = np.zeros(h.n, dtype=np.int64)
        np.maximum.at(scatter, dst, send[src])
        np.testing.assert_array_equal(send[h.ports].max(axis=0), scatter)


# ---------------------------------------------------------------------------
# small-world augmentation
# ---------------------------------------------------------------------------

def test_default_k_values():
    assert default_k(8) == 3
    assert default_k(2) == 1
    assert default_k(12) == 4


def test_augment_k1_on_cycle_is_h_adjacency(cycle6):
    topo = augment_small_world(cycle6, k=1)
    for v in range(6):
        np.testing.assert_array_equal(topo.l_neighbors(v),
                                      np.unique(cycle6.neighbors(v)))


def test_augment_k2_on_cycle_reaches_distance_two(cycle6):
    topo = augment_small_world(cycle6, k=2)
    for v in range(6):
        assert len(topo.l_neighbors(v)) == 4
    assert np.diff(topo.l_ptr).tolist() == [4] * 6


def test_l_rows_match_brute_force_bfs():
    h = generate_h_graph(150, 8, seed=5)
    topo = augment_small_world(h)
    assert topo.k == 3
    adj = edge_adjacency(h)
    for v in range(150):
        expected = sorted(bfs_ball(adj, v, topo.k) - {v})
        np.testing.assert_array_equal(topo.l_neighbors(v), expected)


def _closure_layer(h, k):
    """L as the sparse boolean closure (A + I)^k without its diagonal: the
    materialized table the implicit layer must reproduce, as CSR arrays."""
    n = h.n
    src, dst = _arcs(h)
    a = sp.csr_matrix((np.ones(src.size, dtype=np.int64), (src, dst)),
                      shape=(n, n)).astype(bool)
    reach = a + sp.identity(n, dtype=bool, format="csr")
    closure = reach
    for _ in range(k - 1):
        closure = (closure @ reach).astype(bool)
    closure = closure.tocsr()
    closure.setdiag(False)
    closure.eliminate_zeros()
    closure.sort_indices()
    return closure.indptr.astype(np.int64), closure.indices.astype(np.int64)


def _assert_layer_matches_closure(h, k):
    topo = augment_small_world(h, k=k)
    ptr, idx = _closure_layer(h, k)
    h_nbrs = _edge_neighbors(h)
    np.testing.assert_array_equal(topo.l_ptr, ptr)
    for v in range(h.n):
        row = idx[ptr[v]:ptr[v + 1]]
        np.testing.assert_array_equal(topo.l_neighbors(v), row)
        np.testing.assert_array_equal(balls(h, [v], k)[0], _ball(h, v, k))
        members = set(row.tolist())
        h_members = set(h_nbrs[v])
        for u in range(-1, h.n + 1):
            assert topo.g_adjacent(v, u) == (u in members)
            assert h.h_adjacent(v, u) == (u in h_members)
    for v in (-1, h.n):
        assert not topo.g_adjacent(v, 0) and not h.h_adjacent(v, 0)
    np.testing.assert_array_equal(topo.l_idx, idx)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 40), d=st.sampled_from([2, 4, 8]),
       k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_implicit_layer_equals_closure(n, d, k, seed):
    _assert_layer_matches_closure(generate_h_graph(n, d, seed), k)


@settings(max_examples=100, deadline=None)
@given(h=multigraphs(), k=st.integers(1, 3))
def test_implicit_layer_equals_closure_on_multigraphs(h, k):
    _assert_layer_matches_closure(h, k)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name", ["tree_d8", "path6", "cycle4"])
def test_implicit_layer_equals_closure_on_fixtures(request, name, k):
    g = request.getfixturevalue(name)
    _assert_layer_matches_closure(getattr(g, "h", g), k)


def test_implicit_layer_does_not_depend_on_the_block_size(monkeypatch, topo200):
    census = census_locally_tree_like(topo200.h, 1)
    monkeypatch.setattr(graph, "_BLOCK_ELEMENTS", 1000)   # 1-15 centers per block
    small = augment_small_world(topo200.h)
    np.testing.assert_array_equal(small.l_ptr, topo200.l_ptr)
    np.testing.assert_array_equal(small.l_idx, topo200.l_idx)
    np.testing.assert_array_equal(census_locally_tree_like(topo200.h, 1), census)


def test_l_rows_are_symmetric(topo200):
    for v in range(topo200.n):
        for u in topo200.l_neighbors(v):
            assert v in topo200.l_neighbors(int(u))


# ---------------------------------------------------------------------------
# balls, boundaries, reachability
# ---------------------------------------------------------------------------

def test_ball_radius_zero_is_the_node_itself(topo200):
    np.testing.assert_array_equal(balls(topo200.h, [17], 0)[0], [17])
    with pytest.raises(ValueError):
        balls(topo200.h, [17], -1)


def test_tree_fixture_ball_and_boundary_sizes(tree_d8):
    assert full_tree_ball_size(8, 2) == 65
    assert balls(tree_d8, [0], 1)[0].shape[0] == 9
    assert balls(tree_d8, [0], 2)[0].shape[0] == 65
    assert _boundary(tree_d8, 0, 2).shape[0] == 56
    assert is_locally_tree_like(tree_d8, 0, 2)
    # radius 3 exceeds the fixture: the ball stops growing at 65 < full tree
    assert not is_locally_tree_like(tree_d8, 0, 3)


def test_cycle4_is_tree_like_only_at_radius_one(cycle4):
    assert is_locally_tree_like(cycle4, 0, 1)
    assert not is_locally_tree_like(cycle4, 0, 2)
    with pytest.raises(ValueError):
        is_locally_tree_like(cycle4, 0, 0)


def test_boundary_is_ball_difference(topo200):
    # the BFS reference's distance levels are the kernel's ball increments
    h = topo200.h
    for v in (0, 50, 199):
        prev = {v}
        for r in range(1, 5):
            b = set(balls(h, [v], r)[0].tolist())
            assert set(_boundary(h, v, r).tolist()) == b - prev
            assert len(b) >= len(prev)
            prev = b


def test_ball_growth_bounded_by_full_tree(topo200):
    h = topo200.h
    for v in (3, 77, 140):
        for tau in (1, 2):
            assert balls(h, [v], tau)[0].shape[0] <= full_tree_ball_size(8, tau)
            assert full_tree_ball_size(8, tau) < 7 ** (tau + 2)
        # G-distance 2 is H-distance 2k
        assert balls(h, [v], 2 * topo200.k)[0].shape[0] <= full_tree_ball_size(8, 6)


def test_g_ball_radius_one_is_closed_neighborhood(topo200):
    for v in (0, 99):
        expected = sorted(set(topo200.l_neighbors(v).tolist()) | {v})
        np.testing.assert_array_equal(_ball(topo200.h, v, topo200.k), expected)


@settings(max_examples=100, deadline=None)
@given(h=multigraphs(), r=st.integers(0, 4), data=st.data())
def test_balls_equal_bfs_on_multigraphs(h, r, data):
    for v, got in zip(range(h.n), balls(h, range(h.n), r)):
        np.testing.assert_array_equal(got, _ball(h, v, r))
    sources = data.draw(st.lists(st.integers(0, h.n - 1), max_size=4))
    expected = set().union(*(_ball(h, s, r).tolist() for s in sources))
    assert set(np.flatnonzero(reach_within(h, sources, r)).tolist()) == expected


def test_reach_within_agrees_with_balls(topo200):
    h = topo200.h
    mask = reach_within(h, np.array([5, 60]), 2)
    expected = set(_ball(h, 5, 2).tolist()) | set(_ball(h, 60, 2).tolist())
    assert set(np.flatnonzero(mask).tolist()) == expected
    none = reach_within(h, np.array([], dtype=np.int64), 3)
    assert not none.any()


# ---------------------------------------------------------------------------
# tree-likeness census
# ---------------------------------------------------------------------------

def test_census_matches_per_node_probe():
    h = generate_h_graph(400, 8, seed=13)
    vec = census_locally_tree_like(h, 1)
    loop = np.array([is_locally_tree_like(h, v, 1) for v in range(400)])
    np.testing.assert_array_equal(vec, loop)
    assert not vec.all()                      # the probe sees both outcomes


def test_census_sees_a_parallel_edge_at_a_node_above_degree_d():
    # node 0 has 8 distinct neighbors but degree 9: the edge 0-1 is doubled
    h = HMultigraph.from_edges(n=9, d=8, edges=[(0, i, 1) for i in range(1, 9)]
                               + [(0, 1, 2)])
    assert not is_locally_tree_like(h, 0, 1)
    assert not census_locally_tree_like(h, 1)[0]


@settings(max_examples=300, deadline=None)
@given(h=multigraphs())
def test_census_equals_the_definition_on_multigraphs(h):
    want = [_tree_like(h, v, 1) for v in range(h.n)]
    np.testing.assert_array_equal(census_locally_tree_like(h, 1), want)
    for r in (1, 2):
        assert [is_locally_tree_like(h, v, r) for v in range(h.n)] == \
            [_tree_like(h, v, r) for v in range(h.n)]


@pytest.mark.parametrize("edges,expected", [
    # star on 0 with d=3: tree-like until a self-loop lands at 0 or at a leaf,
    # or two leaves are joined
    ([(0, 1, 1), (0, 2, 1), (0, 3, 1)], True),
    ([(0, 1, 1), (0, 2, 1), (0, 3, 1), (2, 2, 1)], False),
    ([(0, 1, 1), (0, 2, 1), (0, 0, 1)], False),
    ([(0, 1, 1), (0, 2, 1), (0, 3, 1), (1, 3, 1)], False),
    ([(0, 1, 1), (0, 2, 1), (0, 3, 1), (3, 4, 1)], True),
])
def test_census_on_stars(edges, expected):
    h = HMultigraph.from_edges(5, 3, edges)
    assert census_locally_tree_like(h, 1)[0] == expected == _tree_like(h, 0, 1)


def test_census_on_hand_built_graphs(tree_d8, cycle4):
    tree_census = census_locally_tree_like(tree_d8, 1)
    assert tree_census[0]                      # root sees 8 distinct children
    assert not tree_census[9:].any()           # leaves have degree 1, not 8
    assert census_locally_tree_like(cycle4, 1).all()
    with pytest.raises(ValueError):
        census_locally_tree_like(cycle4, 0)


def test_most_nodes_are_tree_like_at_scale():
    h = generate_h_graph(20_000, 8, seed=2)
    frac = census_locally_tree_like(h, 1).mean()
    assert frac >= 0.97


# ---------------------------------------------------------------------------
# node classification
# ---------------------------------------------------------------------------

def test_classification_all_honest_cycle(cycle6):
    topo = augment_small_world(cycle6, k=1)
    cls = classify_nodes(topo, np.array([], dtype=np.int64), delta=1.0)
    assert cls.ltl.all()
    assert not cls.bad.any()
    assert cls.byz_safe.all()
    assert not cls.byz.any()


def test_classification_no_byzantine_means_bad_equals_nlt(topo512):
    cls = classify_nodes(topo512, np.array([], dtype=np.int64), delta=0.6)
    np.testing.assert_array_equal(cls.bad, cls.nlt)
    assert cls.a_radius == 1
    assert cls.tree_radius == default_tree_radius(512, 8)


def test_classification_requires_delta_when_defaulted(topo512):
    with pytest.raises(TypeError):  # delta sets the blast radius
        classify_nodes(topo512, np.array([0]))


@pytest.mark.parametrize("idx", [-1, 512])
def test_classification_rejects_byzantine_indices_outside_the_node_set(topo512, idx):
    # -1 would mark node 511 Byzantine; 512 would index past the node set
    with pytest.raises(ValueError, match="byz"):
        classify_nodes(topo512, np.array([idx]), delta=0.6)


@pytest.mark.parametrize("byz", [np.array([True]), np.ones(513, dtype=bool),
                                 np.array([1.5])])
def test_classification_rejects_malformed_placements(topo512, byz):
    # a length-1 mask would broadcast over the node set, putting every node
    # in the blast radius; a fractional index would be truncated
    with pytest.raises(ValueError, match="byz"):
        classify_nodes(topo512, byz, delta=0.6)


@settings(max_examples=25, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=511), max_size=12))
def test_classification_algebra(topo512, byz_set):
    byz = np.array(sorted(byz_set), dtype=np.int64)
    cls = classify_nodes(topo512, byz, delta=0.6)
    np.testing.assert_array_equal(cls.nlt, ~cls.ltl)
    np.testing.assert_array_equal(cls.bad, cls.byz | cls.nlt)
    np.testing.assert_array_equal(cls.byz_safe, ~cls.bus)
    assert np.all(cls.bad <= cls.bus)          # blast radius covers its seeds
    cap = cls.bad.sum() * 7 ** (topo512.k * cls.a_radius + 1)
    assert cls.bus.sum() <= cap


def test_default_a_radius_is_clamped_small():
    assert default_a_radius(100_000, 8, 3, 0.6) == 1
    assert default_a_radius(6, 2, 1, 1.0) == 1


# ---------------------------------------------------------------------------
# byzantine placement and chains
# ---------------------------------------------------------------------------

def test_placement_sizes():
    assert place_byzantine(10_000, 1.0, seed=0).shape[0] == 1
    assert place_byzantine(10_000, 0.5, seed=0).shape[0] == 100
    assert place_byzantine(100_000, 0.6, seed=0).shape[0] == 100


@pytest.mark.parametrize("delta", [0.0, -0.2, 1.5])
def test_placement_rejects_bad_delta(delta):
    with pytest.raises(ValueError):
        place_byzantine(1000, delta, seed=0)


def test_placement_is_deterministic_sorted_distinct():
    a = place_byzantine(5000, 0.5, seed=3)
    b = place_byzantine(5000, 0.5, seed=3)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.diff(a) > 0)


def test_placement_is_uniform():
    # 22 of 500 nodes per draw; per-node hit counts over 10^4 draws are
    # Binomial(10^4, 0.044): mean 440, sd 20.5, so a 4.5-sigma window.
    counts = np.zeros(500, dtype=np.int64)
    for s in range(10_000):
        counts[place_byzantine(500, 0.5, seed=s)] += 1
    assert counts.min() > 440 - 92 and counts.max() < 440 + 92


def test_chain_length_empty_and_singleton(topo200):
    h = topo200.h
    assert longest_byzantine_chain(h, np.array([], dtype=np.int64)) == 0
    assert longest_byzantine_chain(h, np.array([7])) == 1


def test_chain_length_on_planted_path(cycle6):
    # three consecutive nodes along the cycle form a 3-chain
    start = int(cycle6.edges[0, 0])
    mid = int(cycle6.neighbors(start)[0])
    rest = [int(x) for x in cycle6.neighbors(mid) if x != start]
    byz = np.array(sorted([start, mid, rest[0]]))
    assert longest_byzantine_chain(cycle6, byz) == 3
    assert longest_byzantine_chain(cycle6, byz, cap=2) == 2


def test_chain_length_against_networkx_longest_path():
    import networkx as nx

    h = generate_h_graph(30, 4, seed=8)
    gx = nx.Graph()
    gx.add_nodes_from(range(30))
    gx.add_edges_from((int(u), int(v)) for u, v, _ in h.edges if u != v)
    rng = np.random.default_rng(0)
    for _ in range(20):
        byz = np.sort(rng.choice(30, size=8, replace=False))
        sub = gx.subgraph(byz.tolist())
        best = 1 if byz.size else 0
        for s in byz.tolist():
            for t in byz.tolist():
                if s >= t:
                    continue
                for path in nx.all_simple_paths(sub, s, t):
                    best = max(best, len(path))
        assert longest_byzantine_chain(h, byz) == best


# ---------------------------------------------------------------------------
# spectral estimates
# ---------------------------------------------------------------------------

def test_spectral_k4():
    edges = [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
    k4 = HMultigraph.from_edges(4, 3, edges)
    est = estimate_spectral_gap(k4)
    assert est.lambda2 == pytest.approx(1.0, abs=1e-6)
    assert est.h_lower == pytest.approx(1.0, abs=1e-6)


def test_spectral_twelve_cycle():
    h = generate_h_graph(12, 2, seed=4)
    est = estimate_spectral_gap(h)
    assert est.lambda2 == pytest.approx(2 * math.cos(2 * math.pi / 12), abs=1e-6)


def test_h_graphs_are_near_ramanujan():
    # d=8 random instances should sit close to the 2*sqrt(d-1) bound
    for s in range(3):
        h = generate_h_graph(1024, 8, seed=s)
        est = estimate_spectral_gap(h)
        assert 0.0 <= est.lambda2 <= 2 * math.sqrt(7) + 0.5
        assert est.h_lower >= (8 - 2 * math.sqrt(7) - 0.5) / 2


def test_spectral_nonconvergence_raises():
    h = generate_h_graph(256, 8, seed=0)
    with pytest.raises(PowerIterationError):
        estimate_spectral_gap(h, iterations=3, tol=1e-15)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_topology_round_trip(tmp_path, topo200):
    path = str(tmp_path / "g.topo")
    save_topology(topo200, path)
    loaded = load_topology(path)
    assert loaded.n == topo200.n and loaded.k == topo200.k
    np.testing.assert_array_equal(loaded.h.edges, topo200.h.edges)
    np.testing.assert_array_equal(loaded.h.ids, topo200.h.ids)
    np.testing.assert_array_equal(loaded.l_ptr, topo200.l_ptr)
    np.testing.assert_array_equal(loaded.l_idx, topo200.l_idx)


def test_topology_save_is_byte_stable(tmp_path, topo200):
    p1, p2 = str(tmp_path / "a.topo"), str(tmp_path / "b.topo")
    save_topology(topo200, p1)
    save_topology(topo200, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


@pytest.mark.parametrize("text,msg", [
    ("6 2 1\n0 1 1\n", "expected 'n d k seed'"),
    ("a 2 1 0\n0 1 1\n", "non-integer field"),
    ("6 2 1 0\n0 1\n", "malformed edge line"),
    ("6 2 1 0\n0 99 1\n", "out of range"),
])
def test_load_rejects_malformed_files(tmp_path, text, msg):
    path = tmp_path / "bad.topo"
    path.write_text(text)
    with pytest.raises(ValueError, match=msg):
        load_topology(str(path))
