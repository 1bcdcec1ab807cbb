"""Sparse small-world expander topologies.

The base communication graph H is a d-regular multigraph on n nodes built as
the union of d/2 uniformly random Hamiltonian cycles.  A small-world layer L
connects every pair of nodes at H-distance at most k = ceil(d/3); the full
graph G = H + L is what Byzantine-tolerant runs communicate over.

H keeps one adjacency: its padded (max degree, n) port matrix, built from
one sort of the arc keys, plus the degree of every node.  Neighbor lists
are slices of it, and every setup question runs on numpy alone as gathers
through it: the ball kernel, the radius-1 tree-likeness census,
reachability and the spectral estimate's A·x.
L is implicit: the ball kernel gathers every walk of length <= r from a
block of centers, sorts each center's row of walk ends and keeps the
distinct nodes.  Building a topology only counts G-degrees; a node's G-row
is built when it is first asked for, and the whole table only for callers
that read it.

This module owns everything structural: generation, the L augmentation,
ball queries, the locally-tree-like census, node classification relative
to a Byzantine placement, Byzantine chain search, a spectral expansion
estimate, and a plain-text serialization format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rng import stream

__all__ = [
    "HMultigraph",
    "Topology",
    "NodeClassification",
    "SpectralEstimate",
    "PowerIterationError",
    "generate_h_graph",
    "derive_node_ids",
    "default_k",
    "default_tree_radius",
    "default_a_radius",
    "augment_small_world",
    "balls",
    "reach_within",
    "full_tree_ball_size",
    "is_locally_tree_like",
    "census_locally_tree_like",
    "classify_nodes",
    "place_byzantine",
    "longest_byzantine_chain",
    "count_parallel_pairs",
    "estimate_spectral_gap",
    "save_topology",
    "load_topology",
]


# ---------------------------------------------------------------------------
# containers
# ---------------------------------------------------------------------------


@dataclass
class HMultigraph:
    """d-regular multigraph given by its Hamiltonian-cycle edge list.

    Attributes
    ----------
    n, d : int
        Node count and (target) degree.  Generated graphs are exactly
        d-regular; hand-built fixtures may deviate.
    edges : np.ndarray
        Shape (m, 3) int64 array of rows ``(u, v, cycle_label)`` with
        labels in 1..d/2.  Parallel edges appear as repeated (u, v) rows.
    ids : np.ndarray
        Shape (n,) uint64 array of distinct node identifiers drawn from the
        full 64-bit space; their width carries no information about n.
    seed : int
        Seed the graph (and its ids) were derived from.
    degrees : np.ndarray
        Shape (n,) int64 degree of every node, parallel edges counted.
    ports : np.ndarray
        Shape (max degree, n) intp port matrix (at least one row), H's only
        stored adjacency.  Column v lists v's neighbors with multiplicity,
        sorted, in its first ``degrees[v]`` rows; the rest hold the
        sentinel n.
    """

    n: int
    d: int
    edges: np.ndarray
    ids: np.ndarray
    seed: int = 0
    degrees: np.ndarray = field(init=False, repr=False)
    ports: np.ndarray = field(init=False, repr=False)
    _nbr_sets: dict[int, frozenset] = field(default_factory=dict, init=False,
                                            repr=False)

    def __post_init__(self) -> None:
        self.edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 3)
        n = self.n
        ends = self.edges[:, :2]
        if ends.size and (ends.min() < 0 or ends.max() >= n):
            raise ValueError(f"edge endpoint out of range [0, {n})")
        u, v = ends.T
        # one sort of the arc keys src·n + dst orders the arcs by (src, dst)
        key = np.concatenate([u * n + v, v * n + u])
        key.sort()
        src, dst = np.divmod(key, n)
        self.degrees = np.bincount(src, minlength=n)
        # ports[r, v] = r-th neighbor of v; max(axis=0) over a gather
        # through it is the per-node max over in-arcs (H is symmetric)
        width = max(int(self.degrees.max(initial=0)), 1)
        self.ports = np.full((width, n), n, dtype=np.intp)
        row = np.arange(src.size)
        row -= (np.cumsum(self.degrees) - self.degrees)[src]  # rank within src's arcs
        self.ports[row, src] = dst

    @classmethod
    def from_edges(cls, n: int, d: int, edges, seed: int = 0) -> "HMultigraph":
        """Wrap an explicit edge list, as given: it need not be d-regular."""
        return cls(n=n, d=d, edges=edges, ids=derive_node_ids(n, seed), seed=seed)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of v with multiplicity (one entry per incident edge), sorted."""
        return self.ports[:self.degrees[v], v]

    def h_adjacent(self, a: int, b: int) -> bool:
        """True iff an edge joins a and b; a's neighbor set is built on first use."""
        nbrs = self._nbr_sets.get(a)
        if nbrs is None:
            if not 0 <= a < self.n:
                return False
            nbrs = self._nbr_sets[a] = frozenset(self.neighbors(a).tolist())
        return b in nbrs

    @cached_property
    def walk_table(self) -> np.ndarray:
        """Shape (n, max degree) one-step table for the ball kernel.

        Row v is column v of ``ports`` with every padding port pointing
        back at v, so a walk through one stays at a node it has already
        reached and no walk leaves the node set.
        """
        n = self.n
        table = np.ascontiguousarray(self.ports.T, dtype=np.int32 if n < 2**31 else np.int64)
        pad = table == n
        table[pad] = np.nonzero(pad)[0]
        return table


@dataclass
class Topology:
    """H plus its implicit small-world layer.

    Row v of L lists every node at H-distance in [1, k] from v, sorted.
    Because H-neighbors are at distance 1 <= k, this row is exactly v's
    neighborhood in G.  ``l_ptr`` holds the (n+1) prefix sum of G-degrees
    and is built with the topology.  ``l_neighbors(v)`` builds v's row on
    first use and keeps it.  ``l_idx``, the rows concatenated into one CSR
    table, is built by the block kernel on first access; only whole-table
    callers need it.
    """

    h: HMultigraph
    k: int
    l_ptr: np.ndarray = field(repr=False)
    _rows: dict[int, np.ndarray] = field(default_factory=dict, init=False,
                                         repr=False)
    _row_sets: dict[int, frozenset] = field(default_factory=dict, init=False,
                                            repr=False)

    @property
    def n(self) -> int:
        return self.h.n

    @cached_property
    def l_idx(self) -> np.ndarray:
        """All rows of L back to back, row v at ``l_ptr[v]:l_ptr[v+1]``."""
        out = np.empty(int(self.l_ptr[-1]), dtype=np.int64)
        for c, ends, keep in _ball_blocks(self.h, np.arange(self.n), self.k):
            keep &= ends != c[:, None]
            out[self.l_ptr[c[0]]:self.l_ptr[c[-1] + 1]] = ends[keep]
        return out

    def l_neighbors(self, v: int) -> np.ndarray:
        """Nodes at H-distance in [1, k] from v (== v's G-neighborhood)."""
        v = int(v)
        row = self._rows.get(v)
        if row is None:
            row = balls(self.h, [v], self.k)[0]
            row = self._rows[v] = row[row != v]
        return row

    def g_adjacent(self, u: int, v: int) -> bool:
        """True iff v is in u's G-row; u's row set is built on first use."""
        row = self._row_sets.get(u)
        if row is None:
            if not 0 <= u < self.n:
                return False
            row = self._row_sets[u] = frozenset(self.l_neighbors(u).tolist())
        return v in row


@dataclass
class NodeClassification:
    """Boolean masks partitioning the node set relative to a placement.

    ``bad = byz | nlt`` and ``bus`` collects every node within G-distance
    ``a_radius`` of a bad node (bad nodes included); ``byz_safe`` is its
    complement.  ``nlt`` is judged at ``tree_radius``.
    """

    byz: np.ndarray
    ltl: np.ndarray
    bus: np.ndarray
    a_radius: int
    tree_radius: int

    @property
    def nlt(self) -> np.ndarray:
        return ~self.ltl

    @property
    def bad(self) -> np.ndarray:
        return self.byz | self.nlt

    @property
    def byz_safe(self) -> np.ndarray:
        return ~self.bus


class PowerIterationError(RuntimeError):
    """Raised when the spectral estimate fails to converge."""


@dataclass
class SpectralEstimate:
    """Second eigenvalue magnitude and the expansion bound derived from it."""

    lambda2: float
    h_lower: float
    iterations: int


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def derive_node_ids(n: int, seed: int) -> np.ndarray:
    """Draw n distinct uint64 identifiers, deterministically from the seed."""
    rng = stream(seed, "ids")
    ids = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    while np.unique(ids).size < n:  # astronomically unlikely for sane n
        dup = np.ones(n, dtype=bool)
        _, first = np.unique(ids, return_index=True)
        dup[first] = False
        ids[dup] = rng.integers(0, 2**64, size=int(dup.sum()), dtype=np.uint64)
    return ids


def generate_h_graph(n: int, d: int, seed: int) -> HMultigraph:
    """Sample H(n, d): the union of d/2 uniform random Hamiltonian cycles.

    Each cycle is an independent uniform circular permutation of the node
    set; parallel edges between cycles are kept and labelled by cycle.

    Parameters
    ----------
    n : int
        Number of nodes, at least 3.
    d : int
        Even degree, at least 2.  The counting protocol itself wants
        d >= 8; smaller even degrees are allowed here for fixtures.
    seed : int
        Root seed; the same seed always yields the same graph and ids.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if d < 2 or d % 2 != 0:
        raise ValueError("d must be an even integer >= 2")
    rng = stream(seed, "graph")
    edges = np.empty((d // 2 * n, 3), dtype=np.int64)
    for c in range(1, d // 2 + 1):
        perm = rng.permutation(n)
        cycle = edges[(c - 1) * n:c * n]
        cycle[:, 0] = perm
        cycle[:, 1] = np.roll(perm, -1)
        cycle[:, 2] = c
    return HMultigraph(n=n, d=d, edges=edges, ids=derive_node_ids(n, seed), seed=seed)


def default_k(d: int) -> int:
    """Small-world reach: k = ceil(d/3)."""
    return -(-d // 3)


def default_tree_radius(n: int, d: int) -> int:
    """Census radius used for classification: max(1, floor(log2 n / (10 log2 d)))."""
    return max(1, int(math.log2(n) // (10 * math.log2(d))))


def default_a_radius(n: int, d: int, k: int, delta: float) -> int:
    """Safety margin around bad nodes: ceil(a log2 n), a = delta/(10 k log2(d-1)), min 1."""
    if d <= 2:  # log2(d-1) = 0; the >=1 clamp is all that is left
        return 1
    a = delta / (10.0 * k * math.log2(d - 1))
    return max(1, math.ceil(a * math.log2(n)))


def augment_small_world(h: HMultigraph, k: int | None = None) -> Topology:
    """Attach the small-world layer: all pairs at H-distance <= k.

    Only the G-degrees are computed here; rows of L are served on demand
    (see ``Topology``).

    Parameters
    ----------
    h : HMultigraph
    k : int, optional
        Reach of the layer; defaults to ceil(d/3).

    Returns
    -------
    Topology
        Holds h, k and the prefix sum of G-degrees.
    """
    if k is None:
        k = default_k(h.d)
    if k < 1:
        raise ValueError("k must be >= 1")
    l_ptr = np.zeros(h.n + 1, dtype=np.int64)
    for c, _, keep in _ball_blocks(h, np.arange(h.n), k):
        l_ptr[c + 1] = np.count_nonzero(keep, axis=1) - 1
    np.cumsum(l_ptr, out=l_ptr)
    return Topology(h=h, k=k, l_ptr=l_ptr)


# ---------------------------------------------------------------------------
# distance queries
# ---------------------------------------------------------------------------


# walk ends a ball-kernel block holds, or second-hop ports a census block
# gathers; 2^19 kept the G-degree pass fastest and its peak RSS low at 2^14-2^16
_BLOCK_ELEMENTS = 1 << 19


def _ball_blocks(h: HMultigraph, centers: np.ndarray, r: int):
    """Walk the ball kernel over ``centers`` in fixed-size blocks.

    Yields ``(c, ends, keep)`` per block.  Row i of ``ends`` holds, sorted,
    the end of every walk of length exactly 0, 1, ..., r from ``c[i]``
    through ``h.walk_table``.  ``keep`` marks the first copy of each node,
    so row i of ``ends[keep]`` is B(c[i], r).  A row is sum_j W^j wide for
    W = max degree (585 at W=8, r=3), so the kernel suits radii up to k.
    """
    table = h.walk_table
    centers = np.asarray(centers, dtype=table.dtype)
    step = max(1, _BLOCK_ELEMENTS // sum(table.shape[1] ** j for j in range(r + 1)))
    for lo in range(0, centers.size, step):
        c = centers[lo:lo + step]
        ends = _walk_ends(table, c, r)
        ends.sort(axis=1)
        keep = np.empty(ends.shape, dtype=bool)
        keep[:, 0] = True
        np.not_equal(ends[:, 1:], ends[:, :-1], out=keep[:, 1:])
        yield c, ends, keep


def _walk_ends(table: np.ndarray, c: np.ndarray, r: int) -> np.ndarray:
    """Row i: the ends of all walks of length 0..r from c[i], level by level.

    The levels are freed on return, so a block holds one copy of its ends.
    """
    level = c[:, None]
    levels = [level]
    for _ in range(r):
        level = np.take(table, level, axis=0).reshape(c.size, -1)  # take: ~7x a fancy index here
        levels.append(level)
    return np.concatenate(levels, axis=1)


def balls(h: HMultigraph, centers, r: int) -> list[np.ndarray]:
    """B(c, r) for each center c: the nodes at H-distance <= r, sorted, c included.

    Meant for radii up to k, where the kernel's sum_j W^j walks per center
    stay small.
    """
    if r < 0:
        raise ValueError("radius must be >= 0")
    out: list[np.ndarray] = []
    for _, ends, keep in _ball_blocks(h, centers, r):
        out.extend(row[m].astype(np.int64) for row, m in zip(ends, keep))
    return out


def reach_within(h: HMultigraph, sources: np.ndarray, depth: int) -> np.ndarray:
    """Boolean mask of nodes within H-distance ``depth`` of any source."""
    # slot n stands for the padding sentinel: marked seen, it never joins a frontier
    seen = np.zeros(h.n + 1, dtype=bool)
    seen[h.n] = True
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    seen[frontier] = True
    for _ in range(depth):
        ends = h.ports[:, frontier].ravel()
        frontier = np.unique(ends[~seen[ends]])
        if frontier.size == 0:
            break
        seen[frontier] = True
    return seen[:h.n]


# ---------------------------------------------------------------------------
# tree-likeness
# ---------------------------------------------------------------------------


def full_tree_ball_size(d: int, r: int) -> int:
    """Size of B(v, r) when the ball is a full (d-1)-ary tree: 1 + d*sum (d-1)^(j-1)."""
    return 1 + d * sum((d - 1) ** (j - 1) for j in range(1, r + 1))


def is_locally_tree_like(h: HMultigraph, w: int, r: int) -> bool:
    """True iff B(w, r) induces a full (d-1)-ary tree of depth r.

    Checked as: the ball has the full tree size for degree h.d, and the
    induced subgraph (edge multiplicities and self-loops counted) has
    exactly |B|-1 edges.
    """
    if r < 1:
        raise ValueError("radius must be >= 1")
    size = full_tree_ball_size(h.d, r)
    if size > h.n:  # no ball is that large; also caps the kernel's width
        return False
    nodes = balls(h, [w], r)[0]
    if nodes.size != size:
        return False
    members = set(nodes.tolist())
    # every induced edge is seen once from each end (a self-loop twice from its node)
    induced = sum(x in members for u in members for x in h.neighbors(u).tolist())
    return induced == 2 * (size - 1)


def census_locally_tree_like(h: HMultigraph, r: int) -> np.ndarray:
    """Per-node tree-likeness mask at radius r, equal to ``is_locally_tree_like``.

    The r=1 case runs on the port matrix: w is tree-like iff it has degree
    d, its ports are distinct and not w itself, and no port of a neighbor
    leads to a neighbor (an edge between two neighbors, or a self-loop at
    one).  Larger radii fall back to the per-node check.
    """
    if r != 1:
        return np.array([is_locally_tree_like(h, v, r) for v in range(h.n)], dtype=bool)
    d, ports = h.d, h.ports
    nbrs = ports[:d]  # at a node of degree d: its neighbors, sorted
    ltl = h.degrees == d
    ltl &= np.all(nbrs[1:] != nbrs[:-1], axis=0) & np.all(nbrs != np.arange(h.n), axis=0)
    step = max(1, _BLOCK_ELEMENTS // max(1, ports.shape[0] * d))
    for lo in range(0, h.n, step):
        first = nbrs[:, lo:lo + step]                                 # (d, B)
        # clip: a sentinel in ``first`` marks a node of degree < d, already False
        second = np.take(ports, first, axis=1, mode="clip").reshape(-1, 1, first.shape[1])
        ltl[lo:lo + step] &= ~(second == first).any(axis=(0, 1))
    return ltl


# ---------------------------------------------------------------------------
# Byzantine placement and classification
# ---------------------------------------------------------------------------


def place_byzantine(n: int, delta: float, seed: int) -> np.ndarray:
    """Pick floor(n^(1-delta)) distinct nodes uniformly at random, sorted.

    delta close to 1 means few Byzantine nodes; delta must lie in (0, 1].
    The protocol-level requirement delta > 3/d is enforced by run
    configuration, not here.
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    count = int(math.floor(n ** (1.0 - delta)))
    rng = stream(seed, "placement")
    picks = rng.choice(n, size=count, replace=False)
    return np.sort(picks.astype(np.int64))


def classify_nodes(topo: Topology, byz, delta: float) -> NodeClassification:
    """Partition nodes into the safety classes used by the analysis.

    Parameters
    ----------
    topo : Topology
    byz : array_like
        The Byzantine placement, as node indices or a length-n boolean mask
        (see ``_placement_mask``).
    delta : float
        Sets the blast radius around bad nodes, G-distance k·a_radius with
        a_radius = ceil(a log2 n), a = delta/(10 k log2(d-1)), clamped to
        >= 1.  The census radius is max(1, floor(log2 n / (10 log2 d))).

    Returns
    -------
    NodeClassification
        Masks byz / ltl / bus plus the derived views nlt, bad and byz_safe.
    """
    h, n, k = topo.h, topo.n, topo.k
    byz_mask = _placement_mask(n, byz)
    tree_radius = default_tree_radius(n, h.d)
    a_radius = default_a_radius(n, h.d, k, delta)
    ltl = census_locally_tree_like(h, tree_radius)
    bad_idx = np.flatnonzero(byz_mask | ~ltl)
    bus = reach_within(h, bad_idx, k * a_radius)
    return NodeClassification(byz=byz_mask, ltl=ltl, bus=bus,
                              a_radius=a_radius, tree_radius=tree_radius)


def _placement_mask(n: int, byz) -> np.ndarray:
    """The (n,) mask of a Byzantine placement ``byz``, given as node
    indices (a repeated index marks its node once) or as a boolean mask
    of length n, which is copied.  A mask of another length, a
    non-integer index or one outside [0, n) is a ``ValueError``, not a
    node counted from the end."""
    byz = np.asarray(byz)
    if byz.dtype == np.bool_:
        if byz.shape != (n,):
            raise ValueError(f"byz: need a boolean mask of length {n}, got shape {byz.shape}")
        return byz.copy()
    if byz.size and byz.dtype.kind not in "iu":
        raise ValueError(f"byz: need node indices or a boolean mask, got dtype {byz.dtype}")
    idx = byz.astype(np.int64)
    if ((idx < 0) | (idx >= n)).any():
        raise ValueError(f"byz: need node indices in [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


def longest_byzantine_chain(h: HMultigraph, byz: np.ndarray, cap: int | None = None) -> int:
    """Length (node count) of the longest simple H-path inside the Byzantine set.

    Exact DFS over the induced subgraph.  With ``cap`` set, the search
    stops as soon as a path of ``cap`` nodes is found and returns ``cap``,
    meaning "at least cap".  Returns 0 for an empty set.  ``byz`` is read
    as ``_placement_mask`` reads a placement: node indices or a mask.
    """
    byz_set = set(np.flatnonzero(_placement_mask(h.n, byz)).tolist())
    if not byz_set:
        return 0
    adj = {
        b: [x for x in set(h.neighbors(b).tolist()) if x in byz_set and x != b]
        for b in byz_set
    }
    best = 1

    def dfs(node: int, visited: set, length: int) -> int:
        nonlocal best
        best = max(best, length)
        if cap is not None and best >= cap:
            return best
        for nxt in adj[node]:
            if nxt not in visited:
                visited.add(nxt)
                dfs(nxt, visited, length + 1)
                visited.discard(nxt)
                if cap is not None and best >= cap:
                    return best
        return best

    for start in byz_set:
        dfs(start, {start}, 1)
        if cap is not None and best >= cap:
            return cap
    return best


def count_parallel_pairs(h: HMultigraph) -> int:
    """Number of unordered parallel edge pairs: sum over vertex pairs of C(mult, 2)."""
    u = np.minimum(h.edges[:, 0], h.edges[:, 1])
    v = np.maximum(h.edges[:, 0], h.edges[:, 1])
    key = u * np.int64(h.n) + v
    _, counts = np.unique(key, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


# ---------------------------------------------------------------------------
# spectral estimate
# ---------------------------------------------------------------------------


def estimate_spectral_gap(
    h: HMultigraph,
    iterations: int = 50_000,
    tol: float = 1e-9,
    seed: int = 0,
) -> SpectralEstimate:
    """Estimate the second adjacency eigenvalue and an expansion lower bound.

    Power iteration runs on A + dI (the shift keeps the spectrum
    non-negative, so the iterate converges to the signed second-largest
    eigenvalue instead of the most negative one) and is deflated against
    the all-ones vector every step.  The estimate is declared converged
    when successive Rayleigh quotients of A agree to within ``tol``;
    otherwise PowerIterationError is raised.

    Returns
    -------
    SpectralEstimate
        lambda2 = |second-largest eigenvalue| and the discrete Cheeger
        bound h_lower = (d - lambda2)/2 on the edge expansion.
    """
    n, d = h.n, h.d
    rng = stream(seed, "spectral")
    x = rng.standard_normal(n)
    x -= x.mean()
    x /= np.linalg.norm(x)
    prev = np.inf
    for it in range(1, iterations + 1):
        z = np.append(x, 0.0)[h.ports].sum(axis=0)  # A·x; the sentinel adds 0
        ray = float(x @ z)
        if abs(ray - prev) <= tol:
            lam = abs(ray)
            return SpectralEstimate(lambda2=lam, h_lower=(d - lam) / 2.0, iterations=it)
        prev = ray
        y = z + d * x
        y -= y.mean()  # deflate against the all-ones eigenvector
        norm = np.linalg.norm(y)
        if norm == 0.0:
            raise PowerIterationError("iterate vanished under deflation")
        x = y / norm
    raise PowerIterationError(
        f"Rayleigh quotient still moving after {iterations} iterations"
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def save_topology(topo: Topology, path: str) -> None:
    """Write the graph file: header ``n d k seed``, then one ``u v label`` line per H-edge."""
    h = topo.h
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{h.n} {h.d} {topo.k} {h.seed}\n")
        for u, v, lab in h.edges:
            fh.write(f"{u} {v} {lab}\n")


def load_topology(path: str) -> Topology:
    """Read a graph file back; the L layer is recomputed, ids re-derived from the seed."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 4:
            raise ValueError("malformed header: expected 'n d k seed'")
        try:
            n, d, k, seed = (int(x) for x in header)
        except ValueError as exc:
            raise ValueError("malformed header: non-integer field") from exc
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"malformed edge line {lineno}")
            try:
                rows.append([int(parts[0]), int(parts[1]), int(parts[2])])
            except ValueError as exc:
                raise ValueError(f"malformed edge line {lineno}") from exc
    h = HMultigraph.from_edges(n=n, d=d, edges=rows, seed=seed)
    return augment_small_world(h, k=k)
