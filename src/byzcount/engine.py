"""Deterministic synchronous round simulator for the counting protocols.

One trial = build the topology, place Byzantine nodes, run setup
(adjacency exchange, reconstruction, crash-on-conflict), then the
phase/subphase/round loops until every honest uncrashed node has decided
or the phase cap is hit.  Messages sent in round t are delivered into
round t+1 inboxes; provenance-verification queries run in fixed
constant-length windows after each flooding round and are charged to the
round count without being simulated as individual messages.

Two interchangeable executors cover every run: a vectorized fast path
and a per-node reference loop.  The fast path has one flood kernel
(``_fast_flood``).  It floods subphases as columns of node-major (n, S)
arrays; each round is one gather through the padded H port matrix and a
max over each node's ports.  The basic protocol floods every subphase of
a phase at once, since they are independent given the phase's active
set; its key is the color.  The hardened protocol floods one subphase, as
one column, with the key color·2^bits + (n − sender), so the same max
also gives the smallest sender of the top color.  The key is the
narrowest of uint8, int32 and int64 that holds every color of the flood.
The hardened protocol adds only its forwarding log, three (i+1, n)
arrays, and a narrow Byzantine correction: only nodes that a sending
Byzantine node, an injected extra or a lie report reaches are looked at,
the best honest item there comes from the same key with Byzantine
senders zeroed, and only the Byzantine items that outrank it are
verified (lie receivers verify every item), by one array walk of their
claimed chains through H's ports and the forwarding log; an item goes
through ``verify_token`` whole only at a receiver with a reconstructed
view or when its walk asks a Byzantine node that a strategy answers
for.  ``_collect_injections`` asks the adversary for every injection
before flooding, each round's sends are counted from H's degrees (they
run along real edges, so none is dropped), and ``_close_subphase``
applies the continuation test, the decision and the fold.  The
reference loop is driven entirely by ``byzantine_node_step`` (the honest
transition for nodes without a policy) plus ``deliver_round``.  Both
consume identical color streams and fold identical per-subphase state
into the transcript hash, so equality of results is testable.  The fold
hands each subphase's rows k_1..k_i, compact and in the flood's dtype,
and a snapshot of ``decided`` to the run's ``_Transcript``: one worker
thread widens the rows to int64 and hashes them while the next flood
runs (small items are hashed inline), so the digest is that of an inline
int64 fold, and the run joins the thread before it returns or raises.
The reference copies one node state per node step and keeps forwarding
logs per subphase, so it grows linearly with run length.  Both executors'
setups patch in only Byzantine reports, scan for conflicts from the lies,
reading the honest side through the liars' real rows, and tally a real H
row only when a view reads it, once per run.  On a 2-core Xeon VM at its
fast speed (the host also runs up to ~1.7x slower), a hardened liar +
max_injector trial takes ~0.06 s at n=128, ~0.3 s at n=512 and ~0.8 s at
n=1024 on the reference (a fifth of it setup), where the fast path takes
~0.02 s; a liar + late_injector trial at 2^16 takes ~0.5 s on the fast
path, ~0.01 s of it setup.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import queue
import struct
import threading
import weakref
from dataclasses import dataclass, field, fields, asdict
from typing import NamedTuple

import numpy as np

from .graph import (
    Topology,
    augment_small_world,
    classify_nodes,
    generate_h_graph,
    place_byzantine,
    _placement_mask,
)
from .protocol import (
    ORIGIN,
    NodeState,
    RoundContext,
    Token,
    TopologyConflict,
    byzantine_node_step,
    claim_table,
    continuation_threshold,
    draw_colors,
    phase_params,
    reconstruct_local_topology,
    verify_color_provenance,
)
from .adversary import TRUTHFUL, make_strategy
from .rng import stream

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunResult",
    "SubphaseTrace",
    "run_experiment",
    "run_trials",
    "deliver_round",
    "honest_estimates",
    "simulate_subphase",
    "write_trial_csv",
    "write_summary_json",
    "NODE_CSV_FIELDS",
]

# one row per node per trial, written by the engine and the baseline alike
NODE_CSV_FIELDS = ("trial", "node_id", "class", "decided", "estimate", "crashed")


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


def _integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# (fields, check, what they need): types are checked before any comparison
_FIELD_TYPES = (
    (("n", "d", "seed", "trials"), _integer, "an integer"),
    (("phase_cap",), lambda x: x is None or _integer(x), "an integer or null"),
    (("delta", "epsilon"), _number, "a number"),
    (("algorithm", "strategy", "engine"),
     lambda x: isinstance(x, str), "a string"),
    (("relax_degree",), lambda x: isinstance(x, bool), "true or false"),
)


@dataclass
class ExperimentConfig:
    """Everything one run needs; defaults match the protocol regime d=8.

    ``algorithm`` selects the undefended ("basic") or hardened
    ("byzantine") protocol; ``strategy`` names the adversary ("none"
    means no Byzantine placement at all).  ``engine`` picks the vectorized
    fast path or the per-node reference loop (results are identical; the
    reference loop is for small n).
    """

    n: int = 1024
    d: int = 8
    delta: float = 0.6
    epsilon: float = 0.1
    seed: int = 0
    algorithm: str = "basic"
    strategy: str = "none"
    strategy_params: dict = field(default_factory=dict)
    phase_cap: int | None = None
    subphase_factor: int | str = 1
    trials: int = 1
    relax_degree: bool = False
    engine: str = "fast"

    def validate(self) -> "ExperimentConfig":
        for names, ok, need in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if not ok(value):
                    raise ConfigError(f"{name}: need {need}, got {value!r}")
        if self.n < 3:
            raise ConfigError("n: need an integer >= 3")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed: need an integer in [0, 2^64), got {self.seed}")
        if self.d < 2 or self.d % 2:
            raise ConfigError("d: need an even integer >= 2")
        if self.d < 8 and not self.relax_degree:
            raise ConfigError("d: protocol runs need d >= 8 (set relax_degree for fixtures)")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon: need 0 < epsilon < 1")
        delta_floor = 3.0 / self.d if not self.relax_degree else 0.0
        if not delta_floor < self.delta <= 1.0:
            raise ConfigError(f"delta: need 3/d = {3.0 / self.d:.3f} < delta <= 1")
        if self.algorithm not in ("basic", "byzantine"):
            raise ConfigError("algorithm: must be 'basic' or 'byzantine'")
        try:
            make_strategy(self.strategy, self.strategy_params)
        except ValueError as exc:
            raise ConfigError(f"strategy: {exc}") from exc
        if self.engine not in ("fast", "reference"):
            raise ConfigError("engine: must be 'fast' or 'reference'")
        if self.phase_cap is not None and self.phase_cap < 1:
            raise ConfigError("phase_cap: must be >= 1")
        if self.trials < 1:
            raise ConfigError("trials: need an integer >= 1")
        sf = self.subphase_factor
        if sf != "phase" and not (_integer(sf) and sf >= 1):
            raise ConfigError("subphase_factor: integer >= 1 or 'phase'")
        return self

    def resolved_phase_cap(self) -> int:
        if self.phase_cap is not None:
            return self.phase_cap
        return max(4, math.ceil(10 * math.log2(self.n)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config: expected a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"config: unknown fields {', '.join(unknown)}")
        return cls(**data).validate()


@dataclass
class _Counters:
    sent: int = 0
    dropped: int = 0          # non-edge or spoofed-sender messages
    queries: int = 0          # provenance queries issued
    rejected: int = 0         # tokens failing verification


def deliver_round(outboxes, topo: Topology, counters: _Counters) -> dict[int, list[Token]]:
    """Move every round-t message into its target's round t+1 inbox.

    Messages with a spoofed sender ID or a target that is not a G-neighbor
    of the sender are dropped and counted; everything else is delivered.
    An H-neighbor other than the sender lies at distance 1 <= k, so in G;
    only targets off the sender's ports need the sender's G-row.
    """
    inboxes: dict[int, list[Token]] = {}
    sent = dropped = 0
    h = topo.h
    for sender, pairs in outboxes.items():
        for dst, tok in pairs:
            sent += 1
            if tok.src == sender and (dst != sender and h.h_adjacent(sender, dst)
                                      or topo.g_adjacent(sender, dst)):
                inboxes.setdefault(dst, []).append(tok)
            else:
                dropped += 1
    counters.sent += sent
    counters.dropped += dropped
    return inboxes


class _TrueView:
    """Adjacency oracle over the real graph, standing in for a faithful
    reconstruction.

    Sound because every chain node a verifier can touch lies within
    B_H(center, k), where a truthful reconstruction agrees edge-for-edge
    with the real graph.
    """

    __slots__ = ("_h", "center", "k")

    def __init__(self, topo: Topology, center: int):
        self._h = topo.h
        self.center = center
        self.k = topo.k

    def h_adjacent(self, a: int, b: int) -> bool:
        return self._h.h_adjacent(a, b)


# bytes that fold input queued and not yet hashed keeps alive, at most
# (one larger item may wait alone): what the fold thread adds to peak RSS.
# 2 MiB was as fast on honest_sweep but raised its peak RSS ~2 MiB, by
# outgrowing setup's peak in the closes of phases with 32 subphases
_FOLD_BACKLOG = 1 << 20
# int64 elements widened per hash update (256 KiB): the widening copy and
# blake2b release the GIL on buffers this size, and each reacquisition
# while the flood holds it costs the flood a thread switch
_FOLD_CHUNK = 1 << 15
# an item that hashes fewer bytes is hashed inline when nothing is queued:
# handing it over costs more than hashing it (a fold of phase i hashes
# (i + 1)·8n bytes, so runs at n <= 256 seldom start the thread)
_FOLD_INLINE = 64 << 10


def _widens(piece) -> bool:
    return isinstance(piece, np.ndarray) and piece.dtype.kind in "iu" and piece.dtype != np.int64


class _Transcript:
    """A run's transcript hash, folded on a second thread.

    ``update`` takes pieces, bytes or compact arrays, to be hashed in
    order, integer arrays as int64, and queues them for one worker thread,
    started by the first item queued; an item smaller than
    ``_FOLD_INLINE`` is hashed inline instead when nothing is queued.
    Narrower integer arrays are widened in chunks into one buffer, so the
    digest is the one inline int64 updates give.  Queued pieces stay alive
    until hashed, so ``update`` waits while those queued before it keep
    more than ``_FOLD_BACKLOG`` bytes alive.  ``hexdigest`` drains the
    queue and joins the thread; ``stop`` only queues the end marker, and
    ``close`` also joins.
    """

    def __init__(self):
        self._hasher = hashlib.blake2b(digest_size=16)
        self._buf: np.ndarray | None = None  # allocated with the thread
        self._room = threading.Condition(threading.Lock())
        self._queued = 0   # items queued and not yet hashed
        self._backlog = 0  # the bytes they keep alive
        self._queue: queue.SimpleQueue | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    def update(self, *pieces, held: int | None = None) -> None:
        """Hash ``pieces`` after everything before them; ``held`` is the
        bytes they keep alive until hashed, by default all of theirs."""
        if held is None:
            held = sum(memoryview(p).nbytes for p in pieces)
        with self._room:
            inline = not self._queued and sum(
                p.size * 8 if _widens(p) else memoryview(p).nbytes for p in pieces) < _FOLD_INLINE
            if not inline:
                self._room.wait_for(lambda: not self._queued
                                    or self._backlog + held <= _FOLD_BACKLOG)
                self._queued += 1
                self._backlog += held
        if inline:
            self._hash(pieces)  # the thread, if any, is idle
            return
        if self._thread is None:
            self._queue = queue.SimpleQueue()  # a fresh one: no end marker left over
            if self._buf is None:
                self._buf = np.empty(_FOLD_CHUNK, dtype=np.int64)
            self._thread = threading.Thread(target=self._work, args=(self._queue,),
                                            name="byzcount-fold", daemon=True)
            self._thread.start()
        self._queue.put((pieces, held))

    def _hash(self, pieces) -> None:
        for p in pieces:
            if not _widens(p):
                self._hasher.update(p)
                continue
            if self._buf is None:  # inline before any thread: small, widened at once
                self._hasher.update(p.astype(np.int64))
                continue
            p = p.reshape(-1)
            for a in range(0, p.size, _FOLD_CHUNK):
                out = self._buf[:min(p.size - a, _FOLD_CHUNK)]
                np.copyto(out, p[a:a + out.size])
                self._hasher.update(out)

    def _work(self, items: queue.SimpleQueue) -> None:
        while (item := items.get()) is not None:
            pieces, held = item
            try:
                self._hash(pieces)
            except BaseException as exc:  # raised again by hexdigest
                self._error = self._error or exc
            with self._room:
                self._queued -= 1
                self._backlog -= held
                self._room.notify()

    def stop(self) -> threading.Thread | None:
        """Queue the end marker; the thread ends once it has hashed what
        was queued before it.  Returns the thread, if one was running."""
        thread, self._thread = self._thread, None
        if thread is not None:
            self._queue.put(None)
        return thread

    def close(self) -> None:
        if (thread := self.stop()) is not None:
            thread.join()

    def hexdigest(self) -> str:
        self.close()
        if self._error is not None:
            raise self._error
        return self._hasher.hexdigest()


def _trial_seed(seed: int, trial: int) -> int:
    return int(stream(seed, "trial", trial).integers(0, 2**63 - 1))


class _Run:
    """Mutable per-trial state shared by both executors."""

    def __init__(self, cfg: ExperimentConfig, trial: int,
                 topo: Topology | None = None,
                 byz: np.ndarray | None = None):
        cfg.validate()
        self.cfg = cfg
        self.trial = trial
        self.tseed = _trial_seed(cfg.seed, trial)
        if topo is None:
            h = generate_h_graph(cfg.n, cfg.d, seed=self.tseed)
            topo = augment_small_world(h)
        elif (topo.n, topo.h.d) != (cfg.n, cfg.d):
            raise ConfigError(f"topo: has (n, d) = ({topo.n}, {topo.h.d}), "
                              f"config asks ({cfg.n}, {cfg.d})")
        self.topo = topo
        self.n = topo.h.n
        self.d = topo.h.d
        self.k = topo.k

        if byz is None and cfg.strategy != "none":
            byz = place_byzantine(self.n, cfg.delta, seed=self.tseed)
        try:
            self.byz_mask = _placement_mask(self.n, () if byz is None else byz)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.byz_nodes = np.flatnonzero(self.byz_mask)  # sorted, each node once

        self.strategy = make_strategy(cfg.strategy, cfg.strategy_params)
        self.adv_rng = stream(cfg.seed, "adversary", trial)
        if self.strategy is not None:
            self.strategy.prepare(self)
        self.suppressed = np.zeros(self.n, dtype=bool)
        if self.strategy is not None and self.strategy.suppress_sends:
            self.suppressed[self.byz_nodes] = True

        self.counters = _Counters()
        self.crashed = np.zeros(self.n, dtype=bool)
        self.views: dict[int, object] = {}
        self.lie_rx_set: set[int] = set()
        self.active = np.ones(self.n, dtype=bool)
        self.decided = np.zeros(self.n, dtype=np.int64)
        self.phase_continue = np.zeros(self.n, dtype=bool)
        self.rounds_total = 0
        self.per_phase: list[dict] = []
        self.transcript = _Transcript()
        # a run dropped without its digest still ends its fold thread
        weakref.finalize(self, self.transcript.stop)
        self._decided_folded = self.decided.copy()
        self.states: dict[int, NodeState] | None = None

        self.classification = classify_nodes(topo, self.byz_mask, delta=cfg.delta)

    # -- color streams ---------------------------------------------------

    def colors(self, phase: int, subphase: int) -> np.ndarray:
        return draw_colors(stream(self.cfg.seed, "colors", self.trial, phase, subphase),
                           self.n)

    # -- setup ----------------------------------------------------------

    def truthful_report(self, v: int) -> tuple[int, ...]:
        return tuple(self.topo.h.neighbors(v).tolist())

    def run_setup(self, full: bool) -> None:
        """One round of adjacency-list exchange; reconstruction and crashes.

        ``full`` reconstructs every node's view (reference executor).
        Otherwise only two kinds of receiver are reconstructed: receivers
        of untruthful reports, and the G-neighbours of every reporting node
        of degree other than d, whose truthful report fails the length-d
        check, so reconstruction crashes its honest hearers.  Everyone else
        keeps a faithful stand-in view, which is exact because truthful
        reports of length d always reconstruct faithfully.

        A receiver's holders start as itself and its G-row, all trusted;
        only its Byzantine senders are then asked for a ``setup_report``.
        A lie becomes that sender's table, a silent strategy drops the
        sender, and either way the sender leaves ``trusted``.  A trusted
        holder sent its real H row, so its length is its H degree and
        only lies are summed for the length-d check, and the conflict
        scan reads its side of a pair with a liar through the liar's real
        row: a receiver that crashes builds no table for a trusted report
        (in a 2^16 liar run the 84 lie receivers hear 38,182 reports from
        28,995 senders and all crash).  One that keeps a view reads the
        trusted rows its ball reaches through ``h_row``, which tallies a
        real row when it is first read and shares it by reference with
        every later receiver and view, so the many views a broadcast lie
        leaves hold each row once.
        """
        cfg = self.cfg
        self.counters.sent += int(np.diff(self.topo.l_ptr)[~self.suppressed].sum())
        if cfg.algorithm != "byzantine":
            return
        if self.strategy is not None:
            self.lie_rx_set = {int(v) for v in self.strategy.lie_receivers()
                               if not self.byz_mask[v]}
        silent = self.strategy is not None and not self.strategy.sends_reports
        odd = (self.topo.h.degrees != self.d) & ~(self.byz_mask & silent)
        receivers = set(range(self.n)) if full else set(self.lie_rx_set)
        for u in np.flatnonzero(odd):
            receivers.update(self.topo.l_neighbors(u).tolist())
        rows: dict[int, dict[int, int]] = {}

        def h_row(u: int) -> dict[int, int]:
            if not 0 <= u < self.n:
                return {}  # a phantom id: no real row names it
            if (table := rows.get(u)) is None:
                table = rows[u] = claim_table(self.truthful_report(u))
            return table

        ask = self.byz_mask & (self.strategy is not None)
        for v in sorted(receivers):
            row = self.topo.l_neighbors(v)
            trusted = {v, *row.tolist()}
            lies = {}
            for u in row[ask[row]].tolist():
                if not silent:
                    rep = self.strategy.setup_report(u, v)
                    if rep is None:
                        continue
                    lies[u] = claim_table(rep)
                trusted.remove(u)
            # a trusted report is a real H row, as long as its sender's degree
            short = any(u in trusted for u in row[odd[row]].tolist())
            res = None if short else reconstruct_local_topology(
                v, h_row(v), lies, self.k, expected_degree=self.d, trusted=trusted,
                h_row=h_row)
            if res is None or isinstance(res, TopologyConflict):
                if not self.byz_mask[v]:
                    self.crashed[v] = True
            else:
                self.views[v] = res
        self.lie_rx_set = {v for v in self.lie_rx_set if not self.crashed[v]}
        self.transcript.update(b"setup", self.crashed.copy())

    # -- verification ----------------------------------------------------

    def verify_token(self, receiver: int, tok: Token,
                     phase: int, subphase: int, get_log) -> bool:
        def query(target: int, color: int, r: int):
            self.counters.queries += 1
            if not (0 <= target < self.n):
                return None  # phantom identifiers answer nothing
            if self.crashed[target]:
                return None
            if self.byz_mask[target] and self.strategy is not None:
                ans = self.strategy.answer_query(
                    int(target), int(receiver), int(color), phase, subphase, int(r))
                if ans is not TRUTHFUL:
                    return ans
            entry = get_log(int(target), int(r))
            if entry is None:
                return None
            sent_color, sent_pred = entry
            return sent_pred if sent_color == color else None

        view = self.views.get(receiver)
        if view is None:
            view = _TrueView(self.topo, receiver)
        return verify_color_provenance(view, tok, query)

    def fold(self, phase: int, subphase: int, k_rows: np.ndarray) -> None:
        """Queue (phase, subphase), rows k_1..k_i of the (i+1, n)
        ``k_rows``, hashed as int64, and ``decided``; subphases that left
        ``decided`` as it was share one snapshot.  Compact rows are queued
        as they are, so callers hand over arrays they no longer change;
        strided ones are copied, so no view keeps a larger base alive."""
        rows = np.ascontiguousarray(k_rows[1:])
        held = rows.nbytes
        if not np.array_equal(self._decided_folded, self.decided):
            self._decided_folded = self.decided.copy()
            held += self._decided_folded.nbytes
        self.transcript.update(struct.pack("<qq", phase, subphase), rows,
                               self._decided_folded, held=held)


# ---------------------------------------------------------------------------
# fast executor
# ---------------------------------------------------------------------------


def _key_dtype(n: int, bits: int, colors: np.ndarray, injected) -> type:
    """The flood key's dtype for round-1 ``colors`` (none negative) and
    ``injected`` colors, where a key is color·2^bits + (n − sender), the
    sender term only when bits > 0 (see ``_fast_flood``): uint8 when no
    injected color is negative and every key is below 2^8, int32 below
    2^31, else int64.  Colors too large even for int64 are a
    ``ConfigError``."""
    top = max(int(colors.max(initial=0)), *map(abs, injected), 0)
    limit = 2**(63 - bits) - 1
    if top >= limit:
        raise ConfigError(f"colors: need |color| < {limit} at n={n}")
    key = top * 2**bits + (n if bits else 0)
    if key < 2**8 and min(injected, default=0) >= 0:
        return np.uint8
    return np.int32 if key < 2**31 else np.int64


class _Masks(NamedTuple):
    """What ``_correct_round`` reads of a subphase's fixed state, built once."""

    proc: np.ndarray       # (n,) nodes that process: neither crashed nor suppressed
    byz: np.ndarray        # (n + 1,) Byzantine nodes, False at the sentinel
    lie: np.ndarray        # (n,) lie receivers
    lie_nodes: np.ndarray  # the lie receivers, sorted


def _subphase_masks(run: _Run) -> _Masks:
    lie_nodes = np.array(sorted(run.lie_rx_set), dtype=np.intp)
    lie = np.zeros(run.n, dtype=bool)
    lie[lie_nodes] = True
    return _Masks(~run.crashed & ~run.suppressed, np.append(run.byz_mask, False),
                  lie, lie_nodes)


def _verify_items(run: _Run, log: _ForwardingLog, hop: int, v: np.ndarray,
                  c: np.ndarray, s: np.ndarray, p: np.ndarray):
    """(verdict, queries) of each item received by ``v`` with color ``c``
    from sender ``s`` naming pred ``p``, sent in round ``hop`` of the
    log's subphase: what ``verify_token`` gives each, and charges none.

    The claimed chains are walked back together, as arrays, one step per
    round r, exactly as ``verify_color_provenance`` walks one for a
    ``_TrueView``: a hop must be an H-edge (a pred outside [0, n) is
    none), a crashed target answers None and an honest one answers from
    the log at round r.  Two kinds of item go through ``verify_token``
    whole, with its queries counted and taken back: items at a receiver
    with a view, and items whose walk reaches a Byzantine target while a
    strategy answers for it.
    """
    n, ports = run.n, run.topo.h.ports
    c, p = c.astype(np.int64, copy=False), p.astype(np.int64, copy=False)
    ok = (c >= 1) & (ports[:, v] == s).any(axis=0) & ((p == ORIGIN) == (hop == 1))
    nq = np.zeros(v.size, dtype=np.int64)
    scalar = np.isin(v, list(run.views)) if run.views else np.zeros(v.size, dtype=bool)
    walk = np.flatnonzero(ok & ~scalar)
    prev, pred = s[walk], p[walk]
    answers = run.strategy is not None  # else Byzantine targets answer from the log
    for r in range(hop - 1, hop - min(hop, run.k), -1):
        # ORIGIN and phantoms are no H-neighbour; the port padding n is none either
        edge = (pred >= 0) & (pred < n)
        edge[edge] = (ports[:, prev[edge]] == pred[edge]).any(axis=0)
        ok[walk[~edge]] = False
        walk, prev = walk[edge], pred[edge]
        nq[walk] += 1
        if answers:
            byz = run.byz_mask[prev] & ~run.crashed[prev]
            scalar[walk[byz]] = True
            walk, prev = walk[~byz], prev[~byz]
        pred = log.pred[r, prev]
        good = (~run.crashed[prev] & log.send[r, prev]
                & (log.color[r, prev].astype(np.int64) == c[walk])
                & ((pred == ORIGIN) == (r == 1)))
        ok[walk[~good]] = False
        walk, prev, pred = walk[good], prev[good], pred[good]
        if not walk.size:
            break
    cnt = run.counters
    for x in np.flatnonzero(scalar).tolist():
        tok = Token(color=int(c[x]), phase=log.phase, subphase=log.subphase, hop=hop,
                    src=int(s[x]), pred=int(p[x]))
        before = cnt.queries
        ok[x] = run.verify_token(int(v[x]), tok, log.phase, log.subphase, log.get)
        nq[x], cnt.queries = cnt.queries - before, before
    return ok, nq


def _correct_round(run: _Run, hop: int, key: np.ndarray, recv_col: np.ndarray,
                   recv_src: np.ndarray, log: _ForwardingLog, ext: np.ndarray,
                   masks: _Masks) -> None:
    """Verification in one round of the hardened fast path, in place.

    ``recv_col``/``recv_src`` hold each node's gathered top color and its
    smallest sender, decoded from ``key``; ``log`` holds the round's
    sends at row ``hop``, its mask with a False sentinel entry n, and
    ``ext`` its injected extras as rows (sender, target, color, pred).  A
    node that no sending Byzantine node, extra or lie report touches
    keeps them and pays the query window min(hop, k) − 1 if it receives
    anything.  At a touched node the key with Byzantine senders zeroed
    gives the best honest item; the Byzantine items that outrank it, in
    the (−color, sender) order with ports before extras on ties, are the
    candidates (lie receivers take every item).  ``_verify_items`` walks
    every candidate's chain at once, and each node consumes its
    candidates in order up to the first that passes, paying the queries
    of each it consumes and a rejection for each that fails: the winner,
    else the honest item at the query window's cost.
    """
    n, ports, cnt = run.n, run.topo.h.ports, run.counters
    bits = n.bit_length()
    sending, send_color, send_pred = log.row(hop)
    wl = min(hop, run.k) - 1
    byz_senders = run.byz_nodes[sending[run.byz_nodes]]
    # H is symmetric with multiplicity: b is on v's ports iff v is on b's
    touched = np.unique(np.concatenate([masks.lie_nodes, ports[:, byz_senders].ravel(), ext[1]]))
    touched = touched[:np.searchsorted(touched, n)]  # drop the sentinel
    untouched_got = np.count_nonzero(recv_col >= 1) - np.count_nonzero(recv_col[touched] >= 1)
    cnt.queries += wl * int(untouched_got)
    hot = touched[masks.proc[touched]]
    if not hot.size:
        return
    pm = ports[:, hot]
    kp, spm = key[pm], sending[pm]
    isb = spm & masks.byz[pm]
    full = masks.lie[hot]
    # the best honest item's key; 0 if there is none or every item is verified
    hk = np.where(isb | full, 0, kp).max(axis=0)
    q, r = np.nonzero((full & spm | isb & ((kp > hk) | (hk == 0))).T)
    srcs = pm[r, q]
    e = np.flatnonzero(masks.proc[ext[1]])
    eq = np.searchsorted(hot, ext[1, e])
    keep = full[eq] | (hk[eq] == 0) | (ext[2, e] * (1 << bits) + n - ext[0, e] > hk[eq])
    e, eq = e[keep], eq[keep]
    items = (np.concatenate([q, eq]), np.concatenate([send_color[srcs], ext[2, e]]),
             np.concatenate([srcs, ext[0, e]]), np.concatenate([send_pred[srcs], ext[3, e]]))
    order = np.lexsort((items[2], -items[1], items[0]))  # stable: ports first
    x, c, s, p = (a[order] for a in items)
    col, src = hk >> bits, n - (hk & ((1 << bits) - 1))
    done = np.zeros(hot.size, dtype=bool)
    if x.size:
        ok, nq = _verify_items(run, log, hop, hot[x], c, s, p)
        starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
        # per node, its first passing candidate, else x.size
        first = np.minimum.reduceat(np.where(ok, np.arange(x.size), x.size), starts)
        ends = np.r_[starts[1:], x.size]
        last = np.minimum(first, ends - 1)
        consumed = np.arange(x.size) <= np.repeat(last, ends - starts)
        cnt.queries += int(nq[consumed].sum())
        cnt.rejected += int(np.count_nonzero(consumed & ~ok))
        w = first[first < ends]
        col[x[w]], src[x[w]], done[x[w]] = c[w], s[w], True
    cnt.queries += wl * int(((hk > 0) & ~done).sum())
    recv_col[hot] = col
    recv_src[hot] = src


def _collect_injections(run: _Run, i: int, subphases: list[int], threshold: float,
                        last: bool):
    """Every injection of phase i's ``subphases``, asked for before any
    flooding: the fast path's one call site of ``injections_for``.

    Non-suppressed Byzantine nodes are asked in node order, subphase by
    subphase and round by round, as the reference's node steps ask;
    ``last`` marks the phase's last subphase as ``subphases[-1]``.  Returns
    (replaces, extras), lists of rows keyed by round t:
    ``replaces[t]`` holds (b, j, color, pred) that b broadcasts in round t
    of subphase j instead of its own state, and ``extras[t]`` holds
    (v, j, color, pred, b) that v receives from b in round t.  An extra
    injected in round i + 1 is counted, then dropped.
    """
    replaces: dict[int, list[tuple[int, ...]]] = {}
    extras: dict[int, list[tuple[int, ...]]] = {}
    if run.strategy is None:
        return replaces, extras
    senders = [b for b in run.byz_nodes.tolist() if not run.suppressed[b]]
    for j in subphases:
        for t in range(1, i + 2):
            ctx = RoundContext(phase=i, subphase=j, t=t, flood_rounds=i, threshold=threshold,
                               last_subphase=last and j == subphases[-1])
            for b in senders:
                for inj in run.strategy.injections_for(b, ctx):
                    c, p = int(inj.color), int(inj.pred)
                    if inj.replace:
                        replaces.setdefault(t, []).append((b, j, c, p))
                    else:
                        extras.setdefault(t + 1, []).extend(
                            (v, j, c, p, b) for v in _delivered_extras(run, b, inj))
    return replaces, extras


def _delivered_extras(run: _Run, b: int, inj) -> list[int]:
    """Count Byzantine node ``b``'s extra ``inj`` as sent; return the
    targets it reaches (G-neighbours of ``b``), counting the rest dropped.
    The default targets are ``b``'s H-ports, and as in ``deliver_round``
    an H-neighbour other than ``b`` is a G-neighbour."""
    if inj.targets is None:
        targets = run.truthful_report(b)
        hit = [dst for dst in targets if dst != b or run.topo.g_adjacent(b, b)]
    else:
        targets = inj.targets
        hit = [int(dst) for dst in targets if run.topo.g_adjacent(b, int(dst))]
    run.counters.sent += len(targets)
    run.counters.dropped += len(targets) - len(hit)
    return hit


def _close_subphase(run: _Run, i: int, j: int, last: bool, k_rows: np.ndarray,
                    threshold: float) -> None:
    """End subphase (i, j) from its (i+1, n) ``k_rows``, in the flood's
    dtype (the values are exact, so no int64 copy): OR the continuation
    test into ``phase_continue``, decide at the ``last`` subphase of the
    phase, then fold."""
    elig = run.active & ~run.crashed & ~run.suppressed
    prev = k_rows[1:i].max(axis=0) if i >= 2 else 0
    run.phase_continue |= elig & (k_rows[i] > prev) & (k_rows[i] > threshold)
    if last:
        dec = elig & ~run.phase_continue
        run.decided[dec] = i
        run.active[dec] = False
        run.phase_continue[:] = False
    run.fold(i, j, k_rows)


class _ForwardingLog:
    """What every node sent in each round of hardened subphase (i, j), as
    three (i+1, n) arrays; row t holds round t's send mask, color and
    pred as sent after its replaces (the pred only where the node sends)."""

    def __init__(self, i: int, j: int, n: int, dtype):
        self.phase, self.subphase = i, j
        self.send = np.zeros((i + 1, n + 1), dtype=bool)  # column n stays False under the sentinel ports
        self.color = np.zeros((i + 1, n), dtype=dtype)
        self.pred = np.full((i + 1, n), ORIGIN, dtype=np.int64)  # injected preds may be phantom ids

    def record(self, t: int, send: np.ndarray, color: np.ndarray,
               pred: np.ndarray | None, replaces) -> None:
        self.send[t, :-1] = send
        self.color[t] = color
        if pred is not None:
            self.pred[t] = pred
        for b, _, c, p in replaces:  # a replaced color below 1 is logged as sent
            self.color[t, b], self.pred[t, b] = c, p

    def row(self, t: int):
        return self.send[t], self.color[t], self.pred[t]

    def get(self, target: int, r: int):
        if not self.send[r, target]:
            return None
        return int(self.color[r, target]), int(self.pred[r, target])


def _fast_flood(run: _Run, i: int, js: list[int], last: bool, threshold: float,
                colors: np.ndarray | None = None) -> np.ndarray:
    """Subphases ``js`` of phase i on the vectorized path, one column each;
    returns k_rows as (i+1, n, S).

    The subphases are independent given the phase's active set, so the
    basic protocol floods a whole phase as node-major (n, S) arrays; the
    hardened one floods one subphase, as one column.  ``colors`` (n, S)
    are scripted; by default column j is the draw of stream (i, js[j]).
    Each round gathers the key through the H port matrix and takes the
    per-node max: one ``np.take`` over all ports for one column, one per
    port row otherwise.  The basic key is the color.  The hardened key is
    color·2^bits + (n − sender), with 2^bits > n, so the same max also
    names the smallest sender of the top color (0 stands for no sender, a
    color below 1 and the sentinel); it adds a ``_ForwardingLog`` and
    ``_correct_round``, which verifies the Byzantine items at the nodes
    they reach, including every processing target of an extra.  The basic
    protocol maxes its extras in unverified.  The injections are
    collected first, so the key is the narrowest of uint8, int32 and
    int64 that holds every color of the flood (``_key_dtype``), on the
    same code path.  ``best`` holds each node's top color so far, a
    replaced color clipped at 0, and equals the color it last sent, so a
    node sends exactly when its gathered top beats it.  As in
    ``honest_node_step``, a round-1 color below 1 (only scripts give one)
    originates nothing.  The buffers are freed before the subphases are
    closed in order, each from a compact copy of its column, the last one
    deciding if ``last``.
    """
    n, S = run.n, len(js)
    ports, degrees = run.topo.h.ports, run.topo.h.degrees
    replaces, extras = _collect_injections(run, i, js, threshold, last)
    masks = _subphase_masks(run)
    idle = np.flatnonzero(~masks.proc)
    bits = n.bit_length() if run.cfg.algorithm == "byzantine" else 0
    injected = [row[2] for rows in (*replaces.values(), *extras.values()) for row in rows]
    live = masks.proc & run.active
    best = np.zeros((n, S), dtype=np.uint8)
    for col, j in enumerate(js):  # column by column: an int64 (n, S) copy costs peak RSS
        c = run.colors(i, j) if colors is None else colors[:, col]
        c = np.where(live & (c >= 1), c, 0)  # a drawn column stays uint8
        best = best.astype(np.promote_types(best.dtype, _key_dtype(n, bits, c, injected)),
                           copy=False)
        best[:, col] = c
    dtype, send = best.dtype, best > 0
    # extras as rows (sender, target, color, pred, column), keyed by the round they arrive
    ext, no_ext = {}, np.zeros((5, 0), dtype=np.int64)
    for t, rows in extras.items():
        ext[t] = np.array(rows, dtype=np.int64).reshape(-1, 5)[:, [4, 0, 2, 3, 1]].T
        ext[t][4] -= js[0]

    k_rows = np.zeros((i + 1, n, S), dtype=dtype)
    k_rows[1] = best
    key = np.zeros((n + 1, S), dtype=dtype)  # row n stays 0 under the sentinel ports
    top = np.empty((n, S), dtype=dtype)
    buf = np.empty((ports.shape[0], n) if S == 1 else (n, S), dtype=dtype)
    log = None
    if bits:
        log = _ForwardingLog(i, js[0], n, dtype)
        low = (1 << bits) - 1
        rank = np.arange(n, 0, -1, dtype=dtype)[:, None]
        recv_src, pos = np.empty(n, dtype=dtype), np.empty((n, 1), dtype=bool)

    for t in range(1, i + 2):
        if t > 1:
            if S == 1:
                np.take(key[:, 0], ports, out=buf, mode="clip")
                np.max(buf, axis=0, out=top[:, 0])
            else:
                np.take(key, ports[0], axis=0, out=top, mode="clip")
                for row in ports[1:]:
                    np.take(key, row, axis=0, out=buf, mode="clip")
                    np.maximum(top, buf, out=top)
            if log is None:
                if t in ext:
                    np.maximum.at(top, (ext[t][1], ext[t][4]), ext[t][2].astype(dtype))
                top[idle] = 0
            else:
                recv = top[:, 0]
                np.bitwise_and(recv, low, out=recv_src)
                np.subtract(n, recv_src, out=recv_src)
                np.right_shift(recv, bits, out=recv)
                recv[idle] = 0
                _correct_round(run, t - 1, key[:, 0], recv, recv_src, log,
                               ext.get(t, no_ext)[:4], masks)
                np.maximum(recv, 0, out=recv)  # a verified extra may carry a color below 1
            np.maximum(k_rows[t - 1], top, out=k_rows[t - 1])
            np.greater(top, best, out=send)
            np.maximum(best, top, out=best)
        for b, j, c, _ in replaces.get(t, ()):
            col = j - js[0]
            send[b, col], best[b, col] = True, max(c, 0)
            k_rows[1 if t == 1 else t - 1, b, col] = c
        if t <= i:
            np.multiply(best, send, out=key[:n])
            if log is not None:
                log.record(t, send[:, 0], best[:, 0], recv_src if t > 1 else None,
                           replaces.get(t, ()))
                np.greater(key[:n], 0, out=pos)
                key[:n] <<= bits
                key[:n] |= rank
                key[:n] *= pos
            run.counters.sent += int(degrees @ send.sum(axis=1))  # along real edges: none dropped

    del key, top, buf, best, send, log  # before the closes' column copies, for peak RSS
    for col, j in enumerate(js):
        # compact: a fast continuation test, and the fold keeps only this column alive
        _close_subphase(run, i, j, last and j == js[-1],
                        np.ascontiguousarray(k_rows[:, :, col]), threshold)
    return k_rows


# ---------------------------------------------------------------------------
# reference executor
# ---------------------------------------------------------------------------


def _init_states(run: _Run) -> dict[int, NodeState]:
    return {v: NodeState(node=v, ports=run.truthful_report(v), crashed=bool(run.crashed[v]))
            for v in range(run.n)}


def _reference_subphase(run: _Run, i: int, j: int, last: bool,
                        colors: np.ndarray, threshold: float) -> np.ndarray:
    states = run.states
    assert states is not None

    def get_log(target: int, r: int):
        return states[target].fwd_log.get((i, j, r))

    verify_cb = None
    if run.cfg.algorithm == "byzantine":
        def verify_cb(node: int, tok: Token) -> bool:
            return run.verify_token(node, tok, i, j, get_log)

    common = dict(phase=i, subphase=j, flood_rounds=i, threshold=threshold,
                  last_subphase=last, verify=verify_cb)
    policies = [run.strategy if b else None for b in run.byz_mask.tolist()]
    inboxes: dict[int, list[Token]] = {}
    for t in range(1, i + 2):
        outboxes: dict[int, list[tuple[int, Token]]] = {}
        # only round 1 reads a node's own color
        ctxs = ([RoundContext(t=1, own_color=c, **common) for c in colors.tolist()]
                if t == 1 else [RoundContext(t=t, **common)] * run.n)
        for v, ctx in enumerate(ctxs):
            nst, out = byzantine_node_step(states[v], inboxes.get(v, ()), ctx,
                                           policies[v])
            states[v] = nst
            if out:
                outboxes[v] = out
        inboxes = deliver_round(outboxes, run.topo, run.counters)

    k_rows = np.zeros((i + 1, n_ := run.n), dtype=np.int64)
    rejected = 0
    for v in range(n_):
        kv = states[v].k_values
        for r in range(1, i + 1):
            k_rows[r, v] = kv.get(r, 0)
        st = states[v]
        run.decided[v] = st.decided if st.decided is not None else 0
        run.active[v] = st.active
        rejected += st.rejected
    # per-node tallies are cumulative across subphases, so overwrite
    run.counters.rejected = rejected
    run.fold(i, j, k_rows)
    return k_rows


# ---------------------------------------------------------------------------
# run driver and result record
# ---------------------------------------------------------------------------


def honest_estimates(byz: np.ndarray, crashed: np.ndarray,
                     decided: np.ndarray) -> tuple[int, np.ndarray]:
    """The rule every report counts by: the number of honest, uncrashed
    nodes and the estimates of those among them that decided."""
    alive = ~byz & ~crashed
    est = decided[alive]
    return int(alive.sum()), est[est > 0]


@dataclass(eq=False)
class RunResult:
    """Everything measured in one trial; every reported figure derives
    from these arrays."""

    config: dict
    trial: int
    trial_seed: int
    node_ids: np.ndarray
    class_labels: np.ndarray
    decided: np.ndarray          # 0 = no decision
    crashed: np.ndarray
    byz_mask: np.ndarray
    capped: bool
    rounds_total: int
    messages_sent: int
    messages_dropped: int
    queries_total: int
    tokens_rejected: int
    per_phase: list
    transcript_hash: str

    @property
    def messages_delivered(self) -> int:
        return self.messages_sent - self.messages_dropped

    def _counted(self) -> tuple[int, np.ndarray]:
        return honest_estimates(self.byz_mask, self.crashed, self.decided)

    @property
    def estimates(self) -> np.ndarray:
        """Estimates of the honest, uncrashed nodes that decided."""
        return self._counted()[1]

    @property
    def decided_fraction(self) -> float:
        alive, est = self._counted()
        return est.size / alive if alive else 0.0

    @property
    def crashed_honest(self) -> int:
        return int((~self.byz_mask & self.crashed).sum())

    @property
    def non_deciders(self) -> int:
        alive, est = self._counted()
        return alive - est.size

    def to_summary(self) -> dict:
        est = self.estimates
        safe_alive, safe_est = honest_estimates(self.class_labels != "byz_safe",
                                                self.crashed, self.decided)
        return {
            "protocol": self.config.get("algorithm"),
            "trial": self.trial,
            "trial_seed": self.trial_seed,
            "config": self.config,
            "decided_fraction": self.decided_fraction,
            "median_estimate": float(np.median(est)) if est.size else None,
            "byz_safe_decided_fraction": (safe_est.size / safe_alive
                                          if safe_alive else None),
            "byz_safe_median_estimate": (float(np.median(safe_est))
                                         if safe_est.size else None),
            "crashed_honest": self.crashed_honest,
            "non_deciders": self.non_deciders,
            "capped": self.capped,
            "rounds_total": self.rounds_total,
            "rounds_setup": 1,  # the one round of adjacency-list exchange
            "messages_total": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "queries_total": self.queries_total,
            "tokens_rejected": self.tokens_rejected,
            "per_phase": self.per_phase,
            "transcript_hash": self.transcript_hash,
        }


def _run_phases(run: _Run) -> bool:
    """Setup, then phases until every honest uncrashed node has decided
    or the phase cap is hit, then the counters fold; returns whether the
    cap was hit."""
    cfg = run.cfg
    reference = cfg.engine == "reference"
    run.run_setup(full=reference)
    if reference:
        run.states = _init_states(run)
    # verification runs in a fixed window after each flooding round, one
    # query step and one answer step per chain depth 1..k-1, however many
    # queries run (no timing side channel)
    overhead = 2 * (run.k - 1) if cfg.algorithm == "byzantine" else 0
    cap = cfg.resolved_phase_cap()
    capped = False
    i = 1
    while True:
        honest_active = run.active & ~run.byz_mask & ~run.crashed
        if not honest_active.any():
            break
        if i > cap:
            capped = True
            break
        pp = phase_params(i, cfg.epsilon, cfg.d, cfg.subphase_factor)
        before = (run.counters.sent, run.counters.queries)
        decided_before = int((run.decided > 0).sum())
        S = pp.subphases
        if reference:
            for j in range(1, S + 1):
                _reference_subphase(run, i, j, j == S, run.colors(i, j), pp.threshold)
        else:
            # the basic protocol floods a whole phase as columns, the hardened one a subphase
            width = 1 if cfg.algorithm == "byzantine" else S
            for j in range(1, S + 1, width):
                _fast_flood(run, i, list(range(j, j + width)), j + width > S, pp.threshold)
        phase_rounds = pp.subphases * (i + i * overhead)
        run.rounds_total += phase_rounds
        run.per_phase.append({
            "phase": i,
            "subphases": pp.subphases,
            "rounds": phase_rounds,
            "messages": run.counters.sent - before[0],
            "queries": run.counters.queries - before[1],
            "deciders": int((run.decided > 0).sum()) - decided_before,
        })
        i += 1

    run.transcript.update(struct.pack("<qqq", run.counters.sent,
                                      run.counters.queries, run.counters.rejected))
    return capped


def run_experiment(cfg: ExperimentConfig, trial: int = 0,
                   topo: Topology | None = None,
                   byz: np.ndarray | None = None) -> RunResult:
    """Execute one trial of the configured experiment, deterministically.

    ``topo``/``byz`` may be supplied to reuse a prebuilt topology or a
    fixed placement (fixtures); by default both derive from the trial
    seed.  ``byz`` holds node indices or a length-n boolean mask; a
    ``topo`` whose n or d differs from ``cfg``'s, a ``byz`` index outside
    [0, n) or a mask of another length raises ``ConfigError``.
    """
    run = _Run(cfg, trial, topo=topo, byz=byz)
    try:
        capped = _run_phases(run)
        digest = run.transcript.hexdigest()
    finally:
        run.transcript.close()  # also when the run raised: no fold thread outlives it
    cnt, cls = run.counters, run.classification
    return RunResult(
        config=cfg.to_dict(), trial=trial, trial_seed=run.tseed,
        node_ids=run.topo.h.ids,
        class_labels=np.where(run.byz_mask, "byz", np.where(cls.bus, "bus", "byz_safe")),
        decided=run.decided, crashed=run.crashed, byz_mask=run.byz_mask,
        capped=capped, rounds_total=run.rounds_total,
        messages_sent=cnt.sent, messages_dropped=cnt.dropped, queries_total=cnt.queries,
        tokens_rejected=cnt.rejected, per_phase=run.per_phase,
        transcript_hash=digest)


def run_trials(cfg: ExperimentConfig) -> list[RunResult]:
    return [run_experiment(cfg, trial=t) for t in range(cfg.trials)]


# ---------------------------------------------------------------------------
# single-subphase harness (fixtures and unit experiments)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SubphaseTrace:
    """What one isolated subphase did, for fixture-level assertions."""

    phase: int
    k_rows: np.ndarray           # row t = k_t per node
    continue_event: np.ndarray
    crashed: np.ndarray
    queries: int
    messages_sent: int
    messages_dropped: int
    rejected: int


def simulate_subphase(topo: Topology, phase: int, *,
                      colors: np.ndarray | None = None,
                      byz: np.ndarray | None = None,
                      strategy: str = "none",
                      strategy_params: dict | None = None,
                      algorithm: str = "byzantine",
                      threshold: float | None = None,
                      seed: int = 0,
                      relax_degree: bool = False) -> SubphaseTrace:
    """Run exactly one subphase of the given phase on a fixed topology.

    Colors may be scripted, as integers; Byzantine placement may be
    pinned.  Setup (and its crash semantics) runs first when the hardened
    algorithm is selected; either protocol then floods one column.
    """
    cfg = ExperimentConfig(
        n=topo.h.n, d=topo.h.d, seed=seed, algorithm=algorithm,
        strategy=strategy, strategy_params=dict(strategy_params or {}),
        relax_degree=relax_degree,
        delta=1.0 if topo.h.d < 8 else ExperimentConfig.delta)
    run = _Run(cfg, trial=0, topo=topo, byz=() if byz is None else byz)
    try:
        run.run_setup(full=False)
        if colors is None:
            colors = run.colors(phase, 1)
        colors = np.asarray(colors)
        # whole floats are accepted; anything else non-integral, NaN and inf are not
        if not (colors.dtype.kind in "iub" or colors.dtype.kind == "f"
                and (colors == np.trunc(colors)).all() and (np.abs(colors) < 2.0**63).all()):
            raise ValueError("colors must be integers")
        colors = colors.astype(np.int64)
        if colors.shape != (run.n,):
            raise ValueError("colors must have one entry per node")
        thr = threshold if threshold is not None else continuation_threshold(phase, run.d)
        cont_before = run.phase_continue.copy()
        k_rows = _fast_flood(run, phase, [1], False, thr, colors[:, None])
    finally:
        run.transcript.close()  # also when the flood raised: no fold thread outlives it
    k_rows = k_rows[:, :, 0].astype(np.int64)
    return SubphaseTrace(
        phase=phase,
        k_rows=k_rows,
        continue_event=run.phase_continue & ~cont_before,
        crashed=run.crashed.copy(),
        queries=run.counters.queries,
        messages_sent=run.counters.sent,
        messages_dropped=run.counters.dropped,
        rejected=run.counters.rejected,
    )


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------


def _write_node_csv(path: str, rows) -> None:
    """Write (trial, node_id, class, estimate, crashed) ``rows`` under
    ``NODE_CSV_FIELDS``; an estimate below 1 is a non-decider's."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(NODE_CSV_FIELDS)
        w.writerows((t, v, c, e > 0, e if e > 0 else "", x) for t, v, c, e, x in rows)


def write_trial_csv(results: list[RunResult], path: str) -> None:
    """One row per node per trial, with the columns of ``NODE_CSV_FIELDS``."""
    _write_node_csv(path, ((r.trial, *row) for r in results for row in zip(
        r.node_ids.tolist(), r.class_labels.tolist(), r.decided.tolist(), r.crashed.tolist())))


def write_summary_json(results: list[RunResult], path: str) -> None:
    """One summary object per trial (config echo, fractions, counters, hash)."""
    with open(path, "w") as fh:
        json.dump([r.to_summary() for r in results], fh, indent=2)
        fh.write("\n")
