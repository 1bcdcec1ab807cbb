"""Adversary strategies for the full-information Byzantine model.

A strategy is bound to a run via ``prepare`` (it may read the whole run
state, including the graph, the placement, and future color streams) and
then drives the Byzantine nodes through three hooks:

* ``setup_report`` substitutes per-receiver adjacency reports during setup;
* ``injections_for`` adds or replaces flood tokens in a given round;
* ``answer_query`` intercepts verification queries aimed at a Byzantine
  node (``TRUTHFUL`` falls through to the node's own forwarding log).

The adversary controls message content only; sender identity is
unforgeable and messages travel only over real edges (the engine drops and
counts anything else).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .graph import balls
from .protocol import ORIGIN, RoundContext

__all__ = [
    "TRUTHFUL",
    "Injection",
    "AdversaryStrategy",
    "default_injection_color",
    "CompositeStrategy",
    "make_strategy",
    "STRATEGY_NAMES",
]

# Sentinel: "no override, answer from the node's own log".
TRUTHFUL = object()


@dataclass(frozen=True)
class Injection:
    """A token a Byzantine node emits outside the honest schedule.

    ``targets=None`` broadcasts over the node's H-ports.  ``replace=True``
    substitutes the node's own broadcast for the round and rewrites its
    state, so the node subsequently stands by the lie.
    """

    color: int
    pred: int
    targets: tuple[int, ...] | None = None
    replace: bool = False

    def __post_init__(self):
        if self.replace and self.targets is not None:
            raise ValueError("a replace injection broadcasts on H-ports; it takes no targets")


def default_injection_color(n: int) -> int:
    """Color far above any honest maximum: ceil(4 log2 n) + 10."""
    return math.ceil(4 * math.log2(n)) + 10


class AdversaryStrategy:
    """Base strategy: Byzantine nodes behave exactly like honest ones."""

    name = "honest_mimic"
    suppress_sends = False
    sends_reports = True

    def prepare(self, run) -> None:  # run: engine state, read-only by convention
        pass

    def setup_report(self, node: int, receiver: int):
        """Claimed H-adjacency list for one receiver, or None for the truth."""
        return None

    def lie_receivers(self) -> set[int]:
        """Nodes that receive at least one untruthful setup report."""
        return set()

    def injections_for(self, node: int, ctx: RoundContext) -> list[Injection]:
        return []

    def answer_query(self, target: int, asker: int, color: int,
                     phase: int, subphase: int, r: int):
        """Byzantine ``target``'s answer to ``asker`` about ``color`` in
        round ``r``: a predecessor, None, or ``TRUTHFUL`` for its log's.

        Answers must be pure functions of the arguments: the fast path
        evaluates every candidate item at once, including items that a
        node never consumes because an earlier one passed, so neither the
        number nor the order of calls is that of the reference.
        """
        return TRUTHFUL


class _Silent(AdversaryStrategy):
    """Byzantine nodes never send anything and never answer anything."""

    name = "silent"
    suppress_sends = True
    sends_reports = False

    def answer_query(self, target, asker, color, phase, subphase, r):
        return None


class _LateInjector(AdversaryStrategy):
    """Inject mid-subphase with a fabricated backward chain.

    At subphase round ``inject_round`` every Byzantine node emits the
    oversized color with a claimed predecessor chain walked through real H
    edges, preferring Byzantine hops (only an all-Byzantine prefix of
    length min(t, k) - 1 can survive verification).  ``inject_round``
    defaults to k; at 1 the node replaces its round-1 color instead, a
    legal origination that verification accepts.
    """

    name = "late_injector"

    def __init__(self, inject_round: int | None = None, magnitude: int | None = None):
        for param, value in (("inject_round", inject_round), ("magnitude", magnitude)):
            if value is not None and (isinstance(value, bool) or not isinstance(value, Integral)
                                      or value < 1):
                raise ValueError(f"{self.name}: {param} must be an integer >= 1, got {value!r}")
        self.inject_round = inject_round
        self.magnitude = magnitude
        self.value = 0
        self._byz: set[int] = set()
        self._chain: dict[int, list[int]] = {}
        self._answers: dict[tuple[int, int], int] = {}

    def prepare(self, run) -> None:
        h = run.topo.h
        k = run.topo.k
        self.value = int(self.magnitude or default_injection_color(run.topo.n))
        if self.inject_round is None:
            self.inject_round = k
        t0 = int(self.inject_round)
        self._byz = set(int(b) for b in run.byz_nodes)

        def pick_next(cur: int, avoid: set[int]) -> int | None:
            nbrs = [x for x in h.neighbors(cur).tolist() if x not in avoid]
            if not nbrs:
                return None
            byz_nbrs = [x for x in nbrs if x in self._byz]
            return byz_nbrs[0] if byz_nbrs else nbrs[0]

        walk_len = min(t0, k) - 1  # chain nodes a verifier may query
        for b in self._byz:
            chain = [b]
            avoid = {b}
            for _ in range(walk_len + 1):  # one spare hop past the walk budget
                nxt = pick_next(chain[-1], avoid)
                if nxt is None:
                    break
                chain.append(nxt)
                avoid.add(nxt)
            self._chain[b] = chain
            # answers: chain[j] "sent" the color in round t0 - j
            for j in range(1, len(chain)):
                r = t0 - j
                if r < 1:
                    break
                nxt_pred = chain[j + 1] if j + 1 < len(chain) else ORIGIN
                self._answers[(chain[j], r)] = ORIGIN if r == 1 else nxt_pred

    def injections_for(self, node, ctx):
        if node not in self._byz or ctx.t != self.inject_round:
            return []
        if self.inject_round == 1:
            return [Injection(color=self.value, pred=ORIGIN, replace=True)]
        chain = self._chain.get(node, [node])
        pred = chain[1] if len(chain) > 1 else ORIGIN
        return [Injection(color=self.value, pred=pred, replace=False)]

    def answer_query(self, target, asker, color, phase, subphase, r):
        if color == self.value and (target, r) in self._answers:
            return self._answers[(target, r)]
        return TRUTHFUL


class _MaxInjector(_LateInjector):
    """``late_injector`` fixed at ``inject_round=1``."""

    name = "max_injector"

    def __init__(self, magnitude: int | None = None):
        super().__init__(inject_round=1, magnitude=magnitude)


class _TopologyLiar(AdversaryStrategy):
    """Hide a real H-child and insert a fake one in targeted setup reports.

    In ``"auto"`` mode each liar picks one honest victim within G-distance
    such that the hidden child is also visible to the victim, guaranteeing
    a contradiction between the lying report and the child's truthful one;
    everyone else receives the truth.  ``"broadcast"`` sends the lie to all
    G-neighbors.  The fake child is a phantom identifier outside the node
    range, which never answers anything.
    """

    name = "topology_liar"

    def __init__(self, target_mode: str = "auto"):
        if target_mode not in ("auto", "broadcast"):
            raise ValueError(f"{self.name}: target_mode must be 'auto' or 'broadcast'")
        self.target_mode = target_mode
        self._lies: dict[int, tuple[int, int]] = {}       # liar -> (hidden, phantom)
        self._targets: dict[int, set[int]] = {}           # liar -> receivers of the lie
        self._ports: dict[int, tuple[int, ...]] = {}

    def prepare(self, run) -> None:
        topo = run.topo
        h = topo.h
        n = h.n
        byz = set(int(b) for b in run.byz_nodes)
        rng = run.adv_rng
        for b in sorted(byz):
            ports = tuple(int(x) for x in h.neighbors(b))
            self._ports[b] = ports
            if ports:
                # hidden = the smallest neighbor; phantom is out of range,
                # so guaranteed fake
                self._lies[b] = (min(ports), n + b)
        liars = sorted(self._lies)
        if self.target_mode == "broadcast":
            for b in liars:
                self._targets[b] = set(topo.l_neighbors(b).tolist())
            return
        # honest victims that can hear both the lie (within k-1 of b) and
        # the hidden child (within k of it)
        near_liar = balls(h, liars, topo.k - 1)
        near_hidden = balls(h, [self._lies[b][0] for b in liars], topo.k)
        for b, pool_b, pool_hidden in zip(liars, near_liar, near_hidden):
            hidden = self._lies[b][0]
            pool = np.intersect1d(pool_b, pool_hidden, assume_unique=True)
            candidates = [v for v in pool.tolist() if v not in byz and v != hidden]
            if candidates:
                pick = candidates[int(rng.integers(0, len(candidates)))]
                self._targets[b] = {pick}
            else:
                self._targets[b] = set()

    def setup_report(self, node, receiver):
        if node in self._lies and receiver in self._targets.get(node, ()):
            hidden, phantom = self._lies[node]
            lst = list(self._ports[node])
            lst.remove(hidden)
            lst.append(phantom)
            return lst
        return None

    def lie_receivers(self):
        return set().union(*self._targets.values())


class CompositeStrategy(AdversaryStrategy):
    """Run several strategies at once (e.g. topology lies plus injection)."""

    name = "composite"

    def __init__(self, parts: list[AdversaryStrategy]):
        self.parts = list(parts)

    @property
    def suppress_sends(self):  # type: ignore[override]
        return any(p.suppress_sends for p in self.parts)

    @property
    def sends_reports(self):  # type: ignore[override]
        return all(p.sends_reports for p in self.parts)

    def prepare(self, run) -> None:
        for p in self.parts:
            p.prepare(run)

    def setup_report(self, node, receiver):
        for p in self.parts:
            rep = p.setup_report(node, receiver)
            if rep is not None:
                return rep
        return None

    def lie_receivers(self):
        return set().union(*(p.lie_receivers() for p in self.parts))

    def injections_for(self, node, ctx):
        return [inj for p in self.parts for inj in p.injections_for(node, ctx)]

    def answer_query(self, target, asker, color, phase, subphase, r):
        for p in self.parts:
            ans = p.answer_query(target, asker, color, phase, subphase, r)
            if ans is not TRUTHFUL:
                return ans
        return TRUTHFUL


_REGISTRY = {cls.name: cls for cls in (AdversaryStrategy, _Silent, _MaxInjector,
                                       _LateInjector, _TopologyLiar, CompositeStrategy)}
STRATEGY_NAMES = ("none", *_REGISTRY)


def make_strategy(name: str, params: dict | None = None) -> AdversaryStrategy | None:
    """Build a strategy from its registry name; ``"none"`` means no adversary.

    The one check of strategy input: an unknown name or parameter, a value
    out of range or malformed composite parts raise ``ValueError``.
    """
    if name not in STRATEGY_NAMES:
        raise ValueError(f"unknown strategy {name!r}")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise ValueError(f"{name}: params must be a mapping")
    if name == "none":
        if params:
            raise ValueError("none: takes no parameters")
        return None
    cls = _REGISTRY[name]
    if cls is CompositeStrategy:
        parts = params.get("parts")
        if not isinstance(parts, list) or not all(
                isinstance(p, dict) and "name" in p and set(p) <= {"name", "params"}
                for p in parts):
            raise ValueError("composite: parts must be a list of {name, params} objects")
        parts = [make_strategy(p["name"], p.get("params")) for p in parts]
        parts = [p for p in parts if p is not None]
        if not parts:
            raise ValueError("composite: needs at least one part other than 'none'")
        params = dict(params, parts=parts)
    try:
        return cls(**params)
    except TypeError as exc:
        raise ValueError(f"{name}: {exc} (given {', '.join(params)})") from None
