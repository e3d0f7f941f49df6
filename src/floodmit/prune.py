"""Exact network reductions.

Eight techniques shrink an instance without changing its optimal objective:

1. drop articulation-point side components holding no origin/destination
2. drop transshipment nodes with no inflow or no outflow (cascading)
3. fold pendant origins into their single non-vulnerable neighbor,
   crediting the hop's weighted travel time to a constant offset
4. drop a two-neighbor transshipment node whose through-paths are no better
   than the direct triangle arcs
5. keep only the fastest of parallel non-vulnerable arcs
6. drop self-loops
7. contract non-vulnerable two-neighbor transshipment chains
8. drop a clique arc dominated by a two-arc detour

`prune_all` runs them round-robin (6, 5, 2, 1, 3, 4, 7, 8) to a fixpoint and
returns the pruned network plus a replayable log; each technique's first run
starts where its first test passes, listed by the one pass that builds the
working graph, and each later run re-examines only what changed since its
last, with the same result as a sweep over the whole network.  The working
graph keeps two live indexes, the non-vulnerable arcs by tail and head and
the undirected neighbour counts, so each question is a lookup or a set
operation: t8 intersects the heads of j with the heads of each i before it,
and t4 and t7 reject a node on its number of neighbours.

Technique 1 finds side components with `net.bare_sides`, a bare node being
neither origin nor destination; over the whole network, one depth-first
search (`net.cut_nodes`) gives it the cut nodes and the components with
no origin or destination.  Its runs after the first rest on which
techniques can leave a bare side: 2 can do so anywhere, 8 only at the middle
node of the detour that justified a removal, and the others never.
`expand_solution` lifts a solution on the pruned network back to the
original one.
`harvest_triangle_vis` lists the clique triples where the direct arc is
strictly faster, as route-choice cuts for the exported 0-1 model; it finds
them with t8's triangle finder.
"""
from __future__ import annotations

import dataclasses
import heapq
import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, KeysView

from .net import (DIST_TOL, Network, NetworkError, NodeKind, RoadArc, RoadNode,
                  bare_sides, cut_nodes)
from .solver import SolveMemo

TECHNIQUE_ORDER = (6, 5, 2, 1, 3, 4, 7, 8)

TECHNIQUE_LABELS = {
    1: "isolated side components",
    2: "dead-end transshipment nodes",
    3: "pendant origin folding",
    4: "bypassed triangle nodes",
    5: "parallel arc dominance",
    6: "self loops",
    7: "through-node contraction",
    8: "dominated clique arcs",
}


@dataclass(frozen=True)
class MergeRecord:
    """A pendant origin folded into its host node (technique 3)."""

    origin_id: str
    host_id: str
    exit_arc_id: str     # origin -> host
    entry_arc_id: str    # host -> origin
    travel_time: float   # of the exit arc
    residents: float
    weight: float
    offset: float        # weight * travel_time


@dataclass(frozen=True)
class ContractionRecord:
    """A chain replaced by one arc (technique 7); chain ids are pre-pruning arcs."""

    new_arc_id: str
    tail: str
    head: str
    travel_time: float
    chain: tuple[str, ...]


@dataclass(frozen=True)
class PruneAction:
    technique: int
    removed_nodes: tuple[str, ...] = ()
    removed_arcs: tuple[str, ...] = ()
    added_arcs: tuple[tuple[str, str, str, float], ...] = ()  # (id, tail, head, t)
    merges: tuple[MergeRecord, ...] = ()
    contractions: tuple[ContractionRecord, ...] = ()


@dataclass
class PruneLog:
    actions: list[PruneAction] = field(default_factory=list)
    objective_offset: float = 0.0

    @property
    def merge_records(self) -> list[MergeRecord]:
        return [m for act in self.actions for m in act.merges]

    @property
    def contraction_map(self) -> dict[str, tuple[str, ...]]:
        return {c.new_arc_id: c.chain
                for act in self.actions for c in act.contractions}

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True,
                          indent=2) + "\n"


@dataclass
class PruneStats:
    """Per-technique elimination accounting (x vars = |origins| * |arcs|, y = |vulnerable|)."""

    original: dict[str, int]
    final: dict[str, int]
    by_technique: dict[int, dict[str, int]]
    rounds: int

    def rows(self) -> list[dict[str, Any]]:
        rows = []
        for tech in sorted(self.by_technique):
            d = self.by_technique[tech]
            row: dict[str, Any] = {"technique": tech,
                                   "label": TECHNIQUE_LABELS[tech]}
            for key in ("variables", "nodes", "arcs"):
                base = self.original[key]
                row[key] = d[key]
                row[f"{key}_pct"] = (100.0 * d[key] / base) if base else 0.0
            rows.append(row)
        return rows


@dataclass
class PrunedNetwork:
    """A pruned network, its log and counts, and the network it came from.

    ``memo`` (`SolveMemo`) keeps what solves on ``network`` derive from it
    alone, whatever their budget: exact assignment searches, connection
    bounds and each solve's set-up.  `solve_pipeline` fills it, so every
    later solve on this pruning, at any budget, reuses it; it lives as long
    as the pruning.
    """

    network: Network
    log: PruneLog
    stats: PruneStats
    source: Network            # the network that was pruned
    memo: SolveMemo = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.memo = SolveMemo(self.network)


# -- mutable working graph ----------------------------------------------------


class _Work:
    """Mutable node/arc dicts with two live indexes and a touch log.

    ``pair`` maps tail -> head -> the non-vulnerable arc ids between them,
    loops left out; ``adj`` maps each node to its undirected neighbours,
    each with the number of arcs either way, loops left out.  Every node
    has a row in both, and no entry is ever empty.  t4, t5, t7 and t8 take
    the quickest arc between two nodes from ``pair``, and t8 finds its
    triangles there; t1 and t2 read neighbours from ``adj``, and t4 and t7
    reject a node on its number of neighbours there first.

    ``added`` lists every arc id added and ``touched`` every node whose arcs
    or record changed, in the order it happened; both start out empty.  Each
    technique reads them from its own cursor, plus what is owed to it and
    dropped once read: ``owed_arcs`` and ``owed`` hold its first run's start
    set, then the nodes its last sweep carried.  A start set, read off the
    network while the indexes are built, is where the technique's first
    test passes: the loops (t6), the first arc of each parallel pair (t5),
    the nodes lacking in- or out-arcs (t2), the origins (t3), the nodes with
    two neighbours (t4) or one or two (t7), and those with a non-vulnerable
    arc out (t8's middles).  Only a touch can make a node pass its test
    later.  Technique 1 instead reads ``t1_full`` (a run over the whole
    network is owed) and ``middles`` (where t8 removed an arc).
    """

    def __init__(self, net: Network):
        self.nodes: dict[str, RoadNode] = dict(net.nodes)
        self.arcs: dict[str, RoadArc] = dict(net.arcs)
        origins = [nid for nid, n in self.nodes.items()
                   if n.kind is NodeKind.ORIGIN]
        self.n_origins = len(origins)
        self.n_vuln = len(net.vulnerable_ids)
        out: dict[str, list[str]] = {n: [] for n in self.nodes}
        inn: dict[str, list[str]] = {n: [] for n in self.nodes}
        pair: dict[str, dict[str, list[str]]] = {n: {} for n in self.nodes}
        adj: dict[str, dict[str, int]] = {n: {} for n in self.nodes}
        loops: list[str] = []
        parallel: list[str] = []  # the first arc of each parallel pair
        for a in self.arcs.values():  # adj[x][y] == adj[y][x] throughout
            tail, head = a.tail, a.head
            out[tail].append(a.id)
            inn[head].append(a.id)
            if tail == head:
                loops.append(a.id)
                continue
            row = adj[tail]
            if head in row:
                row[head] += 1
                adj[head][tail] += 1
            else:
                row[head] = adj[head][tail] = 1
            if not a.vulnerable:
                ids = pair[tail].setdefault(head, [])
                if len(ids) == 1:
                    parallel.append(ids[0])
                ids.append(a.id)
        self.out, self.inn, self.pair, self.adj = out, inn, pair, adj
        # contracted arc id -> the pre-pruning chain it stands for (t7)
        self.chains: dict[str, tuple[str, ...]] = {}
        self.added: list[str] = []
        self.touched: list[str] = []
        self.arc_cursor: dict[int, int] = {}
        self.node_cursor: dict[int, int] = {}
        self.owed_arcs: dict[int, list[str]] = {5: parallel, 6: loops}
        self.owed: dict[int, list[str]] = {
            2: [nid for nid in self.nodes if not (inn[nid] and out[nid])],
            3: origins,
            4: [nid for nid, row in adj.items() if len(row) == 2],
            7: [nid for nid, row in adj.items() if 0 < len(row) <= 2],
            8: [nid for nid, row in pair.items() if row],
        }
        self.t1_full = True
        self.middles: set[str] = set()

    def to_network(self) -> Network:
        return Network(self.nodes.values(), self.arcs.values())

    def remove_arc(self, aid: str) -> None:
        a = self.arcs.pop(aid)
        tail, head = a.tail, a.head
        self.out[tail].remove(aid)
        self.inn[head].remove(aid)
        if a.vulnerable:
            self.n_vuln -= 1
        if tail != head:
            row = self.adj[tail]
            if row[head] == 1:
                del row[head], self.adj[head][tail]
            else:
                row[head] -= 1
                self.adj[head][tail] -= 1
            if not a.vulnerable:
                row = self.pair[tail]
                row[head].remove(aid)
                if not row[head]:
                    del row[head]
        self.touched += (tail, head)

    def remove_node(self, nid: str) -> list[str]:
        """Remove a node and all incident arcs; returns removed arc ids sorted."""
        incident = sorted({*self.out[nid], *self.inn[nid]})
        for aid in incident:
            self.remove_arc(aid)
        if self.nodes.pop(nid).kind is NodeKind.ORIGIN:
            self.n_origins -= 1
        del self.out[nid], self.inn[nid], self.pair[nid], self.adj[nid]
        return incident

    def add_arc(self, arc: RoadArc) -> None:
        if arc.id in self.arcs:
            raise NetworkError(f"arc id collision {arc.id!r}")
        tail, head = arc.tail, arc.head
        self.arcs[arc.id] = arc
        self.out[tail].append(arc.id)
        self.inn[head].append(arc.id)
        if arc.vulnerable:
            self.n_vuln += 1
        if tail != head:
            row = self.adj[tail]
            if head in row:
                row[head] += 1
                self.adj[head][tail] += 1
            else:
                row[head] = self.adj[head][tail] = 1
            if not arc.vulnerable:
                self.pair[tail].setdefault(head, []).append(arc.id)
        self.added.append(arc.id)
        self.touched += (tail, head)

    def set_node(self, node: RoadNode) -> None:
        old = self.nodes[node.id]
        self.n_origins += ((node.kind is NodeKind.ORIGIN)
                           - (old.kind is NodeKind.ORIGIN))
        self.nodes[node.id] = node
        self.touched.append(node.id)

    def bare(self, nid: str) -> bool:
        """Whether t1 may drop ``nid``: it is neither origin nor destination."""
        return self.nodes[nid].kind is NodeKind.TRANSSHIPMENT

    def neighbors(self, nid: str) -> KeysView[str]:
        """A live view of ``nid``'s undirected neighbours, loops left out."""
        return self.adj[nid].keys()

    def fastest(self, tail: str, head: str) -> RoadArc | None:
        """Quickest non-vulnerable arc tail->head ((t, id) order), if any."""
        ids = self.pair[tail].get(head)
        if not ids:
            return None
        return self.arcs[min((self.arcs[a].travel_time, a) for a in ids)[1]]

    def triangles(self, j: str) -> Iterator[tuple[str, str]]:
        """The pairs (i, h) with non-vulnerable arcs i->j, j->h and i->h.

        The heads for each ``i`` are listed before the first is yielded, so
        the caller may remove arcs i->h as it goes.
        """
        outs = self.pair[j].keys()
        if not outs:
            return
        for i in self.adj[j]:
            across = self.pair[i]
            if j in across and not outs.isdisjoint(across):
                for h in outs & across.keys():
                    yield i, h

    def new_arcs(self, tech: int) -> list[RoadArc]:
        """Arcs added since ``tech`` last asked (or owed to it) that still
        exist."""
        start = self.arc_cursor.get(tech, 0)
        self.arc_cursor[tech] = len(self.added)
        arcs = self.arcs
        return [arcs[a] for ids in (self.owed_arcs.pop(tech, ()),
                                    self.added[start:])
                for a in ids if a in arcs]

    def new_nodes(self, tech: int) -> set[str]:
        """Nodes touched since ``tech`` last asked (or owed to it)."""
        nodes = set(self.owed.pop(tech, ()))
        nodes.update(self.touched[self.node_cursor.get(tech, 0):])
        self.node_cursor[tech] = len(self.touched)
        return nodes

    def sweep(self, tech: int, extra: Iterable[str] = ()) -> Iterator[str]:
        """Yield, in id order, the live nodes ``tech`` must look at again.

        These are the nodes touched since ``tech`` last looked at them, plus
        ``extra``.  A node touched during the sweep is visited in it if it
        sorts after the current node, as a sweep over every node would visit
        it, and is otherwise carried to the next sweep.  Every node that a
        sweep over all nodes would change is visited, in the same order.
        """
        queued = self.new_nodes(tech)
        queued.update(extra)
        heap = sorted(queued)
        read = len(self.touched)
        carried: list[str] = []
        while heap:
            nid = heapq.heappop(heap)
            if nid in self.nodes:
                yield nid
            if len(self.touched) > read:
                for t in self.touched[read:]:
                    if t <= nid:
                        carried.append(t)
                    elif t not in queued:
                        queued.add(t)
                        heapq.heappush(heap, t)
                read = len(self.touched)
        self.node_cursor[tech] = read
        self.owed[tech] = carried

    def counts(self) -> dict[str, int]:
        return {
            "nodes": len(self.nodes),
            "arcs": len(self.arcs),
            "variables": self.n_origins * len(self.arcs) + self.n_vuln,
        }


# -- individual techniques ----------------------------------------------------
#
# A technique acts only where something changed since its last run.  Arcs are
# never altered, only added (by t7) or removed, so a loop, parallel pair or
# clique triple whose arcs all predate a technique's last run, and which
# still exists, was already checked then and found wanting (t6, t5, t8).  The
# node tests of t2, t3, t4 and t7 read only the node's own record and arcs,
# which touch it, plus (t4) the direct arcs between its two neighbours.
#
# t1 looks for a cut node with a side component holding no origin or
# destination (a bare side).  Only t2 can leave one anywhere.  A t8 removal
# of i->h keeps the detour i-j-h, so only its middle j can become a new cut
# node.  t3-t7 and t1 never leave one: they remove pendants, nodes whose two
# neighbours are adjacent, parallel arcs and loops, or bare sides, or they
# contract i-n-k into i-k.  So t1 runs over the whole network at the start
# and after a t2 removal, and otherwise only at the middles.  A run over the
# whole network also drops every bare component detached from its cut node,
# so t1 stays on whole-network runs while one is left.


def _t6_self_loops(work: _Work) -> list[PruneAction]:
    loops = sorted(a.id for a in work.new_arcs(6) if a.tail == a.head)
    for aid in loops:
        work.remove_arc(aid)
    return [PruneAction(6, removed_arcs=tuple(loops))] if loops else []


def _t5_parallel(work: _Work) -> list[PruneAction]:
    removed: list[str] = []
    for a in work.new_arcs(5):
        ids = work.pair[a.tail].get(a.head, ())
        if len(ids) > 1:
            keep = work.fastest(a.tail, a.head)
            for aid in [aid for aid in ids if aid != keep.id]:
                work.remove_arc(aid)
                removed.append(aid)
    return [PruneAction(5, removed_arcs=tuple(sorted(removed)))] if removed else []


def _t2_dead_transshipment(work: _Work) -> list[PruneAction]:
    def dead(nid: str) -> bool:
        return (work.nodes[nid].kind is NodeKind.TRANSSHIPMENT
                and (not work.inn[nid] or not work.out[nid]))

    # a node only dies by losing arcs, which touches it
    heap = sorted(nid for nid in work.new_nodes(2)
                  if nid in work.nodes and dead(nid))
    removed_nodes: list[str] = []
    removed_arcs: list[str] = []
    enqueued = set(heap)
    while heap:
        nid = heapq.heappop(heap)
        if nid not in work.nodes or not dead(nid):
            continue
        nbrs = sorted(work.neighbors(nid))
        removed_arcs.extend(work.remove_node(nid))
        removed_nodes.append(nid)
        for nbr in nbrs:
            if nbr in work.nodes and nbr not in enqueued and dead(nbr):
                heapq.heappush(heap, nbr)
                enqueued.add(nbr)
    if not removed_nodes:
        return []
    work.t1_full = True
    return [PruneAction(2, removed_nodes=tuple(removed_nodes),
                        removed_arcs=tuple(sorted(removed_arcs)))]


def _t1_side_components(work: _Work) -> list[PruneAction]:
    if work.t1_full:
        actions = _t1_whole(work)
    else:
        actions = []
        for j in sorted(work.middles):
            if j in work.nodes:  # an earlier middle's side may have held it
                actions += [_drop_side(work, s) for s in
                            bare_sides(work.neighbors, j, work.bare)]
    work.middles.clear()
    return actions


def _t1_whole(work: _Work) -> list[PruneAction]:
    # Minus a cut node, the graph splits into the node's sides and every
    # other component.  The first cut node drops each bare one of either
    # kind; if it lay in a bare component, it is left alone as one, which
    # the next cut node drops.
    cuts, bare = cut_nodes(work.adj, work.bare)
    actions: list[PruneAction] = []
    for ap in sorted(cuts):
        if ap not in work.nodes:
            continue
        comps = (bare_sides(work.neighbors, ap, work.bare)
                 + [c for c in bare if ap not in c])
        bare = [{ap}] if any(ap in c for c in bare) else []
        actions += [_drop_side(work, c) for c in sorted(comps, key=min)]
    work.t1_full = bool(bare)
    return actions


def _drop_side(work: _Work, comp: set[str]) -> PruneAction:
    removed_arcs: list[str] = []
    removed_nodes = sorted(comp)
    for nid in removed_nodes:
        removed_arcs.extend(work.remove_node(nid))
    return PruneAction(1, removed_nodes=tuple(removed_nodes),
                       removed_arcs=tuple(sorted(removed_arcs)))


def _t3_pendant_origins(work: _Work) -> list[PruneAction]:
    # a host only ever turns from transshipment into origin, which can stop
    # a fold but never start one, so touches of the origin itself suffice
    actions: list[PruneAction] = []
    for oid in work.sweep(3):
        node = work.nodes[oid]
        if node.kind is not NodeKind.ORIGIN:
            continue
        if len(work.out[oid]) != 1 or len(work.inn[oid]) != 1:
            continue
        exit_arc = work.arcs[work.out[oid][0]]
        entry_arc = work.arcs[work.inn[oid][0]]
        if exit_arc.vulnerable or entry_arc.vulnerable:
            continue
        host_id = exit_arc.head
        if entry_arc.tail != host_id or host_id == oid:
            continue
        host = work.nodes[host_id]
        if host.kind is not NodeKind.TRANSSHIPMENT:
            continue
        rec = MergeRecord(
            origin_id=oid, host_id=host_id,
            exit_arc_id=exit_arc.id, entry_arc_id=entry_arc.id,
            travel_time=exit_arc.travel_time,
            residents=node.residents, weight=node.weight,
            offset=node.weight * exit_arc.travel_time)
        removed = work.remove_node(oid)
        work.set_node(dataclasses.replace(
            host, kind=NodeKind.ORIGIN,
            residents=host.residents + node.residents,
            weight=host.weight + node.weight))
        actions.append(PruneAction(3, removed_nodes=(oid,),
                                   removed_arcs=tuple(sorted(removed)),
                                   merges=(rec,)))
    return actions


def _t4_bypassed_triangles(work: _Work) -> list[PruneAction]:
    # a new arc between two nodes may bypass any node adjacent to both;
    # a removed one only makes a bypass slower
    around: dict[str, set[str]] = {}
    bridged: set[str] = set()
    for a in work.new_arcs(4):
        for end in (a.tail, a.head):
            if end not in around:
                around[end] = work.neighbors(end)
        bridged |= around[a.tail] & around[a.head]
    actions: list[PruneAction] = []
    for nid in work.sweep(4, bridged):
        if len(work.adj[nid]) != 2:
            continue
        if work.nodes[nid].kind is not NodeKind.TRANSSHIPMENT:
            continue
        if any(work.arcs[a].vulnerable for a in work.out[nid] + work.inn[nid]):
            continue
        j, k = sorted(work.neighbors(nid))
        through = 0
        ok = True
        for x, y in ((j, k), (k, j)):
            arc_in = work.fastest(x, nid)
            arc_out = work.fastest(nid, y)
            if arc_in is None or arc_out is None:
                continue
            through += 1
            direct = work.fastest(x, y)
            if direct is None or (arc_in.travel_time + arc_out.travel_time
                                  < direct.travel_time - DIST_TOL):
                ok = False
                break
        if not ok or through == 0:
            continue
        removed = work.remove_node(nid)
        actions.append(PruneAction(4, removed_nodes=(nid,),
                                   removed_arcs=tuple(sorted(removed))))
    return actions


def _t7_contract(work: _Work) -> list[PruneAction]:
    actions: list[PruneAction] = []
    for nid in work.sweep(7):
        n_nbrs = len(work.adj[nid])
        if n_nbrs not in (1, 2):
            continue
        if work.nodes[nid].kind is not NodeKind.TRANSSHIPMENT:
            continue
        if any(work.arcs[a].vulnerable for a in work.out[nid] + work.inn[nid]):
            continue
        if n_nbrs == 1:  # cul-de-sac middle: i = k, nothing to bridge
            removed = work.remove_node(nid)
            actions.append(PruneAction(7, removed_nodes=(nid,),
                                       removed_arcs=tuple(sorted(removed))))
            continue
        i, k = sorted(work.neighbors(nid))
        new_arcs: list[RoadArc] = []
        contractions: list[ContractionRecord] = []
        for x, y in ((i, k), (k, i)):
            arc_in = work.fastest(x, nid)
            arc_out = work.fastest(nid, y)
            if arc_in is None or arc_out is None:
                continue
            chain = (work.chains.get(arc_in.id, (arc_in.id,))
                     + work.chains.get(arc_out.id, (arc_out.id,)))
            new_id = f"__c_{x}__{nid}__{y}"
            t = arc_in.travel_time + arc_out.travel_time
            new_arcs.append(RoadArc(new_id, x, y, t, meta={"contracted": True}))
            contractions.append(ContractionRecord(new_id, x, y, t, chain))
        if not new_arcs:
            continue
        removed = work.remove_node(nid)
        for arc, con in zip(new_arcs, contractions):
            work.add_arc(arc)
            work.chains[arc.id] = con.chain
        actions.append(PruneAction(
            7, removed_nodes=(nid,), removed_arcs=tuple(sorted(removed)),
            added_arcs=tuple((a.id, a.tail, a.head, a.travel_time)
                             for a in new_arcs),
            contractions=tuple(contractions)))
    return actions


def _t8_clique_dominance(work: _Work) -> list[PruneAction]:
    # the middle nodes j of every triple (i->j, j->h, i->h) with a new arc;
    # the middles are visited in id order, but what one middle removes does
    # not depend on the order of its arcs
    new = [a for a in work.new_arcs(8)
           if not a.vulnerable and a.tail != a.head]
    centres = {a.head for a in new} | {a.tail for a in new}
    first = 8 in work.owed
    centres.update(j for j in work.owed.pop(8, ()) if j in work.nodes)
    # a middle of a new direct arc has an arc out, so in a first run, which
    # is owed every such node, it is already in centres: skip the scan
    if not first and any(row and j not in centres
                         for j, row in work.pair.items()):
        for a in new:  # a as the direct arc i->h
            for j in work.pair[a.tail]:
                if j not in centres and a.head in work.pair[j]:
                    centres.add(j)
    # float addition is monotone, so the quickest detour i->j->h is the sum
    # of the quickest hops, and it dominates every direct arc no quicker
    removed: list[str] = []
    for j in sorted(centres):
        for i, h in work.triangles(j):
            detour = (work.fastest(i, j).travel_time
                      + work.fastest(j, h).travel_time)
            for did in [d for d in work.pair[i][h]
                        if work.arcs[d].travel_time >= detour - DIST_TOL]:
                work.remove_arc(did)
                work.middles.add(j)
                removed.append(did)
    if not removed:
        return []
    return [PruneAction(8, removed_arcs=tuple(sorted(removed)))]


def harvest_triangle_vis(net: Network) -> list[tuple[str, str, str]]:
    """Clique triples where the direct arc is strictly faster than the detour.

    In any optimal routing, a single origin uses at most one of the three arcs
    (arc i->j, arc i->h, arc j->h); the 0-1 model may add that as a cut.
    """
    work = _Work(net)
    arcs, pair = work.arcs, work.pair
    vis: set[tuple[str, str, str]] = set()
    for j in work.nodes:
        for i, h in work.triangles(j):
            for a1 in pair[i][j]:
                for a2 in pair[j][h]:
                    detour = arcs[a1].travel_time + arcs[a2].travel_time
                    vis.update((a1, d, a2) for d in pair[i][h]
                               if arcs[d].travel_time < detour - DIST_TOL)
    return sorted(vis)


_TECHNIQUES = {
    1: _t1_side_components,
    2: _t2_dead_transshipment,
    3: _t3_pendant_origins,
    4: _t4_bypassed_triangles,
    5: _t5_parallel,
    6: _t6_self_loops,
    7: _t7_contract,
    8: _t8_clique_dominance,
}


def apply_technique(net: Network, tech: int,
                    ) -> tuple[Network, list[PruneAction]]:
    """Run one technique (1-8, see TECHNIQUE_LABELS) once on ``net``."""
    work = _Work(net)
    actions = _TECHNIQUES[tech](work)
    return work.to_network(), actions


def prune_all(net: Network) -> PrunedNetwork:
    """Round-robin all techniques to a fixpoint; returns net', log and stats.

    The first round looks at the whole network; each later run of a
    technique looks only at what changed since its previous run, and finds
    exactly what a run over the whole network would.
    """
    work = _Work(net)
    log = PruneLog()
    original = before = work.counts()
    by_tech = {t: {"variables": 0, "nodes": 0, "arcs": 0}
               for t in TECHNIQUE_ORDER}
    rounds = 0
    while True:
        rounds += 1
        changed = False
        for tech in TECHNIQUE_ORDER:
            actions = _TECHNIQUES[tech](work)
            if not actions:
                continue
            changed = True
            after = work.counts()
            for key in by_tech[tech]:
                by_tech[tech][key] += before[key] - after[key]
            before = after
            log.actions.extend(actions)
            for act in actions:
                for m in act.merges:
                    log.objective_offset += m.offset
        if not changed:
            break
    pruned = work.to_network()
    stats = PruneStats(original=original, final=before,
                       by_technique=by_tech, rounds=rounds)
    return PrunedNetwork(network=pruned, log=log, stats=stats, source=net)


def replay_log(net: Network, log: PruneLog) -> Network:
    """Re-apply a prune log to its original network (testing hook)."""
    work = _Work(net)
    for act in log.actions:
        for aid in act.removed_arcs:
            if aid in work.arcs:  # node removal below also drops incident arcs
                work.remove_arc(aid)
        for nid in act.removed_nodes:
            work.remove_node(nid)
        for aid, tail, head, t in act.added_arcs:
            work.add_arc(RoadArc(aid, tail, head, t, meta={"contracted": True}))
        for m in act.merges:
            host = work.nodes[m.host_id]
            work.set_node(dataclasses.replace(
                host, kind=NodeKind.ORIGIN,
                residents=host.residents + m.residents,
                weight=host.weight + m.weight))
    return work.to_network()


# -- lifting solutions back ---------------------------------------------------


def expand_path(path: Iterable[str], contraction_map: dict[str, tuple[str, ...]],
                ) -> tuple[str, ...]:
    out: list[str] = []
    for aid in path:
        out.extend(contraction_map.get(aid, (aid,)))
    return tuple(out)


def expand_solution(solution, log: PruneLog):
    """Lift a solver solution on the pruned network to the original network.

    Contracted arcs re-expand to their chains, folded origins re-appear with
    their pendant hop prepended, and the folded-away weighted travel time
    rejoins the objective (and bound).
    """
    records = log.merge_records
    cmap = log.contraction_map
    assignment = dict(solution.assignment)
    paths = {k: list(v) for k, v in solution.paths.items()}
    if assignment:  # unsolved results carry no routes to lift
        for rec in reversed(records):
            if rec.host_id not in assignment:
                raise ValueError(
                    f"prune log and solution disagree: merge host "
                    f"{rec.host_id!r} has no assignment")
            assignment[rec.origin_id] = assignment[rec.host_id]
            paths[rec.origin_id] = [rec.exit_arc_id] + paths[rec.host_id]
        hosts = {rec.host_id for rec in records}
        for host in hosts:
            assignment.pop(host, None)
            paths.pop(host, None)
    expanded_paths = {k: expand_path(v, cmap) for k, v in paths.items()}
    objective = solution.objective
    if objective is not None:
        objective += log.objective_offset
    bound = solution.best_bound
    if bound is not None and math.isfinite(bound):
        bound += log.objective_offset
    return dataclasses.replace(
        solution, assignment=assignment, paths=expanded_paths,
        objective=objective, best_bound=bound)
