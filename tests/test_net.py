"""Network container, shortest paths, canonical tie-breaking, cut structure."""
from __future__ import annotations

import dataclasses
import itertools
import math
import random

import pytest

from floodmit import synth
from floodmit.net import (GraphIndex, Network, NetworkError, NodeKind,
                          RoadArc, RoadNode, bare_sides, cut_nodes,
                          shortest_paths, undirected_adjacency)

from conftest import canonical_route, plain_dijkstra


def grid3() -> Network:
    """o -> a -> d and o -> b -> d, the upper route vulnerable."""
    nodes = [RoadNode("o", NodeKind.ORIGIN, residents=4.0, weight=4.0),
             RoadNode("a", NodeKind.TRANSSHIPMENT),
             RoadNode("b", NodeKind.TRANSSHIPMENT),
             RoadNode("d", NodeKind.DESTINATION, capacity=10.0)]
    arcs = [RoadArc("oa", "o", "a", 1.0, vulnerable=True, mitigation_cost=2.0),
            RoadArc("ad", "a", "d", 1.0, vulnerable=True, mitigation_cost=2.0),
            RoadArc("ob", "o", "b", 2.0),
            RoadArc("bd", "b", "d", 2.0)]
    return Network(nodes, arcs)


# -- validation ---------------------------------------------------------------

def test_node_rejects_bad_fields():
    for fields, message in [
        (dict(id=""), "node with empty id"),
        (dict(id="x", kind=NodeKind.ORIGIN, residents=-1.0),
         "node 'x': negative residents"),
        (dict(id="x", kind=NodeKind.ORIGIN, weight=-1.0),
         "node 'x': negative weight"),
        (dict(id="x", kind=NodeKind.DESTINATION, capacity=-1.0),
         "node 'x': negative capacity"),
        (dict(id="x", residents=5.0), "node 'x': residents on non-origin"),
        (dict(id="x", weight=1.0), "node 'x': weight on non-origin"),
        (dict(id="x", kind=NodeKind.ORIGIN, residents=1.0, weight=1.0,
              capacity=3.0), "node 'x': finite capacity on non-destination"),
    ]:
        with pytest.raises(NetworkError) as exc:
            RoadNode(**fields)
        assert str(exc.value) == message


def test_arc_rejects_bad_fields():
    for fields, message in [
        (dict(id=""), "arc with empty id"),
        (dict(travel_time=math.nan), "arc 'e': bad travel time nan"),
        (dict(travel_time=-1.0), "arc 'e': bad travel time -1.0"),
        (dict(travel_time=math.inf), "arc 'e': bad travel time inf"),
        (dict(vulnerable=True, mitigation_cost=-2.0),
         "arc 'e': negative mitigation cost"),
        (dict(mitigation_cost=3.0), "arc 'e': cost on non-vulnerable arc"),
    ]:
        with pytest.raises(NetworkError) as exc:
            RoadArc(**{"id": "e", "tail": "a", "head": "b",
                       "travel_time": 1.0, **fields})
        assert str(exc.value) == message


def test_road_records_are_slotted_and_frozen():
    # slotted: no per-record __dict__, so no attribute beyond the fields;
    # replace (prune's t3, synth) builds and checks a new record
    node = RoadNode("o", NodeKind.ORIGIN, residents=4.0, weight=4.0)
    arc = RoadArc("e", "a", "b", 1.0, vulnerable=True, mitigation_cost=2.0,
                  segment_id="s", meta={"lanes": 2.0})
    for rec in (node, arc):
        assert not hasattr(rec, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.id = "z"
        with pytest.raises(AttributeError):
            object.__setattr__(rec, "extra", 1)
    assert repr(arc) == ("RoadArc(id='e', tail='a', head='b', travel_time=1.0, "
                         "vulnerable=True, mitigation_cost=2.0, segment_id='s', "
                         "meta={'lanes': 2.0})")
    slower = dataclasses.replace(arc, travel_time=3.0)
    assert slower == RoadArc("e", "a", "b", 3.0, True, 2.0, "s", {"lanes": 2.0})
    assert slower != arc and arc.travel_time == 1.0
    assert dataclasses.replace(node) == node
    for make in (lambda: RoadNode("t"), lambda: RoadArc("t", "a", "b", 1.0)):
        assert make().meta == {} and make().meta is not make().meta
    with pytest.raises(NetworkError, match="negative mitigation cost"):
        dataclasses.replace(arc, mitigation_cost=-1.0)
    with pytest.raises(NetworkError, match="residents on non-origin"):
        dataclasses.replace(node, kind=NodeKind.TRANSSHIPMENT)


def test_network_rejects_duplicates_and_dangling():
    # each fault by its message; of several, the first in id order is
    # reported (a repeated id at its second record)
    n = [RoadNode("a", NodeKind.TRANSSHIPMENT), RoadNode("b", NodeKind.TRANSSHIPMENT)]
    ab, ba = RoadArc("e", "a", "b", 1.0), RoadArc("e", "b", "a", 1.0)
    for nodes, arcs, message in [
        (n + [RoadNode("a", NodeKind.TRANSSHIPMENT)], [], "duplicate node id 'a'"),
        (n, [ab, ba], "duplicate arc id 'e'"),
        (n, [RoadArc("e", "a", "zz", 1.0)], "arc 'e': unknown endpoint"),
        (n, [RoadArc("e", "zz", "a", 1.0)], "arc 'e': unknown endpoint"),
        # an unknown endpoint before a repeated arc id, and one after it
        (n, [RoadArc("d", "a", "zz", 1.0), ab, ba], "arc 'd': unknown endpoint"),
        (n, [RoadArc("f", "a", "zz", 1.0), ab, ba], "duplicate arc id 'e'"),
        # within the repeat: on its first record, and on its second
        (n, [RoadArc("e", "a", "zz", 1.0), ba], "arc 'e': unknown endpoint"),
        (n, [ab, RoadArc("e", "b", "zz", 1.0)], "duplicate arc id 'e'"),
    ]:
        with pytest.raises(NetworkError) as exc:
            Network(nodes, arcs)
        assert str(exc.value) == message


def test_filter_validation():
    net = grid3()
    with pytest.raises(NetworkError):
        shortest_paths(net, "zz")
    for arcs_of in (net.out_arcs, net.in_arcs):
        with pytest.raises(NetworkError, match="unknown node 'zz'"):
            arcs_of("zz")


# -- shortest paths -----------------------------------------------------------

def test_shortest_paths_respects_filters():
    net = grid3()
    full = shortest_paths(net, "o")
    assert full["d"] == 2.0 and full["a"] == 1.0
    flooded = shortest_paths(net, "o", net.vulnerable_ids)
    assert flooded["d"] == 4.0 and "a" not in flooded
    partial = shortest_paths(net, "o", net.vulnerable_ids - {"oa"})
    assert partial["a"] == 1.0 and partial["d"] == 4.0  # ad still washed out
    assert shortest_paths(net, "o", {"zz"}) == full  # no arc "zz" to close


def test_reverse_and_multi_target():
    net = grid3()
    g = net.index()
    a, b, d, o = g.nodes_of("abdo")
    back = g.dijkstra((d,), reverse=True)[0]
    assert back[o] == 2.0 and back[b] == 2.0 and back[d] == 0.0
    near = g.dijkstra((d, b), g.arcs_of(net.vulnerable_ids), reverse=True)[0]
    assert near[o] == 2.0  # b is closer than d on the dry network
    assert near[b] == 0.0 and near[a] == math.inf
    with pytest.raises(NetworkError):
        g.nodes_of(["zz"])


def test_canonical_path_prefers_smaller_arc_ids():
    # two equal-cost parallel routes; the lexicographically smaller arc
    # sequence must be returned every time
    nodes = [RoadNode("s", NodeKind.ORIGIN, residents=1.0, weight=1.0),
             RoadNode("m1", NodeKind.TRANSSHIPMENT),
             RoadNode("m2", NodeKind.TRANSSHIPMENT),
             RoadNode("t", NodeKind.DESTINATION, capacity=5.0)]
    arcs = [RoadArc("e1", "s", "m1", 1.0), RoadArc("e2", "m1", "t", 1.0),
            RoadArc("e3", "s", "m2", 1.0), RoadArc("e4", "m2", "t", 1.0)]
    net = Network(nodes, arcs)
    g = net.index()
    assert g.dijkstra(g.nodes_of("t"), reverse=True)[0][g.node_no["s"]] == 2.0
    assert canonical_route(net, "s", "t") == (("e1", "e2"), False)


def test_canonical_path_unreachable_is_none():
    assert canonical_route(grid3(), "d", "o") is None


def test_canonical_path_zero_time_arcs():
    nodes = [RoadNode("s", NodeKind.ORIGIN, residents=1.0, weight=1.0),
             RoadNode("x", NodeKind.TRANSSHIPMENT),
             RoadNode("t", NodeKind.DESTINATION, capacity=5.0)]
    arcs = [RoadArc("f1", "s", "x", 0.0), RoadArc("f2", "x", "s", 0.0),
            RoadArc("f3", "x", "t", 0.0)]
    net = Network(nodes, arcs)
    g = net.index()
    assert g.dijkstra(g.nodes_of("t"), reverse=True)[0][g.node_no["s"]] == 0.0
    assert canonical_route(net, "s", "t") == (("f1", "f3"), False)


def test_facility_times_equal_forward_searches():
    # the per-facility reverse tables hold exactly the forward times from
    # every origin, on the flooded and on the fully repaired network
    for seed in range(100):
        net = synth.random_instance(seed).network
        g = net.index()
        for closed in (net.vulnerable_ids, frozenset()):
            tables = g.facility_times(g.arcs_of(closed))
            assert [g.node_ids[d] for d in tables] == \
                [d.id for d in net.destinations()]
            for o in net.origins():
                k = g.node_no[o.id]
                fwd = shortest_paths(net, o.id, closed)
                for d in net.destinations():
                    table = tables[g.node_no[d.id]]
                    assert (table[k] < math.inf) == (d.id in fwd), seed
                    if d.id in fwd:
                        assert table[k] == \
                            pytest.approx(fwd[d.id], abs=1e-9), seed


def test_facility_ranking_is_nearest_first():
    # ties go to the smaller facility number (id); a facility the origin
    # cannot reach is left out, and an origin that reaches none gets [].
    # Origins o, p, q are nodes 0-2, facilities d0, d1, d2 nodes 3-5
    o, p, q, d0, d1, d2 = range(6)
    inf = math.inf
    tables = {d2: [3.0, 1.0, inf], d1: [3.0, inf, inf], d0: [5.0, inf, inf]}
    assert GraphIndex.facility_ranking(tables, o) == [(3.0, d1), (3.0, d2),
                                                      (5.0, d0)]
    assert GraphIndex.facility_ranking(tables, p) == [(1.0, d2)]
    assert GraphIndex.facility_ranking(tables, q) == []


def test_articulation_and_components():
    # o - c - d chain: c is the cut vertex
    nodes = [RoadNode("o", NodeKind.ORIGIN, residents=1.0, weight=1.0),
             RoadNode("c", NodeKind.TRANSSHIPMENT),
             RoadNode("d", NodeKind.DESTINATION, capacity=3.0)]
    arcs = [RoadArc("e1", "o", "c", 1.0), RoadArc("e2", "c", "o", 1.0),
            RoadArc("e3", "c", "d", 1.0), RoadArc("e4", "d", "c", 1.0)]
    net = Network(nodes, arcs)
    adj = undirected_adjacency(net)

    def not_origin(n):
        return net.nodes[n].kind is not NodeKind.ORIGIN

    def anything(n):
        return True

    assert cut_nodes(adj, anything) == ({"c"}, [{"c", "d", "o"}])
    assert cut_nodes(adj, not_origin) == ({"c"}, [])
    assert bare_sides(adj.__getitem__, "c", anything) == [{"d"}, {"o"}]
    assert bare_sides(adj.__getitem__, "c", not_origin) == [{"d"}]
    assert bare_sides(adj.__getitem__, "o", anything) == []  # o cuts nothing


def _flood_components(adj, gone=frozenset()):
    """The components of ``adj`` minus the nodes ``gone``, by flood, sorted
    by their smallest node."""
    seen, comps = set(gone), []
    for start in sorted(adj):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        seen.add(start)
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    comp.add(v)
                    stack.append(v)
        comps.append(comp)
    return comps


def _random_adjacency(seed):
    """An undirected graph on 1-24 nodes in 1-5 pieces: single nodes,
    rings, and trees with chords."""
    rng = random.Random(seed)
    ids = [f"v{i:02d}" for i in range(rng.randint(1, 24))]
    rng.shuffle(ids)
    adj = {n: set() for n in ids}

    def join(u, v):
        adj[u].add(v)
        adj[v].add(u)

    ends = sorted(rng.sample(range(1, len(ids)), min(len(ids) - 1,
                                                       rng.randint(0, 4))))
    for piece in (ids[i:j] for i, j in zip([0] + ends, ends + [len(ids)])):
        if len(piece) > 2 and rng.random() < 0.3:  # a ring
            for u, v in zip(piece, piece[1:] + piece[:1]):
                join(u, v)
            continue
        for i in range(1, len(piece)):  # a tree, then chords
            join(piece[rng.randrange(i)], piece[i])
        for _ in range(rng.randint(0, len(piece) // 2)):
            join(*rng.sample(piece, 2))
    return adj


def test_cut_nodes_and_bare_components_match_brute_force():
    # a cut node is one whose deletion leaves more components; a bare
    # component is a flooded component of bare nodes only
    kinds = {"cut": 0, "bare": 0, "bare cycle": 0, "single": 0, "several": 0}
    for seed in range(400):
        rng = random.Random(~seed)
        adj = _random_adjacency(seed)
        terminals = set(rng.sample(sorted(adj),
                                   rng.randint(0, min(3, len(adj)))))
        whole = _flood_components(adj)
        cuts = {v for v in adj if len(_flood_components(adj, {v})) > len(whole)}
        bare = [c for c in whole if not c & terminals]
        assert cut_nodes(adj, lambda n: n not in terminals) == (cuts, bare), seed
        kinds["cut"] += bool(cuts)
        kinds["bare"] += len(bare) > 1
        kinds["bare cycle"] += any(
            len(c) > 2 and all(len(adj[n]) > 1 for n in c) for c in bare)
        kinds["single"] += any(len(c) == 1 for c in whole)
        kinds["several"] += len(whole) > 1
    assert min(kinds.values()) >= 50, kinds


# -- closing arcs in a reverse table ------------------------------------------

def _snapped_network(seed: int, **sizes) -> Network:
    """A random town (``sizes`` as `synth.random_instance` takes them) with
    its times snapped to a few values: zero-time arcs, ties and float
    near-ties (0.1 + 0.2 != 0.3)."""
    rng = random.Random(seed)
    net = synth.random_instance(seed, decorate=seed % 2 == 1,
                                coupled=seed % 3 == 0, **sizes).network
    arcs = [dataclasses.replace(
                a, travel_time=rng.choice([0.0, 0.1, 0.2, 0.3, 1.0, 2.0]))
            for a in net.arcs.values()]
    return Network(net.nodes.values(), arcs)


def _applied(table, moved):
    """``table`` with the labels ``close_arcs`` moved."""
    after = list(table)
    for v, t in moved.items():
        after[v] = t
    return after


def test_closing_arcs_equals_a_fresh_search_bit_for_bit():
    # along zero-time arcs a source can reach a closed arc's tail; were it
    # relabelled like any other node, the multi-source table would come out
    # wrong (seed 12 closing a17, among others).  A table already built
    # with some arcs closed is repaired the same way, given that set
    closures = reclosures = 0
    for seed in range(300):
        net = _snapped_network(seed)
        g = net.index()
        rng = random.Random(seed)
        ids = sorted(net.arcs)
        arc_sets = [g.arcs_of((aid,)) for aid in ids] + [
            g.arcs_of(rng.sample(ids, min(3, len(ids)))) for _ in range(30)]
        already = g.arcs_of(rng.sample(ids, min(4, len(ids))))
        for sources in [(d,) for d in g.dests] + [g.dests]:
            for closed in (frozenset(), already):
                table = g.dijkstra(sources, closed, reverse=True)[0]
                for arcs in arc_sets:
                    moved = g.close_arcs(table, sources, arcs, closed)
                    assert all(table[v] != t for v, t in moved.items())
                    assert _applied(table, moved) == g.dijkstra(
                        sources, closed | arcs, reverse=True)[0], \
                        (seed, closed, arcs)
                    if closed:
                        reclosures += 1
                    else:
                        closures += 1
    assert closures == reclosures == 38822


def test_closing_arcs_follows_the_kernels_tolerance():
    # three parallel roads offer o the times 1 + 1.5e-9, 1 + 1e-9 and 1 in
    # that order, and the kernel keeps 1.  Without "a", the 1 + 1e-9 offer
    # is taken and then blocks 1, so closing an arc off the search tree
    # moves o
    nodes = [RoadNode("o", NodeKind.ORIGIN, residents=1.0, weight=1.0),
             RoadNode("d", NodeKind.DESTINATION, capacity=9.0)]
    arcs = [RoadArc(aid, "o", "d", tt)
            for aid, tt in (("a", 1 + 1.5e-9), ("b", 1 + 1e-9), ("c", 1.0))]
    net = Network(nodes, arcs)
    g = net.index()
    d, o = g.nodes_of("do")
    table = g.dijkstra((d,), reverse=True)[0]
    for r in range(1, 4):
        for arcs in itertools.combinations("abc", r):
            shut = g.arcs_of(arcs)
            assert _applied(table, g.close_arcs(table, (d,), shut)) == \
                g.dijkstra((d,), shut, reverse=True)[0], arcs
    assert g.close_arcs(table, (d,), g.arcs_of("a")) == {o: 1 + 1e-9}
    assert g.close_arcs(table, (d,), g.arcs_of("abc")) == {o: math.inf}


def test_closing_arcs_returns_only_what_moves():
    # o reaches d in 2 over a; "ob" is slack, "bd" is b's only way out
    net = grid3()
    g = net.index()
    a, b, d, o = g.nodes_of("abdo")
    table = g.dijkstra((d,), reverse=True)[0]

    def close(*arc_ids):
        return g.close_arcs(table, (d,), g.arcs_of(arc_ids))

    assert close() == {}
    assert close("ob") == {}
    assert close("bd") == {b: math.inf}
    assert close("oa") == {o: 4.0}
    assert close("ad") == {a: math.inf, o: 4.0}


# -- the nearest-facility table -----------------------------------------------

def _least_labels(g, closed):
    """Per node, the least label over the per-facility tables and the
    facility ``facility_ranking`` puts first (``inf`` and -1 where none is
    reached): what a nearest-facility table must hold."""
    tables = g.facility_times(closed)
    ranked = [g.facility_ranking(tables, v) for v in range(len(g.node_ids))]
    return ([r[0][0] if r else math.inf for r in ranked],
            [r[0][1] if r else -1 for r in ranked])


def test_nearest_table_is_the_least_facility_label_bit_for_bit():
    # random towns on their own times and snapped ones (zero-time arcs,
    # ties, near-ties), over random closed sets: an uncontested nearest
    # table, searched afresh or repaired over more closed arcs, holds each
    # node's least per-facility label to the bit and, as its owner, the
    # facility that facility_ranking puts first; a repair gives the table
    # up exactly where a fresh search over the same arcs does
    fresh = repaired = contested = 0
    for seed in range(150):
        sizes = {"max_nodes": 30, "max_vuln": 20, "max_origins": 8}
        for net in (synth.random_instance(seed, decorate=seed % 2 == 1,
                                          **sizes).network,
                    _snapped_network(seed, **sizes)):
            g = net.index()
            rng = random.Random(seed)
            ids = sorted(net.arcs)
            for _ in range(6):
                closed = g.arcs_of(rng.sample(ids, rng.randint(
                    0, len(ids) // 3)))
                found = g.nearest_times(closed)
                if found is None:
                    contested += 1
                    continue
                assert found == _least_labels(g, closed), (seed, closed)
                fresh += 1
                for _ in range(4):
                    arcs = g.arcs_of(rng.sample(ids, min(len(ids), 3)))
                    change = g.close_nearest(*found, arcs, closed)
                    assert (change is None) == (
                        g.nearest_times(closed | arcs) is None), (seed, arcs)
                    if change is None:
                        contested += 1
                        continue
                    moved, owners = change
                    assert all(found[0][v] != t for v, t in moved.items())
                    assert all(found[1][v] != d for v, d in owners.items())
                    after = (_applied(found[0], moved),
                             _applied(found[1], owners))
                    assert after == _least_labels(g, closed | arcs), \
                        (seed, closed, arcs)
                    repaired += 1
    assert fresh > 1600 and repaired > 6500, (fresh, repaired)
    assert 0 < contested < 200, contested


def test_a_near_tie_between_facilities_is_contested():
    # o reaches d0 in 10 by b and d1 in 10 - 0.5e-9 by c.  One search from
    # both settles d0 first, and its offer of 10 keeps d1's out by the
    # kernel's tolerance, though d1's own table holds the smaller time: a
    # nearest table would be wrong there, so it is contested, whether it is
    # searched afresh or repaired from the table where a holds o at 9
    nodes = [RoadNode("o", NodeKind.ORIGIN, residents=1.0, weight=1.0),
             RoadNode("d0", NodeKind.DESTINATION),
             RoadNode("d1", NodeKind.DESTINATION)]
    arcs = [RoadArc("a", "o", "d0", 9.0), RoadArc("b", "o", "d0", 10.0),
            RoadArc("c", "o", "d1", 10.0 - 0.5e-9)]
    g = Network(nodes, arcs).index()
    d0, d1, o = g.nodes_of(("d0", "d1", "o"))
    a = g.arcs_of("a")
    assert g.dijkstra(g.dests, a, reverse=True)[0][o] == 10.0
    assert _least_labels(g, a) == ([0.0, 0.0, 10.0 - 0.5e-9], [d0, d1, d1])
    assert g.nearest_times(a) is None
    found = g.nearest_times()
    assert found == ([0.0, 0.0, 9.0], [d0, d1, d0]) == _least_labels(
        g, frozenset())
    assert g.close_nearest(*found, a) is None
    # an exact tie is no contest: the smaller number owns o
    c = g.arcs_of("c")
    exact = Network(nodes, arcs[1:2] + [RoadArc("c", "o", "d1", 10.0)])
    assert exact.index().nearest_times() == ([0.0, 0.0, 10.0], [d0, d1, d0])
    assert g.close_nearest(*found, a | c) == ({o: 10.0}, {})


def test_an_exact_tie_over_a_zero_time_arc_is_no_contest():
    # a reaches d2 in 5 by its own road, and d1 in 5 over the zero-time
    # a -> b; c reaches both over c -> a.  The kernel settles a before b
    # (the smaller number at the same label), so a is first named after d2
    # alone; once b is named, the exact tie lowers a to d1, the smaller
    # number, and c with it.  The repair from the table where the washed-out
    # f holds a at 1 names a after b and agrees with a fresh search
    nodes = [RoadNode("a", NodeKind.ORIGIN, residents=1.0, weight=1.0),
             RoadNode("b"), RoadNode("c", NodeKind.ORIGIN, residents=1.0,
                                     weight=1.0),
             RoadNode("d1", NodeKind.DESTINATION),
             RoadNode("d2", NodeKind.DESTINATION)]
    arcs = [RoadArc("ab", "a", "b", 0.0), RoadArc("bd", "b", "d1", 5.0),
            RoadArc("ad", "a", "d2", 5.0), RoadArc("ca", "c", "a", 0.0),
            RoadArc("f", "a", "d2", 1.0)]
    g = Network(nodes, arcs).index()
    a, b, c, d1, d2 = g.nodes_of(("a", "b", "c", "d1", "d2"))
    f = g.arcs_of("f")
    fresh = g.nearest_times(f)
    assert fresh == ([5.0, 5.0, 5.0, 0.0, 0.0], [d1, d1, d1, d1, d2]) \
        == _least_labels(g, f)
    found = g.nearest_times()
    assert found[1][a] == found[1][c] == d2
    moved, owners = g.close_nearest(*found, f)
    assert (_applied(found[0], moved), _applied(found[1], owners)) == fresh


def test_a_label_that_falls_can_contest_a_node_it_does_not_move():
    # v reaches d0 in 10 by a and in 10 - 0.5e-9 by m, and the kernel
    # keeps a's offer, which came first; x reaches d1 in 11 - gap and d0
    # in 11 by v.  Shut a, and v falls by 0.5e-9, which moves no other
    # label: x's offer over v comes within 2*DIST_TOL of x's own label
    # when the gap is below 2.5e-9, and that unmoved node is then
    # contested.  The repair gives the table up exactly when a fresh
    # search does, and equals it otherwise
    nodes = [RoadNode("d0", NodeKind.DESTINATION),
             RoadNode("d1", NodeKind.DESTINATION), RoadNode("m"),
             RoadNode("v"), RoadNode("x", NodeKind.ORIGIN, residents=1.0,
                                     weight=1.0)]
    outcomes = []
    for gap in (2.1e-9, 2.3e-9, 2.4e-9, 2.6e-9, 3e-9, 5e-9):
        arcs = [RoadArc("a", "v", "d0", 10.0), RoadArc("b", "v", "m", 5.0),
                RoadArc("e", "m", "d0", 5.0 - 0.5e-9),
                RoadArc("f", "x", "v", 1.0), RoadArc("h", "x", "d1", 11 - gap)]
        g = Network(nodes, arcs).index()
        d0, d1, v, x = g.nodes_of(("d0", "d1", "v", "x"))
        a = g.arcs_of("a")
        found = g.nearest_times()
        assert found is not None and found[1][v] == d0 and found[1][x] == d1
        assert g.close_arcs(found[0], g.dests, a) == {v: 10.0 - 0.5e-9}
        change = g.close_nearest(*found, a)
        fresh = g.nearest_times(a)
        assert (change is None) == (fresh is None), gap
        if change is not None:
            assert (_applied(found[0], change[0]),
                    _applied(found[1], change[1])) == fresh, gap
        outcomes.append(change is None)
    assert outcomes == [True, True, True, False, False, False]


# -- the indexed kernel against a plain reference ---------------------------

def test_index_numbers_nodes_and_arcs_in_id_order():
    for seed in range(50):
        net = _snapped_network(seed, max_nodes=30, max_vuln=20,
                               max_origins=8)
        g = net.index()
        assert net.index() is g   # built once, kept with the network
        assert list(g.node_ids) == sorted(net.nodes)
        assert list(g.arc_ids) == sorted(net.arcs)
        assert all(g.node_no[n] == i for i, n in enumerate(g.node_ids))
        assert all(g.arc_no[a] == i for i, a in enumerate(g.arc_ids))
        assert [g.node_ids[k] for k in g.origins] == \
            [o.id for o in net.origins()]
        assert [g.node_ids[d] for d in g.dests] == \
            [d.id for d in net.destinations()]
        # the reference adjacency is read off the records alone
        outs = {nid: [] for nid in net.nodes}
        ins = {nid: [] for nid in net.nodes}
        for aid, arc in net.arcs.items():
            outs[arc.tail].append(aid)
            ins[arc.head].append(aid)
        for u, nid in enumerate(g.node_ids):
            assert net.out_arcs(nid) == tuple(sorted(outs[nid]))
            assert net.in_arcs(nid) == tuple(sorted(ins[nid]))
            for records, arc_ids, end in ((g.out[u], outs[nid], "head"),
                                          (g.inc[u], ins[nid], "tail")):
                # every arc of the node once, in id order, with its other end
                assert [g.arc_ids[a] for a, _, _ in records] == \
                    sorted(arc_ids)
                for a, v, t in records:
                    arc = net.arcs[g.arc_ids[a]]
                    assert g.node_ids[v] == getattr(arc, end)
                    assert t == arc.travel_time == g.minutes[a]


def test_indexed_kernel_settles_as_the_plain_reference():
    # forward, reverse, multi-source and seeded searches over random closed
    # sets: the same labels to the bit, settled in the same order, and every
    # node the search never settled left at its starting label
    runs = seeded = 0
    for seed in range(150):
        net = _snapped_network(seed, max_nodes=30, max_vuln=20,
                               max_origins=8)
        g = net.index()
        rng = random.Random(seed)
        nodes, arc_ids = sorted(net.nodes), sorted(net.arcs)
        dest_ids = [d.id for d in net.destinations()]
        for _ in range(4):
            closed = frozenset(rng.sample(arc_ids,
                                          rng.randint(0, len(arc_ids) // 3)))
            searches = [([rng.choice(nodes)], False), (dest_ids, True),
                        (rng.sample(nodes, min(3, len(nodes))), True),
                        ([rng.choice(dest_ids)], True)]
            for sources, reverse in searches:
                want = plain_dijkstra(net, sources, closed, reverse)
                best, order = g.dijkstra(g.nodes_of(sources),
                                         g.arcs_of(closed), reverse)
                assert [(g.node_ids[u], best[u]) for u in order] == \
                    list(want.items()), (seed, sources, reverse)
                assert sum(t < math.inf for t in best) == len(order)
                runs += 1
                # seeded: unlabel some nodes and resume from labelled ones
                table = dict(want)
                for v in rng.sample(sorted(table), len(table) // 2):
                    del table[v]
                if not table:
                    continue
                seeds = rng.sample(sorted(table), rng.randint(1, len(table)))
                want = plain_dijkstra(net, seeds, closed, reverse, table)
                labels = [table.get(nid, math.inf) for nid in g.node_ids]
                start = list(labels)
                best, order = g.dijkstra(g.nodes_of(seeds), g.arcs_of(closed),
                                         reverse, labels)
                assert best is labels
                assert [(g.node_ids[u], best[u]) for u in order] == \
                    list(want.items()), (seed, seeds, reverse)
                settled = set(order)
                assert all(best[u] == start[u] for u in range(len(best))
                           if u not in settled)
                seeded += 1
    assert runs == 2400 and seeded > 1500, (runs, seeded)


# -- randomized properties -----------------------------------------------------

def random_net(rng: random.Random) -> Network:
    n = rng.randint(3, 9)
    ids = [f"n{i}" for i in range(n)]
    nodes = [RoadNode(ids[0], NodeKind.ORIGIN, residents=1.0, weight=1.0),
             RoadNode(ids[-1], NodeKind.DESTINATION, capacity=99.0)]
    nodes += [RoadNode(i, NodeKind.TRANSSHIPMENT) for i in ids[1:-1]]
    arcs = []
    for j in range(rng.randint(n, 3 * n)):
        u, v = rng.sample(ids, 2)
        vuln = rng.random() < 0.3
        arcs.append(RoadArc(f"a{j:02d}", u, v, round(rng.uniform(0, 5), 2),
                            vulnerable=vuln,
                            mitigation_cost=1.0 if vuln else 0.0))
    return Network(nodes, arcs)


def test_canonical_path_cost_matches_dijkstra():
    rng = random.Random(4821)
    for _ in range(150):
        net = random_net(rng)
        dist = shortest_paths(net, "n0")
        target = sorted(net.nodes)[-1]
        g = net.index()
        s, t = g.nodes_of(("n0", target))
        to_target = g.dijkstra((t,), reverse=True)[0]
        found = g.canonical_walk(s, t, frozenset(), to_target)
        if target not in dist:
            assert found is None
            continue
        cost, path = to_target[s], found[0]
        assert abs(cost - dist[target]) <= 1e-9
        # the arc sequence really is a connected n0 -> target walk of that cost
        at, total = "n0", 0.0
        for a in path:
            arc = net.arcs[g.arc_ids[a]]
            assert arc.tail == at
            at = arc.head
            total += arc.travel_time
        assert at == target and abs(total - cost) <= 1e-9


def test_multi_target_equals_min_of_reverse():
    rng = random.Random(977)
    for _ in range(80):
        net = random_net(rng)
        g = net.index()
        targets = [nid for nid in net.nodes if rng.random() < 0.4] or ["n0"]
        combined = g.dijkstra(g.nodes_of(targets), reverse=True)[0]
        singles = [g.dijkstra((t,), reverse=True)[0]
                   for t in g.nodes_of(targets)]
        for nid in net.nodes:
            u = g.node_no[nid]
            best = min(s[u] for s in singles)
            assert combined[u] == best or abs(combined[u] - best) <= 1e-9
            # a reverse label from one target is the forward distance to it
            fwd = shortest_paths(net, nid)
            for t, s in zip(targets, singles):
                assert (t in fwd) == (s[u] < math.inf)
                if t in fwd:
                    assert abs(fwd[t] - s[u]) <= 1e-9
