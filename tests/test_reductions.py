"""Variable fixing/masking must never move the optimum."""
from __future__ import annotations

import hashlib
import json
import math

import pytest

from floodmit.ingest import InstanceSpec, instance_from_file
from floodmit.net import (NodeKind, RoadArc, RoadNode, cut_nodes,
                          undirected_adjacency)
from floodmit.reductions import (component_mask, compute_sp_tables,
                                 distance_dominated, forced_exits,
                                 standard_reductions)
from floodmit.solver import SolveStatus, brute_force_oracle, solve_exact
from floodmit import synth

from conftest import build_instance, f1_instance, forced_exit_instance


def O(nid, h):
    return RoadNode(nid, NodeKind.ORIGIN, residents=float(h), weight=float(h))


def T(nid):
    return RoadNode(nid, NodeKind.TRANSSHIPMENT)


def D(nid, cap):
    return RoadNode(nid, NodeKind.DESTINATION, capacity=float(cap))


def test_sp_tables_on_known_instance():
    inst = f1_instance(9.0)
    tables = compute_sp_tables(inst)
    # numbered tables on the network's index, one per facility in id order
    d1, d2, o1, o2 = inst.network.index().nodes_of(("d1", "d2", "o1", "o2"))
    assert list(tables.upgraded) == list(tables.flooded) == [d1, d2]
    assert tables.upgraded[d1][o1] == pytest.approx(5.0)
    assert tables.upgraded[d2][o1] == pytest.approx(7.0)
    assert tables.upgraded[d1][o2] == pytest.approx(1.0)
    assert tables.upgraded[d2][o2] == pytest.approx(6.0)
    # without upgrades d1 is unreachable from both origins
    assert tables.flooded[d1][o1] == math.inf
    assert tables.flooded[d1][o2] == math.inf
    assert tables.flooded[d2][o1] == pytest.approx(7.0)
    assert tables.flooded[d2][o2] == pytest.approx(6.0)


def test_forced_exits_single_exit_fixed():
    fixed = forced_exits(forced_exit_instance().network)
    assert fixed.forced_y == frozenset({"kv"})
    assert fixed.forced_x == frozenset({("k", "kv")})
    assert fixed.exit_vi_origins == ()


def test_forced_exits_flags_unaffordable_fix():
    inst = build_instance(
        [O("k", 3), D("d", 5)],
        [RoadArc("kd", "k", "d", 1.0, vulnerable=True, mitigation_cost=4.0)],
        3.0, 4.0)
    fixed = forced_exits(inst.network)
    assert fixed.forced_y == frozenset({"kd"})
    assert solve_exact(inst).status is SolveStatus.BUDGET_DISCONNECTED
    # the forced purchase alone is over budget
    assert solve_exact(inst, fixings=fixed).status is \
        SolveStatus.BUDGET_DISCONNECTED


def test_forced_exits_multi_exit_becomes_cut():
    inst = build_instance(
        [O("o", 2), T("t"), D("d", 5)],
        [RoadArc("v1", "o", "d", 1.0, vulnerable=True, mitigation_cost=1.0),
         RoadArc("v2", "o", "t", 2.0, vulnerable=True, mitigation_cost=1.0),
         RoadArc("td", "t", "d", 1.0)],
        2.0, 2.0)
    fixed = forced_exits(inst.network)
    assert fixed.forced_y == frozenset()
    assert fixed.exit_vi_origins == ("o",)


def test_forced_exits_skips_mixed_exits():
    fixed = forced_exits(f1_instance(9.0).network)
    assert fixed.forced_y == frozenset() and fixed.exit_vi_origins == ()


def test_distance_dominated_masks_beyond_bound():
    inst = build_instance(
        [O("o", 2), T("t"), D("d", 5)],
        [RoadArc("od", "o", "d", 1.0), RoadArc("oe", "o", "d", 1.0),
         RoadArc("ot", "o", "t", 5.0), RoadArc("td", "t", "d", 1.0)],
        0.0, 0.0, budget_fraction=0.0)
    # an arc landing exactly on the bound (oe) survives: strict comparison
    assert distance_dominated(inst) == {"o": frozenset({"ot", "td"})}


def test_distance_dominated_needs_full_flooded_reach():
    assert distance_dominated(f1_instance(9.0)) == {}


def test_component_mask_blocks_dead_pockets():
    inst = build_instance(
        [O("o", 2), T("c"), T("p1"), T("p2"), D("d", 5)],
        [RoadArc("oc", "o", "c", 1.0), RoadArc("cd", "c", "d", 1.0),
         RoadArc("cp", "c", "p1", 1.0), RoadArc("pc", "p1", "c", 1.0),
         RoadArc("pp", "p1", "p2", 1.0), RoadArc("pp2", "p2", "p1", 1.0)],
        0.0, 0.0, budget_fraction=0.0)
    assert component_mask(inst) == {"o": frozenset({"pp", "pp2"})}


def _two_way(tail, head):
    return [RoadArc(tail + head, tail, head, 1.0),
            RoadArc(head + tail, head, tail, 1.0)]


def test_component_mask_blocks_a_detached_pocket():
    # x1-x2 hangs off nothing; c is the network's one cut node
    inst = build_instance(
        [O("o", 2), T("c"), D("d", 5), T("x1"), T("x2")],
        _two_way("o", "c") + _two_way("c", "d") + _two_way("x1", "x2"),
        0.0, 0.0, budget_fraction=0.0)
    assert component_mask(inst) == {"o": frozenset({"x1x2", "x2x1"})}


def test_component_mask_splits_a_pocket_at_its_own_cut_node():
    # the detached pocket {a, b, x, q} is cut at x: the triangle a-b-x is
    # beyond x for q, and the whole pocket is beyond reach for o
    inst = build_instance(
        [O("o", 2), T("c"), D("d", 5), T("a"), T("b"), T("x"), O("q", 1)],
        _two_way("o", "c") + _two_way("c", "d") + _two_way("a", "b")
        + _two_way("a", "x") + _two_way("b", "x") + _two_way("x", "q"),
        0.0, 0.0, budget_fraction=0.0)
    def bare(n):
        return inst.network.nodes[n].kind is not NodeKind.DESTINATION

    assert cut_nodes(undirected_adjacency(inst.network), bare) == (
        {"c", "x"}, [{"a", "b", "q", "x"}])
    pocket = {"ab", "ba", "ax", "xa", "bx", "xb", "xq", "qx"}
    assert component_mask(inst) == {"o": frozenset(pocket),
                                    "q": frozenset({"ab", "ba"})}


def test_component_mask_spares_the_origin_inside_a_pocket():
    # c cuts off {p, o2}, which holds no facility: only o1 loses p-o2
    inst = build_instance(
        [O("o1", 2), T("c"), D("d", 5), T("p"), O("o2", 1)],
        _two_way("o1", "c") + _two_way("c", "d") + _two_way("c", "p")
        + _two_way("p", "o2"),
        0.0, 0.0, budget_fraction=0.0)
    assert component_mask(inst) == {"o1": frozenset({"po2", "o2p"})}


def _split_mask(inst):
    """The component mask as first written: split the whole network at each
    cut node and mask every destination-free component."""
    net = inst.network
    adj = undirected_adjacency(net)
    origin_ids = [o.id for o in net.origins()]
    blocked = {}
    cuts, _ = cut_nodes(adj, lambda n: True)
    for v in sorted(cuts):
        seen, comps = {v}, []
        for start in adj:
            if start in seen:
                continue
            stack, members = [start], {start}
            seen.add(start)
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        members.add(w)
                        stack.append(w)
            comps.append(members)
        for comp in sorted(comps, key=min):
            if any(net.nodes[n].kind is NodeKind.DESTINATION for n in comp):
                continue
            arcs = {a for n in comp for a in net.out_arcs(n)
                    if net.arcs[a].head in comp}
            for k in origin_ids:
                if k not in comp and arcs:
                    blocked[k] = blocked.get(k, frozenset()) | arcs
    return blocked


def test_component_mask_matches_the_whole_network_split():
    masked = 0
    for seed in range(1200):
        inst = synth.random_instance(seed, decorate=seed % 2 == 1)
        got = component_mask(inst)
        assert got == _split_mask(inst), seed
        masked += bool(got)
    assert masked >= 300


def test_standard_reductions_bundle():
    fixed, mask = standard_reductions(forced_exit_instance())
    assert fixed.forced_y == frozenset({"kv"})
    assert mask == {}
    # the slow road lies beyond o's worst dry trip (10 minutes), and the
    # p1-p2 pocket behind cut node o holds no facility: o's mask is both
    inst = build_instance(
        [O("o", 2), D("d1", 5), D("d2", 5), T("p1"), T("p2")],
        [RoadArc("od1", "o", "d1", 1.0), RoadArc("od2", "o", "d2", 10.0),
         RoadArc("slow", "o", "d1", 20.0)]
        + _two_way("o", "p1") + _two_way("p1", "p2"),
        0.0, 0.0, budget_fraction=0.0)
    assert distance_dominated(inst) == {"o": frozenset({"slow"})}
    assert component_mask(inst) == {"o": frozenset({"p1p2", "p2p1"})}
    assert standard_reductions(inst)[1] == {
        "o": frozenset({"slow", "p1p2", "p2p1"})}


def test_reductions_never_move_the_optimum():
    agree = 0
    for seed in range(60):
        inst = synth.random_instance(seed)
        fixed, mask = standard_reductions(inst)
        plain = brute_force_oracle(inst)
        masked = brute_force_oracle(inst, mask=mask, fixings=fixed)
        reduced = solve_exact(inst, fixings=fixed)
        for other in (masked, reduced):
            assert plain.status == other.status, (seed, plain.status, other.status)
            if plain.status is SolveStatus.OPTIMAL:
                assert abs(plain.objective - other.objective) <= 1e-9, seed
        if plain.status is SolveStatus.OPTIMAL:
            agree += 1
    assert agree >= 15


def test_component_mask_on_the_large_town_is_pinned():
    # 17 articulation points, 1,458 masked pairs: a change to how side
    # components are found must give the same mask, byte for byte
    inst = instance_from_file(synth.large_network_file(7),
                              InstanceSpec(alpha=0.15))
    mask = component_mask(inst)
    assert sum(len(arcs) for arcs in mask.values()) == 1458
    digest = hashlib.sha256(json.dumps(
        sorted((k, sorted(arcs)) for k, arcs in mask.items())).encode())
    assert digest.hexdigest() == \
        "915c83580f596b0b7ca1ef580328c4e29e983800a0139ad5f4afaafa259a463e"


def test_masks_over_random_towns_are_pinned():
    # distance_dominated masks nothing on the ladder towns, so both masks
    # are pinned here: 6,676 distance pairs on 343 of 800 random towns,
    # and 1,913 component pairs
    digest = hashlib.sha256()
    pairs = [0, 0]
    for seed in range(400):
        for coupled in (False, True):
            inst = synth.random_instance(seed, decorate=seed % 2 == 0,
                                         coupled=coupled)
            masks = (distance_dominated(inst), component_mask(inst))
            for i, mask in enumerate(masks):
                pairs[i] += sum(len(arcs) for arcs in mask.values())
            digest.update(json.dumps(
                [sorted((k, sorted(arcs)) for k, arcs in mask.items())
                 for mask in masks]).encode())
    assert pairs == [6676, 1913]
    assert digest.hexdigest() == \
        "56ef7b4a509b95c3347833ee231cff902137bf4eceea81b8545582e815de7a71"
