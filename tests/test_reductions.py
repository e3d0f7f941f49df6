"""Variable fixing/masking must never move the optimum."""
from __future__ import annotations

import hashlib
import json
import math

import pytest

from floodmit.ingest import InstanceSpec, instance_from_file
from floodmit.net import (NodeKind, RoadArc, RoadNode, cut_nodes,
                          undirected_adjacency)
from floodmit.reductions import (REASON_COMPONENT, REASON_SP_BOUND,
                                 FixedUpgrades, VariableMask, component_mask,
                                 compute_sp_tables, distance_dominated,
                                 forced_exits, merge_masks,
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
    tables = compute_sp_tables(f1_instance(9.0))
    assert tables.upgraded["d1"]["o1"] == pytest.approx(5.0)
    assert tables.upgraded["d2"]["o1"] == pytest.approx(7.0)
    assert tables.upgraded["d1"]["o2"] == pytest.approx(1.0)
    assert tables.upgraded["d2"]["o2"] == pytest.approx(6.0)
    # without upgrades d1 is unreachable from both origins
    assert "o1" not in tables.flooded["d1"]
    assert "o2" not in tables.flooded["d1"]
    assert tables.flooded["d2"]["o1"] == pytest.approx(7.0)
    assert tables.flooded["d2"]["o2"] == pytest.approx(6.0)
    assert math.isinf(tables.worst_served["o1"])
    assert math.isinf(tables.worst_served["o2"])


def test_forced_exits_single_exit_fixed():
    fixed = forced_exits(forced_exit_instance())
    assert fixed.forced_y == frozenset({"kv"})
    assert fixed.forced_x == frozenset({("k", "kv")})
    assert fixed.exit_vi_origins == ()


def test_forced_exits_flags_unaffordable_fix():
    inst = build_instance(
        [O("k", 3), D("d", 5)],
        [RoadArc("kd", "k", "d", 1.0, vulnerable=True, mitigation_cost=4.0)],
        3.0, 4.0)
    fixed = forced_exits(inst)
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
    fixed = forced_exits(inst)
    assert fixed.forced_y == frozenset()
    assert fixed.exit_vi_origins == ("o",)


def test_forced_exits_skips_mixed_exits():
    fixed = forced_exits(f1_instance(9.0))
    assert fixed.forced_y == frozenset() and fixed.exit_vi_origins == ()


def test_distance_dominated_masks_beyond_bound():
    inst = build_instance(
        [O("o", 2), T("t"), D("d", 5)],
        [RoadArc("od", "o", "d", 1.0), RoadArc("oe", "o", "d", 1.0),
         RoadArc("ot", "o", "t", 5.0), RoadArc("td", "t", "d", 1.0)],
        0.0, 0.0, budget_fraction=0.0)
    mask = distance_dominated(inst)
    assert mask.eliminated == {("o", "ot"): REASON_SP_BOUND,
                               ("o", "td"): REASON_SP_BOUND}
    assert mask.blocks("o", "ot") and not mask.blocks("o", "od")
    assert mask.arcs_blocked_for("o") == {"ot", "td"}
    # an arc landing exactly on the bound survives (strict comparison)
    assert not mask.blocks("o", "oe")


def test_distance_dominated_needs_full_flooded_reach():
    assert len(distance_dominated(f1_instance(9.0))) == 0


def test_component_mask_blocks_dead_pockets():
    inst = build_instance(
        [O("o", 2), T("c"), T("p1"), T("p2"), D("d", 5)],
        [RoadArc("oc", "o", "c", 1.0), RoadArc("cd", "c", "d", 1.0),
         RoadArc("cp", "c", "p1", 1.0), RoadArc("pc", "p1", "c", 1.0),
         RoadArc("pp", "p1", "p2", 1.0), RoadArc("pp2", "p2", "p1", 1.0)],
        0.0, 0.0, budget_fraction=0.0)
    mask = component_mask(inst)
    assert mask.eliminated == {("o", "pp"): REASON_COMPONENT,
                               ("o", "pp2"): REASON_COMPONENT}


def _two_way(tail, head):
    return [RoadArc(tail + head, tail, head, 1.0),
            RoadArc(head + tail, head, tail, 1.0)]


def test_component_mask_blocks_a_detached_pocket():
    # x1-x2 hangs off nothing; c is the network's one cut node
    inst = build_instance(
        [O("o", 2), T("c"), D("d", 5), T("x1"), T("x2")],
        _two_way("o", "c") + _two_way("c", "d") + _two_way("x1", "x2"),
        0.0, 0.0, budget_fraction=0.0)
    assert component_mask(inst).eliminated == {
        ("o", "x1x2"): REASON_COMPONENT, ("o", "x2x1"): REASON_COMPONENT}


def test_component_mask_splits_a_pocket_at_its_own_cut_node():
    # the detached pocket {a, b, x, q} is cut at x: the triangle a-b-x is
    # beyond x for q, and the whole pocket is beyond reach for o
    inst = build_instance(
        [O("o", 2), T("c"), D("d", 5), T("a"), T("b"), T("x"), O("q", 1)],
        _two_way("o", "c") + _two_way("c", "d") + _two_way("a", "b")
        + _two_way("a", "x") + _two_way("b", "x") + _two_way("x", "q"),
        0.0, 0.0, budget_fraction=0.0)
    assert cut_nodes(undirected_adjacency(inst.network)) == {"c", "x"}
    eliminated = component_mask(inst).eliminated
    pocket = {"ab", "ba", "ax", "xa", "bx", "xb", "xq", "qx"}
    assert {aid for k, aid in eliminated if k == "o"} == pocket
    assert {aid for k, aid in eliminated if k == "q"} == {"ab", "ba"}
    assert set(eliminated.values()) == {REASON_COMPONENT}


def test_component_mask_spares_the_origin_inside_a_pocket():
    # c cuts off {p, o2}, which holds no facility: only o1 loses p-o2
    inst = build_instance(
        [O("o1", 2), T("c"), D("d", 5), T("p"), O("o2", 1)],
        _two_way("o1", "c") + _two_way("c", "d") + _two_way("c", "p")
        + _two_way("p", "o2"),
        0.0, 0.0, budget_fraction=0.0)
    assert component_mask(inst).eliminated == {
        ("o1", "po2"): REASON_COMPONENT, ("o1", "o2p"): REASON_COMPONENT}


def _split_mask(inst):
    """The component mask as first written: split the whole network at each
    cut node and mask every destination-free component."""
    net = inst.network
    adj = undirected_adjacency(net)
    origin_ids = [o.id for o in net.origins()]
    eliminated = {}
    for v in sorted(cut_nodes(adj)):
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
            outside = [k for k in origin_ids if k not in comp]
            arcs = [a for n in comp for a in net.out_arcs(n)
                    if net.arcs[a].head in comp]
            for aid in sorted(arcs):
                for k in outside:
                    eliminated.setdefault((k, aid), REASON_COMPONENT)
    return eliminated


def test_component_mask_matches_the_whole_network_split():
    masked = 0
    for seed in range(1200):
        inst = synth.random_instance(seed, decorate=seed % 2 == 1)
        got = component_mask(inst).eliminated
        # same pairs in the same order
        assert list(got.items()) == list(_split_mask(inst).items()), seed
        masked += bool(got)
    assert masked >= 300


def test_merge_masks_first_reason_wins():
    a = VariableMask({("o", "x"): "alpha"})
    b = VariableMask({("o", "x"): "beta", ("o", "y"): "beta"})
    merged = merge_masks(a, None, b)
    assert merged.eliminated == {("o", "x"): "alpha", ("o", "y"): "beta"}
    assert len(merge_masks()) == 0


def test_standard_reductions_bundle():
    fixed, mask = standard_reductions(forced_exit_instance())
    assert fixed.forced_y == frozenset({"kv"})
    assert isinstance(mask, VariableMask)


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
    assert len(mask) == 1458
    digest = hashlib.sha256(
        json.dumps(sorted(mask.eliminated.items())).encode()).hexdigest()
    assert digest == \
        "f13af4dc179b38635f88f78ce8e4f34b202886cdfda7ab92acb63d469891c423"
