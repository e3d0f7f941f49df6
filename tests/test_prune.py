"""The eight exact reductions, their log, and solution lifting."""
from __future__ import annotations

import hashlib
import math
import random

import pytest

from floodmit.ingest import (InstanceSpec, ProblemInstance, instance_from_file,
                             with_network)
from floodmit.net import Network, NodeKind, RoadArc, RoadNode
from floodmit import prune
from floodmit.prune import (TECHNIQUE_ORDER, PruneLog, apply_technique,
                            expand_path, expand_solution, harvest_triangle_vis,
                            prune_all, replay_log)
from floodmit.solver import SolveStatus, brute_force_oracle, solve_exact, validate_solution
from floodmit import synth

from conftest import build_instance


def T(nid):
    return RoadNode(nid, NodeKind.TRANSSHIPMENT)


def O(nid, h):
    return RoadNode(nid, NodeKind.ORIGIN, residents=float(h), weight=float(h))


def D(nid, cap):
    return RoadNode(nid, NodeKind.DESTINATION, capacity=float(cap))


def test_t6_removes_self_loops():
    net = Network([O("o", 1), D("d", 5)],
                  [RoadArc("od", "o", "d", 1.0), RoadArc("loop", "o", "o", 2.0)])
    out, actions = apply_technique(net, 6)
    assert sorted(out.arcs) == ["od"]
    assert actions[0].removed_arcs == ("loop",)


def test_t5_keeps_fastest_parallel():
    net = Network([O("o", 1), D("d", 5)],
                  [RoadArc("p1", "o", "d", 3.0), RoadArc("p2", "o", "d", 2.0),
                   RoadArc("p3", "o", "d", 2.0),
                   RoadArc("v1", "o", "d", 1.0, vulnerable=True, mitigation_cost=1.0),
                   RoadArc("v2", "o", "d", 1.0, vulnerable=True, mitigation_cost=1.0)])
    out, _ = apply_technique(net, 5)
    # fastest wins, tie broken by id; vulnerable arcs are never bundled away
    assert sorted(out.arcs) == ["p2", "v1", "v2"]


def test_t2_cascades_dead_ends():
    net = Network([O("o", 1), D("d", 5), T("t1"), T("t2")],
                  [RoadArc("od", "o", "d", 1.0), RoadArc("ot", "o", "t1", 1.0),
                   RoadArc("tt", "t1", "t2", 1.0)])
    out, actions = apply_technique(net, 2)
    assert sorted(out.nodes) == ["d", "o"]
    assert set(actions[0].removed_nodes) == {"t1", "t2"}


def test_t1_drops_empty_side_component():
    # o - d is the live side; {s1, s2} hangs off d through a cut vertex
    net = Network(
        [O("o", 1), D("d", 5), T("s1"), T("s2")],
        [RoadArc("od", "o", "d", 1.0), RoadArc("do", "d", "o", 1.0),
         RoadArc("ds", "d", "s1", 1.0), RoadArc("sd", "s1", "d", 1.0),
         RoadArc("ss", "s1", "s2", 1.0), RoadArc("ss2", "s2", "s1", 1.0)])
    out, _ = apply_technique(net, 1)
    assert sorted(out.nodes) == ["d", "o"]


def test_t3_folds_pendant_origin():
    net = Network(
        [O("p", 4), T("h"), D("d", 9)],
        [RoadArc("ph", "p", "h", 2.0), RoadArc("hp", "h", "p", 2.0),
         RoadArc("hd", "h", "d", 1.0)])
    out, actions = apply_technique(net, 3)
    assert "p" not in out.nodes
    host = out.nodes["h"]
    assert host.kind is NodeKind.ORIGIN
    assert host.residents == 4.0 and host.weight == 4.0
    (rec,) = actions[0].merges
    assert rec.offset == pytest.approx(8.0)  # 4 residents * 2 minutes


def test_t3_skips_vulnerable_or_origin_hosts():
    vuln = Network(
        [O("p", 4), T("h"), D("d", 9)],
        [RoadArc("ph", "p", "h", 2.0, vulnerable=True, mitigation_cost=1.0),
         RoadArc("hp", "h", "p", 2.0), RoadArc("hd", "h", "d", 1.0)])
    out, actions = apply_technique(vuln, 3)
    assert "p" in out.nodes and not actions
    into_origin = Network(
        [O("p", 4), O("q", 2), D("d", 9)],
        [RoadArc("pq", "p", "q", 2.0), RoadArc("qp", "q", "p", 2.0),
         RoadArc("qd", "q", "d", 1.0)])
    out2, actions2 = apply_technique(into_origin, 3)
    assert "p" in out2.nodes and not actions2


def test_t4_drops_bypassed_middle():
    net = Network(
        [O("o", 1), T("m"), D("d", 9)],
        [RoadArc("om", "o", "m", 2.0), RoadArc("md", "m", "d", 2.0),
         RoadArc("od", "o", "d", 3.0)])
    out, _ = apply_technique(net, 4)
    assert "m" not in out.nodes
    # but a middle that beats the direct arc must survive
    keep = Network(
        [O("o", 1), T("m"), D("d", 9)],
        [RoadArc("om", "o", "m", 1.0), RoadArc("md", "m", "d", 1.0),
         RoadArc("od", "o", "d", 3.0)])
    out2, actions2 = apply_technique(keep, 4)
    assert "m" in out2.nodes and not actions2


def test_t7_contracts_chain_and_expand_path():
    net = Network(
        [O("o", 1), T("m"), D("d", 9)],
        [RoadArc("om", "o", "m", 2.0), RoadArc("md", "m", "d", 3.0)])
    out, actions = apply_technique(net, 7)
    assert "m" not in out.nodes
    (new_id,) = [a for a in out.arcs if a not in net.arcs]
    assert out.arcs[new_id].travel_time == pytest.approx(5.0)
    (con,) = actions[0].contractions
    assert con.chain == ("om", "md")
    assert expand_path([new_id], {con.new_arc_id: con.chain}) == ("om", "md")
    assert expand_path(["om"], {}) == ("om",)


def test_t8_drops_dominated_direct_arc():
    net = Network(
        [O("o", 1), T("z"), D("d", 9)],
        [RoadArc("oz", "o", "z", 1.0), RoadArc("zd", "z", "d", 1.0),
         RoadArc("od", "o", "d", 3.0)])
    out, actions = apply_technique(net, 8)
    assert "od" not in out.arcs
    assert actions[0].removed_arcs == ("od",)


def test_harvest_triangle_vis_strictly_faster_direct():
    net = Network(
        [O("o", 1), T("z"), D("d", 9)],
        [RoadArc("oz", "o", "z", 2.0), RoadArc("zd", "z", "d", 2.0),
         RoadArc("od", "o", "d", 1.0)])
    assert harvest_triangle_vis(net) == [("oz", "od", "zd")]
    out, actions = apply_technique(net, 8)
    assert "od" in out.arcs and not actions  # strictly-faster direct arc stays


# -- the full pass ---------------------------------------------------------------

def test_prune_all_reports_and_replays():
    inst = synth.random_instance(71, decorate=True)
    pruned = prune_all(inst.network)
    stats = pruned.stats
    assert stats.rounds >= 1
    assert sorted(stats.by_technique) == sorted(TECHNIQUE_ORDER)
    rows = stats.rows()
    assert len(rows) == 8
    assert stats.original["variables"] >= stats.final["variables"]
    _assert_replays(inst.network, pruned)
    assert pruned.log.to_json() == pruned.log.to_json()


def _assert_replays(net, pruned):
    """Replaying the log on ``net`` gives the pruned network, record for
    record and in order."""
    replayed = replay_log(net, pruned.log)
    assert list(replayed.nodes.values()) == list(pruned.network.nodes.values())
    assert list(replayed.arcs.values()) == list(pruned.network.arcs.values())


def test_replay_log_rebuilds_contractions_and_merges():
    # the demo town's log contracts 14 chains into new arcs and folds 3
    # origins into their hosts
    inst = instance_from_file(synth.demo_network_file(),
                              InstanceSpec(alpha=0.15))
    pruned = prune_all(inst.network)
    actions = pruned.log.actions
    assert sum(len(act.contractions) for act in actions) == 14
    assert sum(len(act.merges) for act in actions) == 3
    _assert_replays(inst.network, pruned)


def test_prune_preserves_optimum_with_offset():
    checked = disagreement = 0
    for seed in range(80):
        inst = synth.random_instance(seed, decorate=True)
        pruned = prune_all(inst.network)
        small = with_network(inst, pruned.network)
        a = brute_force_oracle(inst)
        b = brute_force_oracle(small)
        assert a.status == b.status, (seed, a.status, b.status)
        if a.status is not SolveStatus.OPTIMAL:
            continue
        checked += 1
        lifted = expand_solution(b, pruned.log)
        if abs(a.objective - lifted.objective) > 1e-9:
            disagreement += 1
        report = validate_solution(inst, lifted)
        assert report.ok, (seed, str(report))
    assert checked >= 8
    assert disagreement == 0


def test_expand_solution_passes_through_unsolved():
    inst = synth.random_instance(3, decorate=True)
    pruned = prune_all(inst.network)
    empty = solve_exact(build_instance(
        [O("o", 2), D("d", 5)],
        [RoadArc("v", "o", "d", 1.0, vulnerable=True, mitigation_cost=5.0)],
        0.0, 5.0))
    assert empty.status is SolveStatus.BUDGET_DISCONNECTED
    lifted = expand_solution(empty, pruned.log)
    assert lifted.status is SolveStatus.BUDGET_DISCONNECTED
    assert lifted.objective is None and lifted.assignment == {}


def test_expand_solution_applies_offset_to_bound():
    net = Network(
        [O("p", 4), T("h"), D("d", 9)],
        [RoadArc("ph", "p", "h", 2.0), RoadArc("hp", "h", "p", 2.0),
         RoadArc("hd", "h", "d", 1.0)])
    pruned = prune_all(net)
    assert pruned.log.objective_offset == pytest.approx(8.0)
    inst = build_instance(list(pruned.network.nodes.values()),
                          list(pruned.network.arcs.values()), 0.0, 0.0,
                          budget_fraction=0.0)
    sol = solve_exact(inst)
    lifted = expand_solution(sol, pruned.log)
    assert lifted.objective == pytest.approx(sol.objective + 8.0)
    assert lifted.best_bound == pytest.approx(sol.best_bound + 8.0)
    assert "p" in lifted.assignment and "h" not in lifted.assignment
    assert lifted.paths["p"][0] == "ph"


# -- later rounds look only at what changed --------------------------------------

@pytest.mark.parametrize("town, digest, rounds, final", [
    (lambda: synth.demo_network_file(0),
     "63aa5d2ec3c1680f6aee2ab4d0c99da6188bc62c48ae6752f64078a466a257a6", 3,
     {"nodes": 35, "arcs": 110, "variables": 1695}),
    (lambda: synth.grid_network_file(14, 14, 2, n_facilities=3),
     "9af2d0a6623ef4cf9e5ea6438d88abb33ecdc1456f558a4e143ed08adfc36021", 6,
     {"nodes": 183, "arcs": 669, "variables": 17512}),
    (lambda: synth.grid_network_file(18, 18, 0, n_facilities=3),
     "e24c7c7e8bd7e0b2ccb2861acd5aaa3452e8e17a2a250fa99ac2983733608666", 2,
     {"nodes": 322, "arcs": 1188, "variables": 51225}),
    (lambda: synth.grid_network_file(20, 20, 0, n_facilities=3),
     "039ec0a84e44b3bddff46bd7191378e8a22e8a0fd535fcfd9ea7ccc5ab7f28cd", 4,
     {"nodes": 392, "arcs": 1452, "variables": 69853}),
], ids=["demo", "g14", "g18", "g20"])
def test_prune_log_bytes_are_pinned(town, digest, rounds, final):
    # recorded with full sweeps of every technique in every round
    net = instance_from_file(town(), InstanceSpec(alpha=0.15)).network
    pruned = prune_all(net)
    assert hashlib.sha256(pruned.log.to_json().encode()).hexdigest() == digest
    assert pruned.stats.rounds == rounds
    assert pruned.stats.final == final


def _contraction_town() -> Network:
    """Round 1 contracts m1 (o..g) and m3 (m2..f); m2 only becomes a chain
    node when m3 goes, after t7 has passed it, so it is contracted in round 2.

    Round 1's o<->g arcs (10 min) are then beaten by o->f->g and g->f->o
    (4 min) through round 2's o<->f arcs, and round 1's m2<->f arcs (2 min)
    make the direct m2<->f roads (5 min) parallel ones.
    """
    two_way = [("o", "m1", 5.0), ("m1", "g", 5.0), ("o", "m2", 1.0),
               ("m2", "f", 5.0), ("m2", "m3", 1.0), ("m3", "f", 1.0),
               ("f", "g", 1.0)]
    arcs = []
    for u, v, t in two_way:
        arcs += [RoadArc(u + v, u, v, t), RoadArc(v + u, v, u, t)]
    return Network([O("o", 1), D("f", 5), D("g", 5), T("m1"), T("m2"), T("m3")],
                   arcs)


def test_t8_removes_in_round_2_an_arc_that_round_1_contracted():
    pruned = prune_all(_contraction_town())
    assert [(a.technique, a.removed_nodes) for a in pruned.log.actions] == [
        (7, ("m1",)), (7, ("m3",)), (5, ()), (7, ("m2",)), (8, ())]
    assert pruned.log.actions[3].added_arcs == (
        ("__c_f__m2__o", "f", "o", 3.0), ("__c_o__m2__f", "o", "f", 3.0))
    assert pruned.log.actions[4].removed_arcs == ("__c_g__m1__o",
                                                  "__c_o__m1__g")
    assert pruned.stats.rounds == 3
    assert sorted(pruned.network.arcs) == ["__c_f__m2__o", "__c_o__m2__f",
                                           "fg", "gf"]


def test_t5_removes_in_round_2_a_parallel_that_round_1_contracted():
    pruned = prune_all(_contraction_town())
    t7, t5 = pruned.log.actions[1], pruned.log.actions[2]
    assert [added[0] for added in t7.added_arcs] == ["__c_f__m3__m2",
                                                     "__c_m2__m3__f"]
    assert t5.technique == 5 and t5.removed_arcs == ("fm2", "m2f")
    assert pruned.log.contraction_map["__c_o__m2__f"] == ("om2", "m2m3", "m3f")


# -- technique 1 after round 1 looks only at t8's detour middles ----------------

def _record_t1(monkeypatch, force_whole: bool = False,
               ) -> list[tuple[bool, bool, int]]:
    """Wrap t1 in ``prune_all``; each run appends (a later run of this
    prune?, over the whole network?, number of actions)."""
    runs: list[tuple[bool, bool, int]] = []
    last = None
    t1 = prune._TECHNIQUES[1]

    def wrapped(work):
        nonlocal last
        if force_whole:
            work.t1_full = True
        later, whole, last = work is last, work.t1_full, work
        actions = t1(work)
        runs.append((later, whole, len(actions)))
        return actions

    monkeypatch.setitem(prune._TECHNIQUES, 1, wrapped)
    return runs


def _hanger_town(cycle: bool) -> Network:
    """Round 1's t8 drops s->d for the detour s->o->d, which leaves s hanging
    off o; the vulnerable o->s keeps t4 and t7 off s.  ``cycle`` adds a
    vulnerable x<->y 2-cycle joined to nothing."""
    nodes = [O("o", 1), D("d", 5), T("s")]
    arcs = [RoadArc("od", "o", "d", 1.0), RoadArc("so", "s", "o", 1.0),
            RoadArc("os", "o", "s", 1.0, vulnerable=True, mitigation_cost=1.0),
            RoadArc("sd", "s", "d", 3.0)]
    if cycle:
        nodes += [T("x"), T("y")]
        arcs += [RoadArc(u + v, u, v, 1.0, vulnerable=True, mitigation_cost=1.0)
                 for u, v in (("x", "y"), ("y", "x"))]
    return Network(nodes, arcs)


def test_t1_drops_in_round_2_a_node_that_t8_left_hanging(monkeypatch):
    runs = _record_t1(monkeypatch)
    pruned = prune_all(_hanger_town(cycle=False))
    assert [(a.technique, a.removed_nodes, a.removed_arcs)
            for a in pruned.log.actions] == [
        (8, (), ("sd",)), (1, ("s",), ("os", "so"))]
    assert runs == [(False, True, 0), (True, False, 1), (True, False, 0)]
    assert pruned.stats.rounds == 3
    assert sorted(pruned.network.arcs) == ["od"]


def test_t1_drops_a_detached_bare_cycle_at_the_first_cut_node(monkeypatch):
    # round 1 finds no cut node, so the 2-cycle stays and t1 stays on
    # whole-network runs; round 2 splits the graph at o and drops both
    runs = _record_t1(monkeypatch)
    pruned = prune_all(_hanger_town(cycle=True))
    assert [(a.technique, a.removed_nodes, a.removed_arcs)
            for a in pruned.log.actions] == [
        (8, (), ("sd",)), (1, ("s",), ("os", "so")),
        (1, ("x", "y"), ("xy", "yx"))]
    assert runs == [(False, True, 0), (True, True, 2), (True, False, 0)]
    assert sorted(pruned.network.nodes) == ["d", "o"]


def test_t1_cut_node_inside_a_bare_component_is_dropped_by_the_next():
    # cut node b splits a-b-c, which has no origin or destination, and is
    # left alone; cut node d then drops b together with its own side s
    vuln = [RoadArc(u + v, u, v, 1.0, vulnerable=True, mitigation_cost=1.0)
            for x, y in (("o", "d"), ("d", "s"), ("a", "b"), ("b", "c"))
            for u, v in ((x, y), (y, x))]
    pruned = prune_all(Network([O("o", 1), D("d", 5), T("s"), T("a"), T("b"),
                                T("c")], vuln))
    assert [(a.technique, a.removed_nodes, a.removed_arcs)
            for a in pruned.log.actions] == [
        (1, ("a",), ("ab", "ba")), (1, ("c",), ("bc", "cb")), (1, ("b",), ()),
        (1, ("s",), ("ds", "sd"))]
    assert pruned.stats.rounds == 2


def test_t7_drops_a_cul_de_sac_that_t1_leaves():
    # the town has no cut node, so t1 keeps the detached pair x-y and t7's
    # first run, which starts from every node with one or two neighbours,
    # finds x with one
    arcs = [RoadArc(u + v, u, v, 1.0) for x, y in (("o", "d"), ("d", "t"),
                                                   ("t", "o"), ("x", "y"))
            for u, v in ((x, y), (y, x))]
    pruned = prune_all(Network([O("o", 1), D("d", 5), T("t"), T("x"), T("y")],
                               arcs))
    assert [(a.technique, a.removed_nodes, a.removed_arcs)
            for a in pruned.log.actions] == [
        (4, ("t",), ("dt", "ot", "td", "to")), (7, ("x",), ("xy", "yx")),
        (2, ("y",), ())]
    assert sorted(pruned.network.nodes) == ["d", "o"]


def _sparse_town(seed: int, cycles: bool) -> Network:
    """A random tree on 6-22 nodes with 2-3 origins/destinations, one-way and
    vulnerable arcs and extra chords; ``cycles`` adds 1-2 detached cycles of
    transshipment nodes."""
    rng = random.Random(seed)
    ids = [f"n{i:02d}" for i in range(rng.randint(6, 22))]
    terminals = rng.sample(ids, rng.randint(2, 3))
    nodes = [O(n, 3) if n == terminals[0]
             else (rng.choice([O(n, 2), D(n, 9)]) if n in terminals else T(n))
             for n in ids]
    arcs: list[RoadArc] = []

    def add(u, v):
        vulnerable = rng.random() < 0.2
        arcs.append(RoadArc(f"a{len(arcs):03d}", u, v, float(rng.randint(1, 6)),
                            vulnerable=vulnerable,
                            mitigation_cost=1.0 if vulnerable else 0.0))

    for i in range(1, len(ids)):
        u, v = ids[rng.randrange(i)], ids[i]
        r = rng.random()
        if r < 0.6:
            add(u, v)
            add(v, u)
        else:
            add(*((u, v) if r < 0.8 else (v, u)))
    for _ in range(rng.randint(0, len(ids) // 2)):
        u, v = rng.sample(ids, 2)
        add(u, v)
        if rng.random() < 0.5:
            add(v, u)
    for c in range(rng.randint(1, 2) if cycles else 0):
        ring = [f"z{c}{i}" for i in range(rng.randint(1, 4))]
        nodes += [T(n) for n in ring]
        for u, v in zip(ring, ring[1:] + ring[:1]):
            add(u, v)
            if rng.random() < 0.5:
                add(v, u)
    return Network(nodes, arcs)


def _owe_everything(monkeypatch) -> None:
    """Make every technique's first run in ``prune_all`` start from every
    node and every arc, as a sweep over the whole network would."""
    init = prune._Work.__init__

    def whole(work, net):
        init(work, net)
        work.owed = {t: list(work.nodes) for t in TECHNIQUE_ORDER}
        work.owed_arcs = {t: list(work.arcs) for t in TECHNIQUE_ORDER}

    monkeypatch.setattr(prune._Work, "__init__", whole)


def test_t1_at_middles_matches_whole_network_runs(monkeypatch):
    # and first runs from their start sets match first runs over everything
    towns = [net for seed in range(300) for net in (
        synth.random_instance(seed, decorate=True).network,
        _sparse_town(seed, cycles=False), _sparse_town(seed, cycles=True))]
    runs = _record_t1(monkeypatch)
    got = [prune_all(net) for net in towns]
    monkeypatch.undo()
    _owe_everything(monkeypatch)
    owed = [prune_all(net) for net in towns]
    _record_t1(monkeypatch, force_whole=True)
    for net, a, b in zip(towns, got, owed):
        for c in (b, prune_all(net)):
            assert a.log.to_json() == c.log.to_json()
            assert (a.stats.rounds, a.stats.final, a.stats.by_technique) == (
                c.stats.rounds, c.stats.final, c.stats.by_technique)
    # both kinds of later run removed something: the one at t8's middles,
    # and the one over the whole network after a t2 removal or while a bare
    # cycle is left
    assert any(later and not whole and n for later, whole, n in runs)
    assert any(later and whole and n for later, whole, n in runs)


# -- the live indexes stay equal to the arcs -----------------------------------

def _indexes_from_arcs(work) -> tuple[dict, dict]:
    adj = {nid: {} for nid in work.nodes}
    pair = {nid: {} for nid in work.nodes}
    for a in work.arcs.values():
        if a.tail == a.head:
            continue
        for x, y in ((a.tail, a.head), (a.head, a.tail)):
            adj[x][y] = adj[x].get(y, 0) + 1
        if not a.vulnerable:
            pair[a.tail].setdefault(a.head, []).append(a.id)
    return adj, {n: {h: sorted(ids) for h, ids in row.items()}
                 for n, row in pair.items()}


def test_live_indexes_match_the_arcs_after_every_technique(monkeypatch):
    checked = {t: 0 for t in TECHNIQUE_ORDER}

    def checking(tech, run):
        def wrapped(work):
            actions = run(work)
            # equal to indexes rebuilt from the arcs: a row for each live
            # node, and no zero count or empty arc list left behind
            adj, pair = _indexes_from_arcs(work)
            assert work.adj == adj
            assert {n: {h: sorted(ids) for h, ids in row.items()}
                    for n, row in work.pair.items()} == pair
            checked[tech] += bool(actions)
            return actions
        return wrapped

    for tech, run in list(prune._TECHNIQUES.items()):
        monkeypatch.setitem(prune._TECHNIQUES, tech, checking(tech, run))
    for seed in range(200):
        for net in (synth.random_instance(seed).network,
                    synth.random_instance(seed, decorate=True).network,
                    _sparse_town(seed, cycles=False),
                    _sparse_town(seed, cycles=True)):
            prune_all(net)
    # every technique changed the indexes somewhere
    assert all(checked.values()), checked
