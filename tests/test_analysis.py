"""Planning-layer reports: sweeps, criticality rankings, scenario grids."""
from __future__ import annotations

import dataclasses
import json
import math
import random

import pytest

from floodmit.analysis import (EwttRow, SweepRow, budget_sweep,
                               connectivity_critical, ewtt_csv, ewtt_ranking,
                               frequency_csv, grid_csv, lower_bound,
                               scenario_grid, segment_csv, segment_rollup,
                               sweep_csv, upgrade_frequency)
from floodmit.cli import _print_plan
from floodmit.ingest import (InstanceSpec, SchemaError, instance_from_file,
                             upgrade_cost_cents, with_network)
from floodmit.net import Network, NodeKind, RoadArc, RoadNode
from floodmit.solver import SolveStatus, solve_exact
from floodmit import analysis, net as net_module, pipeline, synth
from floodmit.pipeline import solve_pipeline

from conftest import (bridge_instance, build_instance, f1_instance,
                      plain_dijkstra)


def grid_file():
    """A direct washed-out road with a slow dry backup, as a file payload."""
    return {
        "schema_version": 1,
        "nodes": [{"id": "n1", "residents": 8},
                  {"id": "n2", "residents": 0},
                  {"id": "n3", "residents": 0, "facility_beds": 20}],
        "arcs": [
            {"id": "r1", "from": "n1", "to": "n3", "length_miles": 1.0,
             "speed_mph": 60, "lanes": 2, "oneway": True, "vulnerable": True},
            {"id": "r2", "from": "n1", "to": "n2", "length_miles": 2.0,
             "speed_mph": 30, "lanes": 1, "oneway": True},
            {"id": "r3", "from": "n2", "to": "n3", "length_miles": 2.0,
             "speed_mph": 30, "lanes": 1, "oneway": True}],
        "facilities": ["n3"],
    }


def detour_instance():
    """One washed-out shortcut whose closure costs 3 extra minutes."""
    nodes = [RoadNode("o", NodeKind.ORIGIN, residents=4.0, weight=4.0),
             RoadNode("d", NodeKind.DESTINATION, capacity=9.0)]
    arcs = [RoadArc("v1", "o", "d", 2.0, vulnerable=True, mitigation_cost=3.0,
                    segment_id="s1"),
            RoadArc("v1r", "d", "o", 2.0, vulnerable=True, mitigation_cost=3.0,
                    segment_id="s1"),
            RoadArc("b", "o", "d", 5.0)]
    return build_instance(nodes, arcs, 6.0, 6.0)


def test_lower_bound_is_full_budget_optimum():
    lb, result = lower_bound(f1_instance(0.0))
    assert lb == pytest.approx(75.0)
    assert result.solution.status is SolveStatus.OPTIMAL


def test_budget_sweep_known_curve():
    rows = budget_sweep(f1_instance(9.0), [0.0, 4 / 9, 5 / 9, 1.0])
    assert [r.objective for r in rows] == pytest.approx([100.0, 80.0, 75.0, 75.0])
    assert [r.excess for r in rows] == pytest.approx([25.0, 5.0, 0.0, 0.0])
    assert [r.budget for r in rows] == pytest.approx([0.0, 4.0, 5.0, 9.0])
    assert rows[0].upgrades == () and rows[-1].upgrades == ("a4",)
    assert rows[-1].spent == pytest.approx(5.0)


def test_spent_prices_coupled_segments_once(capsys):
    # both directions of one coupled bridge cost max(6, 4) = 6, not 6 + 4
    inst = bridge_instance(coupled=True)
    row, = budget_sweep(inst, [0.6])
    assert row.budget == pytest.approx(6.0)
    assert set(row.upgrades) == {"e", "er"}
    assert row.spent == 6.0
    _print_plan(inst, solve_exact(inst))
    out = capsys.readouterr().out
    assert "budget       $6.00\n" in out
    assert "spent        $6.00\n" in out


def test_full_budget_buys_a_coupled_segment_exactly():
    # the full repair bill prices the bridge once, at max(6, 4) = 6, so a
    # fraction of 1 buys exactly everything; per arc the bill is 6 + 4
    inst = bridge_instance(coupled=True)
    full = with_network(inst, inst.network)
    assert full.b_hat == 6.0
    per_arc = bridge_instance(coupled=False)
    assert with_network(per_arc, per_arc.network).b_hat == 10.0
    row, = budget_sweep(full, [1.0])
    assert row.status is SolveStatus.OPTIMAL
    assert set(row.upgrades) == {"e", "er"}
    assert row.budget == row.spent == 6.0


def test_budget_sweep_dedupes_and_validates(monkeypatch):
    rows = budget_sweep(f1_instance(9.0), [1.0, 0.0, 1.0])
    assert [r.fraction for r in rows] == [0.0, 1.0]
    # every fraction is checked before the first solve
    solves = []
    solve = analysis.solve_pipeline

    def counted(instance, **kwargs):
        solves.append(instance.spec.budget_fraction)
        return solve(instance, **kwargs)

    monkeypatch.setattr(analysis, "solve_pipeline", counted)
    with pytest.raises(ValueError):
        budget_sweep(f1_instance(9.0), [0.5, 1.0, -0.1])
    for bad in (math.nan, math.inf, 1.5):
        with pytest.raises(SchemaError):
            budget_sweep(f1_instance(9.0), [0.0, 0.5, bad])
    assert solves == []


@pytest.fixture
def prunes(monkeypatch):
    """The network of every ``prune_all`` call the pipeline makes."""
    seen = []
    real = pipeline.prune_all

    def counted(net):
        seen.append(net)
        return real(net)

    monkeypatch.setattr(pipeline, "prune_all", counted)
    return seen


def test_budget_sweep_prunes_once(prunes):
    # prune sees the network alone: the floor's solve prunes it, and every
    # fraction's solve reuses that pruning
    inst = f1_instance(9.0)
    rows = budget_sweep(inst, [0.0, 4 / 9, 5 / 9, 1.0])
    assert len(rows) == 4
    assert prunes == [inst.network]


def _fresh_sweep_csv(inst, fractions):
    """The sweep CSV from one fresh pipeline solve per fraction."""
    floor, _ = lower_bound(inst)
    rows = []
    for f in sorted(set(fractions)):
        sol = solve_pipeline(analysis._with_budget(inst, f)).solution
        rows.append(SweepRow(
            fraction=f, budget=f * inst.b_hat, status=sol.status,
            objective=sol.objective,
            excess=analysis.excess_travel_time(sol.objective, floor),
            spent=upgrade_cost_cents(inst.network, sol.upgrades,
                                     inst.spec.segment_coupling) / 100,
            upgrades=sol.upgrades))
    return sweep_csv(rows)


def test_budget_sweep_bytes_match_fresh_solves():
    # reusing the floor's pruning changes no byte of the sweep, whether
    # capacities bind or not and whether segments are coupled or not
    fractions = (0.0, 0.15, 1.0)
    towns = [synth.demo_network_file(0)] + [
        synth.grid_network_file(n, n, 0, n_facilities=3)
        for n in (8, 9, 10, 11, 12)]
    statuses = set()
    for town in towns:
        for alpha in (0.15, 3.0):
            for coupled in (False, True):
                inst = instance_from_file(town, InstanceSpec(
                    alpha=alpha, segment_coupling=coupled))
                rows = budget_sweep(inst, fractions)
                statuses.update(r.status for r in rows)
                assert sweep_csv(rows) == _fresh_sweep_csv(inst, fractions), \
                    (town["nodes"][0]["id"], alpha, coupled)
    assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE,
                        SolveStatus.BUDGET_DISCONNECTED}
    # consecutive tight fractions: each solve meets, in the pruning's memo,
    # the assignment searches and connection bounds of the ones before it
    tight = (0.15, 0.2, 0.25, 0.3)
    for coupled in (False, True):
        inst = instance_from_file(towns[0], InstanceSpec(
            alpha=0.15, segment_coupling=coupled))
        assert sweep_csv(budget_sweep(inst, tight)) == \
            _fresh_sweep_csv(inst, tight), coupled


def test_sweep_monotone_on_random_instances():
    fractions = [0.0, 0.25, 0.5, 0.75, 1.0]
    solved_curves = 0
    for seed in range(30):
        inst = synth.random_instance(seed)
        rows = budget_sweep(inst, fractions)
        objs = [r.objective for r in rows if r.objective is not None]
        if len(objs) < 2:
            continue
        solved_curves += 1
        assert all(a >= b - 1e-9 for a, b in zip(objs, objs[1:])), seed
        for r in rows:
            if r.excess is not None:
                assert r.excess >= -1e-9
        if rows[-1].excess is not None:
            assert rows[-1].excess == pytest.approx(0.0, abs=1e-9)
    assert solved_curves >= 8


def test_ewtt_weighs_detours():
    rows = ewtt_ranking(detour_instance())
    assert [r.arc for r in rows] == ["v1", "v1r"]
    top = rows[0]
    assert top.ewtt == pytest.approx(12.0)   # 4 residents x 3 extra minutes
    assert top.pairs == 1 and not top.disconnects
    assert rows[1].ewtt == 0.0               # reverse leg carries no pair
    with pytest.raises(KeyError):
        ewtt_ranking(detour_instance(), arcs=["nope"])


def test_ewtt_marks_disconnections():
    rows = ewtt_ranking(f1_instance(9.0))
    assert [(r.arc, r.ewtt, r.disconnected_pairs, r.disconnects)
            for r in rows] == [("a2", 0.0, 1, True), ("a4", 0.0, 1, True)]


def test_ewtt_explicit_arcs_cover_safe_roads():
    rows = ewtt_ranking(detour_instance(), arcs=["b", "v1"])
    by_arc = {r.arc: r for r in rows}
    assert by_arc["b"].ewtt == 0.0 and by_arc["b"].pairs == 0
    assert by_arc["v1"].ewtt == pytest.approx(12.0)


def test_segment_rollup_takes_worst_member():
    segs = segment_rollup(ewtt_ranking(detour_instance()))
    (row,) = segs
    assert row.segment == "s1"
    assert row.ewtt == pytest.approx(12.0)
    assert row.arcs == ("v1", "v1r")
    assert not row.disconnects


def test_connectivity_critical_bridge():
    assert connectivity_critical(bridge_instance(coupled=True)) == ("w1", "w3")
    # brute force must agree arc by arc
    inst = bridge_instance(coupled=True)
    net = inst.network
    from floodmit.net import shortest_paths
    dests = {d.id for d in net.destinations()}
    for aid in net.arcs:
        cut = any(not (shortest_paths(net, o.id,
                                      frozenset((aid,))).keys() & dests)
                  for o in net.origins())
        assert cut == (aid in ("w1", "w3")), aid


def test_repeated_arc_ids_count_once():
    rows = ewtt_ranking(detour_instance(), arcs=["b", "v1", "v1", "b"])
    assert [r.arc for r in rows] == ["v1", "b"]
    assert connectivity_critical(bridge_instance(coupled=True),
                                 arcs=["w3", "w1", "w3"]) == ("w1", "w3")


def _plain_ranking_outputs(inst):
    """ewtt CSV, segment CSV and critical roads, every closure searched by
    the plain reference Dijkstra, which shares no code with the kernel."""
    net = inst.network
    origin_ids = [o.id for o in net.origins()]
    dest_ids = [d.id for d in net.destinations()]

    def reverse_times(closed):
        return {d: plain_dijkstra(net, (d,), closed, reverse=True)
                for d in dest_ids}

    base = reverse_times(frozenset())
    rows = []
    for aid in sorted(net.vulnerable_ids):
        removed = reverse_times(frozenset((aid,)))
        total, pairs, cut = 0.0, 0, 0
        for o in net.origins():
            for d in dest_ids:
                before = base[d].get(o.id)
                if before is None:
                    continue
                after = removed[d].get(o.id)
                if after is None:
                    cut += 1
                elif after - before > 0:
                    total += o.weight * (after - before)
                    pairs += 1
        rows.append(EwttRow(aid, net.arcs[aid].segment, total, pairs, cut,
                            cut > 0))
    rows.sort(key=lambda r: (-r.ewtt, r.arc))
    critical = tuple(
        aid for aid in sorted(net.arcs)
        if not set(origin_ids) <= plain_dijkstra(
            net, dest_ids, frozenset((aid,)), reverse=True).keys())
    return (ewtt_csv(rows), segment_csv(segment_rollup(rows)), critical)


def test_skipped_closures_match_a_plain_re_search():
    # travel times snapped to a few values give zero-time arcs, ties and
    # float near-ties (0.1 + 0.2 != 0.3): the cases where a wrong skip
    # would show
    nonzero = 0
    for seed in range(300):
        rng = random.Random(seed)
        inst = synth.random_instance(seed, decorate=seed % 2 == 1,
                                     coupled=seed % 3 == 0)
        arcs = [dataclasses.replace(
                    a, travel_time=rng.choice([0.0, 0.1, 0.2, 0.3, 1.0, 2.0]))
                for a in inst.network.arcs.values()]
        inst = dataclasses.replace(
            inst, network=Network(inst.network.nodes.values(), arcs))
        rows = ewtt_ranking(inst)
        nonzero += any(r.ewtt > 0 for r in rows)
        got = (ewtt_csv(rows), segment_csv(segment_rollup(rows)),
               connectivity_critical(inst))
        assert got == _plain_ranking_outputs(inst), seed
    assert nonzero >= 50


def test_closure_within_two_tolerances_is_searched():
    # three parallel roads offer o the times 1 + 1.5e-9, 1 + 1e-9 and 1,
    # in that order; the kernel keeps 1.  Without "a", the 1 + 1e-9 offer is
    # taken and then blocks 1 (not below it by more than DIST_TOL), so
    # closing "a" moves o's time although its slack is only 1.5e-9
    nodes = [RoadNode("o", NodeKind.ORIGIN, residents=4.0, weight=4.0),
             RoadNode("d", NodeKind.DESTINATION, capacity=9.0)]
    arcs = [RoadArc(aid, "o", "d", tt, vulnerable=True, mitigation_cost=1.0)
            for aid, tt in (("a", 1 + 1.5e-9), ("b", 1 + 1e-9), ("c", 1.0))]
    inst = build_instance(nodes, arcs, 0.0, 3.0)
    rows = ewtt_ranking(inst)
    assert {r.arc: r.pairs for r in rows} == {"a": 1, "b": 0, "c": 1}
    got = (ewtt_csv(rows), segment_csv(segment_rollup(rows)),
           connectivity_critical(inst))
    assert got == _plain_ranking_outputs(inst)


@pytest.fixture
def search_count(monkeypatch):
    """Counts runs of the one shortest-path loop, ``GraphIndex.dijkstra``,
    which every caller reaches through the class: "full" for a search from
    scratch, "repair" for ``close_arcs``'s seeded one."""
    calls = []
    real = net_module.GraphIndex.dijkstra

    def counted(self, sources, closed=frozenset(), reverse=False,
                labels=None):
        calls.append("full" if labels is None else "repair")
        return real(self, sources, closed, reverse, labels)

    monkeypatch.setattr(net_module.GraphIndex, "dijkstra", counted)
    return calls


def test_closure_ranking_searches_only_closures_that_matter(search_count):
    town = synth.grid_network_file(18, 18, 0, n_facilities=3)
    inst = instance_from_file(town, InstanceSpec(alpha=0.15))
    rows = ewtt_ranking(inst)
    assert len(rows) == 141
    assert len(search_count) <= 3 + 45
    assert search_count.count("full") == 3     # one baseline per facility
    del search_count[:]
    connectivity_critical(inst, [r.arc for r in rows])
    assert len(search_count) <= 1 + 11
    assert search_count.count("full") == 1     # the multi-source baseline


def test_closure_off_every_tight_path_triggers_no_search(search_count):
    # o reaches d over m; "b" is a slower parallel road, "xd" a tight road
    # whose tail no origin reaches
    nodes = [RoadNode("o", NodeKind.ORIGIN, residents=4.0, weight=4.0),
             RoadNode("m", NodeKind.TRANSSHIPMENT),
             RoadNode("x", NodeKind.TRANSSHIPMENT),
             RoadNode("d", NodeKind.DESTINATION, capacity=9.0)]
    arcs = [RoadArc("om", "o", "m", 1.0), RoadArc("md", "m", "d", 1.0),
            RoadArc("b", "o", "d", 5.0), RoadArc("xd", "x", "d", 1.0)]
    inst = build_instance(nodes, arcs, 0.0, 0.0)
    rows = ewtt_ranking(inst, arcs=["b", "xd"])
    assert [(r.arc, r.ewtt, r.disconnects) for r in rows] == \
        [("b", 0.0, False), ("xd", 0.0, False)]
    assert len(search_count) == 1           # the baseline table only
    del search_count[:]
    assert connectivity_critical(inst, ["b", "xd"]) == ()
    assert len(search_count) == 1
    del search_count[:]
    assert connectivity_critical(inst, ["b", "om"]) == ()  # "b" stays open
    assert search_count == ["full", "repair"]  # "om" is repaired


def test_upgrade_frequency_counts_and_shares():
    rows = budget_sweep(f1_instance(9.0), [0.0, 4 / 9, 5 / 9, 1.0])
    freq = upgrade_frequency(rows)
    assert [(r.arc, r.count, r.share) for r in freq] == [
        ("a4", 2, 0.5), ("a2", 1, 0.25)]
    with pytest.raises(TypeError):
        upgrade_frequency([object()])


def test_scenario_grid_shares_group_floor():
    specs = [InstanceSpec(p=1.0, alpha=0.5, budget_fraction=0.0),
             InstanceSpec(p=1.0, alpha=0.5, budget_fraction=1.0),
             InstanceSpec(p=1.0, alpha=0.5, budget_fraction=0.5)]
    rows = scenario_grid(grid_file(), specs)
    assert [r.status for r in rows] == [SolveStatus.OPTIMAL] * 3
    assert [r.objective for r in rows] == pytest.approx([64.0, 8.0, 64.0])
    assert [r.excess for r in rows] == pytest.approx([56.0, 0.0, 56.0])


def test_scenario_grid_prunes_each_spec_once(prunes):
    # a spec below full budget has its group's floor solved apart, on the
    # spec's own pruning
    specs = [InstanceSpec(p=1.0, alpha=alpha, budget_fraction=0.5)
             for alpha in (0.5, 2.0)]
    rows = scenario_grid(grid_file(), specs)
    assert [r.excess for r in rows] == pytest.approx([56.0, 56.0])
    assert len(prunes) == len(specs)


def test_scenario_grid_parses_its_file_once(tmp_path, monkeypatch):
    from floodmit import ingest
    path = tmp_path / "town.json"
    path.write_text(json.dumps(grid_file()))
    specs = [InstanceSpec(p=1.0, alpha=alpha, budget_fraction=fraction)
             for alpha in (0.5, 2.0) for fraction in (1.0, 0.5)]
    parses, sources = [], []
    loads, solve = ingest.json.loads, analysis.solve_pipeline

    def counting_loads(*args, **kwargs):
        parses.append(1)
        return loads(*args, **kwargs)

    def recording_solve(instance, **kwargs):
        sources.append(instance.provenance["source"])
        return solve(instance, **kwargs)

    monkeypatch.setattr(ingest.json, "loads", counting_loads)
    monkeypatch.setattr(analysis, "solve_pipeline", recording_solve)
    rows = scenario_grid(str(path), specs)
    assert len(parses) == 1
    assert sources == [path.name] * len(specs)
    assert rows == scenario_grid(grid_file(), specs)


def test_csv_writers_exact_and_stable(tmp_path):
    rows = budget_sweep(f1_instance(9.0), [0.0, 4 / 9, 5 / 9, 1.0])
    text = sweep_csv(rows)
    assert text.splitlines()[0] == \
        "fraction,budget,status,objective,excess,spent,upgrades"
    assert text.splitlines()[1] == "0,0,Optimal,100,25,0,"
    assert text.splitlines()[2] == "0.4444444444,4,Optimal,80,5,4,a2"
    assert text == sweep_csv(rows)
    p = tmp_path / "sweep.csv"
    sweep_csv(rows, p)
    assert p.read_text() == text

    e_text = ewtt_csv(ewtt_ranking(detour_instance()))
    assert e_text.splitlines()[1] == "v1,s1,12,1,0,0"
    s_text = segment_csv(segment_rollup(ewtt_ranking(detour_instance())))
    assert s_text.splitlines()[1] == "s1,12,v1|v1r,0"
    f_text = frequency_csv(upgrade_frequency(rows))
    assert f_text.splitlines()[1] == "a4,2,0.5"
    g_text = grid_csv(scenario_grid(
        grid_file(), [InstanceSpec(p=1.0, alpha=0.5, budget_fraction=1.0)]))
    assert g_text.splitlines()[0] == ("p,alpha,capacity_policy,weight_policy,"
                                      "budget_fraction,facilities,status,"
                                      "objective,excess")
    assert "Optimal,8,0" in g_text.splitlines()[1]
