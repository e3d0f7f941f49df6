"""Exact solver, brute-force twin, 0-1 model, and the LP writer."""
from __future__ import annotations

import dataclasses
import heapq
import inspect
import itertools
import math
import random
import sys
import time
import types

import pytest

from floodmit.ingest import (InstanceSpec, capacity_fits, instance_from_file,
                            purchase_units, total_vulnerable_cost)
from floodmit.net import (DIST_TOL, GraphIndex, Network, NodeKind, RoadArc,
                          RoadNode)
from floodmit.pipeline import solve_pipeline
from floodmit.prune import harvest_triangle_vis
from floodmit.reductions import Cuts, forced_exits, standard_reductions
from floodmit.solver import (ModelError, OracleLimits, OracleScaleError,
                             SolveOptions, SolveStatus, Solution,
                             _assignment_exact, _capacity_prices,
                             _regret_assignment, brute_force_oracle, build_model, export_lp,
                             gap_to_rnfmp, solve_exact,
                             validate_solution)
from floodmit import pipeline, solver, synth

from conftest import (bridge_instance, build_instance, canonical_route,
                      f1_instance, forced_exit_instance, overfull_instance,
                      stranded_instance)


def O(nid, h):
    return RoadNode(nid, NodeKind.ORIGIN, residents=float(h), weight=float(h))


def D(nid, cap):
    return RoadNode(nid, NodeKind.DESTINATION, capacity=float(cap))


# -- options and statuses -----------------------------------------------------

def test_options_reject_nonsense():
    with pytest.raises(ModelError):
        SolveOptions(time_limit_s=0.0)
    with pytest.raises(ModelError):
        SolveOptions(gap_tol=-0.1)


def test_known_optima_across_budgets():
    for budget, want in [(0.0, 100.0), (4.0, 80.0), (5.0, 75.0), (9.0, 75.0)]:
        sol = solve_exact(f1_instance(budget))
        assert sol.status is SolveStatus.OPTIMAL, budget
        assert sol.objective == pytest.approx(want, abs=1e-9), budget
        assert sol.gap == 0.0 and sol.best_bound == sol.objective
        assert sol.exit_code() == 0
    rich = solve_exact(f1_instance(9.0))
    assert rich.upgrades == ("a4",)
    assert rich.assignment == {"o1": "d2", "o2": "d1"}


def test_status_corners():
    cutoff = solve_exact(stranded_instance(0.0))
    assert cutoff.status is SolveStatus.BUDGET_DISCONNECTED
    assert cutoff.objective is None and cutoff.exit_code() == 2
    rescued = solve_exact(stranded_instance(7.0))
    assert rescued.status is SolveStatus.OPTIMAL
    assert rescued.upgrades == ("v",)
    full = solve_exact(overfull_instance())
    assert full.status is SolveStatus.INFEASIBLE and full.exit_code() == 2


def branching_instance():
    """f1 with room for both origins at d1: the relaxed plan (bound 55)
    needs a2 and a4 ($9), the $5 budget buys one, so the root branches."""
    return f1_instance(5.0, d1_beds=15.0)


def test_time_limit_reports_incumbent_and_bound():
    sol = solve_exact(branching_instance(),
                      options=SolveOptions(time_limit_s=1e-9))
    assert sol.status is SolveStatus.TIME_LIMIT
    assert sol.exit_code() == 3
    # the no-purchase probe (objective 100) lands before the clock is checked
    assert sol.objective == pytest.approx(100.0)
    assert sol.best_bound == pytest.approx(55.0)
    assert sol.gap == pytest.approx(0.45)


def test_gap_tolerance_reports_honest_bound():
    sol = solve_exact(branching_instance(), options=SolveOptions(gap_tol=0.5))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(100.0)   # accepted early
    assert sol.best_bound == pytest.approx(55.0)   # ... but only 55 was proven
    assert sol.gap == pytest.approx(0.45)
    assert sol.gap <= 0.5


def test_segment_pricing_in_solver():
    coupled = solve_exact(bridge_instance(coupled=True))
    assert coupled.status is SolveStatus.OPTIMAL
    assert coupled.objective == pytest.approx(48.0)
    assert set(coupled.upgrades) == {"e", "er"}
    assert solve_exact(bridge_instance(coupled=False)).status \
        is SolveStatus.INFEASIBLE


def _tied_routes_town():
    """s (2 riders) reaches d in 1 minute by any of three washed-out
    routes, each $4 on the $4 budget: ``vb`` or ``vy`` alone, or ``vz``
    then ``va`` through m.  The root's relaxed route takes s's first tight
    exit by arc id, ``vb``, and closes by rounding at objective 2."""
    nodes = [O("s", 2), D("d", 9), RoadNode("m")]
    arcs = [RoadArc("vb", "s", "d", 1.0, vulnerable=True, mitigation_cost=4.0),
            RoadArc("vy", "s", "d", 1.0, vulnerable=True, mitigation_cost=4.0),
            RoadArc("vz", "s", "m", 0.5, vulnerable=True, mitigation_cost=2.0),
            RoadArc("va", "m", "d", 0.5, vulnerable=True, mitigation_cost=2.0),
            RoadArc("w", "s", "d", 3.0)]
    return build_instance(nodes, arcs, 4.0, 12.0)


@pytest.mark.parametrize("warm, route, updates", [
    (None, ("vb",), 1),                 # the search's plan alone
    (("vy",), ("vb",), 2),              # a tied warm start, a larger set
    (("vz", "va"), ("vz", "va"), 1)])   # a smaller set, though two arcs
def test_equal_objectives_keep_the_smaller_upgrade_set(warm, route, updates):
    # among plans of equal objective the lexicographically smaller sorted
    # upgrade-id set wins, whichever was offered first
    inst = _tied_routes_town()
    ws = None if warm is None else Solution(
        status=SolveStatus.FEASIBLE, objective=2.0,
        upgrades=tuple(sorted(warm)), assignment={"s": "d"}, paths={"s": warm})
    sol = solve_exact(inst, options=SolveOptions(warm_start=ws))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(2.0)
    assert sol.paths == {"s": route}
    assert sol.upgrades == tuple(sorted(route))
    assert sol.stats["incumbent_updates"] == updates
    assert sol.stats.get("warm_start", False) is (warm is not None)
    assert validate_solution(inst, sol).ok


def test_search_and_oracle_report_different_tied_plans():
    # the search keeps the smaller set among the plans it offers: its root
    # closes by rounding on vb.  The oracle sees every plan and keeps
    # (va, vz), so the two agree on status and objective, not on the plan
    inst = _tied_routes_town()
    sol, ref = solve_exact(inst), brute_force_oracle(inst)
    assert sol.status is ref.status is SolveStatus.OPTIMAL
    assert sol.objective == ref.objective == pytest.approx(2.0)
    assert sol.upgrades == ("vb",) and sol.paths == {"s": ("vb",)}
    assert ref.upgrades == ("va", "vz") and ref.paths == {"s": ("vz", "va")}
    assert validate_solution(inst, sol).ok and validate_solution(inst, ref).ok


def test_warm_start_equivalence():
    inst = f1_instance(9.0)
    warm = solve_exact(inst, options=SolveOptions(warm_start=solve_exact(inst)))
    assert warm.objective == pytest.approx(75.0)
    # a nonsense warm start is quietly ignored, not trusted
    junk = Solution(status=SolveStatus.OPTIMAL, objective=1.0,
                    upgrades=("a1",), assignment={"o1": "d1", "o2": "d1"})
    still = solve_exact(inst, options=SolveOptions(warm_start=junk))
    assert still.objective == pytest.approx(75.0)
    # ... but the reason it was dropped is kept
    report = validate_solution(inst, junk)
    assert still.stats["warm_start_rejected"] == str(report)
    assert "warm_start_rejected" not in warm.stats


def test_solution_serialization_is_stable():
    sol = solve_exact(f1_instance(9.0))
    assert sol.to_json() == sol.to_json()
    d = sol.to_dict()
    for key in ("wall_time_s", "wall_time_assignment_s"):
        assert key not in d["stats"]
        assert key in sol.stats
    again = solve_exact(f1_instance(9.0))
    assert sol.to_json() == again.to_json()


# -- brute force twin ----------------------------------------------------------

def test_oracle_matches_known_values():
    for budget, want in [(0.0, 100.0), (4.0, 80.0), (5.0, 75.0), (9.0, 75.0)]:
        ref = brute_force_oracle(f1_instance(budget))
        assert ref.status is SolveStatus.OPTIMAL
        assert ref.objective == pytest.approx(want, abs=1e-9)


def test_oracle_refuses_large_instances():
    inst = f1_instance(9.0)  # 2 origins, 2 destinations, 2 vulnerable arcs
    with pytest.raises(OracleScaleError):
        brute_force_oracle(inst, limits=OracleLimits(max_vulnerable=1))
    with pytest.raises(OracleScaleError):
        brute_force_oracle(inst, limits=OracleLimits(max_origins=1))
    with pytest.raises(OracleScaleError):
        brute_force_oracle(inst, limits=OracleLimits(max_destinations=1))


def _count_fallbacks(monkeypatch):
    """Counts the node solves that leave a nearest-facility table for one
    table per facility: the returned list holds the tables that overfill a
    facility, uncontested, and the searches or repairs that are contested."""
    count, answered = [0, 0], [None]   # the shut arcs of the last answer
    real_near, real_close, real_times = (GraphIndex.nearest_times,
                                         GraphIndex.close_nearest,
                                         GraphIndex.facility_times)

    def near(g, closed=frozenset()):
        found = real_near(g, closed)
        answered[0] = None if found is None else closed
        count[1] += found is None
        return found

    def close(g, minutes, owner, arcs, closed=frozenset()):
        found = real_close(g, minutes, owner, arcs, closed)
        answered[0] = None if found is None else closed | arcs
        count[1] += found is None
        return found

    def times(g, closed=frozenset()):
        count[0] += closed == answered[0]
        return real_times(g, closed)

    monkeypatch.setattr(GraphIndex, "nearest_times", near)
    monkeypatch.setattr(GraphIndex, "close_nearest", close)
    monkeypatch.setattr(GraphIndex, "facility_times", times)
    return count


def test_solver_agrees_with_oracle_on_random_instances(monkeypatch):
    # at a half and a quarter of each budget more roots stay open, so some
    # solves branch, on the units the branching rule picks; some node
    # solves leave a nearest-facility table that overfills, and the solves'
    # nearest_fallbacks count every node solve that leaves one
    fallbacks = _count_fallbacks(monkeypatch)
    branched = counted = 0
    for coupled in (False, True):
        for seed in range(80):
            town = synth.random_instance(seed, coupled=coupled)
            for share in (1.0, 0.5, 0.25):
                inst = dataclasses.replace(town, budget=town.budget * share)
                a = brute_force_oracle(inst)
                b = solve_exact(inst)
                case = (coupled, seed, share)
                assert a.status == b.status, (case, a.status, b.status)
                if a.status is SolveStatus.OPTIMAL:
                    assert abs(a.objective - b.objective) <= 1e-9, case
                    report = validate_solution(inst, b)
                    assert report.ok, (case, str(report))
                branched += b.stats["nodes_explored"] >= 2
                counted += b.stats["nearest_fallbacks"]
    overfilled, contested = fallbacks
    assert branched > 0 and overfilled > 0, (branched, fallbacks)
    assert counted == overfilled + contested, (counted, fallbacks)


def test_paths_are_canonical_over_the_bought_arcs():
    # every route the solver reports is the canonical shortest path over
    # the flood-free arcs plus exactly the upgrades it reports
    checked = 0
    for coupled in (False, True):
        for seed in range(150):
            inst = synth.random_instance(seed, coupled=coupled)
            sol = solve_exact(inst)
            if sol.status is not SolveStatus.OPTIMAL:
                continue
            checked += 1
            closed = inst.network.vulnerable_ids - set(sol.upgrades)
            for k, dest in sol.assignment.items():
                found = canonical_route(inst.network, k, dest, closed)
                assert sol.paths[k] == found[0], (coupled, seed, k)
    assert checked >= 100


def test_zero_time_cycle_routes():
    # a <-> b is a zero-time loop; walking greedily from a onto b (smaller
    # arc id) strands the route, so the path search must back out of b
    inst = build_instance(
        [O("s", 1), RoadNode("a"), RoadNode("b"), D("t", 5)],
        [RoadArc("e1", "s", "a", 1.0), RoadArc("e2", "a", "b", 0.0),
         RoadArc("e3", "b", "a", 0.0), RoadArc("e4", "a", "t", 1.0)],
        0.0, 0.0)
    g = inst.network.index()
    assert g.dijkstra(g.nodes_of("t"), reverse=True)[0][g.node_no["s"]] == 2.0
    assert canonical_route(inst.network, "s", "t") == (("e1", "e4"), True)
    oracle = brute_force_oracle(inst)
    sol = solve_exact(inst)
    assert oracle.status is sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(oracle.objective, abs=1e-9)
    assert sol.paths == {"s": ("e1", "e4")}


# -- validation ----------------------------------------------------------------

def test_validate_flags_each_violation_kind():
    inst = f1_instance(9.0)
    bad_upgrade = Solution(status=SolveStatus.OPTIMAL, upgrades=("a1",),
                           assignment={"o1": "d2", "o2": "d2"},
                           paths={"o1": ("a1", "a3"), "o2": ("a5",)})
    report = validate_solution(inst, bad_upgrade)
    assert not report.ok
    assert any(v.tag == "upgrade" for v in report.violations)

    unassigned = Solution(status=SolveStatus.OPTIMAL,
                          assignment={"o1": "d2"}, paths={"o1": ("a1", "a3")})
    assert any(v.tag == "flow(2)"
               for v in validate_solution(inst, unassigned).violations)

    flooded_route = Solution(status=SolveStatus.OPTIMAL,
                             assignment={"o1": "d1", "o2": "d2"},
                             paths={"o1": ("a1", "a2"), "o2": ("a5",)})
    report = validate_solution(inst, flooded_route)
    assert not report.ok  # a2 is washed out and nothing was bought


#: o1 -> d2 by a1, a3 and o2 -> d1 by the bought a4: f1_instance(9)'s optimum
_F1_PLAN = dict(upgrades=("a4",), assignment={"o1": "d2", "o2": "d1"},
                paths={"o1": ("a1", "a3"), "o2": ("a4",)}, objective=75.0)


@pytest.mark.parametrize("change, tags, words", [
    (dict(upgrades=("a4", "zz")), ["upgrade", "use(7)"], "unknown arc 'zz'"),
    (dict(assignment={"o1": "t1", "o2": "d1"}), ["flow(3)"],
     "non-facility 't1'"),
    (dict(paths={"o1": ("a1", "a5"), "o2": ("a4",)}), ["flow(4)"],
     "breaks at 'a5'"),
    (dict(assignment={"o1": "d1", "o2": "d1"}), ["flow(3)"],
     "ends at 'd2', not 'd1'"),
    (dict(upgrades=("a2", "a4"), assignment={"o1": "d1", "o2": "d1"},
          paths={"o1": ("a1", "a2"), "o2": ("a4",)}, objective=55.0),
     ["capacity(8)"], "load 15 > capacity 12"),
    (dict(objective=74.0), ["objective"], "declared 74.0 != recomputed 75.0"),
], ids=["unknown-upgrade", "non-facility", "broken-route", "wrong-end",
        "capacity", "objective"])
def test_validate_tags_each_violation(change, tags, words):
    # each case changes f1_instance(9)'s optimum in one way
    inst = f1_instance(9.0)
    assert validate_solution(inst, Solution(SolveStatus.OPTIMAL,
                                            **_F1_PLAN)).ok
    report = validate_solution(inst, Solution(SolveStatus.OPTIMAL,
                                              **{**_F1_PLAN, **change}))
    assert not report.ok and report.objective is None
    assert [v.tag for v in report.violations] == tags
    assert words in report.violations[0].message


def test_validate_recomputes_objective():
    sol = solve_exact(f1_instance(5.0))
    report = validate_solution(f1_instance(5.0), sol)
    assert report.ok
    assert report.objective == pytest.approx(75.0)


# -- 0-1 model and LP text -------------------------------------------------------

def test_build_model_counts():
    model = build_model(f1_instance(9.0))
    assert model.counts() == {"x": 10, "y": 2, "constraints": 19}
    assert len(model.binaries) == 12
    assert model.y_var == {"a2": "y_t1_d1", "a4": "y_o2_d1"}


def test_build_model_applies_mask_and_cuts():
    inst = f1_instance(9.0)
    fixed, mask = standard_reductions(inst)
    base = build_model(inst)
    masked = build_model(inst, mask={"o1": frozenset({"a5"})})
    assert masked.counts()["x"] == base.counts()["x"] - 1
    cut = build_model(inst, cuts=Cuts(triangle=(("a2", "a3", "a4"),)))
    # one row per origin able to use at least two of the triangle's arcs
    assert cut.counts()["constraints"] == base.counts()["constraints"] + 2


def test_build_model_rejects_unsatisfiable_dispatch():
    inst = f1_instance(9.0)
    everything = {"o1": frozenset(inst.network.arcs)}
    with pytest.raises(ModelError):
        build_model(inst, mask=everything)


def test_build_model_rejects_a_masked_forced_route():
    inst = forced_exit_instance()
    with pytest.raises(ModelError, match="forced route"):
        build_model(inst, mask={"k": frozenset({"kv"})},
                    fixings=forced_exits(inst.network))


def test_the_model_accepts_the_oracle_plan():
    # on random towns with an optimum, the oracle's routes (x) and bought
    # units (y) satisfy every row of the model built with the standard
    # reductions and both cut families, and price at the oracle's objective;
    # a forced single exit turns its route and unit into constants
    checked = forced = 0
    for seed in range(300):
        inst = synth.random_instance(seed, decorate=seed % 2 == 0,
                                     coupled=seed % 3 == 0)
        fixed, mask = standard_reductions(inst)
        oracle = brute_force_oracle(inst, mask=mask, fixings=fixed)
        if oracle.status is not SolveStatus.OPTIMAL:
            continue
        net = inst.network
        model = build_model(inst, mask=mask, fixings=fixed, cuts=Cuts(
            triangle=tuple(harvest_triangle_vis(net)),
            exit_origins=fixed.exit_vi_origins))
        bought = {u.id for u in purchase_units(net, inst.spec.segment_coupling)
                  if set(u.arc_ids) & set(oracle.upgrades)}
        value = dict.fromkeys(model.binaries, 0)
        for k, path in oracle.paths.items():
            for aid in path:
                if (k, aid) in model.x_var:
                    value[model.x_var[k, aid]] = 1
                else:
                    assert (k, aid) in fixed.forced_x, (seed, k, aid)
        for uid in bought:
            if uid in model.y_var:
                value[model.y_var[uid]] = 1
        for row in model.constraints:
            lhs = sum(coef * value[var] for coef, var in row.terms)
            slack = 1e-6 * max(1.0, abs(row.rhs))
            holds = {"<=": lhs <= row.rhs + slack,
                     ">=": lhs >= row.rhs - slack,
                     "=": abs(lhs - row.rhs) <= slack}[row.sense]
            assert holds, (seed, row.name, lhs, row.sense, row.rhs)
        objective = model.objective_constant + sum(
            coef * value[var] for coef, var in model.objective)
        assert objective == pytest.approx(oracle.objective, rel=1e-9,
                                          abs=1e-9), seed
        checked += 1
        forced += bool(fixed.forced_x)
    assert checked >= 90 and forced >= 20, (checked, forced)


def _lp_sections(text):
    """The lines of each `export_lp` section, by header, stripped."""
    sections = {}
    lines = text.splitlines()
    assert lines[-1] == "End"
    for line in lines[1:-1]:   # after the name comment, up to End
        if not line.startswith(" "):
            body = sections.setdefault(line, [])
        else:
            body.append(line.strip())
    return sections


def test_lp_round_trip():
    model = build_model(f1_instance(9.0))
    text = export_lp(model)
    assert text == export_lp(model)  # byte-stable
    sections = _lp_sections(text)
    assert sections["Binary"] == list(model.binaries)
    assert len(sections["Subject To"]) == model.counts()["constraints"] == 19
    objective, = sections["Minimize"]
    assert " 5 x_o2_o2_d1 " in f"{objective} "   # weight 5 x 1 minute


def test_lp_file_round_trip(tmp_path):
    model = build_model(f1_instance(9.0))
    p = tmp_path / "model.lp"
    text = export_lp(model, p)
    assert p.read_text() == text
    assert len(_lp_sections(text)["Subject To"]) == 19


# -- assignment-problem embedding ------------------------------------------------

def test_gap_embedding_rejects_bad_shapes():
    with pytest.raises(ModelError):
        gap_to_rnfmp([], [1.0], [])
    with pytest.raises(ModelError):
        gap_to_rnfmp([1.0], [1.0], [[1.0, 2.0]])
    with pytest.raises(ModelError):
        gap_to_rnfmp([1.0], [1.0], [[-1.0]])


def test_gap_embedding_hand_instance():
    # two jobs, one agent big enough for only the first
    inst = gap_to_rnfmp([2.0, 3.0], [5.0], [[4.0], [6.0]])
    sol = solve_exact(inst)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(10.0)
    tight = gap_to_rnfmp([2.0, 3.0], [4.0], [[4.0], [6.0]])
    assert solve_exact(tight).status is SolveStatus.INFEASIBLE


# -- exact capacitated assignment ---------------------------------------------

def _reference_assignment(items, capacities):
    """Plain depth-first search with the capacity-free suffix bound."""
    n = len(items)
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        _, _, w, cands = items[i]
        if not cands:
            return None
        suffix[i] = suffix[i + 1] + w * cands[0][0]
    residual = dict(capacities)
    best_obj = math.inf
    best_assign = None
    chosen = []

    def dfs(i, partial):
        nonlocal best_obj, best_assign
        if partial + suffix[i] >= best_obj - 1e-12:
            return
        if i == n:
            best_obj = partial
            best_assign = {items[j][0]: chosen[j] for j in range(n)}
            return
        origin, h, w, cands = items[i]
        for minutes, dest in cands:
            if not capacity_fits(h, residual[dest]):
                continue
            residual[dest] -= h
            chosen.append(dest)
            dfs(i + 1, partial + w * minutes)
            chosen.pop()
            residual[dest] += h
    dfs(0, 0.0)
    if best_assign is None:
        return None
    return best_obj, best_assign


def _random_assignment(rng):
    """1-10 origins, 1-4 facilities; tied, fractional and zero minutes and
    residents; weight = residents or 1; slack, exact, short or random
    capacities, sometimes an uncapacitated facility."""
    dests = [f"d{j}" for j in range(rng.randint(1, 4))]
    items = []
    for i in range(rng.randint(1, 10)):
        h = rng.choice([1.0, 2.0, 3.0, 7.0, 0.5, 1 / 3, 2 / 3, 0.0])
        w = h if rng.random() < 0.5 else 1.0
        reach = [d for d in dests if rng.random() < 0.8] or [rng.choice(dests)]
        cands = sorted((rng.choice([1.0, 2.0, 0.1, 0.7, 1 / 3,
                                    float(rng.randint(0, 5)),
                                    rng.uniform(0.0, 10.0)]), d)
                       for d in reach)
        items.append((f"o{i}", h, w, cands))
    items.sort(key=lambda it: (-it[1], it[0]))
    total = sum(it[1] for it in items)
    kind = rng.choice(["slack", "exact", "short", "random"])
    if kind == "slack":
        caps = {d: total for d in dests}
    elif kind == "exact":
        caps = dict.fromkeys(dests, 0.0)
        for it in items:
            caps[rng.choice(dests)] += it[1]
    elif kind == "short":
        caps = {d: total / len(dests) * rng.uniform(0.5, 0.99) for d in dests}
    else:
        caps = {d: rng.uniform(0.0, total) for d in dests}
    if rng.random() < 0.1:
        caps[dests[0]] = math.inf
    return items, caps


def test_assignment_matches_plain_search():
    # capacity prices only cut leaves the plain search rejects, so the
    # answer is identical to the last bit, assignment included
    searched = infeasible = 0
    for seed in range(3000):
        items, caps = _random_assignment(random.Random(seed))
        want = _reference_assignment(items, caps)
        stats = {}
        got = _assignment_exact(items, caps, stats=stats)
        assert got == want, seed
        searched += stats["assignment_nodes"] > 1
        if want is None:
            infeasible += 1
            continue
        _, value = _capacity_prices(items, caps)
        assert value <= want[0] + 1e-9, seed
    assert searched > 600 and infeasible > 600, (searched, infeasible)


def test_regret_assignment_is_a_feasible_upper_bound():
    # on the GAPs above: the priced-regret assignment fits every capacity,
    # costs what it says (summed in item order, as the search sums), and
    # never beats the exact optimum
    found = 0
    for seed in range(3000):
        items, caps = _random_assignment(random.Random(seed))
        prices, _ = _capacity_prices(items, caps)
        got = _regret_assignment(items, caps, prices)
        if got is None:
            continue
        want = _reference_assignment(items, caps)
        assert want is not None, seed
        value, assignment = got
        load = dict.fromkeys(caps, 0.0)
        total = 0.0
        for origin, h, w, cands in items:
            dest = assignment[origin]
            total += w * dict((d, t) for t, d in cands)[dest]
            load[dest] += h
        assert all(capacity_fits(load[d], caps[d]) for d in caps), seed
        assert value == total, seed
        assert value >= want[0] - 1e-9, seed
        found += 1
    assert found > 1000, found


def test_only_a_search_without_a_hint_builds_a_regret_plan(monkeypatch):
    # a B&B child's exact search starts from its parent's assignment,
    # re-priced on its own lists, and builds no priced-regret plan; only a
    # search without that hint (the root's, the probe's) builds one, once
    # it gets past the nearest check and prices the capacities.  The
    # README town at alpha 0.15 and 20% branches, capacities bind, and the
    # root's is the one search without a hint
    searches = []   # per exact search: [hinted, priced, regret plans]
    real_exact = solver._assignment_exact
    real_prices = solver._capacity_prices
    real_regret = solver._regret_assignment

    def exact(items, caps, deadline, stats, hint):
        searches.append([hint is not None, False, 0])
        return real_exact(items, caps, deadline, stats, hint)

    def prices(items, caps):
        searches[-1][1] = True
        return real_prices(items, caps)

    def regret(items, caps, prices):
        searches[-1][2] += 1
        return real_regret(items, caps, prices)

    monkeypatch.setattr(solver, "_assignment_exact", exact)
    monkeypatch.setattr(solver, "_capacity_prices", prices)
    monkeypatch.setattr(solver, "_regret_assignment", regret)
    sol = solve_exact(_demo_at(0.2, False))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.stats["nodes_explored"] > 0
    assert [n for hinted, priced, n in searches if priced] == \
        [0 if hinted else 1 for hinted, priced, _ in searches if priced]
    assert [n for hinted, _, n in searches if not hinted] == [1]
    assert sum(hinted and priced for hinted, priced, _ in searches) > 20


def test_a_parent_cutoff_leaves_the_answer_unchanged():
    # a B&B child starts its search from its parent's assignment, re-priced
    # on the child's lists: the optimum, a perturbed one, or one that
    # overfills a facility or names one off an item's list (no cutoff).
    # The answer is the same to the last bit, assignment included
    feasible = infeasible = 0
    for seed in range(3000):
        rng = random.Random(seed)
        items, caps = _random_assignment(rng)
        want = _assignment_exact(items, caps)
        dests = sorted(caps)
        hints = [{o: rng.choice(dests) for o, _, _, _ in items}]
        if want is not None:
            hints.append(want[1])
            nudged = dict(want[1])
            nudged[items[-1][0]] = rng.choice(dests)
            hints.append(nudged)
        for hint in hints:
            stats = {}
            assert _assignment_exact(items, caps, stats=stats,
                                     hint=hint) == want, seed
            if solver._repriced(items, caps, hint) is None:
                infeasible += 1
            else:
                feasible += 1
    assert feasible > 2000 and infeasible > 2000, (feasible, infeasible)


def test_assignment_search_starts_from_a_cutoff():
    # nearest overflows a0 by one job, and the job cheapest to move (j0000)
    # comes first in search order.  Searched from an infinite cutoff, each
    # improving leaf re-descended the whole path: 1.44 M nodes.  The
    # priced-regret assignment is optimal here, so one descent proves it.
    n = 1200
    costs = [[i % 10, i % 10 + 1 + i / n] for i in range(n)]
    sol = solve_exact(gap_to_rnfmp([1.0] * n, [n - 1.0, float(n)], costs))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == 5401.0
    assert sol.assignment["j0000"] == "a1"
    assert sol.stats["assignment_nodes"] <= 10_000


def test_assignment_search_is_iterative():
    # 1,200 jobs overflow agent a0 by one: recursion one frame per job
    # would pass Python's recursion limit
    n = 1200
    costs = [[float(i % 10), float(i % 10) + 2.0 - i / n] for i in range(n)]
    sol = solve_exact(gap_to_rnfmp([1.0] * n, [n - 1.0, float(n)], costs))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(sum(i % 10 for i in range(n))
                                          + 2.0 - (n - 1) / n)
    assert [k for k, d in sol.assignment.items() if d == "a1"] == ["j1199"]


def test_short_total_capacity_skips_the_price_ascent(monkeypatch):
    # both jobs want a0 (1 bed); with 1.5 beds in all there is no answer,
    # and no price ascent is needed to say so
    ascents = []
    real = solver._capacity_prices

    def counted(items, capacities):
        ascents.append(dict(capacities))
        return real(items, capacities)

    monkeypatch.setattr(solver, "_capacity_prices", counted)
    items = [("j0", 1.0, 1.0, [(1.0, "a0"), (2.0, "a1")]),
             ("j1", 1.0, 1.0, [(1.0, "a0"), (3.0, "a1")])]
    assert solver._assignment_exact(items, {"a0": 1.0, "a1": 0.5}) is None
    assert ascents == []
    # with room for both the search runs, prices first
    assert solver._assignment_exact(items, {"a0": 1.0, "a1": 1.0}) == \
        (3.0, {"j0": "a1", "j1": "a0"})
    assert solver._assignment_exact(items, {"a0": 1.0, "a1": math.inf}) == \
        (3.0, {"j0": "a1", "j1": "a0"})
    assert len(ascents) == 2


def test_affordable_connectivity_search_is_iterative():
    # 150 single-exit origins, every exit washed out at $1, budget $100:
    # the include-first search commits 100 units before it can say no
    # plan reconnects everyone.  Recursion one frame per decided unit
    # would pass a recursion limit 60 frames above the caller.
    n = 150
    nodes = [O(f"o{i:03d}", 1) for i in range(n)] + [D("d", n - 1)]
    arcs = [RoadArc(f"e{i:03d}", f"o{i:03d}", "d", 1.0, vulnerable=True,
                    mitigation_cost=1.0) for i in range(n)]
    inst = build_instance(nodes, arcs, 100.0, float(n))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        sol = solve_exact(inst)
    finally:
        sys.setrecursionlimit(limit)
    assert sol.status is SolveStatus.BUDGET_DISCONNECTED


def test_affordable_connectivity_walk_is_iterative(monkeypatch):
    # the same star on $150 with the facility one bed short: the root's
    # assignment fails, so no plan is found and the walk decides.  Each
    # origin needs its own exit, so the connection bound equals what is
    # left at every node, and the include-first walk commits all 150 units
    # before the committed exits connect everyone
    n = 150
    nodes = [O(f"o{i:03d}", 1) for i in range(n)] + [D("d", n - 1)]
    arcs = [RoadArc(f"e{i:03d}", f"o{i:03d}", "d", 1.0, vulnerable=True,
                    mitigation_cost=1.0) for i in range(n)]
    inst = build_instance(nodes, arcs, 150.0, float(n))
    free_sizes = []
    real = solver._connection_bound

    def counted(net, origin_ids, prices, free, closed, rooted):
        free_sizes.append(len(free))
        return real(net, origin_ids, prices, free, closed, rooted)

    monkeypatch.setattr(solver, "_connection_bound", counted)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        sol = solve_exact(inst)
    finally:
        sys.setrecursionlimit(limit)
    assert sol.status is SolveStatus.INFEASIBLE
    assert free_sizes == list(range(n + 1))
    assert sol.stats["connection_cuts"] == 0


def test_deadline_stops_the_connectivity_walk(monkeypatch):
    # a three-origin star with the facility one bed short: the root's
    # assignment fails with every unit affordable, so the search ends with
    # no plan and no cut, and the walk decides.  The clock passes the
    # deadline once the walk has opened its first node, so the walk stops
    # before its second: no plan and no bound
    nodes = [O(f"o{i}", 1) for i in range(3)] + [D("d", 2)]
    arcs = [RoadArc(f"e{i}", f"o{i}", "d", 1.0, vulnerable=True,
                    mitigation_cost=1.0) for i in range(3)]
    inst = build_instance(nodes, arcs, 3.0, 3.0)
    clock = [0.0]
    monkeypatch.setattr(solver, "time",
                        types.SimpleNamespace(perf_counter=lambda: clock[0]))
    bounds = []
    real = solver._connection_bound

    def late(*args):
        bounds.append(real(*args))
        clock[0] = 1e9
        return bounds[-1]

    monkeypatch.setattr(solver, "_connection_bound", late)
    sol = solve_exact(inst)
    assert bounds == [300.0]   # the walk's root, which needs all three exits
    assert sol.stats["nodes_explored"] == 0
    assert sol.status is SolveStatus.TIME_LIMIT
    assert sol.objective is None and sol.best_bound is None
    assert not sol.upgrades and not sol.assignment


def test_budget_disconnection_is_proven_before_the_search():
    # 1,200 single-exit origins, exits $1 each, $1,100 to spend: the
    # connection bound ($1,200) refutes the root, once, and that is the
    # proof; no B&B node is explored and no walk runs
    n = 1200
    nodes = [O(f"o{i:04d}", 1) for i in range(n)] + [D("d", n - 1)]
    arcs = [RoadArc(f"e{i:04d}", f"o{i:04d}", "d", 1.0, vulnerable=True,
                    mitigation_cost=1.0) for i in range(n)]
    sol = solve_exact(build_instance(nodes, arcs, 1100.0, float(n)))
    assert sol.status is SolveStatus.BUDGET_DISCONNECTED
    assert sol.stats["nodes_explored"] == 0
    assert sol.stats["connection_cuts"] == 1


def test_infeasibility_on_a_thin_budget_needs_few_nodes():
    # g10 at 5% of its repair bill: no plan exists.  Without the connection
    # bound the B&B explored 830 nodes before the walk answered Infeasible
    town = synth.grid_network_file(10, 10, 0, n_facilities=3)
    inst = instance_from_file(town, InstanceSpec(alpha=0.15,
                                                 budget_fraction=0.05))
    sol = solve_exact(inst)
    assert sol.status is SolveStatus.INFEASIBLE
    assert sol.stats["nodes_explored"] <= 150
    assert sol.stats["connection_cuts"] >= 1


def _cheapest_connecting_spend(net, units, free, closed):
    """Brute force: the least price of open units that connects everyone."""
    g = net.index()
    open_units = [u for u in units
                  if not set(u.arc_ids) & (free | closed)]
    best = math.inf
    for r in range(len(open_units) + 1):
        for combo in itertools.combinations(open_units, r):
            price = sum(u.cost_cents for u in combo)
            if price >= best:
                continue
            shut = net.vulnerable_ids - free - {
                a for u in combo for a in u.arc_ids}
            reach = g.dijkstra(g.dests, g.arcs_of(shut), reverse=True)[0]
            if all(reach[k] < math.inf for k in g.origins):
                best = price
    return best


def _bound(net, origin_ids, prices, free, closed, dest_ids):
    """`_connection_bound` started as a solve starts it, given ids: the
    origins, the arc prices (`_arc_prices`, whose arcs the network lacks
    dropped), the free and closed arcs and the facilities of `_rooted`
    are put into the network's numbering."""
    g = net.index()
    priced = {g.arc_no[a]: p for a, p in prices.items() if a in g.arc_no}
    return solver._connection_bound(
        g, g.nodes_of(origin_ids), priced, g.arcs_of(free), g.arcs_of(closed),
        solver._rooted(g, g.nodes_of(dest_ids), priced))


def test_connection_bound_is_a_valid_lower_bound():
    # random towns, per-arc and coupled, with random units bought (free)
    # and banned (closed): the bound never exceeds the cheapest connecting
    # spend, and is inf exactly when no purchase connects
    checked = unreachable = 0
    for seed in range(300):
        for coupled in (False, True):
            inst = synth.random_instance(seed, coupled=coupled)
            net = inst.network
            units = solver.purchase_units(net, coupled)
            rng = random.Random(2 * seed + coupled)
            fate = [rng.choice("uuuufc") for _ in units]
            free = frozenset(a for u, f in zip(units, fate) if f == "f"
                             for a in u.arc_ids)
            closed = frozenset(a for u, f in zip(units, fate) if f == "c"
                               for a in u.arc_ids)
            prices = solver._arc_prices(net, units)
            bound = _bound(net, [o.id for o in net.origins()], prices, free,
                           closed, [d.id for d in net.destinations()])
            want = _cheapest_connecting_spend(net, units, free, closed)
            assert (bound == math.inf) == (want == math.inf), (seed, coupled)
            assert bound <= want * (1 + 1e-9), (seed, coupled, bound, want)
            checked += 1
            unreachable += want == math.inf
    assert checked == 600 and 0 < unreachable < checked


def _chain_net(arcs):
    nodes = [O("o", 1), RoadNode("t", NodeKind.TRANSSHIPMENT), D("d", 1)]
    return build_instance(nodes, arcs, 0.0, 1.0,
                          segment_coupling=True).network


def _chain_bound(net, prices, free, closed):
    """The connection bound toward d, started as a solve starts it."""
    return _bound(net, ["o"], prices, free, closed, ["d"])


def test_connection_bound_splits_a_segment_over_its_chain():
    # one $10 segment laid over o -> t -> d: a plan pays $10 once, so each
    # arc is priced $5 and the bound is $10, not $20
    chain = [RoadArc("a1", "o", "t", 1.0, vulnerable=True,
                     mitigation_cost=10.0, segment_id="s"),
             RoadArc("a2", "t", "d", 1.0, vulnerable=True,
                     mitigation_cost=10.0, segment_id="s")]
    net = _chain_net(chain)
    units = solver.purchase_units(net, True)
    prices = solver._arc_prices(net, units)
    assert prices == {"a1": 500.0, "a2": 500.0}
    assert _chain_bound(net, prices, frozenset(), frozenset()) == 1000.0
    assert _cheapest_connecting_spend(net, units, frozenset(),
                                      frozenset()) == 1000
    # laid both ways, the chain still spans 3 nodes with 2 arcs
    both = chain + [RoadArc("b1", "t", "o", 1.0, vulnerable=True,
                            mitigation_cost=10.0, segment_id="s"),
                    RoadArc("b2", "d", "t", 1.0, vulnerable=True,
                            mitigation_cost=10.0, segment_id="s")]
    net = _chain_net(both)
    prices = solver._arc_prices(net, solver.purchase_units(net, True))
    assert set(prices.values()) == {500.0}
    assert _chain_bound(net, prices, frozenset(), frozenset()) == 1000.0
    # a safe shortcut o -> d makes the segment unnecessary; closing a2
    # leaves no way through
    shortcut = _chain_net(chain + [RoadArc("c", "o", "d", 5.0)])
    assert _chain_bound(shortcut, prices, frozenset(), frozenset()) == 0.0
    assert _chain_bound(_chain_net(chain), prices, frozenset(),
                        frozenset({"a2"})) == math.inf
    # bought (free), the segment costs nothing more
    assert _chain_bound(_chain_net(chain), prices, frozenset({"a1", "a2"}),
                        frozenset()) == 0.0


def test_connection_bound_rides_a_zero_cost_arc_into_the_rooted_set():
    # o1 leaves by v1 (o1 -> d1) or, through m, by v2 (m -> d2), both $5.
    # The tie pops v1 first, and o1's settlement takes v2's cost to 0, but
    # only o1 joins the rooted set.  o2 reaches m for free and then d2 over
    # v2 at no cost: its ascent ends on that zero-cost arc and adds
    # nothing.  Buying v2 alone connects both origins, so the bound is $5
    net = build_instance(
        [O("o1", 1), O("o2", 1), RoadNode("m"), D("d1", 2), D("d2", 2)],
        [RoadArc("o1m", "o1", "m", 1.0), RoadArc("o2m", "o2", "m", 1.0),
         RoadArc("v1", "o1", "d1", 1.0, vulnerable=True, mitigation_cost=5.0),
         RoadArc("v2", "m", "d2", 1.0, vulnerable=True, mitigation_cost=5.0)],
        0.0, 10.0).network
    units = solver.purchase_units(net, False)
    prices = solver._arc_prices(net, units)
    bound = _bound(net, ["o1", "o2"], prices, frozenset(), frozenset(),
                   ["d1", "d2"])
    want = _cheapest_connecting_spend(net, units, frozenset(), frozenset())
    assert want == 500
    assert bound == 500.0


def test_time_limit_reaches_into_the_assignment_search():
    # 40 jobs of size 2 cannot split 41 + 39: the root's one assignment
    # search would enumerate ~C(40, 20) partial assignments
    inst = gap_to_rnfmp([2.0] * 40, [41.0, 39.0], [[1.0, 1.0]] * 40)
    t = time.perf_counter()
    sol = solve_exact(inst, options=SolveOptions(time_limit_s=0.5))
    assert time.perf_counter() - t < 2.0
    assert sol.status is SolveStatus.TIME_LIMIT
    assert sol.objective is None and sol.best_bound is None


def test_time_limit_holds_on_the_large_town():
    # at 5% of its repair bill the large town does not close in seconds;
    # the root bound is already proven when the clock runs out
    inst = instance_from_file(synth.large_network_file(7),
                              InstanceSpec(alpha=0.15, budget_fraction=0.05))
    t = time.perf_counter()
    sol = solve_pipeline(inst, options=SolveOptions(time_limit_s=3.0)).solution
    assert time.perf_counter() - t < 4.5
    assert sol.status is SolveStatus.TIME_LIMIT
    assert math.isfinite(sol.best_bound)


def test_pipeline_deadline_covers_every_stage(monkeypatch):
    # the clock starts when the pipeline does: a slow prune leaves less
    # than nothing for the search, which then never starts
    real = pipeline.prune_all

    def slow_prune(net):
        time.sleep(0.5)
        return real(net)

    monkeypatch.setattr(pipeline, "prune_all", slow_prune)
    t = time.perf_counter()
    sol = solve_pipeline(f1_instance(9.0),
                         options=SolveOptions(time_limit_s=0.3)).solution
    assert time.perf_counter() - t < 0.7
    assert sol.status is SolveStatus.TIME_LIMIT and sol.exit_code() == 3


#: the B&B counters of `Solution.stats`; the other counters count work that
#: a solve reusing a pruning's memo legitimately skips
BNB_COUNTERS = ("nodes_explored", "incumbent_updates", "rounding_closures",
                "connection_cuts", "relaxations_inherited", "tables_repaired",
                "routes_reused")


def _plan_and_search(sol):
    """A solution's plan and B&B counters, without the work counters."""
    plan = {k: v for k, v in sol.to_dict().items() if k != "stats"}
    return plan, [sol.stats[k] for k in BNB_COUNTERS]


def test_pipeline_reuses_a_pruning_of_the_same_network(monkeypatch):
    # a pruning of the instance's own network skips the prune stage and
    # gives the same plan by the same search, reusing the first solve's
    # assignment searches; a pruning of another network is refused
    inst = f1_instance(9.0)
    first = solve_pipeline(inst)

    def boom(net):
        raise AssertionError("pruned twice")

    monkeypatch.setattr(pipeline, "prune_all", boom)
    again = solve_pipeline(inst, pruned=first.pruned)
    assert again.pruned is first.pruned
    assert _plan_and_search(again.solution) == _plan_and_search(first.solution)
    assert first.solution.stats["assignment_nodes"] > 0
    assert again.solution.stats["assignment_nodes"] == 0
    assert again.solution.stats["assignments_reused"] > \
        first.solution.stats["assignments_reused"]
    with pytest.raises(ValueError, match="different network"):
        solve_pipeline(f1_instance(9.0), pruned=first.pruned)


def _demo_at(fraction, coupled, town=None):
    """The README town at alpha 0.15 (capacities bind) and ``fraction``;
    with ``town``, the same instance over ``town``'s network object."""
    if town is None:
        town = instance_from_file(synth.demo_network_file(0),
                                  InstanceSpec(alpha=0.15))
    spec = dataclasses.replace(town.spec, budget_fraction=fraction,
                               segment_coupling=coupled)
    b_hat = total_vulnerable_cost(town.network, coupled)
    return dataclasses.replace(town, spec=spec, b_hat=b_hat,
                               budget=fraction * b_hat)


@pytest.mark.parametrize("coupled", [False, True])
def test_a_solve_repeated_on_a_pruning_runs_no_assignment_search(
        coupled, monkeypatch):
    # the pruning's memo holds every assignment search of the first solve,
    # so the second takes the same search to the same plan without one.
    # It looks each search up before it ranks any origin's facilities, so
    # it ranks origins only at nodes that strand one, which the memo never
    # holds, and there only up to the stranded origin
    ranked = []
    real = GraphIndex.facility_ranking

    def recorded(tables, origin):
        ranked.append(real(tables, origin))
        return ranked[-1]

    monkeypatch.setattr(GraphIndex, "facility_ranking", staticmethod(recorded))
    inst = _demo_at(0.3, coupled)
    first = solve_pipeline(inst)
    at_first = len(ranked)
    again = solve_pipeline(inst, pruned=first.pruned)
    assert first.solution.status is SolveStatus.OPTIMAL
    assert _plan_and_search(again.solution) == _plan_and_search(first.solution)
    assert first.solution.stats["assignment_nodes"] > 0
    assert again.solution.stats["assignment_nodes"] == 0
    repeat = ranked[at_first:]
    assert len(repeat) < at_first and (not repeat or not repeat[-1])


@pytest.mark.parametrize("first", [False, True])
def test_a_pruning_reused_under_the_other_coupling_gives_fresh_answers(first):
    # the memo keeps one set-up and one set of connection bounds per
    # segment coupling; its assignment searches serve both
    town = _demo_at(1.0, first)
    pruned = solve_pipeline(town).pruned
    for fraction in (0.15, 0.2, 0.3, 1.0):
        for coupled in (first, not first):
            inst = _demo_at(fraction, coupled, town)
            reused = solve_pipeline(inst, pruned=pruned).solution
            fresh = solve_pipeline(inst).solution
            assert _plan_and_search(reused) == _plan_and_search(fresh), \
                (fraction, coupled)
    assert sorted(c for c, _ in pruned.memo.setups) == [False, True]
    for coupled in (False, True):  # the set-up's bill is with_network's
        assert pruned.memo.setup(coupled, pruned.memo.forced).b_hat == \
            total_vulnerable_cost(pruned.network, coupled)


def test_solve_exact_refuses_a_memo_of_another_network():
    inst = f1_instance(9.0)
    with pytest.raises(ValueError, match="different network"):
        solve_exact(inst, memo=solver.SolveMemo(f1_instance(9.0).network))


def test_pipeline_builds_no_warm_start(monkeypatch):
    # the solve path runs neither the greedy heuristic nor its tables
    def boom(*args, **kwargs):
        raise AssertionError("off the solve path")

    monkeypatch.setattr(pipeline, "greedy_initial", boom)
    monkeypatch.setattr(pipeline, "compute_sp_tables", boom)
    sol = solve_pipeline(f1_instance(9.0)).solution
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(75.0)
    assert "warm_start" not in sol.stats


@pytest.mark.parametrize("coupled", [False, True])
def test_pipeline_matches_the_oracle(coupled):
    # prune, forced exits, search and lift together give the oracle's
    # answer, and the lifted plan validates on the original network
    optimal = 0
    for seed in range(200):
        inst = synth.random_instance(seed, decorate=True, coupled=coupled)
        want = brute_force_oracle(inst)
        got = solve_pipeline(inst).solution
        assert got.status is want.status, seed
        if want.status is SolveStatus.OPTIMAL:
            optimal += 1
            assert abs(got.objective - want.objective) <= 1e-9, seed
            assert validate_solution(inst, got).ok, seed
    assert optimal >= 20


def test_include_children_never_probe(monkeypatch):
    # the root and both children of every branched node are evaluated; a
    # child the connection bound cuts, or an include child that shuts its
    # parent's arcs and takes its relaxation, builds no tables, and every
    # other one builds them once: the root from scratch, a child by
    # repairing its parent's, one close_arcs call per facility; only the
    # root probes, from scratch.  The root's nearest-facility table
    # overfills a facility, so it searches one table per facility too; the
    # probe's fits.  The node solve calls all three on the index
    calls, repairs, popped = [], [], []
    real_times, real_near, real_close, real_pop = (
        GraphIndex.facility_times, GraphIndex.nearest_times,
        GraphIndex.close_arcs, heapq.heappop)

    def counted(g, closed=frozenset()):
        calls.append(("facility", closed))
        return real_times(g, closed)

    def counted_near(g, closed=frozenset()):
        calls.append(("nearest", closed))
        return real_near(g, closed)

    def counted_repair(g, table, sources, arcs, closed=frozenset()):
        repairs.append(closed)
        return real_close(g, table, sources, arcs, closed)

    def recorded_pop(heap):
        entry = real_pop(heap)
        if isinstance(entry[-1], solver._Node):  # a B&B node
            popped.append(entry[0])
        return entry

    monkeypatch.setattr(GraphIndex, "facility_times", counted)
    monkeypatch.setattr(GraphIndex, "nearest_times", counted_near)
    monkeypatch.setattr(GraphIndex, "close_arcs", counted_repair)
    monkeypatch.setattr(solver, "heapq", types.SimpleNamespace(
        heappush=heapq.heappush, heappop=recorded_pop))
    town = synth.grid_network_file(10, 10, 0, n_facilities=3)
    inst = instance_from_file(town, InstanceSpec(alpha=0.15,
                                                 budget_fraction=0.12))
    sol = solve_exact(inst)
    stats = sol.stats
    assert sol.status is SolveStatus.OPTIMAL
    # the search a fresh relaxation at every node takes, node for node
    assert (stats["nodes_explored"], stats["incumbent_updates"],
            stats["rounding_closures"], stats["connection_cuts"]) \
        == (30, 3, 8, 0)
    assert stats["relaxations_inherited"] > 0
    assert len(popped) == stats["nodes_explored"]
    # the last node popped ends the search when the incumbent cuts it
    branched = len(popped) - (popped[-1] >= sol.objective - DIST_TOL)
    searched = (1 + 2 * branched - stats["connection_cuts"]
                - stats["relaxations_inherited"])
    # the root and the probe, and only they, search afresh
    (_, root), (_, probe) = calls[0], calls[-1]
    assert calls == [("nearest", root), ("facility", root),
                     ("nearest", probe)] and root != probe
    assert stats["tables_repaired"] == searched - 1
    assert len(repairs) == 3 * (searched - 1)   # three facilities
    assert len({closed for _, closed in calls}) + stats["tables_repaired"] \
        == searched + 1


def _checked_routes(monkeypatch):
    """Wraps `_node_routes` to compare every route it gives, reused or
    walked, with a fresh canonical walk over the node's shut arcs; returns
    the per-call log of (fell, backed, is a child), in ids; a fell
    nearest-facility table is named "nearest"."""
    log = []
    real = solver._node_routes

    def checked(g, origins, node, tables, parent, fell, stats):
        paths, backed = real(g, origins, node, tables, parent, fell, stats)
        ids = g.node_ids
        for k, path in zip(origins, paths, strict=True):
            dest = node.assignment[k]
            fresh = g.canonical_walk(
                k, dest, node.closed,
                g.dijkstra((dest,), node.closed, reverse=True)[0])
            assert path == fresh[0], (ids[k], ids[dest])
        log.append(({"nearest" if d == solver._NEAREST else ids[d]
                     for d in fell}, {ids[k] for k in backed},
                    parent is not None))
        return paths, backed

    monkeypatch.setattr(solver, "_node_routes", checked)
    return log


def _snapped(inst, seed):
    """The instance with its times snapped to a few values: zero-time
    cycles, ties and float near-ties (0.1 + 0.2 != 0.3)."""
    rng = random.Random(seed)
    net = inst.network
    arcs = [dataclasses.replace(
                a, travel_time=rng.choice([0.0, 0.1, 0.2, 0.3, 1.0, 2.0]))
            for a in net.arcs.values()]
    return dataclasses.replace(inst, network=Network(net.nodes.values(), arcs))


def test_reused_routes_equal_fresh_walks(monkeypatch):
    # at every searched node of the random towns, plain and coupled, on
    # their own times and snapped ones, at their budget and at a half and a
    # quarter of it, each route kept from the parent is the canonical walk
    # over the node's arcs
    log = _checked_routes(monkeypatch)
    reused = 0
    for coupled in (False, True):
        for seed in range(300):
            inst = synth.random_instance(seed, max_nodes=30, max_vuln=20,
                                         max_origins=8, coupled=coupled)
            for town in (inst, _snapped(inst, seed)):
                for share in (1.0, 0.5, 0.25):
                    sol = solve_exact(dataclasses.replace(
                        town, budget=town.budget * share))
                    reused += sol.stats["routes_reused"]
    children = sum(child for _, _, child in log)
    assert children > 800 and reused > 3000, (children, reused)
    assert any(backed for _, backed, _ in log)


def _branching_town(nodes, arcs):
    """``nodes`` and ``arcs`` plus the facility d and origins s2 and s3,
    each with a slow dry road to d and a washed-out one: s3's is the $5
    ``v3``, s2's is in ``arcs``.  When that is a $5 ``va``, on a $5 budget
    the root branches on ``va``, as dear and heavier, and its include
    child shuts every other washed-out road."""
    nodes = [O("s2", 10), O("s3", 1), D("d", 99)] + nodes
    arcs = arcs + [
        RoadArc("v3", "s3", "d", 1.0, vulnerable=True, mitigation_cost=5.0),
        RoadArc("w2", "s2", "d", 3.0), RoadArc("w3", "s3", "d", 3.0)]
    return build_instance(nodes, arcs, 5.0, 10.0)


@pytest.mark.parametrize("cost, heavy, branch", [
    (0.4, "va", "v3"),    # 10 riders x $0.40 < 1 rider x $5: the dear one
    (0.5, "va", "v3"),    # equal products: the smaller id
    (0.5, "a2", "a2")])   # the same tie, the heavy unit now first by id
def test_the_root_branches_on_rider_weight_times_cost(monkeypatch, cost,
                                                      heavy, branch):
    # s2's washed-out road carries ten riders and s3's one, and the two
    # do not fit the $5 budget together, so the root stays open.  The
    # nodes built after the root and its probe are the root's include
    # child, then its ban child.  A node holds its units as bit sets of
    # unit numbers, which the solve's set-up maps back to ids
    built = []

    class Recorded(solver._Node):
        __slots__ = ()

        def __init__(self, committed, banned, cost, closed):
            super().__init__(committed, banned, cost, closed)
            built.append((committed, banned))

    monkeypatch.setattr(solver, "_Node", Recorded)
    inst = _branching_town([], [RoadArc(
        heavy, "s2", "d", 1.0, vulnerable=True, mitigation_cost=cost)])
    memo = solver.SolveMemo(inst.network)
    solve_exact(inst, memo=memo)
    (setup,) = memo.setups.values()

    def ids(bits):
        return {setup.units[u].id for u in solver._units(bits)}

    assert [(ids(c), ids(b)) for c, b in built[2:4]] == [
        ({branch}, set()), (set(), {branch})]


def test_a_route_that_backed_out_is_walked_again(monkeypatch):
    # s rides s -> w -> a -> d.  At a its walk first enters x over the
    # zero-time a -> x, finds x's tight exits lead back into the walk (x ->
    # a, x -> w) and backs out.  The include child shuts x -> a, and x
    # rises by 0.5e-9 to its offer over w: a -> x stays tight, and x -> y,
    # 1.2e-9 off tight before, is now 0.7e-9 off, so the walk goes on
    # through x and y, though no node on the parent's route moved
    log = _checked_routes(monkeypatch)
    inst = _branching_town(
        [O("s", 1), RoadNode("a"), RoadNode("w"), RoadNode("x"),
         RoadNode("y")],
        [RoadArc("sw", "s", "w", 1.0), RoadArc("wa", "w", "a", 0.5e-9),
         RoadArc("e4", "a", "d", 1.0), RoadArc("e2", "a", "x", 0.0),
         RoadArc("e3", "x", "a", 0.0, vulnerable=True, mitigation_cost=5.0),
         RoadArc("xw", "x", "w", 0.0), RoadArc("xy", "x", "y", 0.0),
         RoadArc("yd", "y", "d", 1.0 + 1.2e-9),
         RoadArc("va", "s2", "d", 1.0, vulnerable=True,
                 mitigation_cost=5.0)])
    sol = solve_exact(inst)
    assert sol.status is SolveStatus.OPTIMAL
    # the root, the probe and the root's two children
    assert [(child, backed) for _, backed, child in log] == [
        (False, {"s"}), (False, set()), (True, set()), (True, {"s"})]
    assert sol.upgrades == ("va",)
    assert sol.paths["s"] == ("sw", "wa", "e2", "xy", "yd")
    assert sol.stats["routes_reused"] == 2   # s2's and s3's, once each


def test_a_label_that_falls_makes_a_new_exit_tight(monkeypatch):
    # v reaches d by va (1 + 1.2e-9) and by vb (1 + 0.7e-9), and the kernel
    # keeps va's offer, which came first.  u -> v is then 1.2e-9 off tight,
    # so s rides u -> w -> d.  Banning va lowers v by 0.5e-9, and u -> v,
    # the smaller id, turns tight: s's route changes though no node on it
    # moved.  Everyone fits d, so the node solves read the nearest table
    log = _checked_routes(monkeypatch)
    inst = _branching_town(
        [O("s", 1), RoadNode("u"), RoadNode("v"), RoadNode("w")],
        [RoadArc("su", "s", "u", 1.0), RoadArc("x1", "u", "v", 1.0),
         RoadArc("x2", "u", "w", 1.0), RoadArc("wd", "w", "d", 1.0),
         RoadArc("s2v", "s2", "v", 0.0),
         RoadArc("va", "v", "d", 1.0 + 1.2e-9, vulnerable=True,
                 mitigation_cost=5.0),
         RoadArc("vb", "v", "d", 1.0 + 0.7e-9)])
    sol = solve_exact(inst)
    assert sol.status is SolveStatus.OPTIMAL
    assert [fell for fell, _, _ in log] == [set(), set(), set(),
                                            {"nearest"}]
    assert sol.paths["s"] == ("su", "x1", "vb")


def _rising_fork(at):
    """Three exits from ``at`` toward d: ``at``0 by y (1.2e-9 off tight),
    ``at``1 by w (0.5e-9 off tight) and the washed-out ``at``2 by x, which
    sets ``at``'s label.  Shut ``at``2, and the label rises by 0.5e-9, so
    ``at``0 turns tight."""
    y, w, x = (f"{c}{at}" for c in "ywx")
    nodes = [RoadNode(y), RoadNode(w), RoadNode(x)]
    arcs = [RoadArc(f"{at}0", at, y, 1.0), RoadArc(f"{at}1", at, w, 1.0),
            RoadArc(f"{at}2", at, x, 1.0, vulnerable=True,
                    mitigation_cost=5.0),
            RoadArc(f"{y}d", y, "d", 1.0 + 1.2e-9),
            RoadArc(f"{w}d", w, "d", 1.0 + 0.5e-9),
            RoadArc(f"{x}d", x, "d", 1.0)]
    return nodes, arcs


def test_a_label_that_rises_on_a_route_makes_it_walked_again(monkeypatch):
    # the include child shuts sa2 and v2, which no route rides.  Origin
    # sa then rises by 0.5e-9 and leaves by sa0; so does v, which sb
    # reaches by sb0, while sb keeps its label by its slower sb9
    log = _checked_routes(monkeypatch)
    fork_a, arcs_a = _rising_fork("sa")
    fork_v, arcs_v = _rising_fork("v")
    inst = _branching_town(
        [O("sa", 1), O("sb", 1), RoadNode("v")] + fork_a + fork_v,
        arcs_a + arcs_v + [
            RoadArc("sb0", "sb", "v", 1.0), RoadArc("sb9", "sb", "d", 3.0),
            RoadArc("va", "s2", "d", 1.0, vulnerable=True,
                    mitigation_cost=5.0)])
    sol = solve_exact(inst)
    assert sol.status is SolveStatus.OPTIMAL
    assert len(log) == 4 and not any(fell for fell, _, _ in log)
    assert sol.upgrades == ("va",)
    assert sol.paths["sa"] == ("sa0", "ysad")
    assert sol.paths["sb"] == ("sb0", "v0", "yvd")


def _with_shelter(inst):
    """``inst`` plus a one-bed shelter that no road reaches: not every
    facility can take every resident, though none needs to."""
    net = inst.network
    return dataclasses.replace(inst, network=Network(
        [*net.nodes.values(), D("d9", 1)], net.arcs.values()))


def _interrupted(monkeypatch, expire_at):
    """`branching_instance` with a one-bed shelter that no road reaches,
    solved with the deadline passing in the ``expire_at``-th fit test.

    The shelter keeps the town capacitated, yet every node's
    nearest-facility assignment fits, so each bound solve is one fit test
    (`_fits_in_order`) and none is an assignment search, where the clock
    is read.  The root's is the first, its probe's the second and its
    first child's the third."""
    calls = []

    def expire(picks, caps):
        calls.append(caps)
        if len(calls) == expire_at:
            raise solver._DeadlinePassed
        return real(picks, caps)

    real = solver._fits_in_order
    monkeypatch.setattr(solver, "_fits_in_order", expire)
    sol = solve_exact(_with_shelter(branching_instance()))
    assert sol.stats["assignment_nodes"] == 0
    assert sol.status is SolveStatus.TIME_LIMIT
    return sol


def test_interrupted_branching_keeps_the_parent_bound(monkeypatch):
    # the root solves its bound, then runs the search's one probe; the
    # deadline passes in the first child's bound solve: the root (bound 55)
    # is then the only proof left for the subtree it was splitting
    sol = _interrupted(monkeypatch, 3)
    assert sol.objective == pytest.approx(100.0)   # the root's probe
    assert sol.best_bound == pytest.approx(55.0)
    assert sol.gap == pytest.approx(0.45)


def test_an_interrupted_probe_keeps_the_root_bound(monkeypatch):
    # the deadline passes in the probe, before the root is queued: the
    # root's bound stands for the open tree, and there is no plan yet
    sol = _interrupted(monkeypatch, 2)
    assert sol.best_bound == pytest.approx(55.0)
    assert sol.objective is None and sol.gap is None
    assert sol.upgrades == () and sol.assignment == {}


def test_assignment_nodes_repeat_exactly():
    # a capacity-bound 10x10 town on 12% of its repair bill: several B&B
    # nodes, each with a bound solve, plus the root's probe, add up to a
    # count that never varies
    town = synth.grid_network_file(10, 10, 0, n_facilities=3)
    inst = instance_from_file(town, InstanceSpec(alpha=0.15,
                                                 budget_fraction=0.12))
    first, second = (solve_exact(inst).stats for _ in range(2))
    assert first["nodes_explored"] > 1
    assert first["assignment_nodes"] == second["assignment_nodes"]
    assert first["assignment_nodes"] > 2 * first["nodes_explored"]
    # so do the counts of what children took from their parents
    for key in ("tables_repaired", "routes_reused", "assignments_reused"):
        assert first[key] == second[key] > 0, key


def test_capacity_bound_town_closes_at_the_root(monkeypatch):
    # g10 at alpha 0.15: the units the relaxed routes ride fit the full
    # budget, so the root's bound is attained; its one assignment search
    # (capacities bind) is the only one, and no probe runs
    calls = []
    real = solver._assignment_exact

    def counted(items, caps, deadline, stats, hint):
        calls.append(len(items))
        return real(items, caps, deadline, stats, hint)

    monkeypatch.setattr(solver, "_assignment_exact", counted)
    town = synth.grid_network_file(10, 10, 0, n_facilities=3)
    inst = instance_from_file(town, InstanceSpec(alpha=0.15))
    sol = solve_exact(inst)
    assert sol.status is SolveStatus.OPTIMAL and sol.gap == 0.0
    assert sol.stats["rounding_closures"] == 1
    assert sol.stats["nodes_explored"] == 0
    assert len(calls) == 1 and sol.stats["assignment_nodes"] > 1
    assert validate_solution(inst, sol).ok
    assert "wall_time_assignment_s" in sol.stats
    assert "wall_time_assignment_s" not in sol.to_dict()["stats"]


def test_rounding_closure_matches_the_oracle():
    # an oracle-sized capacity-bound town (coupled: 4 origins, 3
    # facilities, 13 purchase units) that also closes at the root
    town = synth.grid_network_file(3, 4, 7, n_facilities=3)
    inst = instance_from_file(town, InstanceSpec(alpha=0.15,
                                                 segment_coupling=True))
    sol = solve_exact(inst)
    assert sol.stats["rounding_closures"] == 1
    assert sol.stats["nodes_explored"] == 0
    ref = brute_force_oracle(inst)
    assert sol.status is ref.status is SolveStatus.OPTIMAL
    assert abs(sol.objective - ref.objective) <= 1e-9
    assert validate_solution(inst, sol).ok


# -- the nearest-facility table -------------------------------------------------

def _with_capacities(inst, capacity):
    """``inst`` with each facility's capacity ``capacity(facility id)``."""
    net = inst.network
    nodes = [dataclasses.replace(n, capacity=capacity(n.id))
             if n.kind is NodeKind.DESTINATION else n
             for n in net.nodes.values()]
    return dataclasses.replace(inst, network=Network(nodes,
                                                     net.arcs.values()))


#: the B&B counters that count the search itself, not the routes it reuses
SEARCH_COUNTERS = tuple(k for k in BNB_COUNTERS if k != "routes_reused")


def test_the_nearest_table_solves_as_the_facility_tables_do(monkeypatch):
    # random towns, on their own times and snapped ones, at their budget, a
    # half and a quarter of it, without capacities: every facility fits
    # everyone, so each node solve reads the nearest-facility table.  Give
    # the last facility room for all but half a resident, and capacities
    # could bind: each node solve reads one table per facility.  Where they
    # do not bind in fact (every exact search returns the nearest
    # assignment), both give the same plan by the same search, and on the
    # towns small enough for it, the oracle's objective
    nearest = []   # per exact search: did it return the nearest assignment

    def recorded(items, caps, deadline, stats, hint):
        found = real(items, caps, deadline, stats, hint)
        nearest.append(found is not None and found[1] == {
            k: cands[0][1] for k, _, _, cands in items})
        return found

    real = solver._assignment_exact
    monkeypatch.setattr(solver, "_assignment_exact", recorded)
    compared = branched = oracle = 0
    for seed in range(150):
        town = synth.random_instance(seed, max_nodes=30, max_vuln=20,
                                     max_origins=8, coupled=seed % 3 == 0)
        last = max(d.id for d in town.network.destinations())
        everyone = sum(o.residents for o in town.network.origins())
        small = len(purchase_units(town.network, seed % 3 == 0)) <= 12
        for times in (town, _snapped(town, seed)):
            for share in (1.0, 0.5, 0.25):
                inst = dataclasses.replace(times, budget=times.budget * share)
                free = _with_capacities(inst, lambda d: math.inf)
                snug = _with_capacities(
                    inst, lambda d: everyone - 0.5 if d == last else math.inf)
                loose = solve_exact(free)
                nearest.clear()
                tight = solve_exact(snug)
                if not all(nearest):
                    continue   # the last facility overfills somewhere
                # a walk on the one table backs out of an exit tight only
                # toward another facility, where one facility's table has
                # none, and a route that backed out is not reused: so
                # routes_reused may differ
                assert _plan_and_search(loose)[0] == \
                    _plan_and_search(tight)[0], (seed, share)
                assert [loose.stats[k] for k in SEARCH_COUNTERS] == \
                    [tight.stats[k] for k in SEARCH_COUNTERS], (seed, share)
                compared += 1
                branched += loose.stats["nodes_explored"] > 0
                if small:
                    want = brute_force_oracle(free)
                    assert loose.status is want.status, (seed, share)
                    if want.status is SolveStatus.OPTIMAL:
                        assert abs(loose.objective - want.objective) <= 1e-9
                    oracle += 1
    assert compared > 700 and branched > 50 and oracle > 400, \
        (compared, branched, oracle)


def test_a_contested_nearest_table_leaves_for_the_facility_tables(
        monkeypatch):
    # s reaches d0 in 9 over the washed-out a, or in 10 over b; d1 in
    # 10 - 0.5e-9 over c.  The root rides a and v3 ($10 on a $5 budget)
    # and branches on a.  Without a, one search from both facilities keeps
    # d0's offer of 10 for s, though d1 is nearer: the probe's table and the
    # table repaired for the child that bans a are contested, and those
    # node solves read one table per facility instead.  The solve equals
    # the one where capacities could bind, and the oracle's plan
    searched = []
    real_times = GraphIndex.facility_times

    def counted(g, closed=frozenset()):
        searched.append(closed)
        return real_times(g, closed)

    monkeypatch.setattr(GraphIndex, "facility_times", counted)
    nodes = [O("s", 10), O("s3", 1), D("d0", 99), D("d1", 99)]
    arcs = [RoadArc("a", "s", "d0", 9.0, vulnerable=True, mitigation_cost=5.0),
            RoadArc("b", "s", "d0", 10.0), RoadArc("c", "s", "d1", 10 - 0.5e-9),
            RoadArc("v3", "s3", "d0", 1.0, vulnerable=True,
                    mitigation_cost=5.0),
            RoadArc("w3", "s3", "d0", 3.0)]
    inst = build_instance(nodes, arcs, 5.0, 10.0)
    sol = solve_exact(inst)
    g = inst.network.index()   # the probe and the child that bans a
    assert searched == [g.arcs_of(("a", "v3")), g.arcs_of(("a",))]
    assert sol.stats["nearest_fallbacks"] == 2
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.upgrades == ("a",) and sol.objective == 93.0
    assert sol.stats["tables_repaired"] == 2
    ref = brute_force_oracle(inst)
    assert ref.objective == sol.objective and ref.upgrades == sol.upgrades
    # the child that left the nearest table walks every route afresh
    snug = solve_exact(_with_capacities(
        inst, lambda d: 10.5 if d == "d1" else 99.0))
    assert _plan_and_search(snug)[0] == _plan_and_search(sol)[0]
    assert [snug.stats[k] for k in SEARCH_COUNTERS] == \
        [sol.stats[k] for k in SEARCH_COUNTERS]


def test_a_capacitated_town_whose_nearest_assignments_fit_runs_no_search():
    # the shelter that no road reaches cannot take everyone, so capacities
    # could bind; but every node's nearest-facility assignment fits, so no
    # node runs an exact assignment search, and the plan is the oracle's
    inst = _with_shelter(branching_instance())
    sol = solve_exact(inst)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.stats["nodes_explored"] > 0
    assert sol.stats["assignment_nodes"] == 0
    ref = brute_force_oracle(inst)
    assert ref.objective == sol.objective and ref.upgrades == sol.upgrades


def test_an_overfilled_nearest_table_leaves_for_the_facility_tables(
        monkeypatch):
    # d1 holds 10 beds, s's 10 residents.  The root rides a and v3 ($10 on
    # a $5 budget): s at d1, s3 at d0, which fits, and it branches on a.
    # The include child buys a and cannot afford v3, so s3's nearest
    # facility turns to d1 by w3, which overfills it: that child searches
    # one table per facility afresh and sends s3 to d0 by x3
    searched = []
    real_times = GraphIndex.facility_times

    def counted(g, closed=frozenset()):
        searched.append(closed)
        return real_times(g, closed)

    monkeypatch.setattr(GraphIndex, "facility_times", counted)
    nodes = [O("s", 10), O("s3", 1), D("d0", 99), D("d1", 10)]
    arcs = [RoadArc("a", "s", "d1", 1.0, vulnerable=True, mitigation_cost=5.0),
            RoadArc("b", "s", "d0", 5.0),
            RoadArc("v3", "s3", "d0", 1.0, vulnerable=True,
                    mitigation_cost=5.0),
            RoadArc("w3", "s3", "d1", 3.0), RoadArc("x3", "s3", "d0", 6.0)]
    inst = build_instance(nodes, arcs, 5.0, 10.0)
    sol = solve_exact(inst)
    assert searched == [inst.network.index().arcs_of(("v3",))]
    assert sol.stats["nearest_fallbacks"] == 1
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.upgrades == ("a",) and sol.objective == 16.0
    assert sol.assignment == {"s": "d1", "s3": "d0"}
    assert sol.stats["assignment_nodes"] > 0
    ref = brute_force_oracle(inst)
    assert ref.objective == sol.objective and ref.upgrades == sol.upgrades


def test_a_nearest_table_reuses_the_routes_facility_tables_do(monkeypatch):
    # on the nearest-facility table, a walk skips an exit tight only toward
    # another facility instead of backing out of it, so it reuses in a
    # child every route the per-facility tables reuse.  The same solve with
    # every nearest table given up, as if contested, gives the same plan
    # by the same search
    town = synth.random_instance(5, max_nodes=14, max_vuln=10, max_origins=5)
    everyone = sum(o.residents for o in town.network.origins())
    inst = dataclasses.replace(
        _with_capacities(town, lambda d: everyone + 1000.0),
        budget=total_vulnerable_cost(town.network, False) / 4)
    near = solve_exact(inst)
    monkeypatch.setattr(GraphIndex, "nearest_times",
                        lambda g, closed=frozenset(): None)
    apart = solve_exact(inst)
    assert near.objective == 469.5 and near.stats["nodes_explored"] == 1
    assert near.stats["assignment_nodes"] == 0 < apart.stats["assignment_nodes"]
    assert _plan_and_search(near) == _plan_and_search(apart)
    assert near.stats["routes_reused"] == apart.stats["routes_reused"] == 3
