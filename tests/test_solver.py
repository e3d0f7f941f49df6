"""Exact solver, brute-force twin, 0-1 model, and the LP writer."""
from __future__ import annotations

import math

import pytest

from floodmit.net import (ArcFilter, NodeKind, RoadArc, RoadNode,
                          canonical_shortest_path)
from floodmit.reductions import Cuts, VariableMask, standard_reductions
from floodmit.solver import (ModelError, OracleLimits, OracleScaleError,
                             SolveOptions, SolveStatus, Solution,
                             brute_force_oracle, build_model, export_lp,
                             gap_to_rnfmp, read_lp, solve_exact,
                             validate_solution)
from floodmit import synth

from conftest import (bridge_instance, build_instance, f1_instance,
                      forced_exit_instance, overfull_instance,
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


def test_time_limit_reports_incumbent_and_bound():
    sol = solve_exact(f1_instance(9.0), options=SolveOptions(time_limit_s=1e-9))
    assert sol.status is SolveStatus.TIME_LIMIT
    assert sol.exit_code() == 3
    # the no-purchase probe (objective 100) lands before the clock is checked
    assert sol.objective == pytest.approx(100.0)
    assert sol.best_bound == pytest.approx(75.0)
    assert sol.gap == pytest.approx(0.25)


def test_gap_tolerance_reports_honest_bound():
    sol = solve_exact(f1_instance(9.0), options=SolveOptions(gap_tol=0.5))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(100.0)   # accepted early
    assert sol.best_bound == pytest.approx(75.0)   # ... but only 75 was proven
    assert sol.gap == pytest.approx(0.25)
    assert sol.gap <= 0.5


def test_segment_pricing_in_solver():
    coupled = solve_exact(bridge_instance(coupled=True))
    assert coupled.status is SolveStatus.OPTIMAL
    assert coupled.objective == pytest.approx(48.0)
    assert set(coupled.upgrades) == {"e", "er"}
    assert solve_exact(bridge_instance(coupled=False)).status \
        is SolveStatus.INFEASIBLE


def test_warm_start_equivalence():
    inst = f1_instance(9.0)
    warm = solve_exact(inst, options=SolveOptions(warm_start=solve_exact(inst)))
    assert warm.objective == pytest.approx(75.0)
    # a nonsense warm start is quietly ignored, not trusted
    junk = Solution(status=SolveStatus.OPTIMAL, objective=1.0,
                    upgrades=("a1",), assignment={"o1": "d1", "o2": "d1"})
    still = solve_exact(inst, options=SolveOptions(warm_start=junk))
    assert still.objective == pytest.approx(75.0)


def test_collect_nodes_fates():
    sol = solve_exact(f1_instance(9.0), options=SolveOptions(collect_nodes=True))
    nodes = sol.stats["nodes"]
    assert nodes and all(n["fate"] in {"dead", "closed", "cut", "open"}
                         for n in nodes)
    assert all("bound" in n for n in nodes if n["fate"] != "dead")
    assert sol.stats["nodes_explored"] >= 1
    plain = solve_exact(f1_instance(9.0))
    assert "nodes" not in plain.stats


def test_solution_serialization_is_stable():
    sol = solve_exact(f1_instance(9.0))
    assert sol.to_json() == sol.to_json()
    d = sol.to_dict()
    assert "wall_time_s" not in d["stats"]
    assert "wall_time_s" in sol.to_dict(include_timing=True)["stats"]
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


def test_solver_agrees_with_oracle_on_random_instances():
    for seed in range(80):
        inst = synth.random_instance(seed, coupled=(seed % 4 == 0))
        a = brute_force_oracle(inst)
        b = solve_exact(inst)
        assert a.status == b.status, (seed, a.status, b.status)
        if a.status is SolveStatus.OPTIMAL:
            assert abs(a.objective - b.objective) <= 1e-9, seed
            report = validate_solution(inst, b)
            assert report.ok, (seed, str(report))


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
            filt = ArcFilter.upgraded_set(sol.upgrades)
            for k, dest in sol.assignment.items():
                found = canonical_shortest_path(inst.network, k, dest, filt)
                assert sol.paths[k] == found[1], (coupled, seed, k)
    assert checked >= 100


def test_zero_time_cycle_routes():
    # a <-> b is a zero-time loop; walking greedily from a onto b (smaller
    # arc id) strands the route, so the path search must back out of b
    inst = build_instance(
        [O("s", 1), RoadNode("a"), RoadNode("b"), D("t", 5)],
        [RoadArc("e1", "s", "a", 1.0), RoadArc("e2", "a", "b", 0.0),
         RoadArc("e3", "b", "a", 0.0), RoadArc("e4", "a", "t", 1.0)],
        0.0, 0.0)
    assert canonical_shortest_path(inst.network, "s", "t") == \
        (2.0, ("e1", "e4"))
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
    masked = build_model(inst, mask=VariableMask({("o1", "a5"): "test"}))
    assert masked.counts()["x"] == base.counts()["x"] - 1
    cut = build_model(inst, cuts=Cuts(triangle=(("a2", "a3", "a4"),)))
    # one row per origin able to use at least two of the triangle's arcs
    assert cut.counts()["constraints"] == base.counts()["constraints"] + 2


def test_build_model_rejects_unsatisfiable_dispatch():
    inst = f1_instance(9.0)
    everything = VariableMask({("o1", a): "test" for a in inst.network.arcs})
    with pytest.raises(ModelError):
        build_model(inst, mask=everything)


def test_lp_round_trip():
    model = build_model(f1_instance(9.0))
    text = export_lp(model)
    assert text == export_lp(model)  # byte-stable
    parsed = read_lp(text)
    assert sorted(parsed["binaries"]) == sorted(model.binaries)
    assert len(parsed["constraints"]) == model.counts()["constraints"]
    obj = {var: coef for coef, var in parsed["objective"]}
    assert obj["x_o2_o2_d1"] == pytest.approx(5.0)   # weight 5 x 1 minute


def test_lp_file_round_trip(tmp_path):
    model = build_model(f1_instance(9.0))
    p = tmp_path / "model.lp"
    export_lp(model, p)
    parsed = read_lp(p)
    assert len(parsed["constraints"]) == 19


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
