"""Greedy warm start: always honest, never load-bearing."""
from __future__ import annotations

import pytest

from floodmit.heuristic import greedy_initial
from floodmit.solver import (SolveOptions, SolveStatus, brute_force_oracle,
                             solve_exact, validate_solution)
from floodmit import synth

from conftest import bridge_instance, f1_instance, overfull_instance, stranded_instance


def test_greedy_prefers_free_routes():
    # both origins fit their nearest flood-free facility, so nothing is bought
    sol = greedy_initial(f1_instance(9.0))
    assert sol.feasible
    assert sol.upgrades == ()
    assert sol.spent == 0.0
    assert sol.objective == pytest.approx(100.0)
    assert sol.assignment == {"o1": "d2", "o2": "d2"}


def test_greedy_buys_segment_priced_paths():
    sol = greedy_initial(bridge_instance(coupled=True))
    assert sol.feasible
    assert sol.objective == pytest.approx(48.0)
    assert sol.spent == pytest.approx(6.0)
    assert set(sol.upgrades) == {"e", "er"}


def test_greedy_reports_honest_failure():
    broke = greedy_initial(bridge_instance(coupled=False))
    assert not broke.feasible
    assert broke.spent > bridge_instance(coupled=False).budget  # over-spend, flagged
    stranded = greedy_initial(stranded_instance(7.0))
    assert stranded.feasible  # with money the lone washed-out road is bought
    stuck = greedy_initial(overfull_instance())
    assert not stuck.feasible
    cutoff = greedy_initial(stranded_instance(0.0))
    assert not cutoff.feasible


def test_greedy_feasible_implies_valid_and_bounded():
    feasible_seen = 0
    for seed in range(120):
        inst = synth.random_instance(seed, coupled=(seed % 3 == 0))
        sol = greedy_initial(inst)
        if not sol.feasible:
            continue
        feasible_seen += 1
        report = validate_solution(inst, sol)
        assert report.ok, (seed, str(report))
        exact = brute_force_oracle(inst)
        assert exact.status is SolveStatus.OPTIMAL
        assert sol.objective >= exact.objective - 1e-9, seed
    assert feasible_seen >= 30


def test_warm_start_never_hurts():
    for seed in range(40):
        inst = synth.random_instance(seed)
        sol = greedy_initial(inst)
        warm = solve_exact(inst, options=SolveOptions(warm_start=sol))
        cold = solve_exact(inst)
        assert warm.status == cold.status
        if warm.status is SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            if sol.feasible:
                assert warm.objective <= sol.objective + 1e-9
