"""The release gate: eleven checks, one printed verdict line each.

Every numeric tolerance is stated inline; every frozen constant is
re-derived by an independent oracle inside the test before it is asserted.
Run with `pytest -v` to get one pass/fail line per criterion.
"""
from __future__ import annotations

import itertools
import json
import math
import time

import pytest

from floodmit.analysis import (budget_sweep, connectivity_critical,
                               ewtt_ranking, lower_bound)
from floodmit.cli import main as cli_main
from floodmit.heuristic import greedy_initial
from floodmit.ingest import purchase_units, with_network
from floodmit.net import shortest_paths
from floodmit.prune import expand_solution, prune_all
from floodmit.reductions import forced_exits, standard_reductions
from floodmit.solver import (SolveOptions, SolveStatus, brute_force_oracle,
                             cents, gap_to_rnfmp, solve_exact,
                             validate_solution)
from floodmit import synth

from conftest import f1_instance

TOL = 1e-9


def verdict(n: int, ok: bool, note: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} — {note}")
    assert ok


def test_criterion_01_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = []
    for seed in range(300):
        inst = synth.random_instance(seed, max_nodes=10, max_vuln=10,
                                     max_origins=4, max_destinations=3)
        want = brute_force_oracle(inst)
        got = solve_exact(inst)
        if want.status != got.status:
            mismatches.append((seed, "status", want.status, got.status))
        elif want.status is SolveStatus.OPTIMAL and \
                abs(want.objective - got.objective) > TOL:
            mismatches.append((seed, "objective", want.objective,
                               got.objective))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"
    verdict(1, not mismatches,
            f"solver == subset-enumeration oracle on 300 instances "
            f"(objective tol 1e-9, status exact, {elapsed:.1f}s)")
    assert not mismatches, mismatches[:5]


def test_criterion_02_pruning_exactness():
    bad = []
    optimal_pairs = 0
    for seed in range(200):
        inst = synth.random_instance(seed, decorate=True)
        pruned = prune_all(inst.network)
        small = with_network(inst, pruned.network)
        a = brute_force_oracle(inst)
        b = brute_force_oracle(small)
        if a.status != b.status:
            bad.append((seed, "status", a.status, b.status))
            continue
        if a.status is not SolveStatus.OPTIMAL:
            continue  # infeasibility preserved in both directions
        optimal_pairs += 1
        if abs(a.objective - (b.objective + pruned.log.objective_offset)) > TOL:
            bad.append((seed, "offset", a.objective, b.objective))
            continue
        lifted = expand_solution(b, pruned.log)
        report = validate_solution(inst, lifted)
        if not report.ok or abs(lifted.objective - a.objective) > TOL:
            bad.append((seed, "lift", str(report)))
    verdict(2, not bad and optimal_pairs >= 20,
            f"prune keeps optimum (+offset, tol 1e-9) and lifted plans "
            f"validate on the original, 200 instances "
            f"({optimal_pairs} optimal pairs)")
    assert not bad, bad[:5]


def test_criterion_03_reduction_safety():
    bad = []
    vi_sets_checked = 0
    for seed in range(200):
        inst = synth.random_instance(seed, decorate=True)
        want = brute_force_oracle(inst)
        fixed, mask = standard_reductions(inst)
        reduced = brute_force_oracle(inst, mask=mask, fixings=fixed)
        got = solve_exact(inst, fixings=fixed)
        for tag, other in (("oracle", reduced), ("solver", got)):
            if want.status != other.status:
                bad.append((seed, tag, "status", want.status, other.status))
            elif want.status is SolveStatus.OPTIMAL and \
                    abs(want.objective - other.objective) > TOL:
                bad.append((seed, tag, "objective", want.objective,
                            other.objective))

        # every affordable, evacuating upgrade set obeys the exit rule:
        # an origin whose exits are all washed out must buy one of them
        exit_origins = set(fixed.exit_vi_origins) | \
            {k for k, _ in fixed.forced_x}
        if not exit_origins:
            continue
        net = inst.network
        units = purchase_units(net, inst.spec.segment_coupling)
        dests = {d.id for d in net.destinations()}
        budget_c = cents(inst.budget)
        for take in itertools.product((False, True), repeat=len(units)):
            chosen = [u for u, t in zip(units, take) if t]
            if sum(u.cost_cents for u in chosen) > budget_c:
                continue
            covered = {a for u in chosen for a in u.arc_ids}
            closed = net.vulnerable_ids - covered
            if any(not (shortest_paths(net, o.id, closed).keys() & dests)
                   for o in net.origins()):
                continue  # not a feasible evacuation, rule does not apply
            vi_sets_checked += 1
            for k in exit_origins:
                exits = {a for a in net.out_arcs(k)
                         if net.arcs[a].vulnerable}
                if not (exits & covered):
                    bad.append((seed, "exit-rule", k, sorted(covered)))
    verdict(3, not bad,
            f"masks+fixings leave the oracle optimum, and fixings the "
            f"solver optimum, unchanged (tol 1e-9) on "
            f"200 instances; exit rule held on {vi_sets_checked} "
            f"feasible upgrade sets")
    assert not bad, bad[:5]


def test_criterion_04_reference_fixture_regression():
    frozen = {0.0: 100.0, 4.0: 80.0, 5.0: 75.0, 9.0: 75.0}
    for budget, value in frozen.items():
        oracle = brute_force_oracle(f1_instance(budget))
        assert oracle.status is SolveStatus.OPTIMAL
        assert oracle.objective == pytest.approx(value, abs=TOL)
        sol = solve_exact(f1_instance(budget))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(value, abs=TOL)
    lb, _ = lower_bound(f1_instance(0.0))
    assert lb == pytest.approx(75.0, abs=TOL)
    verdict(4, True, "five-road fixture: objectives {0: 100, 4: 80, 5: 75, "
                     "9: 75} and floor 75, oracle-confirmed")


def test_criterion_05_assignment_problem_equivalence():
    bad = []
    infeasible_seen = 0
    for seed in range(50):
        sizes, caps, costs = synth.random_gap(seed, max_jobs=5, max_agents=3)
        best = None
        for pick in itertools.product(range(len(caps)), repeat=len(sizes)):
            load = [0.0] * len(caps)
            for i, j in enumerate(pick):
                load[j] += sizes[i]
            if any(load[j] > caps[j] + 1e-9 for j in range(len(caps))):
                continue
            cost = sum(costs[i][j] for i, j in enumerate(pick))
            if best is None or cost < best:
                best = cost
        sol = solve_exact(gap_to_rnfmp(sizes, caps, costs))
        if best is None:
            infeasible_seen += 1
            if sol.status is not SolveStatus.INFEASIBLE:
                bad.append((seed, "want infeasible", sol.status))
        elif sol.status is not SolveStatus.OPTIMAL or \
                abs(sol.objective - best) > TOL:
            bad.append((seed, best, sol.status, sol.objective))
    verdict(5, not bad,
            f"assignment-problem embedding matches exhaustive enumeration "
            f"on 50 instances ({infeasible_seen} infeasible)")
    assert not bad, bad[:5]


def test_criterion_06_greedy_contract():
    bad = []
    feasible_count = 0
    for seed in range(100):
        inst = synth.random_instance(seed, coupled=(seed % 5 == 0))
        greedy = greedy_initial(inst)
        exact = brute_force_oracle(inst)
        if greedy.feasible:
            feasible_count += 1
            if not validate_solution(inst, greedy).ok:
                bad.append((seed, "invalid greedy"))
            elif exact.status is not SolveStatus.OPTIMAL:
                bad.append((seed, "greedy feasible but oracle not"))
            elif greedy.objective < exact.objective - TOL:
                bad.append((seed, "greedy beat the optimum"))
        warm = solve_exact(inst, options=SolveOptions(warm_start=greedy))
        if greedy.feasible and warm.status is SolveStatus.OPTIMAL and \
                warm.objective > greedy.objective + TOL:
            bad.append((seed, "warm-started solve worse than its start"))
        if warm.status != exact.status or (
                warm.status is SolveStatus.OPTIMAL
                and abs(warm.objective - exact.objective) > TOL):
            bad.append((seed, "warm start changed the answer"))
    verdict(6, not bad and feasible_count >= 25,
            f"feasible greedy always validates and never beats the optimum; "
            f"warm starts never hurt ({feasible_count}/100 feasible)")
    assert not bad, bad[:5]


def test_criterion_07_sweep_properties():
    fractions = [0.0, 0.25, 0.5, 0.75, 1.0]
    bad = []
    curves = 0
    for seed in range(50):
        inst = synth.random_instance(seed)
        rows = budget_sweep(inst, fractions)
        objs = [r.objective for r in rows if r.objective is not None]
        if objs:
            curves += 1
        if any(a < b - TOL for a, b in zip(objs, objs[1:])):
            bad.append((seed, "objective increased with budget"))
        for r in rows:
            if r.excess is not None and r.excess < -TOL:
                bad.append((seed, "negative excess", r.fraction))
        last = rows[-1]
        assert last.fraction == 1.0
        if last.excess is not None and abs(last.excess) > TOL:
            bad.append((seed, "nonzero excess at full budget", last.excess))
    verdict(7, not bad and curves >= 20,
            f"objective non-increasing in budget, excess >= 0, excess == 0 "
            f"at full budget, 50 instances ({curves} with solved rows)")
    assert not bad, bad[:5]


def test_criterion_08_smaller_budget_more_roads():
    low, high = synth.BUDGET_PARADOX_PAIR
    a = solve_exact(synth.budget_paradox_instance(low))
    b = solve_exact(synth.budget_paradox_instance(high))
    assert a.status is SolveStatus.OPTIMAL and b.status is SolveStatus.OPTIMAL
    assert brute_force_oracle(synth.budget_paradox_instance(low)).objective \
        == pytest.approx(a.objective, abs=TOL)
    assert brute_force_oracle(synth.budget_paradox_instance(high)).objective \
        == pytest.approx(b.objective, abs=TOL)
    ok = low < high and len(a.upgrades) > len(b.upgrades)
    verdict(8, ok,
            f"budget ${low:g} buys {len(a.upgrades)} roads, the larger "
            f"${high:g} buys {len(b.upgrades)} — bigger budget, fewer roads")


def _bellman_ford(net, source, skip=None):
    dist = {source: 0.0}
    for _ in range(len(net.nodes)):
        changed = False
        for arc in net.arcs.values():
            if arc.id == skip:
                continue
            dt = dist.get(arc.tail)
            if dt is None:
                continue
            nd = dt + arc.travel_time
            if nd < dist.get(arc.head, math.inf) - 1e-15:
                dist[arc.head] = nd
                changed = True
        if not changed:
            break
    return dist


def test_criterion_09_closure_ranking_correctness():
    bad = []
    for seed in range(40):
        inst = synth.random_instance(seed)  # max 10 nodes, within the cap
        net = inst.network
        origins = net.origins()
        dests = [d.id for d in net.destinations()]
        base = {o.id: _bellman_ford(net, o.id) for o in origins}
        for row in ewtt_ranking(inst):
            total = 0.0
            cut = 0
            for o in origins:
                removed = _bellman_ford(net, o.id, skip=row.arc)
                for d in dests:
                    before = base[o.id].get(d)
                    if before is None:
                        continue
                    after = removed.get(d)
                    if after is None:
                        cut += 1
                    elif after - before > 0:
                        total += o.weight * (after - before)
            if abs(total - row.ewtt) > TOL or (cut > 0) != row.disconnects:
                bad.append((seed, row.arc, total, row.ewtt, cut))
        want_critical = []
        for aid in sorted(net.arcs):
            for o in origins:
                reach = _bellman_ford(net, o.id, skip=aid)
                if not any(d in reach for d in dests):
                    want_critical.append(aid)
                    break
        if connectivity_critical(inst) != tuple(want_critical):
            bad.append((seed, "critical set"))
    verdict(9, not bad,
            "closure impact ranking and stranded-origin detection match an "
            "independent relaxation-based recomputation (tol 1e-9), "
            "40 instances")
    assert not bad, bad[:5]


def test_criterion_10_deterministic_artifacts(tmp_path):
    src = tmp_path / "demo.json"
    assert synth.main(["demo", str(src)]) == 0
    src2 = tmp_path / "demo2.json"
    assert synth.main(["demo", str(src2)]) == 0
    assert src.read_bytes() == src2.read_bytes()

    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        for argv in (
            ["ingest", str(src), "--alpha", "0.15", "--out-dir", str(out)],
            ["prune", str(src), "--alpha", "0.15", "--out-dir", str(out)],
            ["solve", str(src), "--alpha", "0.15", "--out-dir", str(out)],
            ["sweep", str(src), "--alpha", "0.15",
             "--fractions", "0,0.5,1", "--out-dir", str(out)],
            ["ewtt", str(src), "--alpha", "0.15", "--segments",
             "--out-dir", str(out)],
            ["frequency", str(src), "--alpha", "0.15",
             "--fractions", "0,0.5,1", "--out-dir", str(out)],
            ["export-lp", str(src), "--alpha", "0.15", "--out-dir", str(out)],
        ):
            assert cli_main(argv) == 0, argv
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert sorted(runs[0]) == ["ewtt.csv", "frequency.csv", "instance.json",
                               "model.lp", "prunelog.json", "segments.csv",
                               "solution.json", "sweep.csv"]
    same = {name for name in runs[0] if runs[0][name] == runs[1][name]}
    verdict(10, same == set(runs[0]),
            f"re-running every command gives byte-identical JSON/CSV/LP "
            f"artifacts ({len(same)}/{len(runs[0])} files)")


def test_criterion_11_large_network_accounting():
    from floodmit.ingest import InstanceSpec, instance_from_file
    inst = instance_from_file(synth.large_network_file(7),
                              InstanceSpec(alpha=0.25))
    n_nodes = len(inst.network.nodes)
    assert n_nodes >= 1500, "bundled network should be planning-sized"
    pruned = prune_all(inst.network)
    stats = pruned.stats
    rows = stats.rows()
    assert len(rows) == 8
    for row in rows:
        assert {"label", "nodes", "arcs", "variables"} <= set(row)
    small = with_network(inst, pruned.network)
    _, mask = standard_reductions(small)
    masked = sum(len(arcs) for arcs in mask.values())
    pruned_away = stats.original["variables"] - stats.final["variables"]
    total_removed = pruned_away + masked
    verdict(11, total_removed > 0,
            f"{n_nodes}-node network: {pruned_away} variables pruned + "
            f"{masked} masked in {stats.rounds} rounds "
            f"(strictly positive reduction)")
