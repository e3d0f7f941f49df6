"""End-to-end solve: prune, reduce, warm-start, branch-and-bound, lift back.

Every stage is optional and individually safe — disabling any combination of
them changes speed, never the optimum (that equivalence is what the test
suite hammers on).  The returned solution always speaks in terms of the
original network: folded origins reappear, contracted arcs re-expand.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .heuristic import GreedySolution, greedy_initial
from .ingest import ProblemInstance, with_network
from .prune import PrunedNetwork, expand_solution, prune_all
from .reductions import (FixedUpgrades, VariableMask, compute_sp_tables,
                         standard_reductions)
from .solver import Solution, SolveOptions, solve_exact


@dataclass
class PipelineResult:
    solution: Solution                     # on the original network
    raw_solution: Solution                 # on the solved (possibly pruned) one
    pruned: PrunedNetwork | None
    fixings: FixedUpgrades | None
    mask: VariableMask | None              # reported; the solver needs no mask
    greedy: GreedySolution | None          # in pruned terms when pruning ran


def solve_pipeline(instance: ProblemInstance,
                   options: SolveOptions | None = None,
                   use_prune: bool = True,
                   use_reduce: bool = True,
                   use_warmstart: bool = True) -> PipelineResult:
    options = options or SolveOptions()
    work = instance
    pruned: PrunedNetwork | None = None
    if use_prune:
        pruned = prune_all(instance.network)
        work = with_network(instance, pruned.network, budget=instance.budget)

    fixings: FixedUpgrades | None = None
    mask: VariableMask | None = None
    tables = None
    if use_reduce:
        tables = compute_sp_tables(work)
        fixings, mask = standard_reductions(work, tables)

    greedy: GreedySolution | None = None
    if use_warmstart:
        greedy = greedy_initial(work, tables)
        if greedy.feasible:
            options = dataclasses.replace(options, warm_start=greedy)

    raw = solve_exact(work, fixings=fixings, options=options)
    solution = expand_solution(raw, pruned.log) if pruned is not None else raw
    return PipelineResult(solution=solution, raw_solution=raw, pruned=pruned,
                          fixings=fixings, mask=mask, greedy=greedy)
