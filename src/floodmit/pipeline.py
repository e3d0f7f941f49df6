"""End-to-end solve: prune, reduce, warm-start, branch-and-bound, lift back.

Every stage always runs, in that order.  Pruning and the forced-exit
fixings are exact (tested against the brute-force oracle); the route masks
only tighten the 0-1 model, so the solve path does not build them.  The
greedy plan is only a warm start, used when it is feasible.  The
shortest-path tables are built once, by ``net.facility_times``, and feed
the greedy heuristic.  ``options.time_limit_s`` bounds the whole pipeline:
the branch-and-bound gets only the time the earlier stages left, and with
none left the result is `TimeLimit` without a search.  The returned
solution always speaks in terms of the original network: folded origins
reappear, contracted arcs re-expand.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from .heuristic import GreedySolution, greedy_initial
from .ingest import ProblemInstance, with_network
from .prune import PrunedNetwork, expand_solution, prune_all
from .reductions import FixedUpgrades, compute_sp_tables, forced_exits
from .reductions import standard_reductions  # noqa: F401 - bench/tracer.py hooks it here
from .solver import Solution, SolveOptions, SolveStatus, solve_exact


@dataclass
class PipelineResult:
    solution: Solution                     # on the original network
    raw_solution: Solution                 # on the pruned network
    pruned: PrunedNetwork
    fixings: FixedUpgrades
    greedy: GreedySolution                 # in pruned terms


def solve_pipeline(instance: ProblemInstance,
                   options: SolveOptions | None = None) -> PipelineResult:
    options = options or SolveOptions()
    deadline = time.perf_counter() + options.time_limit_s
    pruned = prune_all(instance.network)
    work = with_network(instance, pruned.network, budget=instance.budget)
    tables = compute_sp_tables(work)
    fixings = forced_exits(work)
    greedy = greedy_initial(work, tables)
    if greedy.feasible:
        options = dataclasses.replace(options, warm_start=greedy)
    left = deadline - time.perf_counter()
    if left > 0:
        options = dataclasses.replace(options, time_limit_s=left)
        raw = solve_exact(work, fixings=fixings, options=options)
    else:
        raw = Solution(status=SolveStatus.TIME_LIMIT)
    return PipelineResult(solution=expand_solution(raw, pruned.log),
                          raw_solution=raw, pruned=pruned, fixings=fixings,
                          greedy=greedy)
