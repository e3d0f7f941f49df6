"""End-to-end solve: prune, fix forced exits, branch-and-bound, lift back.

Every stage always runs, in that order.  Pruning and the forced-exit
fixings are exact (tested against the brute-force oracle); the route masks
only tighten the 0-1 model, so the solve path does not build them.  No
greedy warm start is built either: the search finds the same plans without
one, mostly by rounding at the root.  Only a run cut off before the search
finds a plan of its own would differ, and it reports its bound alone
(``SolveOptions.warm_start`` stays for library callers).
``options.time_limit_s`` bounds the whole pipeline: the branch-and-bound
gets only the time the earlier stages left, and with none left the result
is `TimeLimit` without a search.  Pruning depends on the network alone, not
on the budget, so a caller that solves one network at several budgets
prunes it once and passes that pruning (``pruned=``) to every later call;
its time was then paid inside the first call's limit, and its memo
(`SolveMemo`) hands each later call what earlier ones derived from the
network alone.  The returned
solution always speaks in terms of the original network: folded origins
reappear, contracted arcs re-expand.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

from .heuristic import greedy_initial  # noqa: F401 - bench/tracer.py hooks it here
from .ingest import ProblemInstance
from .prune import PrunedNetwork, expand_solution, prune_all
from .reductions import forced_exits
from .reductions import compute_sp_tables, standard_reductions  # noqa: F401 - bench/tracer.py hooks them here
from .solver import Solution, SolveOptions, SolveStatus, solve_exact


@dataclass
class PipelineResult:
    solution: Solution                     # on the original network
    raw_solution: Solution                 # on the pruned network
    pruned: PrunedNetwork
    greedy: None = None                    # always None; bench/tracer.py reads it


def solve_pipeline(instance: ProblemInstance,
                   options: SolveOptions | None = None,
                   pruned: PrunedNetwork | None = None) -> PipelineResult:
    """Solve ``instance`` end to end.  ``pruned``, if given, must be the
    pruning of ``instance.network`` itself (``ValueError`` otherwise), and
    the prune stage is skipped.

    The pruning's memo (`SolveMemo`) goes to `solve_exact`, and lives as
    long as the pruning.  It keeps the pruned network's forced exits, which
    hold at every budget; per segment coupling, the solve's set-up (with
    the full repair bill that ``b_hat`` of the pruned instance takes) and
    the connection bounds, keyed by committed and closed units; and the
    exact assignment searches, keyed by origin-to-facility times."""
    options = options or SolveOptions()
    deadline = time.perf_counter() + options.time_limit_s
    if pruned is None:
        pruned = prune_all(instance.network)
    elif pruned.source is not instance.network:
        raise ValueError("pruned= is the pruning of a different network")
    memo = pruned.memo
    if memo.forced is None:
        memo.forced = forced_exits(pruned.network)
    setup = memo.setup(instance.spec.segment_coupling, memo.forced)
    work = dataclasses.replace(instance, network=pruned.network,
                               b_hat=setup.b_hat)
    left = deadline - time.perf_counter()
    if left > 0:
        options = dataclasses.replace(options, time_limit_s=left)
        raw = solve_exact(work, fixings=memo.forced, options=options,
                          memo=memo)
    else:
        raw = Solution(status=SolveStatus.TIME_LIMIT)
    return PipelineResult(solution=expand_solution(raw, pruned.log),
                          raw_solution=raw, pruned=pruned)
