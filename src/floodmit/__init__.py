"""floodmit: budget-constrained road upgrades for flood evacuation.

Given a road network where some arcs wash out in a flood, a repair budget,
and population centers that must reach capacity-limited facilities, find the
set of repairs that minimizes total population-weighted travel time — exactly.
"""
from .analysis import (budget_sweep, connectivity_critical, ewtt_ranking,
                       excess_travel_time, lower_bound, scenario_grid,
                       segment_rollup, upgrade_frequency)
from .heuristic import GreedySolution, greedy_initial
from .ingest import (InstanceSpec, ProblemInstance, PurchaseUnit, SchemaError,
                     build_instance, instance_from_file, instance_json,
                     purchase_units, upgrade_cost_cents, with_network)
from .net import (Network, NetworkError, NodeKind, RoadArc, RoadNode,
                  shortest_paths)
from .pipeline import PipelineResult, solve_pipeline
from .prune import PrunedNetwork, PruneLog, PruneStats, expand_solution, prune_all
from .reductions import (Cuts, FixedUpgrades, SpTables, component_mask,
                         compute_sp_tables, distance_dominated, forced_exits,
                         standard_reductions)
from .solver import (MipModel, OracleLimits, OracleScaleError, Solution,
                     SolveOptions, SolveStatus, ValidationReport,
                     brute_force_oracle, build_model, export_lp, gap_to_rnfmp,
                     solve_exact, validate_solution)

__version__ = "0.1.0"

__all__ = [
    "Cuts", "FixedUpgrades", "GreedySolution", "InstanceSpec", "MipModel",
    "Network", "NetworkError", "NodeKind", "OracleLimits", "OracleScaleError",
    "PipelineResult", "ProblemInstance", "PruneLog", "PruneStats",
    "PrunedNetwork", "PurchaseUnit", "RoadArc", "RoadNode", "SchemaError",
    "Solution", "SolveOptions", "SolveStatus", "SpTables", "ValidationReport",
    "brute_force_oracle", "budget_sweep", "build_instance", "build_model",
    "component_mask", "compute_sp_tables",
    "connectivity_critical", "distance_dominated", "ewtt_ranking",
    "excess_travel_time", "expand_solution", "export_lp", "forced_exits",
    "gap_to_rnfmp", "greedy_initial", "instance_from_file", "instance_json",
    "lower_bound", "prune_all", "purchase_units", "scenario_grid",
    "segment_rollup", "shortest_paths", "solve_exact", "solve_pipeline",
    "standard_reductions", "upgrade_cost_cents", "upgrade_frequency",
    "validate_solution", "with_network",
]
