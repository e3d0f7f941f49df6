"""What-if analytics on top of the exact solver.

* ``lower_bound`` / ``excess_travel_time`` — the full-budget optimum is the
  best any plan can do; the gap between a budget-limited optimum and that
  floor is the travel time the missing dollars cost.
* ``budget_sweep`` — re-solve across budget fractions, pruning once;
  objectives are nonincreasing in budget and the excess hits zero at full
  budget.
* ``ewtt_ranking`` — criticality of individual roads: weighted extra minutes
  summed over every origin/facility pair when one road is closed (pairs a
  closure disconnects are flagged and excluded from the sum).  Baseline
  times come from ``facility_times`` on the network's index; a closure
  repairs (``close_arcs``) only the tables of the facilities whose origins'
  shortest paths it can touch (``closures_that_matter``), and no closure
  runs a full search.
* ``connectivity_critical`` — roads whose closure strands some origin
  entirely: one multi-source reverse search from all facilities, then one
  repair of that table for each road on some origin's shortest way out.
* ``upgrade_frequency`` — how often each road is bought across a set of
  plans (e.g. a sweep), a robustness signal.
* ``scenario_grid`` — cross products of derivation parameters, each group
  anchored to its own full-budget floor.

Everything here is deterministic; CSV writers emit stable bytes.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .ingest import (InstanceSpec, ProblemInstance, SchemaError, _derive,
                     _parse, purchase_units, units_bought)
from .net import Network
from .net import shortest_paths  # noqa: F401 - bench/tracer.py hooks it here
from .pipeline import PipelineResult, solve_pipeline
from .prune import PrunedNetwork
from .solver import SOLVED, SolveOptions, SolveStatus


def _with_budget(instance: ProblemInstance, fraction: float) -> ProblemInstance:
    spec = dataclasses.replace(instance.spec, budget_fraction=fraction)
    return dataclasses.replace(instance, spec=spec,
                               budget=fraction * instance.b_hat)


def lower_bound(instance: ProblemInstance,
                options: SolveOptions | None = None,
                pruned: PrunedNetwork | None = None,
                ) -> tuple[float | None, PipelineResult]:
    """Optimum with the budget raised to the full repair bill.

    Returns (objective, full pipeline result); the objective is None when
    even the fully repaired network cannot host everyone.  ``pruned`` is
    passed on to `solve_pipeline`.
    """
    result = solve_pipeline(_with_budget(instance, 1.0), options=options,
                            pruned=pruned)
    sol = result.solution
    return (sol.objective if sol.status in SOLVED else None), result


def excess_travel_time(objective: float | None,
                       floor: float | None) -> float | None:
    if objective is None or floor is None:
        return None
    return objective - floor


@dataclass(frozen=True)
class SweepRow:
    fraction: float
    budget: float
    status: SolveStatus
    objective: float | None
    excess: float | None
    spent: float
    upgrades: tuple[str, ...]


def budget_sweep(instance: ProblemInstance, fractions: Sequence[float],
                 options: SolveOptions | None = None) -> list[SweepRow]:
    """Solve the instance at each budget fraction (deduplicated, ascending).

    Every fraction is checked before the first solve: a negative one, and
    one the spec rejects (not finite, or above 1), is a ``SchemaError``
    (a ``ValueError``), which the CLI reports as an ``error:`` line.  The
    network is pruned once, by the full-budget floor's solve and inside its
    time limit; every fraction's solve reuses that pruning and its memo
    (``PrunedNetwork.memo``), so an assignment search, a connection bound
    or a solve's set-up that one fraction (or the floor) derived is not
    derived again by another.  The memo goes with the pruning when the
    sweep returns.  ``spent`` prices each plan as the solver does, from
    one list of the network's purchase units: one price per unit, so a
    coupled segment is paid once.
    """
    units = purchase_units(instance.network, instance.spec.segment_coupling)
    todo = sorted({float(f) for f in fractions})
    if any(f < 0 for f in todo):
        raise SchemaError("budget fractions must be nonnegative")
    budgeted = [_with_budget(instance, f) for f in todo]
    floor, full = lower_bound(instance, options=options)
    rows: list[SweepRow] = []
    for f, at_f in zip(todo, budgeted):
        result = solve_pipeline(at_f, options=options, pruned=full.pruned)
        sol = result.solution
        cost = sum(u.cost_cents for u in units_bought(units, sol.upgrades))
        rows.append(SweepRow(
            fraction=f, budget=f * instance.b_hat, status=sol.status,
            objective=sol.objective,
            excess=excess_travel_time(sol.objective, floor),
            spent=cost / 100, upgrades=sol.upgrades))
    return rows


# -- road criticality ---------------------------------------------------------


@dataclass(frozen=True)
class EwttRow:
    arc: str
    segment: str
    ewtt: float
    pairs: int                 # origin/facility pairs that detoured
    disconnected_pairs: int    # pairs the closure cuts apart (not summed)
    disconnects: bool


def _candidates(net: Network, arcs: Iterable[str] | None,
                default: Iterable[str]) -> list[str]:
    """Distinct arc ids in id order; unknown ids raise ``KeyError``."""
    candidates = sorted(set(arcs if arcs is not None else default))
    for aid in candidates:
        if aid not in net.arcs:
            raise KeyError(f"unknown arc {aid!r}")
    return candidates


def ewtt_ranking(instance: ProblemInstance,
                 arcs: Iterable[str] | None = None) -> list[EwttRow]:
    """Weighted extra minutes, per road closure, over all origin/facility
    pairs (fully repaired network as the baseline).

    Ranks vulnerable roads by default; repeated ids in ``arcs`` count once.
    Baseline times come from the index's ``facility_times``, the only full
    searches.  A closure repairs (``close_arcs``) each facility's table it
    can change (``closures_that_matter``); every other table is the
    baseline.  Only the origins whose times moved are summed, in origin
    order: every other pair adds 0, so the sum keeps its bytes.  The work
    runs on node and arc numbers; ids come back only in the rows.
    """
    net = instance.network
    g = net.index()
    weights = [o.weight for o in net.origins()]
    base = g.facility_times()
    matter = {d: g.closures_that_matter(times, g.origins)
              for d, times in base.items()}
    rows: list[EwttRow] = []
    for aid in _candidates(net, arcs, net.vulnerable_ids):
        a = g.arc_no[aid]
        moved = {d: g.close_arcs(times, (d,), (a,)) if a in matter[d] else {}
                 for d, times in base.items()}
        touched = set().union(*moved.values())
        total = 0.0
        pairs = 0
        cut = 0
        for k, weight in zip(g.origins, weights):
            if k not in touched:
                continue  # every time stands: no detour and no cut
            for d, times in base.items():
                after = moved[d].get(k)
                if after is None:
                    continue
                if after == math.inf:
                    cut += 1
                    continue
                delta = after - times[k]
                if delta > 0:
                    total += weight * delta
                    pairs += 1
        rows.append(EwttRow(arc=aid, segment=net.arcs[aid].segment,
                            ewtt=total, pairs=pairs, disconnected_pairs=cut,
                            disconnects=cut > 0))
    rows.sort(key=lambda r: (-r.ewtt, r.arc))
    return rows


@dataclass(frozen=True)
class SegmentEwtt:
    segment: str
    ewtt: float                # worst member closure
    arcs: tuple[str, ...]
    disconnects: bool


def segment_rollup(rows: Sequence[EwttRow]) -> list[SegmentEwtt]:
    """Fold per-arc closures to segments: a two-way road is as critical as
    its worst direction, so members combine by max, not sum."""
    by_seg: dict[str, list[EwttRow]] = {}
    for r in rows:
        by_seg.setdefault(r.segment, []).append(r)
    out = [SegmentEwtt(segment=seg,
                       ewtt=max(r.ewtt for r in members),
                       arcs=tuple(sorted(r.arc for r in members)),
                       disconnects=any(r.disconnects for r in members))
           for seg, members in by_seg.items()]
    out.sort(key=lambda s: (-s.ewtt, s.segment))
    return out


def connectivity_critical(instance: ProblemInstance,
                          arcs: Iterable[str] | None = None) -> tuple[str, ...]:
    """Roads whose closure leaves some origin with no facility at all.

    One multi-source reverse search from every facility, on the network's
    index.  If it already strands an origin, every road is critical;
    otherwise only the roads on some origin's shortest way out
    (``closures_that_matter``) are closed in that table (``close_arcs``),
    and a road is critical when some origin's repaired label is ``inf``.
    Repeated ids in ``arcs`` count once.
    """
    net = instance.network
    g = net.index()
    candidates = _candidates(net, arcs, net.arcs)
    reach = g.dijkstra(g.dests, reverse=True)[0]
    if any(reach[k] == math.inf for k in g.origins):
        return tuple(candidates)
    matter = g.closures_that_matter(reach, g.origins)
    critical: list[str] = []
    for aid in candidates:
        a = g.arc_no[aid]
        if a not in matter:
            continue
        moved = g.close_arcs(reach, g.dests, (a,))
        if any(moved.get(k) == math.inf for k in g.origins):
            critical.append(aid)
    return tuple(critical)


@dataclass(frozen=True)
class FrequencyRow:
    arc: str
    count: int
    share: float


def upgrade_frequency(plans: Iterable[Any]) -> list[FrequencyRow]:
    """How often each road appears across plans (Solutions or sweep rows)."""
    counts: dict[str, int] = {}
    runs = 0
    for plan in plans:
        upgrades = getattr(plan, "upgrades", None)
        if upgrades is None:
            raise TypeError(f"plan {plan!r} has no upgrades")
        runs += 1
        for aid in upgrades:
            counts[aid] = counts.get(aid, 0) + 1
    rows = [FrequencyRow(arc=a, count=c, share=c / runs if runs else 0.0)
            for a, c in counts.items()]
    rows.sort(key=lambda r: (-r.count, r.arc))
    return rows


# -- scenario grid ------------------------------------------------------------


@dataclass(frozen=True)
class GridRow:
    spec: InstanceSpec
    status: SolveStatus
    objective: float | None
    excess: float | None


def scenario_grid(source: str | Path | Mapping[str, Any],
                  specs: Sequence[InstanceSpec],
                  options: SolveOptions | None = None) -> list[GridRow]:
    """Solve one network file under many derivation settings.

    The file is read and checked once; each spec derives its own instance.
    The excess column compares each run to the full-budget floor of its own
    parameter group (same settings, budget fraction 1), so rows are
    comparable within a group even when groups disagree about who evacuates.
    A floor solved apart reuses its spec's pruning.
    """
    records = _parse(source)
    floors: dict[InstanceSpec, float | None] = {}
    rows: list[GridRow] = []
    for spec in specs:
        instance = _derive(records, spec)
        result = solve_pipeline(instance, options=options)
        sol = result.solution
        group = dataclasses.replace(spec, budget_fraction=1.0)
        if group not in floors:
            floors[group] = ((sol.objective if sol.status in SOLVED else None)
                             if spec.budget_fraction == 1.0
                             else lower_bound(instance, options=options,
                                              pruned=result.pruned)[0])
        rows.append(GridRow(spec, sol.status, sol.objective,
                            excess_travel_time(sol.objective, floors[group])))
    return rows


# -- stable serialization -----------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return format(value, ".10g")
    if isinstance(value, SolveStatus):
        return value.value
    return str(value)


def _write_csv(header: Sequence[str], rows: Iterable[Sequence[Any]],
               path: str | Path | None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text)
    return text


def sweep_csv(rows: Sequence[SweepRow], path: str | Path | None = None) -> str:
    return _write_csv(
        ("fraction", "budget", "status", "objective", "excess", "spent",
         "upgrades"),
        ((r.fraction, r.budget, r.status, r.objective, r.excess, r.spent,
          "|".join(r.upgrades)) for r in rows),
        path)


def ewtt_csv(rows: Sequence[EwttRow], path: str | Path | None = None) -> str:
    return _write_csv(
        ("arc", "segment", "ewtt", "pairs", "disconnected_pairs",
         "disconnects"),
        ((r.arc, r.segment, r.ewtt, r.pairs, r.disconnected_pairs,
          int(r.disconnects)) for r in rows),
        path)


def segment_csv(rows: Sequence[SegmentEwtt],
                path: str | Path | None = None) -> str:
    return _write_csv(
        ("segment", "ewtt", "arcs", "disconnects"),
        ((r.segment, r.ewtt, "|".join(r.arcs), int(r.disconnects))
         for r in rows),
        path)


def frequency_csv(rows: Sequence[FrequencyRow],
                  path: str | Path | None = None) -> str:
    return _write_csv(
        ("arc", "count", "share"),
        ((r.arc, r.count, r.share) for r in rows),
        path)


def grid_csv(rows: Sequence[GridRow], path: str | Path | None = None) -> str:
    return _write_csv(
        ("p", "alpha", "capacity_policy", "weight_policy", "budget_fraction",
         "facilities", "status", "objective", "excess"),
        ((r.spec.p, r.spec.alpha, r.spec.capacity_policy,
          r.spec.weight_policy, r.spec.budget_fraction,
          "|".join(r.spec.facilities or ()), r.status, r.objective, r.excess)
         for r in rows),
        path)
