"""Command-line front end.

    floodmit ingest  network.json [settings]     derive and dump an instance
    floodmit prune   network.json [settings]     size reduction report
    floodmit solve   network.json [settings]     optimal upgrade plan
    floodmit oracle  network.json [settings]     brute-force solve (tiny nets)
    floodmit sweep   network.json --fractions .. objective vs budget table
    floodmit ewtt    network.json [settings]     road criticality ranking
    floodmit frequency network.json --fractions  upgrade robustness across budgets
    floodmit export-lp network.json [settings]   write the 0-1 model as LP

Derivation settings come from flags, or a --config JSON file with the same
keys (flags win).  Artifacts land in --out-dir with fixed names and stable
bytes; anything timing-related goes to stderr only.  Exit codes: 0 solved,
2 no feasible plan, 3 hit the time limit, 1 bad input.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Sequence

from . import analysis
from .ingest import (CAPACITY_POLICIES, WEIGHT_POLICIES, InstanceSpec,
                     ProblemInstance, SchemaError, instance_from_file,
                     instance_json, purchase_units, units_bought)
from .net import NetworkError
from .pipeline import solve_pipeline
from .prune import harvest_triangle_vis, prune_all
from .reductions import Cuts, standard_reductions
from .solver import (ModelError, OracleScaleError, SolveOptions,
                     brute_force_oracle, build_model, export_lp)

_SPEC_KEYS = tuple(f.name for f in dataclasses.fields(InstanceSpec))


def _instance_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("network", help="road network JSON file")
    sub.add_argument("--config", metavar="FILE",
                     help="JSON file with derivation settings")
    sub.add_argument("--p", type=float, help="resident threshold for origins")
    sub.add_argument("--alpha", type=float, help="capacity slack factor")
    sub.add_argument("--capacity-policy", choices=CAPACITY_POLICIES)
    sub.add_argument("--weight-policy", choices=WEIGHT_POLICIES)
    sub.add_argument("--budget-fraction", type=float,
                     help="budget as a share of the full repair bill")
    sub.add_argument("--unit-cost", type=float,
                     help="dollars per mile per lane to repair a road")
    sub.add_argument("--segment-coupling", action="store_true", default=None,
                     help="buy whole two-way segments instead of directions")
    sub.add_argument("--facility", action="append", dest="facilities",
                     metavar="NODE", help="facility node id (repeatable; "
                     "overrides facility flags in the file)")


def _out_dir_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out-dir", type=Path, default=Path("."),
                     help="directory for artifacts (default: .)")


def _pipeline_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--time-limit", type=float, default=300.0,
                     metavar="SECONDS")
    sub.add_argument("--gap-tol", type=float, default=0.0)


def _spec_from_args(args: argparse.Namespace) -> InstanceSpec:
    settings: dict[str, Any] = {}
    if args.config:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read config file {args.config!r}: "
                              f"{exc}") from exc
        try:
            settings = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"cannot read config file {args.config!r}: "
                              f"invalid JSON ({exc})") from exc
        if not isinstance(settings, dict):
            raise SchemaError("config file must hold a JSON object")
    for key in _SPEC_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return InstanceSpec.from_dict(settings)


def _load(args: argparse.Namespace) -> ProblemInstance:
    return instance_from_file(args.network, _spec_from_args(args))


def _options(args: argparse.Namespace) -> SolveOptions:
    return SolveOptions(time_limit_s=args.time_limit, gap_tol=args.gap_tol)


def _fractions(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise SchemaError(f"bad fraction list {text!r}") from exc
    if not values:
        raise SchemaError("empty fraction list")
    return values


def _row_count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected 0 or more rows, not {text!r}")
    return int(text)


def _money(amount: float) -> str:
    return f"${amount:,.2f}"


@contextmanager
def _writing(path: Path, *, file: bool = False) -> Iterator[None]:
    """Make the output directory ``path``, or with ``file`` the parent of
    the output file ``path``, for the writes inside the block; an
    ``OSError`` from either names ``path``."""
    what = "output file" if file else "output directory"
    try:
        (path.parent if file else path).mkdir(parents=True, exist_ok=True)
        yield
    except OSError as exc:
        raise OSError(f"cannot write {what} {str(path)!r}: {exc}") from exc


# -- commands -----------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    instance = _load(args)
    out = args.out_dir / "instance.json"
    with _writing(args.out_dir):
        out.write_text(instance_json(instance))
    net = instance.network
    total_h = sum(o.residents for o in net.origins())
    facts = [
        ("nodes", len(net.nodes)), ("arcs", len(net.arcs)),
        ("vulnerable", len(net.vulnerable_ids)),
        ("origins", len(net.origins())),
        ("facilities", len(net.destinations())),
        ("residents", f"{total_h:g}"),
        ("full repair bill", _money(instance.b_hat)),
        ("budget", _money(instance.budget)),
    ]
    for key, value in facts:
        print(f"{key:<18} {value}")
    print(f"{'written':<18} {out}")
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    instance = _load(args)
    pruned = prune_all(instance.network)
    out = args.out_dir / "prunelog.json"
    with _writing(args.out_dir):
        out.write_text(pruned.log.to_json())
    print(f"{'technique':<34}{'nodes':>8}{'arcs':>8}{'variables':>11}")
    for row in pruned.stats.rows():
        print(f"{row['label']:<34}{row['nodes']:>8}{row['arcs']:>8}"
              f"{row['variables']:>11}")
    totals = pruned.stats
    print(f"rounds: {totals.rounds}   "
          f"nodes {totals.original['nodes']} -> {totals.final['nodes']}   "
          f"arcs {totals.original['arcs']} -> {totals.final['arcs']}   "
          f"variables {totals.original['variables']} -> "
          f"{totals.final['variables']}")
    print(f"written            {out}")
    return 0


def _print_plan(instance: ProblemInstance, sol) -> None:
    print(f"{'status':<12} {sol.status.value}")
    if sol.objective is not None:
        print(f"{'objective':<12} {sol.objective:.6f} weighted minutes")
    if sol.best_bound is not None:
        print(f"{'bound':<12} {sol.best_bound:.6f}")
    net = instance.network
    print(f"{'budget':<12} {_money(instance.budget)}")
    if sol.upgrades:
        units = units_bought(
            purchase_units(net, instance.spec.segment_coupling),
            sol.upgrades)
        spent = sum(u.cost_cents for u in units) / 100
        print(f"{'spent':<12} {_money(spent)}")
        for unit in units:  # one line per purchase, at the price charged
            bought = [a for a in unit.arc_ids if a in sol.upgrades]
            name = unit.id if bought == [unit.id] else \
                f"{unit.id} ({', '.join(bought)})"
            legs = ", ".join(f"{net.arcs[a].tail} -> {net.arcs[a].head}"
                             for a in bought)
            print(f"{'upgrade':<12} {name}  {legs}  "
                  f"{_money(unit.cost_cents / 100)}")
    for k in sorted(sol.assignment):
        print(f"{'route':<12} {k} -> {sol.assignment[k]}  "
              f"via {', '.join(sol.paths[k]) or '-'}")


def cmd_solve(args: argparse.Namespace) -> int:
    instance = _load(args)
    t0 = time.perf_counter()
    result = solve_pipeline(instance, options=_options(args))
    elapsed = time.perf_counter() - t0
    sol = result.solution
    with _writing(args.out_dir):
        (args.out_dir / "solution.json").write_text(sol.to_json())
        (args.out_dir / "prunelog.json").write_text(
            result.pruned.log.to_json())
    _print_plan(instance, sol)
    print(f"{'written':<12} {args.out_dir / 'solution.json'}")
    counts = ", ".join(f"{sol.stats.get(key, 0)} {label}" for key, label in (
        ("nodes_explored", "nodes"), ("connection_cuts", "connection cuts"),
        ("relaxations_inherited", "relaxations inherited"),
        ("tables_repaired", "tables repaired"),
        ("routes_reused", "routes reused"),
        ("assignments_reused", "assignments reused"),
        ("nearest_fallbacks", "nearest-table fallbacks")))
    print(f"solved in {elapsed:.3f}s, {counts}", file=sys.stderr)
    return sol.exit_code()


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load(args)
    sol = brute_force_oracle(instance)
    if args.out is not None:
        with _writing(args.out, file=True):
            args.out.write_text(sol.to_json())
    _print_plan(instance, sol)
    return sol.exit_code()


def cmd_sweep(args: argparse.Namespace) -> int:
    instance = _load(args)
    rows = analysis.budget_sweep(instance, _fractions(args.fractions),
                                 options=_options(args))
    out = args.out_dir / "sweep.csv"
    with _writing(args.out_dir):
        analysis.sweep_csv(rows, out)
    print(f"{'fraction':>9} {'budget':>12} {'status':<20} {'objective':>12} "
          f"{'excess':>10}")
    for r in rows:
        obj = f"{r.objective:.4f}" if r.objective is not None else "-"
        ett = f"{r.excess:.4f}" if r.excess is not None else "-"
        print(f"{r.fraction:>9.4f} {_money(r.budget):>12} "
              f"{r.status.value:<20} {obj:>12} {ett:>10}")
    print(f"written: {out}")
    return 0


def cmd_ewtt(args: argparse.Namespace) -> int:
    instance = _load(args)
    rows = analysis.ewtt_ranking(instance)
    out = args.out_dir / "ewtt.csv"
    written = [str(out)]
    with _writing(args.out_dir):
        analysis.ewtt_csv(rows, out)
        if args.segments:
            seg_out = args.out_dir / "segments.csv"
            analysis.segment_csv(analysis.segment_rollup(rows), seg_out)
            written.append(str(seg_out))
    critical = analysis.connectivity_critical(
        instance, [r.arc for r in rows])
    print(f"{'arc':<12} {'segment':<12} {'ewtt':>12} {'cut pairs':>10}")
    for r in rows[:args.top]:
        print(f"{r.arc:<12} {r.segment:<12} {r.ewtt:>12.4f} "
              f"{r.disconnected_pairs:>10}")
    if critical:
        print(f"connectivity-critical: {', '.join(critical)}")
    print(f"written: {', '.join(written)}")
    return 0


def cmd_frequency(args: argparse.Namespace) -> int:
    instance = _load(args)
    rows = analysis.budget_sweep(instance, _fractions(args.fractions),
                                 options=_options(args))
    plans = [r for r in rows if r.objective is not None]
    freq = analysis.upgrade_frequency(plans)
    out = args.out_dir / "frequency.csv"
    with _writing(args.out_dir):
        analysis.frequency_csv(freq, out)
    for r in freq:
        print(f"{r.arc:<12} bought in {r.count}/{len(plans)} plans")
    print(f"written: {out}")
    return 0


def cmd_export_lp(args: argparse.Namespace) -> int:
    instance = _load(args)
    mask = fixings = cuts = None
    if args.use_reduce:
        fixings, mask = standard_reductions(instance)
    if args.use_vis:
        cuts = Cuts(triangle=tuple(harvest_triangle_vis(instance.network)),
                    exit_origins=fixings.exit_vi_origins if fixings else ())
    model = build_model(instance, mask=mask, fixings=fixings, cuts=cuts)
    out = args.out_dir / "model.lp"
    with _writing(args.out_dir):
        export_lp(model, out)
    counts = model.counts()
    print(f"route variables    {counts['x']}")
    print(f"buy variables      {counts['y']}")
    print(f"constraints        {counts['constraints']}")
    print(f"written            {out}")
    return 0


# -- wiring -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodmit",
        description="Pick which flood-vulnerable roads to repair so that "
                    "evacuation to facilities is as fast as the budget allows.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("ingest", help="derive an instance from a network file")
    _instance_args(sub)
    _out_dir_arg(sub)
    sub.set_defaults(func=cmd_ingest)

    sub = subs.add_parser("prune", help="report exact size reductions")
    _instance_args(sub)
    _out_dir_arg(sub)
    sub.set_defaults(func=cmd_prune)

    sub = subs.add_parser("solve", help="find the optimal upgrade plan")
    _instance_args(sub)
    _out_dir_arg(sub)
    _pipeline_args(sub)
    sub.set_defaults(func=cmd_solve)

    sub = subs.add_parser("oracle", help="brute-force solve a tiny instance")
    _instance_args(sub)
    sub.add_argument("--out", type=Path, help="write the solution JSON here")
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("sweep", help="objective across budget fractions")
    _instance_args(sub)
    _out_dir_arg(sub)
    _pipeline_args(sub)
    sub.add_argument("--fractions", default="0,0.25,0.5,0.75,1",
                     help="comma-separated budget fractions")
    sub.set_defaults(func=cmd_sweep)

    sub = subs.add_parser("ewtt", help="rank roads by closure impact")
    _instance_args(sub)
    _out_dir_arg(sub)
    sub.add_argument("--segments", action="store_true",
                     help="also roll closures up to two-way segments")
    sub.add_argument("--top", type=_row_count, default=10,
                     help="rows to print (default 10)")
    sub.set_defaults(func=cmd_ewtt)

    sub = subs.add_parser("frequency",
                          help="how often each road is bought across budgets")
    _instance_args(sub)
    _out_dir_arg(sub)
    _pipeline_args(sub)
    sub.add_argument("--fractions", default="0,0.25,0.5,0.75,1")
    sub.set_defaults(func=cmd_frequency)

    sub = subs.add_parser("export-lp", help="write the 0-1 model in LP format")
    _instance_args(sub)
    _out_dir_arg(sub)
    sub.add_argument("--no-reduce", dest="use_reduce", action="store_false")
    sub.add_argument("--no-vis", dest="use_vis", action="store_false")
    sub.set_defaults(func=cmd_export_lp)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, NetworkError, ModelError, OracleScaleError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
