"""Seeded synthetic road networks.

Real flood studies run on proprietary city extracts, so the repo ships
generators instead of data: a grid town with a flood-prone river band
(`grid_network_file`), a ~2,000-node variant for stress runs
(`large_network_file`), a tiny demo for the CLI walkthrough, a hand-built
family where a *smaller* budget buys *more* roads (`budget_paradox_*`), and
random micro-instances for randomized testing (`random_instance`).

Everything is deterministic given the seed.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import random
import sys
from pathlib import Path
from typing import Any

from .ingest import (InstanceSpec, ProblemInstance, instance_from_file,
                     total_vulnerable_cost)
from .net import Network, NodeKind, RoadArc, RoadNode


# -- grid towns --------------------------------------------------------------

#: miles between neighbouring grid intersections (a street is 0.8-1.2 times it)
SPACING_MILES = 0.25
#: chance that a grid cell gets a one-way diagonal street
DIAGONAL_FRACTION = 0.05


def grid_network_file(rows: int, cols: int, seed: int, *,
                      n_facilities: int = 3,
                      resident_density: float = 0.12,
                      oneway_fraction: float = 0.08,
                      decorate: bool = False) -> dict[str, Any]:
    """A rows x cols street grid with a vulnerable river band, as a file dict.

    The river band is the two middle rows: most streets along them or into
    them are vulnerable.

    ``decorate`` grafts on dead-end chains, pendant hamlets, duplicate and
    loop arcs, and subdivided edges — the redundancy the pruning pass exists
    to strip.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2x2 nodes")
    if n_facilities < 1 or n_facilities > rows * cols:
        raise ValueError("bad facility count")
    rng = random.Random(seed)

    def nid(r: int, c: int) -> str:
        return f"n{r:02d}x{c:02d}"

    nodes = []
    ids = []
    for r in range(rows):
        for c in range(cols):
            residents = rng.randint(1, 60) if rng.random() < resident_density else 0
            nodes.append({"id": nid(r, c), "residents": residents})
            ids.append(nid(r, c))
    facilities = sorted(rng.sample(ids, n_facilities))
    by_id = {n["id"]: n for n in nodes}
    for fid in facilities:
        by_id[fid]["facility_beds"] = rng.randint(60, 800)
        by_id[fid]["residents"] = 0

    arcs = []
    counter = 0

    def add_arc(u: str, v: str, *, vulnerable: bool, oneway: bool,
                length: float, prefix: str = "e") -> None:
        nonlocal counter
        arcs.append({
            "id": f"{prefix}{counter:05d}", "from": u, "to": v,
            "length_miles": round(length, 4),
            "speed_mph": rng.choice([25, 30, 35, 45]),
            "lanes": rng.choice([1, 1, 2, 2, 3]),
            "oneway": oneway,
            "vulnerable": vulnerable,
            "has_bridge": vulnerable and rng.random() < 0.3,
        })
        counter += 1

    lo, hi = rows // 2 - 1, rows // 2
    for r in range(rows):
        for c in range(cols):
            length = SPACING_MILES * (0.8 + 0.4 * rng.random())
            if c + 1 < cols:
                vuln = lo <= r <= hi and rng.random() < 0.85
                add_arc(nid(r, c), nid(r, c + 1), vulnerable=vuln,
                        oneway=rng.random() < oneway_fraction, length=length)
            if r + 1 < rows:
                vuln = (lo <= r <= hi or lo <= r + 1 <= hi) and rng.random() < 0.85
                add_arc(nid(r, c), nid(r + 1, c), vulnerable=vuln,
                        oneway=rng.random() < oneway_fraction, length=length)
            if r + 1 < rows and c + 1 < cols and rng.random() < DIAGONAL_FRACTION:
                add_arc(nid(r, c), nid(r + 1, c + 1), vulnerable=False,
                        oneway=True, length=length * 1.3)

    if decorate:
        _decorate(rng, nodes, arcs, ids)

    return {"schema_version": 1, "nodes": nodes, "arcs": arcs,
            "facilities": facilities}


def _decorate(rng: random.Random, nodes: list[dict], arcs: list[dict],
              grid_ids: list[str]) -> None:
    """Graft prunable structure onto a grid file dict (in place)."""
    counter = 0

    def fresh(prefix: str) -> str:
        nonlocal counter
        counter += 1
        return f"x{prefix}{counter:04d}"

    def add(u: str, v: str, oneway: bool = False, length: float | None = None,
            vulnerable: bool = False) -> None:
        arcs.append({
            "id": fresh("a"), "from": u, "to": v,
            "length_miles": round(length if length is not None
                                  else SPACING_MILES, 4),
            "speed_mph": rng.choice([25, 30]), "lanes": 1,
            "oneway": oneway, "vulnerable": vulnerable,
        })

    anchors = rng.sample(grid_ids, min(14, len(grid_ids)))
    # dead-end transshipment chains (in-degree/out-degree zero after the tip)
    for anchor in anchors[:4]:
        prev = anchor
        for _ in range(rng.randint(1, 3)):
            node = fresh("t")
            nodes.append({"id": node, "residents": 0})
            add(prev, node, oneway=True)
            prev = node
    # pendant hamlets: one resident cluster hanging off a single street
    for anchor in anchors[4:8]:
        node = fresh("p")
        nodes.append({"id": node, "residents": rng.randint(40, 80)})
        add(anchor, node)  # two-way expands to the (i,j)/(j,i) pendant pair
    # duplicate parallel streets and a few loops
    for anchor in anchors[8:11]:
        others = [a for a in arcs if a["from"] == anchor and not a.get("vulnerable")]
        if others:
            twin = dict(others[0])
            twin["id"] = fresh("a")
            twin["length_miles"] = round(twin["length_miles"] * 1.5, 4)
            twin["oneway"] = True
            arcs.append(twin)
        arcs.append({"id": fresh("a"), "from": anchor, "to": anchor,
                     "length_miles": 0.05, "speed_mph": 25, "lanes": 1,
                     "oneway": True, "vulnerable": False})
    # subdivided boulevards: straight chains a contraction pass can fold back
    for anchor in anchors[11:]:
        prev = anchor
        hops = rng.randint(2, 3)
        for _ in range(hops):
            node = fresh("m")
            nodes.append({"id": node, "residents": 0})
            add(prev, node, length=SPACING_MILES / hops)
            prev = node


def demo_network_file(seed: int = 2024) -> dict[str, Any]:
    """Small grid town used by the README walkthrough and CLI tests."""
    return grid_network_file(6, 6, seed, n_facilities=2, decorate=True,
                             resident_density=0.3)


def large_network_file(seed: int = 7) -> dict[str, Any]:
    """~2,000-node decorated grid for reduction accounting at scale."""
    return grid_network_file(46, 44, seed, n_facilities=6, decorate=True,
                             resident_density=0.08)


# -- budget paradox family ---------------------------------------------------

#: budget pair (dollars) exhibiting the inversion: the smaller budget's
#: optimal plan upgrades three short roads, the larger budget's just one.
BUDGET_PARADOX_PAIR = (60.0, 100.0)


def budget_paradox_network_file() -> dict[str, Any]:
    """One origin, one facility, and two mitigation options:

    * a chain of three short cheap roads (6 minutes, $20 each), or
    * one longer express road (3 minutes, $100),

    plus a slow all-weather detour (100 minutes) so the problem stays feasible
    at any budget.  At B=$60 the optimum buys three roads; at B=$100 it buys
    one better road — more money, fewer upgraded roads.
    """
    nodes = [
        {"id": "o", "residents": 10},
        {"id": "z1", "residents": 0},
        {"id": "m1", "residents": 0},
        {"id": "m2", "residents": 0},
        {"id": "d", "residents": 0, "facility_beds": 40},
    ]
    arcs = [
        {"id": "b1", "from": "o", "to": "z1", "length_miles": 1.0,
         "speed_mph": 1.2, "lanes": 1, "oneway": True, "vulnerable": False},
        {"id": "b2", "from": "z1", "to": "d", "length_miles": 1.0,
         "speed_mph": 1.2, "lanes": 1, "oneway": True, "vulnerable": False},
        {"id": "v1", "from": "o", "to": "m1", "length_miles": 0.1,
         "speed_mph": 3.0, "lanes": 1, "oneway": True, "vulnerable": True},
        {"id": "v2", "from": "m1", "to": "m2", "length_miles": 0.1,
         "speed_mph": 3.0, "lanes": 1, "oneway": True, "vulnerable": True},
        {"id": "v3", "from": "m2", "to": "d", "length_miles": 0.1,
         "speed_mph": 3.0, "lanes": 1, "oneway": True, "vulnerable": True},
        {"id": "vx", "from": "o", "to": "d", "length_miles": 0.5,
         "speed_mph": 10.0, "lanes": 1, "oneway": True, "vulnerable": True},
    ]
    return {"schema_version": 1, "nodes": nodes, "arcs": arcs,
            "facilities": ["d"]}


def budget_paradox_instance(budget_dollars: float) -> ProblemInstance:
    """Instance from the paradox family at an absolute budget (B_hat = $160)."""
    spec = InstanceSpec(p=1.0, alpha=0.0, unit_cost=200.0,
                        budget_fraction=budget_dollars / 160.0)
    return instance_from_file(budget_paradox_network_file(), spec)


# -- random micro-instances --------------------------------------------------


def random_instance(seed: int, *, max_nodes: int = 10, max_vuln: int = 8,
                    max_origins: int = 4, max_destinations: int = 3,
                    decorate: bool = False,
                    coupled: bool = False) -> ProblemInstance:
    """A small random instance, built directly (no file round trip).

    Sizes stay within the stated caps; capacities are sometimes deliberately
    tight and budgets sometimes zero, so infeasible and disconnected cases
    occur naturally.  ``decorate`` appends prunable fringe (pendants, dead
    ends, loops, parallels) while staying within ``max_nodes + 4`` nodes.
    ``coupled`` gives some vulnerable arcs a reverse twin in a shared
    segment and turns on segment-priced purchases.
    """
    rng = random.Random(seed)
    n_o = rng.randint(1, max_origins)
    n_d = rng.randint(1, max_destinations)
    n_t = rng.randint(0, max(0, max_nodes - n_o - n_d))
    uniform_w = rng.random() < 0.2

    nodes: list[RoadNode] = []
    origin_ids = [f"o{i}" for i in range(n_o)]
    dest_ids = [f"d{i}" for i in range(n_d)]
    trans_ids = [f"t{i}" for i in range(n_t)]
    total_h = 0.0
    for oid in origin_ids:
        h = float(rng.randint(1, 30))
        total_h += h
        nodes.append(RoadNode(oid, NodeKind.ORIGIN, residents=h,
                              weight=1.0 if uniform_w else h))
    cap_style = rng.choice(["loose", "loose", "tight", "single-heavy"])
    for j, did in enumerate(dest_ids):
        if cap_style == "loose":
            cap = total_h * (1.0 + rng.random()) / n_d + rng.randint(0, 10)
        elif cap_style == "tight":
            cap = max(1.0, total_h * 0.8 / n_d + rng.randint(-3, 3))
        else:
            cap = total_h if j == 0 else float(rng.randint(1, 8))
        nodes.append(RoadNode(did, NodeKind.DESTINATION, capacity=float(cap)))
    for tid in trans_ids:
        nodes.append(RoadNode(tid, NodeKind.TRANSSHIPMENT))

    all_ids = origin_ids + dest_ids + trans_ids
    arcs: list[RoadArc] = []
    vuln_used = 0
    counter = 0

    def travel() -> float:
        return rng.choice([1.0, 1.5, 2.0, 2.0, 3.0, 4.0, 5.0, 6.0,
                           rng.randint(1, 9) * 0.5, float(rng.randint(1, 9))])

    def add_arc(u: str, v: str, want_vuln: bool) -> None:
        nonlocal vuln_used, counter
        vuln = want_vuln and vuln_used < max_vuln
        if vuln:
            vuln_used += 1
        arcs.append(RoadArc(
            id=f"a{counter:02d}", tail=u, head=v, travel_time=travel(),
            vulnerable=vuln,
            mitigation_cost=rng.randint(1, 12) * 1.0 + rng.choice([0.0, 0.25, 0.5])
            if vuln else 0.0))
        counter += 1

    # connectivity backbone: most origins get some path to some destination
    for oid in origin_ids:
        if rng.random() < 0.88:
            hops = rng.randint(0, min(2, n_t))
            mids = rng.sample(trans_ids, hops) if hops else []
            chain = [oid, *mids, rng.choice(dest_ids)]
            for u, v in zip(chain, chain[1:]):
                add_arc(u, v, rng.random() < 0.45)
    # random extra arcs
    for _ in range(rng.randint(0, 2 * len(all_ids))):
        u, v = rng.sample(all_ids, 2)
        add_arc(u, v, rng.random() < 0.4)

    if decorate:
        extra = 0

        def fresh(prefix: str) -> str:
            nonlocal extra
            extra += 1
            return f"x{prefix}{extra}"

        anchor = rng.choice(all_ids)
        if rng.random() < 0.7:  # pendant origin behind a two-way street
            pid = fresh("o")
            h = float(rng.randint(5, 40))
            nodes.append(RoadNode(pid, NodeKind.ORIGIN, residents=h,
                                  weight=1.0 if uniform_w else h))
            t = travel()
            arcs.append(RoadArc(f"xp{extra}a", pid, anchor, t))
            arcs.append(RoadArc(f"xp{extra}b", anchor, pid, t))
        if rng.random() < 0.7:  # dead-end chain
            prev = anchor
            for _ in range(rng.randint(1, 2)):
                tid2 = fresh("t")
                nodes.append(RoadNode(tid2, NodeKind.TRANSSHIPMENT))
                arcs.append(RoadArc(f"xc{extra}", prev, tid2, travel()))
                prev = tid2
        if rng.random() < 0.5 and arcs:  # parallel + loop
            base = rng.choice([a for a in arcs if not a.vulnerable] or arcs)
            if not base.vulnerable:
                arcs.append(RoadArc(f"xq{counter}", base.tail, base.head,
                                    base.travel_time + rng.random()))
            arcs.append(RoadArc(f"xl{counter}", anchor, anchor, 1.0))

    if coupled:
        twins = 0
        for i, a in enumerate(list(arcs)):
            if not a.vulnerable or twins >= 3 or rng.random() < 0.35:
                continue
            twins += 1
            seg = f"s_{a.id}"
            arcs[i] = dataclasses.replace(a, segment_id=seg)
            if vuln_used < max_vuln and rng.random() < 0.8:
                vuln_used += 1
                arcs.append(RoadArc(
                    f"{a.id}r", a.head, a.tail, a.travel_time, vulnerable=True,
                    mitigation_cost=a.mitigation_cost + rng.choice([0.0, 0.0, 1.0]),
                    segment_id=seg))

    net = Network(nodes, arcs)
    b_hat = total_vulnerable_cost(net, coupled)
    fraction = rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    spec = InstanceSpec(p=1.0, budget_fraction=fraction,
                        weight_policy="uniform" if uniform_w else "w_equals_h",
                        segment_coupling=coupled)
    return ProblemInstance(
        network=net, budget=fraction * b_hat, b_hat=b_hat, spec=spec,
        provenance={"source": f"synth:random:{seed}", "log": []})


def random_gap(seed: int, max_jobs: int = 5, max_agents: int = 3,
               ) -> tuple[list[float], list[float], list[list[float]]]:
    """Random generalized-assignment data: (job sizes, agent capacities, cost matrix)."""
    rng = random.Random(seed)
    n_jobs = rng.randint(1, max_jobs)
    n_agents = rng.randint(1, max_agents)
    sizes = [float(rng.randint(1, 20)) for _ in range(n_jobs)]
    style = rng.choice(["loose", "tight", "very-tight"])
    total = sum(sizes)
    caps = []
    for _ in range(n_agents):
        if style == "loose":
            caps.append(total * (0.7 + rng.random()))
        elif style == "tight":
            caps.append(max(1.0, total * rng.uniform(0.3, 0.6)))
        else:
            caps.append(float(rng.randint(1, max(2, int(total / n_agents)))))
    costs = [[float(rng.randint(1, 50)) for _ in range(n_agents)]
             for _ in range(n_jobs)]
    return sizes, caps, costs


# -- module CLI ---------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """Write a generated network file: python -m floodmit.synth grid out.json"""
    parser = argparse.ArgumentParser(prog="floodmit.synth",
                                     description="write synthetic network files")
    parser.add_argument("kind", choices=["grid", "demo", "large", "paradox"])
    parser.add_argument("out", type=Path)
    parser.add_argument("--rows", type=int, default=8)
    parser.add_argument("--cols", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--facilities", type=int, default=2)
    parser.add_argument("--decorate", action="store_true")
    args = parser.parse_args(argv)
    if args.kind == "grid":
        try:
            data = grid_network_file(args.rows, args.cols, args.seed,
                                     n_facilities=args.facilities,
                                     decorate=args.decorate)
        except ValueError as exc:
            parser.error(str(exc))
    elif args.kind == "demo":
        data = demo_network_file(args.seed)
    elif args.kind == "large":
        data = large_network_file(args.seed)
    else:
        data = budget_paradox_network_file()
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} ({len(data['nodes'])} nodes, {len(data['arcs'])} arc records)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
