"""Network file loading and problem-instance derivation.

A network file is JSON (schema_version 1):

    {"schema_version": 1,
     "nodes": [{"id": "n1", "residents": 24, "facility_beds": 796,
                "lon": -91.58, "lat": 41.70}, ...],
     "arcs":  [{"id": "a1", "from": "n1", "to": "n2", "length_miles": 0.4,
                "speed_mph": 30, "lanes": 2, "oneway": false,
                "vulnerable": true, "has_bridge": false,
                "name": "5th St", "osmid": "123", "segment_id": "s1"}, ...],
     "facilities": ["n7", ...]}

Loading keeps every node a transshipment node; the derivation steps then
select origins (resident threshold), designate facilities as destinations,
derive mitigation costs and capacities, and fix the budget as a fraction of
the cost of upgrading everything.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from .net import Network, NetworkError, NodeKind, RoadArc, RoadNode

SCHEMA_VERSION = 1

#: dollars per mile per lane to armor a flood-vulnerable road
DEFAULT_UNIT_COST = 32000.0

CAPACITY_POLICIES = ("identical", "bed_proportional")
WEIGHT_POLICIES = ("w_equals_h", "uniform")

#: slack when packing residents into facility capacity
CAPACITY_TOL = 1e-9


def cents(amount: float) -> int:
    """Money as integer cents; every budget comparison happens in cents."""
    return round(amount * 100)


def capacity_fits(load: float, capacity: float) -> bool:
    return load <= capacity + CAPACITY_TOL


class SchemaError(ValueError):
    """Malformed network file or instance parameters."""


@dataclass(frozen=True)
class InstanceSpec:
    """Derivation parameters turning a network file into a solvable instance."""

    p: float = 1.0                       # resident threshold for origin selection
    alpha: float = 0.0                   # capacity surplus factor
    capacity_policy: str = "identical"
    budget_fraction: float = 1.0
    weight_policy: str = "w_equals_h"
    unit_cost: float = DEFAULT_UNIT_COST
    segment_coupling: bool = False
    facilities: tuple[str, ...] | None = None  # None = every file facility

    def __post_init__(self) -> None:
        if self.p < 0:
            raise SchemaError("p must be nonnegative")
        if self.alpha < 0:
            raise SchemaError("alpha must be nonnegative")
        if self.capacity_policy not in CAPACITY_POLICIES:
            raise SchemaError(f"unknown capacity policy {self.capacity_policy!r}")
        if not 0.0 <= self.budget_fraction <= 1.0:
            raise SchemaError("budget_fraction must lie in [0, 1]")
        if self.weight_policy not in WEIGHT_POLICIES:
            raise SchemaError(f"unknown weight policy {self.weight_policy!r}")
        if self.unit_cost < 0:
            raise SchemaError("unit_cost must be nonnegative")

    def to_dict(self) -> dict[str, Any]:
        d = dataclasses.asdict(self)
        d["facilities"] = list(self.facilities) if self.facilities is not None else None
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "InstanceSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(d) - known
        if extra:
            raise SchemaError(f"unknown spec keys: {sorted(extra)}")
        kwargs = dict(d)
        if kwargs.get("facilities") is not None:
            kwargs["facilities"] = tuple(kwargs["facilities"])
        return cls(**kwargs)


@dataclass(frozen=True)
class ProblemInstance:
    """A ready-to-solve upgrade-planning instance."""

    network: Network
    budget: float
    b_hat: float                         # full repair bill
    spec: InstanceSpec
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def summary(self) -> str:
        net = self.network
        return (f"{len(net.nodes)} nodes, {len(net.arcs)} arcs, "
                f"{len(net.vulnerable_arcs())} vulnerable, "
                f"{len(net.origins())} origins, {len(net.destinations())} destinations, "
                f"B_hat={self.b_hat:g}, budget={self.budget:g}")


def with_network(instance: ProblemInstance, network: Network,
                 budget: float | None = None) -> ProblemInstance:
    """Same instance over a different (e.g. pruned) network.

    ``b_hat`` is recomputed from the new network's vulnerable arcs; the
    absolute budget carries over unless overridden.
    """
    return dataclasses.replace(
        instance,
        network=network,
        budget=instance.budget if budget is None else budget,
        b_hat=total_vulnerable_cost(network, instance.spec.segment_coupling),
    )


def total_vulnerable_cost(net: Network, segment_coupling: bool) -> float:
    """The full repair bill: every vulnerable arc bought, priced as the
    solver charges it (a coupled segment once), so a budget fraction of 1
    buys exactly everything."""
    return upgrade_cost_cents(net, net.vulnerable_ids, segment_coupling) / 100


@dataclass(frozen=True)
class PurchaseUnit:
    """One buy decision: a vulnerable arc, or a whole segment when coupled."""

    id: str
    arc_ids: tuple[str, ...]
    cost_cents: int


def purchase_units(net: Network, segment_coupling: bool) -> list[PurchaseUnit]:
    """The purchasable units of a network, in id order.

    Per-arc pricing by default; with ``segment_coupling`` every vulnerable
    arc of a segment is bought together at the worst member's price.
    """
    vuln = net.vulnerable_arcs()  # id-sorted
    if not segment_coupling:
        return [PurchaseUnit(a.id, (a.id,), cents(a.mitigation_cost))
                for a in vuln]
    groups: dict[str, list[RoadArc]] = {}
    for a in vuln:
        groups.setdefault(a.segment, []).append(a)
    return [PurchaseUnit(seg, tuple(a.id for a in groups[seg]),
                         max(cents(a.mitigation_cost) for a in groups[seg]))
            for seg in sorted(groups)]


def upgrade_cost_cents(net: Network, arc_ids: Iterable[str],
                       segment_coupling: bool) -> int:
    """Price of an upgrade set under the instance's purchase rule."""
    wanted = set(arc_ids)
    touched = [u for u in purchase_units(net, segment_coupling)
               if wanted & set(u.arc_ids)]
    return sum(u.cost_cents for u in touched)


# -- file loading -----------------------------------------------------------


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _num(rec: Mapping[str, Any], key: str, what: str, default: float | None = None,
         minimum: float | None = None, strict: bool = False) -> float:
    raw = rec.get(key, default)
    _require(raw is not None, f"{what}: missing {key!r}")
    _require(isinstance(raw, (int, float)) and not isinstance(raw, bool)
             and math.isfinite(float(raw)), f"{what}: bad {key!r} value {raw!r}")
    val = float(raw)
    if minimum is not None:
        if strict:
            _require(val > minimum, f"{what}: {key!r} must be > {minimum}")
        else:
            _require(val >= minimum, f"{what}: {key!r} must be >= {minimum}")
    return val


def load_network(source: str | Path | Mapping[str, Any]) -> Network:
    """Load a schema-version-1 network file (path or already-parsed dict).

    Every node comes back as a transshipment node; resident counts, facility
    flags and bed counts are kept in node ``meta`` for the derivation steps.
    Two-way arcs expand into a forward arc (the file id) and a reverse arc
    (file id + ``"__r"``) sharing one segment id.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise SchemaError(f"network file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise SchemaError(f"network file {path}: invalid JSON ({exc})") from None
    else:
        data = source
    _require(isinstance(data, Mapping), "network file: top level must be an object")
    version = data.get("schema_version")
    _require(version == SCHEMA_VERSION,
             f"network file: unsupported schema_version {version!r}")
    raw_nodes = data.get("nodes")
    raw_arcs = data.get("arcs")
    _require(isinstance(raw_nodes, list) and raw_nodes, "network file: no nodes")
    _require(isinstance(raw_arcs, list), "network file: missing arcs list")
    facilities = data.get("facilities", [])
    _require(isinstance(facilities, list), "network file: facilities must be a list")

    nodes: list[RoadNode] = []
    node_ids: set[str] = set()
    for rec in raw_nodes:
        nid = rec.get("id")
        _require(isinstance(nid, str) and nid, f"node record {rec!r}: bad id")
        _require(nid not in node_ids, f"node {nid!r}: duplicate id")
        node_ids.add(nid)
        residents = _num(rec, "residents", f"node {nid!r}", default=0.0, minimum=0.0)
        meta: dict[str, Any] = {"residents": residents}
        if "facility_beds" in rec:
            meta["facility_beds"] = _num(rec, "facility_beds", f"node {nid!r}", minimum=0.0)
        for key in ("lon", "lat", "name"):
            if key in rec:
                meta[key] = rec[key]
        nodes.append(RoadNode(id=nid, kind=NodeKind.TRANSSHIPMENT, meta=meta))

    for fid in facilities:
        _require(fid in node_ids, f"facility {fid!r}: unknown node")

    facility_ids = set(facilities)
    node_map = {n.id: dataclasses.replace(n, meta={**n.meta, "facility": n.id in facility_ids})
                for n in nodes}

    arcs: list[RoadArc] = []
    arc_ids: set[str] = set()
    for rec in raw_arcs:
        aid = rec.get("id")
        _require(isinstance(aid, str) and aid, f"arc record {rec!r}: bad id")
        _require(aid not in arc_ids, f"arc {aid!r}: duplicate id")
        arc_ids.add(aid)
        tail, head = rec.get("from"), rec.get("to")
        _require(tail in node_ids, f"arc {aid!r}: unknown tail {tail!r}")
        _require(head in node_ids, f"arc {aid!r}: unknown head {head!r}")
        length = _num(rec, "length_miles", f"arc {aid!r}", minimum=0.0, strict=True)
        speed = _num(rec, "speed_mph", f"arc {aid!r}", minimum=0.0, strict=True)
        lanes = _num(rec, "lanes", f"arc {aid!r}", default=1.0, minimum=1.0)
        oneway = bool(rec.get("oneway", False))
        vulnerable = bool(rec.get("vulnerable", False))
        segment = rec.get("segment_id") or aid
        travel = 60.0 * length / speed
        meta = {"length_miles": length, "speed_mph": speed, "lanes": lanes,
                "oneway": oneway, "has_bridge": bool(rec.get("has_bridge", False))}
        for key in ("name", "osmid"):
            if key in rec:
                meta[key] = rec[key]
        arcs.append(RoadArc(id=aid, tail=tail, head=head, travel_time=travel,
                            vulnerable=vulnerable, segment_id=segment, meta=meta))
        if not oneway:
            rid = aid + "__r"
            _require(rid not in arc_ids, f"arc {rid!r}: duplicate id")
            arc_ids.add(rid)
            arcs.append(RoadArc(id=rid, tail=head, head=tail, travel_time=travel,
                                vulnerable=vulnerable, segment_id=segment, meta=meta))

    try:
        return Network(node_map.values(), arcs)
    except NetworkError as exc:
        raise SchemaError(str(exc)) from None


# -- derivation steps -------------------------------------------------------


def derive_costs(net: Network, unit_cost: float = DEFAULT_UNIT_COST) -> Network:
    """Price each vulnerable arc at ``unit_cost * length_miles * lanes``.

    Costs are stored per arc; segment coupling is applied when plans are
    priced (see ``purchase_units``).
    """
    if unit_cost < 0:
        raise SchemaError("unit_cost must be nonnegative")
    new_arcs = []
    for arc in net.arcs.values():
        if not arc.vulnerable:
            new_arcs.append(arc)
            continue
        length = arc.meta.get("length_miles")
        lanes = arc.meta.get("lanes", 1.0)
        if length is None:
            raise SchemaError(f"arc {arc.id!r}: vulnerable arc without length_miles")
        cost = unit_cost * float(length) * float(lanes)
        new_arcs.append(dataclasses.replace(arc, mitigation_cost=cost))
    return Network(net.nodes.values(), new_arcs)


def select_origins(net: Network, p: float, weight_policy: str = "w_equals_h",
                   facilities: Iterable[str] | None = None) -> Network:
    """Classify nodes: facilities become destinations, resident-bearing nodes
    with at least ``p`` residents become origins, the rest stay transshipment.

    ``facilities`` restricts which file facilities count (others fall back to
    ordinary nodes); None keeps them all.
    """
    if p < 0:
        raise SchemaError("p must be nonnegative")
    if weight_policy not in WEIGHT_POLICIES:
        raise SchemaError(f"unknown weight policy {weight_policy!r}")
    chosen: set[str] | None = None
    if facilities is not None:
        chosen = set(facilities)
        unknown = chosen - set(net.nodes)
        if unknown:
            raise SchemaError(f"facility subset names unknown nodes: {sorted(unknown)}")
    new_nodes = []
    for node in net.nodes.values():
        residents = float(node.meta.get("residents", node.residents) or 0.0)
        is_facility = bool(node.meta.get("facility", False))
        if chosen is not None:
            is_facility = node.id in chosen
        if is_facility:
            new_nodes.append(dataclasses.replace(
                node, kind=NodeKind.DESTINATION, residents=0.0, weight=0.0,
                capacity=math.inf))
        elif residents > 0 and residents >= p:
            weight = residents if weight_policy == "w_equals_h" else 1.0
            new_nodes.append(dataclasses.replace(
                node, kind=NodeKind.ORIGIN, residents=residents, weight=weight,
                capacity=math.inf))
        else:
            new_nodes.append(dataclasses.replace(
                node, kind=NodeKind.TRANSSHIPMENT, residents=0.0, weight=0.0,
                capacity=math.inf))
    return Network(new_nodes, net.arcs.values())


def assign_capacities(net: Network, alpha: float,
                      policy: str = "identical") -> Network:
    """Set destination capacities to share (1+alpha) * total residents."""
    if alpha < 0:
        raise SchemaError("alpha must be nonnegative")
    if policy not in CAPACITY_POLICIES:
        raise SchemaError(f"unknown capacity policy {policy!r}")
    destinations = net.destinations()
    if not destinations:
        raise SchemaError("no destinations to assign capacities to")
    total = (1.0 + alpha) * sum(n.residents for n in net.origins())
    caps: dict[str, float] = {}
    if policy == "identical":
        share = total / len(destinations)
        caps = {d.id: share for d in destinations}
    else:
        beds = {}
        for d in destinations:
            b = d.meta.get("facility_beds")
            if b is None:
                raise SchemaError(f"destination {d.id!r}: bed_proportional needs facility_beds")
            beds[d.id] = float(b)
        bed_sum = sum(beds.values())
        if bed_sum <= 0:
            raise SchemaError("bed_proportional: total beds is zero")
        caps = {did: total * b / bed_sum for did, b in beds.items()}
    new_nodes = [dataclasses.replace(n, capacity=caps[n.id]) if n.id in caps else n
                 for n in net.nodes.values()]
    return Network(new_nodes, net.arcs.values())


def build_instance(net: Network, spec: InstanceSpec,
                   source: str = "<memory>",
                   log: Iterable[str] = ()) -> ProblemInstance:
    """Finish derivation: fix the budget and wrap everything up."""
    if not net.origins():
        raise SchemaError("degenerate instance: no origins")
    if not net.destinations():
        raise SchemaError("degenerate instance: no destinations")
    b_hat = total_vulnerable_cost(net, spec.segment_coupling)
    budget = spec.budget_fraction * b_hat
    cap_total = sum(d.capacity for d in net.destinations())
    demand = (1.0 + spec.alpha) * sum(o.residents for o in net.origins())
    if math.isfinite(cap_total) and cap_total < demand - 1e-6:
        raise SchemaError("capacities sum below (1+alpha) * residents")
    provenance = {
        "source": str(source),
        "schema_version": SCHEMA_VERSION,
        "spec": spec.to_dict(),
        "log": list(log),
    }
    return ProblemInstance(network=net, budget=budget, b_hat=b_hat,
                           spec=spec, provenance=provenance)


def instance_from_file(source: str | Path | Mapping[str, Any],
                       spec: InstanceSpec) -> ProblemInstance:
    """Full derivation chain: load, price, classify, capacitate, budget."""
    log: list[str] = []
    net = load_network(source)
    log.append(f"loaded {len(net.nodes)} nodes / {len(net.arcs)} directed arcs")
    net = derive_costs(net, spec.unit_cost)
    log.append(f"priced {len(net.vulnerable_arcs())} vulnerable arcs "
               f"at {spec.unit_cost:g}/mile/lane")
    net = select_origins(net, spec.p, spec.weight_policy, spec.facilities)
    log.append(f"selected {len(net.origins())} origins (p={spec.p:g}), "
               f"{len(net.destinations())} destinations")
    net = assign_capacities(net, spec.alpha, spec.capacity_policy)
    log.append(f"assigned capacities ({spec.capacity_policy}, alpha={spec.alpha:g})")
    name = source if isinstance(source, (str, Path)) else "<dict>"
    return build_instance(net, spec, source=str(name), log=log)


# -- serialization ----------------------------------------------------------


def instance_to_dict(instance: ProblemInstance,
                     include_provenance: bool = True) -> dict[str, Any]:
    net = instance.network
    nodes = []
    for n in net.nodes.values():  # already id-sorted
        nodes.append({
            "id": n.id, "kind": n.kind.value, "residents": n.residents,
            "weight": n.weight,
            "capacity": None if math.isinf(n.capacity) else n.capacity,
        })
    arcs = []
    for a in net.arcs.values():
        arcs.append({
            "id": a.id, "from": a.tail, "to": a.head,
            "travel_time": a.travel_time, "vulnerable": a.vulnerable,
            "mitigation_cost": a.mitigation_cost, "segment_id": a.segment,
        })
    out: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "nodes": nodes,
        "arcs": arcs,
        "budget": instance.budget,
        "b_hat": instance.b_hat,
        "spec": instance.spec.to_dict(),
    }
    if include_provenance:
        out["provenance"] = dict(instance.provenance)
    return out


def instance_json(instance: ProblemInstance, include_provenance: bool = True) -> str:
    return json.dumps(instance_to_dict(instance, include_provenance),
                      sort_keys=True, indent=2) + "\n"
