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

Ids, ``from``/``to``, ``segment_id`` and facility entries are strings; the
flags are JSON booleans.  ``instance_from_file`` is the one derivation
path: it reads and checks the file once, applies the derivation rules
(mitigation costs, origins by resident threshold, facilities as
destinations, capacities) to the checked records, builds each node, arc
and the Network once, and fixes the budget as a fraction of the cost of
upgrading everything.  ``build_instance`` does that last step for a
hand-built Network.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from .net import Network, NodeKind, RoadArc, RoadNode

SCHEMA_VERSION = 1

#: dollars per mile per lane to armor a flood-vulnerable road
DEFAULT_UNIT_COST = 32000.0

CAPACITY_POLICIES = ("identical", "bed_proportional")
WEIGHT_POLICIES = ("w_equals_h", "uniform")

#: slack when packing residents into facility capacity
CAPACITY_TOL = 1e-9

_REAL = (int, float)         # a record's common numbers, bool not among them
_MAX = sys.float_info.max


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
        # settings may come from a JSON file: check their types first
        for key in ("p", "alpha", "budget_fraction", "unit_cost"):
            value = getattr(self, key)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not abs(value) <= sys.float_info.max):
                raise SchemaError(f"{key} must be a finite number, "
                                  f"not {value!r}")
        if not isinstance(self.segment_coupling, bool):
            raise SchemaError("segment_coupling must be true or false, "
                              f"not {self.segment_coupling!r}")
        if self.facilities is not None:
            if (not isinstance(self.facilities, (list, tuple))
                    or not all(isinstance(f, str) for f in self.facilities)):
                raise SchemaError("facilities must be a list of node ids, "
                                  f"not {self.facilities!r}")
            object.__setattr__(self, "facilities", tuple(self.facilities))
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
        extra = set(d) - {f.name for f in dataclasses.fields(cls)}
        if extra:
            raise SchemaError(f"unknown spec keys: {sorted(extra)}")
        spec = cls(**d)
        # a JSON 1 is the flag's 1.0: the same settings, the same bytes
        return dataclasses.replace(spec, **{
            key: float(getattr(spec, key))
            for key in ("p", "alpha", "budget_fraction", "unit_cost")})


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
                f"{len(net.vulnerable_ids)} vulnerable, "
                f"{len(net.origins())} origins, {len(net.destinations())} destinations, "
                f"B_hat={self.b_hat:g}, budget={self.budget:g}")


def with_network(instance: ProblemInstance,
                 network: Network) -> ProblemInstance:
    """Same instance over a different (e.g. pruned) network.

    ``b_hat`` is recomputed from the new network's vulnerable arcs; the
    absolute budget carries over.
    """
    return dataclasses.replace(
        instance, network=network,
        b_hat=total_vulnerable_cost(network, instance.spec.segment_coupling))


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
    vuln = [a for a in net.arcs.values() if a.vulnerable]  # id-sorted
    if not segment_coupling:
        return [PurchaseUnit(a.id, (a.id,), cents(a.mitigation_cost))
                for a in vuln]
    groups: dict[str, list[RoadArc]] = {}
    for a in vuln:
        groups.setdefault(a.segment, []).append(a)
    return [PurchaseUnit(seg, tuple(a.id for a in groups[seg]),
                         max(cents(a.mitigation_cost) for a in groups[seg]))
            for seg in sorted(groups)]


def units_bought(units: Iterable[PurchaseUnit], arc_ids: Iterable[str],
                 ) -> list[PurchaseUnit]:
    """The purchase units an upgrade set pays for, in the order of
    ``units`` (a network's `purchase_units`): every unit that holds one of
    ``arc_ids``."""
    wanted = set(arc_ids)
    return [u for u in units if not wanted.isdisjoint(u.arc_ids)]


def upgrade_cost_cents(net: Network, arc_ids: Iterable[str],
                       segment_coupling: bool) -> int:
    """Price of an upgrade set under the instance's purchase rule."""
    return sum(u.cost_cents for u in units_bought(
        purchase_units(net, segment_coupling), arc_ids))


# -- file loading -----------------------------------------------------------


class _Records(NamedTuple):
    """A checked network file.  ``arcs`` holds (id, tail, head, travel_time,
    vulnerable, segment_id, meta) in file order, two-way roads expanded."""

    source: str                          # provenance: the file's name, or "<dict>"
    nodes: dict[str, dict[str, Any]]     # id -> meta, in file order
    arcs: list[tuple[str, str, str, float, bool, str, dict[str, Any]]]


def _require(cond: bool, msg: str) -> None:
    """For checks made once per file.  Record checks are written out, so that
    each formats its message only when it fails and costs no call: a plain
    number or flag is taken inline, and anything else goes to `_num` or
    `_flag`, the one full check, which converts it or raises."""
    if not cond:
        raise SchemaError(msg)


def _num(rec: Mapping[str, Any], key: str, kind: str, ident: str,
         default: float | None = None, minimum: float | None = None,
         strict: bool = False) -> float:
    raw = rec.get(key, default)
    if raw is None:
        raise SchemaError(f"{kind} {ident!r}: missing {key!r}")
    # an int compares exactly, so one beyond the float range fails here too
    if (isinstance(raw, bool) or not isinstance(raw, (int, float))
            or not abs(raw) <= sys.float_info.max):
        raise SchemaError(f"{kind} {ident!r}: bad {key!r} value {raw!r}")
    val = float(raw)
    if minimum is not None and (val <= minimum if strict else val < minimum):
        raise SchemaError(f"{kind} {ident!r}: {key!r} must be "
                          f"{'>' if strict else '>='} {minimum}")
    return val


def _flag(rec: Mapping[str, Any], key: str, aid: str) -> bool:
    raw = rec.get(key, False)
    if raw is not True and raw is not False:
        raise SchemaError(f"arc {aid!r}: {key!r} must be true or false, not {raw!r}")
    return raw


def _parse(source: str | Path | Mapping[str, Any]) -> _Records:
    """Read and check a schema-version-1 network file (path or already-parsed
    dict) once.

    Node records keep resident counts, facility flags and bed counts in
    their meta.  Two-way arcs expand into a forward arc (the file id) and a
    reverse arc (file id + ``"__r"``) sharing one segment id.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists():
            raise SchemaError(f"network file not found: {path}")
        if not path.is_file():
            raise SchemaError(f"network file is not a regular file: {path}")
        try:
            data = json.loads(path.read_bytes())
        except ValueError as exc:  # not JSON, or not Unicode text
            raise SchemaError(f"network file {path}: invalid JSON ({exc})") from None
        name = path.name  # not the directory: same file, same bytes
    else:
        data, name = source, "<dict>"
    _require(isinstance(data, Mapping), "network file: top level must be an object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"network file: unsupported schema_version {version!r}")
    raw_nodes = data.get("nodes")
    raw_arcs = data.get("arcs")
    _require(isinstance(raw_nodes, list) and raw_nodes, "network file: no nodes")
    _require(isinstance(raw_arcs, list), "network file: missing arcs list")
    facilities = data.get("facilities", [])
    _require(isinstance(facilities, list), "network file: facilities must be a list")

    nodes: dict[str, dict[str, Any]] = {}
    for rec in raw_nodes:
        if type(rec) is not dict and not isinstance(rec, Mapping):
            raise SchemaError(f"node record {rec!r}: not an object")
        nid = rec.get("id")
        if not isinstance(nid, str) or not nid:
            raise SchemaError(f"node record {rec!r}: bad id")
        if nid in nodes:
            raise SchemaError(f"node {nid!r}: duplicate id")
        raw = rec.get("residents", 0.0)
        meta: dict[str, Any] = {"residents": (
            float(raw) if type(raw) in _REAL and 0 <= raw <= _MAX else
            _num(rec, "residents", "node", nid, default=0.0, minimum=0.0))}
        if "facility_beds" in rec:
            meta["facility_beds"] = _num(rec, "facility_beds", "node", nid, minimum=0.0)
        for key in ("lon", "lat", "name"):
            if key in rec:
                meta[key] = rec[key]
        nodes[nid] = meta

    for fid in facilities:
        if not isinstance(fid, str) or fid not in nodes:
            raise SchemaError(f"facility {fid!r}: unknown node")
    facility_ids = set(facilities)
    for nid, meta in nodes.items():
        meta["facility"] = nid in facility_ids

    arcs = []
    arc_ids: set[str] = set()
    for rec in raw_arcs:
        if type(rec) is not dict and not isinstance(rec, Mapping):
            raise SchemaError(f"arc record {rec!r}: not an object")
        aid = rec.get("id")
        if not isinstance(aid, str) or not aid:
            raise SchemaError(f"arc record {rec!r}: bad id")
        if aid in arc_ids:
            raise SchemaError(f"arc {aid!r}: duplicate id")
        arc_ids.add(aid)
        tail, head = rec.get("from"), rec.get("to")
        if not isinstance(tail, str) or tail not in nodes:
            raise SchemaError(f"arc {aid!r}: unknown tail {tail!r}")
        if not isinstance(head, str) or head not in nodes:
            raise SchemaError(f"arc {aid!r}: unknown head {head!r}")
        raw = rec.get("length_miles")
        length = (float(raw) if type(raw) in _REAL and 0 < raw <= _MAX else
                  _num(rec, "length_miles", "arc", aid, minimum=0.0, strict=True))
        raw = rec.get("speed_mph")
        speed = (float(raw) if type(raw) in _REAL and 0 < raw <= _MAX else
                 _num(rec, "speed_mph", "arc", aid, minimum=0.0, strict=True))
        raw = rec.get("lanes", 1.0)
        lanes = (float(raw) if type(raw) in _REAL and 1 <= raw <= _MAX else
                 _num(rec, "lanes", "arc", aid, default=1.0, minimum=1.0))
        oneway = rec.get("oneway", False)
        vulnerable = rec.get("vulnerable", False)
        bridge = rec.get("has_bridge", False)
        if (oneway is not True and oneway is not False
                or vulnerable is not True and vulnerable is not False
                or bridge is not True and bridge is not False):
            for key in ("oneway", "vulnerable", "has_bridge"):
                _flag(rec, key, aid)  # raises on the first that is no flag
        meta = {"length_miles": length, "speed_mph": speed, "lanes": lanes,
                "oneway": oneway, "has_bridge": bridge}
        segment = rec.get("segment_id")
        if segment is not None and not isinstance(segment, str):
            raise SchemaError(f"arc {aid!r}: bad 'segment_id' value {segment!r}")
        segment = segment or aid
        travel = 60.0 * length / speed
        if not math.isfinite(travel):
            raise SchemaError(f"arc {aid!r}: travel time overflows")
        for key in ("name", "osmid"):
            if key in rec:
                meta[key] = rec[key]
        arcs.append((aid, tail, head, travel, vulnerable, segment, meta))
        if not oneway:
            rid = aid + "__r"
            if rid in arc_ids:
                raise SchemaError(f"arc {rid!r}: duplicate id")
            arc_ids.add(rid)
            arcs.append((rid, head, tail, travel, vulnerable, segment, meta))
    return _Records(name, nodes, arcs)


# -- derivation ---------------------------------------------------------------


def _node_role(nid: str, meta: Mapping[str, Any], chosen: set[str] | None,
               p: float, weight_policy: str) -> tuple[NodeKind, float, float]:
    """Kind, residents and weight of a node: facilities (only the ``chosen``
    ones, when given) become destinations, nodes with at least ``p``
    residents become origins, the rest stay transshipment."""
    residents = meta["residents"]
    if nid in chosen if chosen is not None else meta["facility"]:
        return NodeKind.DESTINATION, 0.0, 0.0
    if residents > 0 and residents >= p:
        weight = residents if weight_policy == "w_equals_h" else 1.0
        return NodeKind.ORIGIN, residents, weight
    return NodeKind.TRANSSHIPMENT, 0.0, 0.0


def _capacity_shares(destinations: list[tuple[str, Mapping[str, Any]]],
                     residents: Iterable[float], alpha: float,
                     policy: str) -> dict[str, float]:
    """Capacity of each ``(id, meta)`` destination, id-sorted: shares of
    (1+alpha) * total residents; ``residents`` are the origins' counts, in
    id order."""
    if not destinations:
        raise SchemaError("no destinations to assign capacities to")
    total = (1.0 + alpha) * sum(residents)
    if policy == "identical":
        share = total / len(destinations)
        return {did: share for did, _ in destinations}
    beds = {}
    for did, meta in destinations:
        b = meta.get("facility_beds")
        if b is None:
            raise SchemaError(f"destination {did!r}: bed_proportional needs facility_beds")
        beds[did] = float(b)
    bed_sum = sum(beds.values())
    if bed_sum <= 0:
        raise SchemaError("bed_proportional: total beds is zero")
    return {did: total * b / bed_sum for did, b in beds.items()}


def build_instance(net: Network, spec: InstanceSpec,
                   source: str = "<memory>",
                   log: Iterable[str] = ()) -> ProblemInstance:
    """Finish derivation: fix the budget and wrap everything up."""
    origins, destinations = net.origins(), net.destinations()
    if not origins:
        raise SchemaError("degenerate instance: no origins")
    if not destinations:
        raise SchemaError("degenerate instance: no destinations")
    b_hat = total_vulnerable_cost(net, spec.segment_coupling)
    budget = spec.budget_fraction * b_hat
    cap_total = sum(d.capacity for d in destinations)
    demand = (1.0 + spec.alpha) * sum(o.residents for o in origins)
    # a float sum of shares may round below demand: allow for it relatively
    if math.isfinite(cap_total) and cap_total < demand * (1.0 - 1e-9):
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
    """Full derivation chain: load, price, classify, capacitate, budget,
    from one read of the file and one build of each node, arc and Network."""
    return _derive(_parse(source), spec)


def _derive(records: _Records, spec: InstanceSpec) -> ProblemInstance:
    """The instance that ``spec`` derives from checked file records.

    A vulnerable arc costs ``unit_cost * length_miles * lanes``, stored per
    arc; segment coupling is applied when plans are priced (see
    ``purchase_units``)."""
    nodes, arcs = records.nodes, records.arcs
    log = [f"loaded {len(nodes)} nodes / {len(arcs)} directed arcs",
           f"priced {sum(a[4] for a in arcs)} vulnerable arcs "
           f"at {spec.unit_cost:g}/mile/lane"]
    chosen = None
    if spec.facilities is not None:
        chosen = set(spec.facilities)
        unknown = chosen.difference(nodes)
        if unknown:
            raise SchemaError(f"facility subset names unknown nodes: {sorted(unknown)}")
    roles = {nid: _node_role(nid, nodes[nid], chosen, spec.p, spec.weight_policy)
             for nid in sorted(nodes)}
    demand = [residents for kind, residents, _ in roles.values()
              if kind is NodeKind.ORIGIN]
    destinations = [(nid, nodes[nid]) for nid, (kind, _, _) in roles.items()
                    if kind is NodeKind.DESTINATION]
    log.append(f"selected {len(demand)} origins (p={spec.p:g}), "
               f"{len(destinations)} destinations")
    caps = _capacity_shares(destinations, demand, spec.alpha, spec.capacity_policy)
    log.append(f"assigned capacities ({spec.capacity_policy}, alpha={spec.alpha:g})")
    net = Network(
        [RoadNode(nid, kind, residents, caps.get(nid, math.inf), weight, nodes[nid])
         for nid, (kind, residents, weight) in roles.items()],
        [RoadArc(aid, tail, head, travel, vulnerable,
                 spec.unit_cost * meta["length_miles"] * meta["lanes"]
                 if vulnerable else 0.0,
                 segment, meta)
         for aid, tail, head, travel, vulnerable, segment, meta in arcs])
    return build_instance(net, spec, source=records.source, log=log)


# -- serialization ----------------------------------------------------------


def instance_to_dict(instance: ProblemInstance) -> dict[str, Any]:
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
    return {
        "schema_version": SCHEMA_VERSION,
        "nodes": nodes,
        "arcs": arcs,
        "budget": instance.budget,
        "b_hat": instance.b_hat,
        "spec": instance.spec.to_dict(),
        "provenance": dict(instance.provenance),
    }


def instance_json(instance: ProblemInstance) -> str:
    return json.dumps(instance_to_dict(instance), sort_keys=True,
                      indent=2) + "\n"
