"""File loading, cost/capacity/origin derivation, money, purchase units."""
from __future__ import annotations

import json
import math
import re

import pytest

from floodmit.ingest import (CAPACITY_TOL, DEFAULT_UNIT_COST, InstanceSpec,
                             SchemaError, assign_capacities, build_instance,
                             capacity_fits, cents, derive_costs,
                             instance_from_file, instance_json, load_network,
                             purchase_units, select_origins,
                             total_vulnerable_cost, upgrade_cost_cents,
                             with_network)
from floodmit.net import Network, NodeKind, RoadArc, RoadNode
from floodmit import synth

from conftest import bridge_instance, f1_instance


def tiny_file(**over):
    data = {
        "schema_version": 1,
        "nodes": [
            {"id": "n1", "residents": 8},
            {"id": "n2", "residents": 0},
            {"id": "n3", "residents": 3, "facility_beds": 20},
        ],
        "arcs": [
            {"id": "r1", "from": "n1", "to": "n2", "length_miles": 1.0,
             "speed_mph": 30, "lanes": 2, "oneway": False, "vulnerable": True},
            {"id": "r2", "from": "n2", "to": "n3", "length_miles": 0.5,
             "speed_mph": 30, "lanes": 1, "oneway": True},
        ],
        "facilities": ["n3"],
    }
    data.update(over)
    return data


# -- loading -------------------------------------------------------------------

def test_load_expands_two_way_arcs():
    net = load_network(tiny_file())
    assert sorted(net.arcs) == ["r1", "r1__r", "r2"]
    fwd, rev = net.arcs["r1"], net.arcs["r1__r"]
    assert (fwd.tail, fwd.head) == ("n1", "n2")
    assert (rev.tail, rev.head) == ("n2", "n1")
    assert fwd.segment_id == rev.segment_id == "r1"
    assert fwd.travel_time == pytest.approx(2.0)  # 60 * 1.0 / 30
    assert net.arcs["r2"].travel_time == pytest.approx(1.0)
    assert fwd.vulnerable and rev.vulnerable and not net.arcs["r2"].vulnerable


@pytest.mark.parametrize("mangle", [
    {"schema_version": 2},
    {"nodes": []},
    {"nodes": [{"id": "n1"}, {"id": "n1"}]},
    {"arcs": [{"id": "r1", "from": "n1", "to": "zz", "length_miles": 1,
               "speed_mph": 30}]},
    {"arcs": [{"id": "r1", "from": "n1", "to": "n2", "length_miles": 0,
               "speed_mph": 30}]},
    {"facilities": ["ghost"]},
])
def test_load_rejects_bad_files(mangle):
    with pytest.raises(SchemaError) as loading:
        load_network(tiny_file(**mangle))
    with pytest.raises(SchemaError) as deriving:
        instance_from_file(tiny_file(**mangle), InstanceSpec())
    assert str(deriving.value) == str(loading.value)


def _arc(**over):
    rec = {"id": "r9", "from": "n1", "to": "n3", "length_miles": 1.0,
           "speed_mph": 30}
    rec.update(over)
    return rec


@pytest.mark.parametrize("mangle, message", [
    ({"nodes": [5]}, "node record 5: not an object"),
    ({"arcs": ["r1"]}, "arc record 'r1': not an object"),
    ({"arcs": [_arc(**{"from": ["n1"]})]}, "unknown tail ['n1']"),
    ({"arcs": [_arc(to={"id": "n3"})]}, "unknown head {'id': 'n3'}"),
    ({"facilities": [["n3"]]}, "facility ['n3']: unknown node"),
    ({"arcs": [_arc(segment_id=7)]}, "bad 'segment_id' value 7"),
    ({"arcs": [_arc(length_miles=1e308, speed_mph=1e-300)]}, "overflows"),
    ({"arcs": [_arc(speed_mph=10 ** 400)]}, "bad 'speed_mph' value"),
    ({"arcs": [_arc(oneway="false")]}, "'oneway' must be true or false"),
    ({"arcs": [_arc(vulnerable=1)]}, "'vulnerable' must be true or false"),
    ({"arcs": [_arc(has_bridge=None)]}, "'has_bridge' must be true or false"),
], ids=["node-not-object", "arc-not-object", "unhashable-tail",
        "unhashable-head", "unhashable-facility", "int-segment",
        "travel-overflow", "int-beyond-float", "string-oneway", "int-vulnerable",
        "null-has-bridge"])
def test_load_rejects_malformed_records(mangle, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        load_network(tiny_file(**mangle))
    spec = InstanceSpec(segment_coupling=True)
    with pytest.raises(SchemaError, match=re.escape(message)):
        instance_from_file(tiny_file(**mangle), spec)


def test_load_keeps_boolean_flags_and_string_segments():
    data = tiny_file()
    data["arcs"][0].update(oneway=True, has_bridge=True, segment_id="s1")
    data["arcs"][1].update(segment_id=None)
    net = load_network(data)
    assert sorted(net.arcs) == ["r1", "r2"]
    assert net.arcs["r1"].meta["has_bridge"] is True
    assert net.arcs["r1"].segment == "s1" and net.arcs["r2"].segment == "r2"


def test_load_rejects_reverse_id_collision():
    data = tiny_file()
    data["arcs"].append({"id": "r1__r", "from": "n2", "to": "n1",
                         "length_miles": 1.0, "speed_mph": 30, "oneway": True})
    with pytest.raises(SchemaError):
        load_network(data)


def test_load_missing_file(tmp_path):
    with pytest.raises(SchemaError, match="not found"):
        load_network(tmp_path / "nope.json")
    with pytest.raises(SchemaError, match="not a regular file"):
        load_network(tmp_path)  # a directory
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_network(bad)
    bad.write_bytes(b'{"schema_version": 1, "nodes": ["\xff"]}')
    with pytest.raises(SchemaError, match="invalid JSON"):
        load_network(bad)


# -- derivation ----------------------------------------------------------------

def test_derive_costs_formula():
    net = load_network(tiny_file())
    priced = derive_costs(net, unit_cost=32000.0)
    assert priced.arcs["r1"].mitigation_cost == pytest.approx(64000.0)  # 1mi x 2 lanes
    assert priced.arcs["r2"].mitigation_cost == 0.0
    # the worked reference value: 0.423 miles, 3 lanes, $32k/lane-mile
    one = Network(
        [RoadNode("a", NodeKind.TRANSSHIPMENT), RoadNode("b", NodeKind.TRANSSHIPMENT)],
        [RoadArc("v", "a", "b", 1.0, vulnerable=True,
                 meta={"length_miles": 0.423, "lanes": 3.0})])
    assert derive_costs(one, 32000.0).arcs["v"].mitigation_cost == pytest.approx(40608.0)


def test_derive_costs_requires_length():
    net = Network(
        [RoadNode("a", NodeKind.TRANSSHIPMENT), RoadNode("b", NodeKind.TRANSSHIPMENT)],
        [RoadArc("v", "a", "b", 1.0, vulnerable=True)])
    with pytest.raises(SchemaError):
        derive_costs(net)


def test_select_origins_threshold_and_weights():
    net = load_network(tiny_file())
    chosen = select_origins(net, p=5.0)
    assert chosen.nodes["n1"].kind is NodeKind.ORIGIN
    assert chosen.nodes["n1"].weight == 8.0
    assert chosen.nodes["n2"].kind is NodeKind.TRANSSHIPMENT
    assert chosen.nodes["n3"].kind is NodeKind.DESTINATION
    assert chosen.nodes["n3"].residents == 0.0  # facility residents are dropped
    uniform = select_origins(net, p=5.0, weight_policy="uniform")
    assert uniform.nodes["n1"].weight == 1.0
    nobody = select_origins(net, p=100.0)
    assert all(n.kind is not NodeKind.ORIGIN for n in nobody.nodes.values())


def test_select_origins_facility_subset():
    net = load_network(tiny_file())
    swapped = select_origins(net, p=1.0, facilities=["n2"])
    assert swapped.nodes["n2"].kind is NodeKind.DESTINATION
    assert swapped.nodes["n3"].kind is NodeKind.ORIGIN  # falls back to residents
    with pytest.raises(SchemaError):
        select_origins(net, p=1.0, facilities=["ghost"])


def test_assign_capacities_policies():
    net = select_origins(load_network(tiny_file()), p=1.0)
    ident = assign_capacities(net, alpha=0.25, policy="identical")
    assert ident.nodes["n3"].capacity == pytest.approx(1.25 * 8.0)
    beds = assign_capacities(net, alpha=0.0, policy="bed_proportional")
    assert beds.nodes["n3"].capacity == pytest.approx(8.0)  # all beds in one place
    with pytest.raises(SchemaError):
        assign_capacities(net, alpha=-0.1, policy="identical")


def test_assign_capacities_needs_beds():
    data = tiny_file()
    del data["nodes"][2]["facility_beds"]
    net = select_origins(load_network(data), p=1.0)
    with pytest.raises(SchemaError):
        assign_capacities(net, alpha=0.0, policy="bed_proportional")


# -- instance assembly -----------------------------------------------------------

def test_instance_from_file_end_to_end():
    spec = InstanceSpec(p=1.0, budget_fraction=0.5, unit_cost=1000.0)
    inst = instance_from_file(tiny_file(), spec)
    # r1 and r1__r each cost 1000 * 1.0 miles * 2 lanes
    assert inst.b_hat == pytest.approx(4000.0)
    assert inst.budget == pytest.approx(2000.0)
    assert [o.id for o in inst.network.origins()] == ["n1"]
    assert [d.id for d in inst.network.destinations()] == ["n3"]
    assert isinstance(inst.summary(), str) and "n1" not in inst.summary()
    assert "1 origins" in inst.summary() or "origins" in inst.summary()


def test_instance_json_is_stable():
    spec = InstanceSpec(p=1.0, budget_fraction=0.5)
    inst = instance_from_file(tiny_file(), spec)
    assert instance_json(inst) == instance_json(inst)
    parsed = json.loads(instance_json(inst))
    assert parsed["budget"] == inst.budget
    assert parsed["spec"]["budget_fraction"] == 0.5


def test_degenerate_instances_rejected():
    spec = InstanceSpec(p=1.0, budget_fraction=0.5)
    with pytest.raises(SchemaError):
        instance_from_file(tiny_file(facilities=[]), spec)  # no destinations
    data = tiny_file()
    data["nodes"][0]["residents"] = 0
    with pytest.raises(SchemaError):
        instance_from_file(data, spec)  # no origins


def test_spec_validation():
    for bad in (dict(p=-1.0), dict(alpha=-0.5), dict(budget_fraction=1.5),
                dict(capacity_policy="magic"), dict(weight_policy="magic"),
                dict(unit_cost=-3.0)):
        with pytest.raises(SchemaError):
            InstanceSpec(**bad)


# -- money and purchase units ----------------------------------------------------

def test_cents_and_capacity_tolerance():
    assert cents(1.005) == 100 or cents(1.005) == 101  # banker-safe: just an int
    assert cents(12.34) == 1234
    assert capacity_fits(10.0, 10.0)
    assert capacity_fits(10.0 + CAPACITY_TOL / 2, 10.0)
    assert not capacity_fits(10.1, 10.0)


def test_purchase_units_per_arc():
    inst = f1_instance(9.0)
    units = purchase_units(inst.network, segment_coupling=False)
    assert [(u.id, u.arc_ids, u.cost_cents) for u in units] == [
        ("a2", ("a2",), 400), ("a4", ("a4",), 500)]
    assert upgrade_cost_cents(inst.network, ["a2", "a4"], False) == 900
    assert total_vulnerable_cost(inst.network, False) == pytest.approx(9.0)


def test_purchase_units_coupled_price_once():
    inst = bridge_instance(True)
    units = purchase_units(inst.network, segment_coupling=True)
    assert len(units) == 1
    (unit,) = units
    assert unit.arc_ids == ("e", "er")
    assert unit.cost_cents == 600  # max(6, 4) dollars
    assert upgrade_cost_cents(inst.network, ["e"], True) == 600
    assert upgrade_cost_cents(inst.network, ["e", "er"], True) == 600
    assert upgrade_cost_cents(inst.network, ["e", "er"], False) == 1000
    # the full repair bill prices the segment once, as the solver does
    assert with_network(inst, inst.network).b_hat == 6.0
    spec = InstanceSpec(p=1.0, unit_cost=1000.0, segment_coupling=True)
    assert instance_from_file(tiny_file(), spec).b_hat == 2000.0  # r1, r1__r


def test_with_network_rebinds():
    inst = f1_instance(4.0)
    smaller = with_network(inst, inst.network, budget=5.0)
    assert smaller.budget == 5.0
    assert smaller.b_hat == inst.b_hat
    assert smaller.spec == inst.spec


# -- the one-pass build against the public chain ----------------------------------

def _chain(source, spec):
    """The public derivation steps, one Network each: the oracle for
    ``instance_from_file``."""
    log = []
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
    return build_instance(net, spec, source="<dict>", log=log)


def _outcome(build, source, spec):
    try:
        inst = build(source, spec)
    except SchemaError as exc:
        return f"SchemaError: {exc}"
    net = inst.network
    return (list(net.nodes.items()), list(net.arcs.items()), net._out, net._in,
            net.vulnerable_ids, inst.budget, inst.b_hat, inst.spec,
            dict(inst.provenance))


@pytest.mark.parametrize("make", [
    lambda: synth.grid_network_file(5, 7, 3, oneway_fraction=0.3),
    lambda: synth.grid_network_file(9, 9, 11, oneway_fraction=0.5, decorate=True),
    lambda: synth.grid_network_file(12, 10, 4, oneway_fraction=0.2,
                                    n_facilities=4, resident_density=0.6),
    lambda: synth.demo_network_file(),
    lambda: synth.demo_network_file(5),
    lambda: synth.large_network_file(7),
    synth.budget_paradox_network_file,
], ids=["g5x7", "g9-decorated", "g12x10", "demo", "demo5", "large",
        "paradox"])
def test_instance_from_file_matches_the_public_chain(make):
    data = make()
    first_facility = data["facilities"][0]
    plain = next(n["id"] for n in data["nodes"] if n["id"] != first_facility)
    specs = [
        InstanceSpec(),
        InstanceSpec(p=5.0, alpha=0.15, budget_fraction=0.4),
        InstanceSpec(p=20.0, alpha=3.0, capacity_policy="bed_proportional",
                     weight_policy="uniform", segment_coupling=True),
        InstanceSpec(p=1.0, alpha=0.5, unit_cost=1234.5, budget_fraction=0.05,
                     capacity_policy="bed_proportional",
                     facilities=(first_facility,)),
        # a subset that names an ordinary node: it shelters, but has no beds
        InstanceSpec(p=2.0, facilities=(first_facility, plain)),
        InstanceSpec(p=2.0, capacity_policy="bed_proportional",
                     facilities=(first_facility, plain)),
        InstanceSpec(p=1e9),  # nobody qualifies as an origin
    ]
    for spec in specs:
        assert _outcome(instance_from_file, data, spec) == _outcome(_chain, data, spec)
