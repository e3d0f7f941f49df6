"""File loading, cost/capacity/origin derivation, money, purchase units."""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import re
import types

import pytest

from floodmit.ingest import (CAPACITY_TOL, InstanceSpec, SchemaError, _flag,
                             _num, capacity_fits, cents, instance_from_file,
                             instance_json, purchase_units,
                             total_vulnerable_cost, upgrade_cost_cents,
                             with_network)
from floodmit.net import Network, NodeKind
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
    net = instance_from_file(tiny_file(), InstanceSpec()).network
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
    with pytest.raises(SchemaError):
        instance_from_file(tiny_file(**mangle), InstanceSpec())


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
    ({"arcs": [{k: v for k, v in _arc(vulnerable=True).items()
                if k != "length_miles"}]}, "arc 'r9': missing 'length_miles'"),
], ids=["node-not-object", "arc-not-object", "unhashable-tail",
        "unhashable-head", "unhashable-facility", "int-segment",
        "travel-overflow", "int-beyond-float", "string-oneway", "int-vulnerable",
        "null-has-bridge", "missing-length"])
def test_load_rejects_malformed_records(mangle, message):
    spec = InstanceSpec(segment_coupling=True)
    with pytest.raises(SchemaError, match=re.escape(message)):
        instance_from_file(tiny_file(**mangle), spec)


_MISSING = object()


def _checked(check):
    """What ``check()`` returns, or the message of its SchemaError."""
    try:
        return check()
    except SchemaError as exc:
        return str(exc)


def _load_field(records, index, key, raw, read, full):
    """(what a load of ``tiny_file`` with ``raw`` as record ``index``'s
    ``key`` reads there, what the full check ``full(rec)`` gives for that
    record): each a value or a SchemaError message."""
    data = tiny_file()
    rec = data[records][index]
    if raw is _MISSING:
        rec.pop(key, None)
    else:
        rec[key] = raw
    loaded = _checked(lambda: read(
        instance_from_file(data, InstanceSpec()).network, rec["id"]))
    return loaded, _checked(lambda: full(rec))


@pytest.mark.parametrize("records, key, limits", [
    ("nodes", "residents", dict(default=0.0, minimum=0.0)),
    ("arcs", "length_miles", dict(minimum=0.0, strict=True)),
    ("arcs", "speed_mph", dict(minimum=0.0, strict=True)),
    ("arcs", "lanes", dict(default=1.0, minimum=1.0)),
])
def test_inline_number_checks_match_the_full_check(records, key, limits):
    # a load takes a plain number inline and hands the rest to _num: each
    # raw value gives _num's float, bit for bit (repr tells -0.0 and int
    # apart), or _num's message; a JSON true is never a number
    kind = records[:-1]
    for raw in (True, False, math.nan, math.inf, 1e400, 10 ** 400, -0.0, 0,
                -1, 0.5, 1, "3", None, _MISSING):
        loaded, full = _load_field(
            records, 1, key, raw,
            lambda net, rid: getattr(net, records)[rid].meta[key],
            lambda rec: _num(rec, key, kind, rec["id"], **limits))
        assert repr(loaded) == repr(full), (key, raw)


@pytest.mark.parametrize("key", ["oneway", "vulnerable", "has_bridge"])
def test_inline_flag_checks_match_the_full_check(key):
    def read(net, aid):
        arc = net.arcs[aid]
        return arc.vulnerable if key == "vulnerable" else arc.meta[key]

    for raw in (True, False, 0, 1, "false", None, _MISSING):
        loaded, full = _load_field("arcs", 1, key, raw, read,
                                   lambda rec: _flag(rec, key, rec["id"]))
        assert repr(loaded) == repr(full), (key, raw)


def test_records_may_be_any_mapping():
    # a record that is a mapping but no dict takes the full check's path
    data = tiny_file()
    proxied = tiny_file(**{key: [types.MappingProxyType(rec)
                                 for rec in data[key]]
                           for key in ("nodes", "arcs")})
    spec = InstanceSpec(alpha=0.15)
    assert (instance_json(instance_from_file(proxied, spec))
            == instance_json(instance_from_file(data, spec)))


def test_load_keeps_boolean_flags_and_string_segments():
    data = tiny_file()
    data["arcs"][0].update(oneway=True, has_bridge=True, segment_id="s1")
    data["arcs"][1].update(segment_id=None)
    net = instance_from_file(data, InstanceSpec()).network
    assert sorted(net.arcs) == ["r1", "r2"]
    assert net.arcs["r1"].meta["has_bridge"] is True
    assert net.arcs["r1"].segment == "s1" and net.arcs["r2"].segment == "r2"


def test_load_rejects_reverse_id_collision():
    # an explicit r1__r collides with two-way r1's reverse, in either order
    twin = {"id": "r1__r", "from": "n2", "to": "n1", "length_miles": 1.0,
            "speed_mph": 30, "oneway": True}
    for where in (0, 2):
        data = tiny_file()
        data["arcs"].insert(where, twin)
        with pytest.raises(SchemaError, match="arc 'r1__r': duplicate id"):
            instance_from_file(data, InstanceSpec())


def test_load_missing_file(tmp_path):
    spec = InstanceSpec()
    with pytest.raises(SchemaError, match="not found"):
        instance_from_file(tmp_path / "nope.json", spec)
    with pytest.raises(SchemaError, match="not a regular file"):
        instance_from_file(tmp_path, spec)  # a directory
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        instance_from_file(bad, spec)
    bad.write_bytes(b'{"schema_version": 1, "nodes": ["\xff"]}')
    with pytest.raises(SchemaError, match="invalid JSON"):
        instance_from_file(bad, spec)


# -- derivation ----------------------------------------------------------------

def test_derive_prices_vulnerable_arcs():
    net = instance_from_file(tiny_file(), InstanceSpec(unit_cost=32000.0)).network
    assert net.arcs["r1"].mitigation_cost == pytest.approx(64000.0)  # 1mi x 2 lanes
    assert net.arcs["r2"].mitigation_cost == 0.0
    # the worked reference value: 0.423 miles, 3 lanes, $32k/lane-mile
    one = {"schema_version": 1,
           "nodes": [{"id": "a", "residents": 1}, {"id": "b"}],
           "arcs": [{"id": "v", "from": "a", "to": "b", "length_miles": 0.423,
                     "speed_mph": 30, "lanes": 3, "oneway": True,
                     "vulnerable": True}],
           "facilities": ["b"]}
    inst = instance_from_file(one, InstanceSpec(unit_cost=32000.0))
    assert inst.network.arcs["v"].mitigation_cost == pytest.approx(40608.0)


def test_derive_origins_threshold_and_weights():
    chosen = instance_from_file(tiny_file(), InstanceSpec(p=5.0)).network
    assert chosen.nodes["n1"].kind is NodeKind.ORIGIN
    assert chosen.nodes["n1"].weight == 8.0
    assert chosen.nodes["n2"].kind is NodeKind.TRANSSHIPMENT
    assert chosen.nodes["n3"].kind is NodeKind.DESTINATION
    assert chosen.nodes["n3"].residents == 0.0  # facility residents are dropped
    uniform = instance_from_file(tiny_file(),
                                 InstanceSpec(p=5.0, weight_policy="uniform"))
    assert uniform.network.nodes["n1"].weight == 1.0
    with pytest.raises(SchemaError, match="no origins"):
        instance_from_file(tiny_file(), InstanceSpec(p=100.0))


def test_derive_facility_subset():
    swapped = instance_from_file(tiny_file(),
                                 InstanceSpec(p=1.0, facilities=("n2",))).network
    assert swapped.nodes["n2"].kind is NodeKind.DESTINATION
    assert swapped.nodes["n3"].kind is NodeKind.ORIGIN  # falls back to residents
    with pytest.raises(SchemaError, match=re.escape("unknown nodes: ['ghost']")):
        instance_from_file(tiny_file(), InstanceSpec(p=1.0, facilities=("ghost",)))


def test_derive_capacity_policies():
    ident = instance_from_file(tiny_file(), InstanceSpec(
        p=1.0, alpha=0.25, capacity_policy="identical")).network
    assert ident.nodes["n3"].capacity == pytest.approx(1.25 * 8.0)
    beds = instance_from_file(tiny_file(), InstanceSpec(
        p=1.0, alpha=0.0, capacity_policy="bed_proportional")).network
    assert beds.nodes["n3"].capacity == pytest.approx(8.0)  # all beds in one place
    with pytest.raises(SchemaError):
        InstanceSpec(p=1.0, alpha=-0.1, capacity_policy="identical")


def test_derive_capacity_needs_beds():
    data = tiny_file()
    del data["nodes"][2]["facility_beds"]
    with pytest.raises(SchemaError, match="needs facility_beds"):
        instance_from_file(data, InstanceSpec(p=1.0, capacity_policy="bed_proportional"))
    data["nodes"][2]["facility_beds"] = 0
    with pytest.raises(SchemaError, match="total beds is zero"):
        instance_from_file(data, InstanceSpec(p=1.0, capacity_policy="bed_proportional"))


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
    # the budget carries over; b_hat is the new network's repair bill
    inst = dataclasses.replace(f1_instance(4.0), budget=5.0)
    net = inst.network
    smaller = with_network(inst, Network(
        net.nodes.values(), [a for a in net.arcs.values() if a.id != "a2"]))
    assert smaller.budget == 5.0
    assert smaller.b_hat == 5.0 and inst.b_hat == 9.0
    assert smaller.spec == inst.spec


# -- derived bytes, pinned --------------------------------------------------------

#: sha256 of ``instance_json`` for each file and spec below, or the
#: SchemaError text.  Recorded when the stepwise public chain (load, price,
#: classify, capacitate) still existed beside ``instance_from_file`` and
#: derived the same instances, so these are the chain's answers too.
DERIVED = {
    "g5x7": [
        "30a33a77ad7b9581e542ab20299cba9ee7c1f2d7956d013ed1a7590ef6f313aa",
        "90694a3c5741bd9a7710d3f22536d90beb2add0ac6300a53fe3e3ddf73df9fbf",
        "878aa39061d2a552e6f062c448deb7c778be924df2ac38b8a2b9a72342bc22e3",
        "7b349e537bc44e407cbe45e688965888d688d275301c8bc1028972afc0ddc89b",
        "69aad7869d4b931d545e8dd5d9d1956c54aeabf459da3ecc8683f6ee4edb1c79",
        "SchemaError: destination 'n00x00': bed_proportional needs facility_beds",
        "SchemaError: degenerate instance: no origins",
    ],
    "g9-decorated": [
        "ef948cec7369b618877958d1e34d6853e53898c72ecb836e1d7fa0252ca7a4ae",
        "9164ead9a887c288f94551eff5049b906e202ee743da9e7b9b60217d1abca4e9",
        "4b27a6261f45c47416ad587b5995ad3716c5871ab5281d7015cf50a3adf28f5c",
        "ece8558ab73391b74075c6e19851574ec1d134c69ffdd7b02d4f6df11ff5b114",
        "111a7bbaa8ed1bcbc82715472fa62d2222866ad3ed331b0e8712dbe81b2e0cac",
        "SchemaError: destination 'n00x00': bed_proportional needs facility_beds",
        "SchemaError: degenerate instance: no origins",
    ],
    "g12x10": [
        "8440d9038f9806b4db19b449c1a2f7ee29e03bb87aa331789e350378ab87dfd5",
        "720b10bed8b3db87d0a96e41478f40bedec507d3e85cdd3e8283b776d8b45ac9",
        "c6368d6d60abda7cbb4701534c70ad4797a69b658ccea2f84b149cf498f26955",
        "a4ff58795d40cd62bf5fd2b178407004f0777a2eeec8c6c70b9aeefd1d33e972",
        "36dba2f84e3dc782cca5c404934b21675e3db2135d6ac56e5e6440e8502dc102",
        "SchemaError: destination 'n00x00': bed_proportional needs facility_beds",
        "SchemaError: degenerate instance: no origins",
    ],
    "demo": [
        "b108968c8ae93e2086cbc88f484e90c2b48ba076a5401e91adcc5f7e50ca3bd8",
        "055127480bbbee41e9a9ad5c97ead61ea24312917a816033742e80395a669370",
        "0860d823e45491be764c00a17b50a9544e20cac17a4beae0037960cc85a72c2c",
        "b3bc2f909bf7f1d8fa31b3720c49cff0493791e6f2ec14a294353b576b7d7a6b",
        "97da6af9fe638c51270032e4d09fc729ee8398277f667b450dffc4bd075ded2b",
        "SchemaError: destination 'n00x00': bed_proportional needs facility_beds",
        "SchemaError: degenerate instance: no origins",
    ],
    "demo5": [
        "5c58e841142249177f1fceeda1c22d3a28a4ba79d3731aba2af8d6d0c1042a7a",
        "1bd027e0f6497482003fccd5481073372fe3a682a1e76f3f9bd7de10462f6a41",
        "9a216202b2b3e71c28736cb28705b74760a6c319bf0a902212b503d8a96bfe96",
        "516bf544b21b6eeabe1d99123bede52b16581e8748e365c441532a38596ed065",
        "fe54d235b0a3d055c1fd5000fd5d29a4e28850db11d632fada7ef68cd0e867f8",
        "SchemaError: destination 'n00x01': bed_proportional needs facility_beds",
        "SchemaError: degenerate instance: no origins",
    ],
    "large": [
        "730563190cb09e69ead9a5c72769161d69eb65ddf53757918f5dccee2ab53eee",
        "e93a877dd1c8bc70bce85bcddc2be0ff648f646f8a466320015ed4634b22581f",
        "6009697816a2cf522949fa47cab58b97dbc43a71c01cea91200c30eb9e9fce21",
        "a07bb39f9a8f13dcb8f3e2afc7dcff2c17539fa4a725f51f38d129ed762b03b4",
        "2ea9c419c6811d1f195e505a353789eb3142cfeeb0ec19c2023754981779c7ff",
        "SchemaError: destination 'n00x00': bed_proportional needs facility_beds",
        "SchemaError: degenerate instance: no origins",
    ],
    "paradox": [
        "7f2122bff102591c8b69231c4a07aee9ccb575faeca118bf97513611402e2460",
        "20f98e6cceb0306e8d8bfac390b203643dba1d55c4ccfe7b75abb48ed5757fc1",
        "SchemaError: degenerate instance: no origins",
        "9d61011a930122eb3a8a2c50293c59cfdd10a9916763a44c4213eac7fb2c8c73",
        "SchemaError: degenerate instance: no origins",
        "SchemaError: destination 'o': bed_proportional needs facility_beds",
        "SchemaError: degenerate instance: no origins",
    ],
}


def _outcome(source, spec):
    try:
        inst = instance_from_file(source, spec)
    except SchemaError as exc:
        return f"SchemaError: {exc}"
    return hashlib.sha256(instance_json(inst).encode()).hexdigest()


#: the network files of ``DERIVED``, by name
MAKERS = {
    "g5x7": lambda: synth.grid_network_file(5, 7, 3, oneway_fraction=0.3),
    "g9-decorated": lambda: synth.grid_network_file(9, 9, 11, oneway_fraction=0.5,
                                                    decorate=True),
    "g12x10": lambda: synth.grid_network_file(12, 10, 4, oneway_fraction=0.2,
                                              n_facilities=4, resident_density=0.6),
    "demo": lambda: synth.demo_network_file(),
    "demo5": lambda: synth.demo_network_file(5),
    "large": lambda: synth.large_network_file(7),
    "paradox": synth.budget_paradox_network_file,
}


@pytest.mark.parametrize("name", list(MAKERS))
def test_instance_from_file_matches_the_public_chain(name):
    data = MAKERS[name]()
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
    assert [_outcome(data, spec) for spec in specs] == DERIVED[name]
