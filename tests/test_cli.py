"""End-to-end command-line runs against generated network files."""
from __future__ import annotations

import hashlib
import json

import pytest

from floodmit.cli import _print_plan, main
from floodmit.solver import brute_force_oracle, solve_exact
from floodmit import synth

from conftest import bridge_instance


@pytest.fixture()
def demo(tmp_path):
    p = tmp_path / "demo.json"
    assert synth.main(["demo", str(p)]) == 0
    return p


@pytest.fixture()
def paradox(tmp_path):
    p = tmp_path / "paradox.json"
    assert synth.main(["paradox", str(p)]) == 0
    return p


def test_synth_writer_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert synth.main(["demo", str(a)]) == 0
    assert synth.main(["demo", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--rows", "1"], "grid needs at least 2x2 nodes"),
    (["--facilities", "0"], "bad facility count"),
], ids=["rows-1", "facilities-0"])
def test_synth_bad_grid_flags_are_usage_errors(tmp_path, capsys, flags, message):
    with pytest.raises(SystemExit) as exc:
        synth.main(["grid", str(tmp_path / "out.json"), *flags])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: floodmit.synth") and message in err
    assert not (tmp_path / "out.json").exists()


def test_ingest_accepts_large_populations(tmp_path, capsys):
    # 3e10 residents shared by 7 facilities: the float sum of the shares
    # rounds below (1+alpha) * residents by far more than a millionth
    facilities = [f"f{i}" for i in range(7)]
    big = tmp_path / "big.json"
    big.write_text(json.dumps({
        "schema_version": 1,
        "nodes": [{"id": "o", "residents": 3e10}]
                 + [{"id": f} for f in facilities],
        "arcs": [{"id": f"a{f}", "from": "o", "to": f, "length_miles": 1.0,
                  "speed_mph": 30} for f in facilities],
        "facilities": facilities}))
    assert main(["ingest", str(big), "--alpha", "0.15",
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads((tmp_path / "out" / "instance.json").read_bytes())
    caps = [n["capacity"] for n in payload["nodes"] if n["kind"] == "destination"]
    assert sum(caps) == pytest.approx(1.15 * 3e10)


def test_ingest_reports_and_writes(demo, tmp_path, capsys):
    out = tmp_path / "work"
    code = main(["ingest", str(demo), "--alpha", "0.15",
                 "--out-dir", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "full repair bill" in text and "budget" in text
    first = (out / "instance.json").read_bytes()
    assert main(["ingest", str(demo), "--alpha", "0.15",
                 "--out-dir", str(out)]) == 0
    assert (out / "instance.json").read_bytes() == first
    payload = json.loads(first)
    assert payload["spec"]["alpha"] == 0.15


def test_ingest_bytes_do_not_depend_on_the_directory(demo, tmp_path):
    # one file in two directories: the instance records its name only
    written = []
    for where in ("a", "b"):
        town = tmp_path / where / "town.json"
        town.parent.mkdir()
        town.write_bytes(demo.read_bytes())
        out = tmp_path / where / "out"
        assert main(["ingest", str(town), "--out-dir", str(out)]) == 0
        written.append((out / "instance.json").read_bytes())
    assert written[0] == written[1]
    assert json.loads(written[0])["provenance"]["source"] == "town.json"


def test_solve_writes_stable_artifacts(demo, tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["solve", str(demo), "--alpha", "0.15", "--out-dir", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "status       Optimal" in text
    first = (out / "solution.json").read_bytes()
    log_first = (out / "prunelog.json").read_bytes()
    assert main(argv) == 0
    assert (out / "solution.json").read_bytes() == first
    assert (out / "prunelog.json").read_bytes() == log_first
    payload = json.loads(first)
    assert payload["status"] == "Optimal"
    assert payload["objective"] == pytest.approx(751.8050323809525)
    assert not any(k.startswith("wall_time") for k in payload["stats"])


def test_solve_reports_model_infeasibility(demo, tmp_path, capsys):
    # zero slack makes shelter space exactly equal demand; an odd resident
    # count split over even capacity cannot be packed, a genuine model answer
    code = main(["solve", str(demo), "--alpha", "0", "--out-dir",
                 str(tmp_path / "zero")])
    assert code == 2
    assert "Infeasible" in capsys.readouterr().out


def test_solve_counts_connection_cuts(demo, tmp_path, capsys):
    # 10% of the demo town's repair bill cannot reconnect everyone: the
    # connection bound says so, and its count repeats run to run
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["solve", str(demo), "--alpha", "0.15",
                     "--budget-fraction", "0.10",
                     "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        stats = json.loads((out / "solution.json").read_bytes())["stats"]
        assert (f"{stats['connection_cuts']} connection cuts, "
                f"{stats['relaxations_inherited']} relaxations inherited, "
                f"{stats['tables_repaired']} tables repaired, "
                f"{stats['routes_reused']} routes reused, "
                f"{stats['assignments_reused']} assignments reused, "
                f"{stats['nearest_fallbacks']} nearest-table fallbacks\n"
                in err)
        runs.append(stats)
    assert runs[0] == runs[1]
    assert runs[0]["connection_cuts"] >= 1
    assert runs[0]["nodes_explored"] == 0


def test_operational_errors_exit_1(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1
    demo = tmp_path / "demo.json"
    synth.main(["demo", str(demo)])
    assert main(["ingest", str(demo), "--alpha", "-3"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_network_path_that_is_a_directory_exits_1(tmp_path, capsys):
    assert main(["solve", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: network file is not a regular file: {tmp_path}\n"


def test_solve_out_dir_that_is_a_file_exits_1(demo, capsys):
    assert main(["solve", str(demo), "--out-dir", str(demo)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_oracle_out_that_is_a_directory_exits_1(paradox, tmp_path, capsys):
    assert main(["oracle", str(paradox), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_an_output_path_that_cannot_be_written_is_named(demo, paradox,
                                                       tmp_path, capsys):
    # the error line names the output path at fault and what it was for,
    # not only the path the operating system reports
    assert main(["sweep", str(demo), "--fractions", "1",
                 "--out-dir", str(demo)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output directory "
                          f"{str(demo)!r}: ")
    assert main(["oracle", str(paradox), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output file "
                          f"{str(tmp_path)!r}: ")
    inside = tmp_path / "out" / "ewtt.csv"
    inside.mkdir(parents=True)
    assert main(["ewtt", str(demo), "--out-dir", str(inside.parent)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write output directory "
                          f"{str(inside.parent)!r}: ")
    assert str(inside) in err


def test_malformed_record_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad-record.json"
    bad.write_text(json.dumps({"schema_version": 1, "nodes": [5], "arcs": []}))
    assert main(["solve", str(bad)]) == 1
    assert "error: node record 5: not an object" in capsys.readouterr().err


@pytest.mark.parametrize("key, config", [
    ("facilities", '{"facilities": [["n02x02"]]}'),
    ("facilities", '{"facilities": [1, "zz"]}'),
    ("facilities", '{"facilities": "n02x02"}'),
    ("alpha", '{"alpha": "0.2"}'),
    ("alpha", '{"alpha": true}'),
    ("p", '{"p": NaN}'),
    ("unit_cost", '{"unit_cost": Infinity}'),
    ("budget_fraction", '{"budget_fraction": null}'),
    ("segment_coupling", '{"segment_coupling": "false"}'),
    ("weight policy", '{"weight_policy": ["uniform"]}'),
    ("must hold a JSON object", '[{"alpha": 0.2}]'),
    ("unknown spec keys: ['gamma']", '{"gamma": 1}'),
], ids=["nested-facility", "number-facility", "facility-string",
        "string-alpha", "bool-alpha", "nan-p", "infinite-cost", "null-budget",
        "string-coupling", "list-policy", "array", "unknown-key"])
def test_bad_config_value_exits_1(demo, tmp_path, capsys, key, config):
    path = tmp_path / "config.json"
    path.write_text(config)
    assert main(["ingest", str(demo), "--config", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b'{"alpha": 0.2, "x": "\xff"}'),
], ids=["directory", "not-utf8"])
def test_unreadable_config_exits_1(demo, tmp_path, capsys, make):
    path = tmp_path / "config.json"
    make(path)
    assert main(["ingest", str(demo), "--config", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_that_is_not_json_exits_1_and_is_named(demo, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{alpha: 1}")
    assert main(["ingest", str(demo), "--config", str(path),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {str(path)!r}: "
                          "invalid JSON (Expecting property name")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--time-limit", "--gap-tol"])
def test_nan_solve_option_exits_1(demo, tmp_path, capsys, flag):
    assert main(["solve", str(demo), "--alpha", "0.15", flag, "nan",
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sweep", "frequency"])
def test_negative_fraction_exits_1(demo, tmp_path, capsys, command):
    assert main([command, str(demo), "--fractions=-0.1,0.5",
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: budget fractions must be nonnegative\n"
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fractions, message", [
    ("x", "bad fraction list 'x'"), (",", "empty fraction list"),
], ids=["not-a-number", "empty"])
def test_bad_fraction_list_exits_1(demo, tmp_path, capsys, fractions, message):
    assert main(["sweep", str(demo), "--fractions", fractions,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_config_file_with_flag_override(demo, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"alpha": 3.0, "budget_fraction": 0.5,
                                "facilities": ["n02x02"]}))
    out = tmp_path / "out"
    assert main(["ingest", str(demo), "--config", str(path),
                 "--alpha", "0.15", "--out-dir", str(out)]) == 0
    spec = json.loads((out / "instance.json").read_bytes())["spec"]
    assert spec["alpha"] == 0.15          # the flag wins
    assert spec["budget_fraction"] == 0.5
    assert spec["facilities"] == ["n02x02"]
    assert main(["ingest", str(demo), "--config", str(path),
                 "--facility", "n04x02", "--out-dir", str(out)]) == 0
    spec = json.loads((out / "instance.json").read_bytes())["spec"]
    assert spec["alpha"] == 3.0
    assert spec["facilities"] == ["n04x02"]


def test_config_ints_write_the_same_bytes_as_flags(demo, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"alpha": 1, "p": 1, "budget_fraction": 1,
                                "unit_cost": 2}))
    assert main(["ingest", str(demo), "--config", str(path),
                 "--out-dir", str(tmp_path / "config")]) == 0
    assert main(["ingest", str(demo), "--alpha", "1", "--p", "1",
                 "--budget-fraction", "1", "--unit-cost", "2",
                 "--out-dir", str(tmp_path / "flags")]) == 0
    written = (tmp_path / "config" / "instance.json").read_bytes()
    assert written == (tmp_path / "flags" / "instance.json").read_bytes()
    assert b'"alpha": 1.0' in written


def test_oracle_command_on_paradox_family(paradox, tmp_path, capsys):
    low, high = synth.BUDGET_PARADOX_PAIR
    out = tmp_path / "oracle.json"
    code = main(["oracle", str(paradox), "--p", "1", "--alpha", "0",
                 "--unit-cost", "200",
                 "--budget-fraction", str(low / 160.0), "--out", str(out)])
    assert code == 0
    small = json.loads(out.read_text())
    code = main(["oracle", str(paradox), "--p", "1", "--alpha", "0",
                 "--unit-cost", "200",
                 "--budget-fraction", str(high / 160.0), "--out", str(out)])
    assert code == 0
    big = json.loads(out.read_text())
    # the smaller budget buys strictly more roads
    assert len(small["upgrades"]) > len(big["upgrades"])
    assert small["objective"] == pytest.approx(60.0)
    assert big["objective"] == pytest.approx(30.0)


def _cents(line):
    return round(float(line.rsplit("$", 1)[1].replace(",", "")) * 100)


def test_coupled_plan_prices_add_up_to_spent(capsys):
    # both directions of the bridge ride in the plan, bought as one
    # segment: one upgrade line at the segment's price, as `solve` and
    # `oracle` print it, and the prices sum to what was spent
    inst = bridge_instance(coupled=True)
    for sol in (solve_exact(inst), brute_force_oracle(inst)):
        _print_plan(inst, sol)
        lines = capsys.readouterr().out.splitlines()
        upgrades = [line for line in lines if line.startswith("upgrade")]
        (spent,) = [line for line in lines if line.startswith("spent")]
        assert upgrades == [
            "upgrade      bridge (e, er)  m -> de, de -> m  $6.00"]
        assert sum(map(_cents, upgrades)) == _cents(spent) == 600


def test_sweep_and_frequency_commands(demo, tmp_path, capsys):
    out = tmp_path / "an"
    argv = ["sweep", str(demo), "--alpha", "0.15", "--fractions", "0.5,1",
            "--out-dir", str(out)]
    assert main(argv) == 0
    assert "written:" in capsys.readouterr().out
    first = (out / "sweep.csv").read_bytes()
    assert main(argv) == 0
    assert (out / "sweep.csv").read_bytes() == first
    assert first.startswith(b"fraction,budget,status,objective,excess")

    assert main(["frequency", str(demo), "--alpha", "0.15",
                 "--fractions", "0.5,1", "--out-dir", str(out)]) == 0
    assert (out / "frequency.csv").read_text().startswith("arc,count,share")


def test_ewtt_command_with_segments(demo, tmp_path, capsys):
    out = tmp_path / "crit"
    assert main(["ewtt", str(demo), "--alpha", "0.15", "--segments",
                 "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ewtt" in text
    assert (out / "ewtt.csv").exists() and (out / "segments.csv").exists()
    first = (out / "ewtt.csv").read_bytes()
    assert main(["ewtt", str(demo), "--alpha", "0.15", "--segments",
                 "--top", "2", "--out-dir", str(out)]) == 0
    assert (out / "ewtt.csv").read_bytes() == first
    # the header, two ranked rows, then the written line
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[-1].startswith("written:")


def test_ewtt_names_a_connectivity_critical_road(tmp_path, capsys):
    # the only road into the facility floods: closing it cuts o off
    town = tmp_path / "cut.json"
    town.write_text(json.dumps({
        "schema_version": 1,
        "nodes": [{"id": "o", "residents": 10}, {"id": "t"}, {"id": "f"}],
        "arcs": [{"id": "ot", "from": "o", "to": "t", "length_miles": 1.0,
                  "speed_mph": 30},
                 {"id": "tf", "from": "t", "to": "f", "length_miles": 1.0,
                  "speed_mph": 30, "vulnerable": True}],
        "facilities": ["f"]}))
    assert main(["ewtt", str(town), "--out-dir", str(tmp_path / "out")]) == 0
    assert "connectivity-critical: tf\n" in capsys.readouterr().out


@pytest.mark.parametrize("top", ["-3", "x"])
def test_ewtt_top_must_be_a_count(demo, tmp_path, capsys, top):
    with pytest.raises(SystemExit) as exc:
        main(["ewtt", str(demo), "--top", top, "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --top: expected 0 or more rows, not {top!r}" in err
    assert not (tmp_path / "ewtt.csv").exists()


#: sha256 of the demo town's model.lp at alpha 0.15, by extra flags
LP_SHA256 = {
    (): "75b4dfd49ec47c9b58748f05d1e4f7d863f7b991af80c53bb524e3ee8d62b8ce",
    ("--no-reduce", "--no-vis"):
        "965e768199286b348a21bd7a4f075af5186b8717371757cab973604d1c6c7498",
    ("--segment-coupling",):
        "c45d69cb5a556dd0206fc482fb2827274f84a18bc236938dff18bdc965469f14",
}


def test_export_lp_stable(demo, tmp_path, capsys):
    out = tmp_path / "lp"
    argv = ["export-lp", str(demo), "--alpha", "0.15", "--out-dir", str(out)]
    assert main(argv) == 0
    assert "constraints" in capsys.readouterr().out
    first = (out / "model.lp").read_bytes()
    assert main(argv) == 0
    assert (out / "model.lp").read_bytes() == first
    assert first.startswith(b"\\ floodmit")
    for flags, digest in LP_SHA256.items():
        assert main(argv + list(flags)) == 0
        assert hashlib.sha256((out / "model.lp").read_bytes()).hexdigest() \
            == digest, flags


def test_prune_command_table(demo, tmp_path, capsys):
    out = tmp_path / "pr"
    assert main(["prune", str(demo), "--alpha", "0.15",
                 "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "technique" in text and "rounds:" in text
    assert (out / "prunelog.json").exists()
