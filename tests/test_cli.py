import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import liegroup_index as li
from liegroup_index import cli
from liegroup_index.cli import canonical_json, main


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def winding_config(k=1, cutoffs=(8, 16)):
    return {
        "group": {"kind": "torus", "n": 1},
        "operator": {"op": "winding", "k": k},
        "cutoffs": list(cutoffs),
        "gammas": [0.1, 1.0, 10.0],
    }


def test_cli_import_needs_numpy_only():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import sys, liegroup_index.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert out.stdout.strip() == "False"


def test_canonical_json_formatting():
    text = canonical_json({"b": 1.5, "a": [True, None, float("nan")]})
    assert text == '{"a":[true,null,"nan"],"b":1.5000000000000000e+00}\n'


def test_index_winding(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", winding_config())
    code = main(["index", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["verdict"] == "stable"
    assert {row["kernel_count"] for row in report["rows"]} == {-1}
    assert report["density_vs_kernel_discrepancy"] is True
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert report["manifest_hash"] == manifest["manifest_hash"]
    csv_text = (tmp_path / "out" / "tables" / "index_report.csv").read_text()
    assert manifest["manifest_hash"] in csv_text


def test_index_invariant_multiplier(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "group": {"kind": "su2"},
        "operator": {"op": "multiplier", "formula": "heat"},
        "cutoffs": [2, 4],
        "gammas": [1.0],
    })
    code = main(["index", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for row in report["rows"]:
        assert row["kernel_count"] == 0
        assert abs(row["heat_trace"]) <= 1e-8
        assert abs(row["density_route"]) <= 1e-10


def test_index_reduced_laplacian_plus_one(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "group": {"kind": "torus", "n": 2},
        "operator": {"op": "multiplier", "formula": "laplacian_plus_one"},
        "cutoffs": [2, 3],
        "gammas": [0.5],
        "reduce_order": True,
    })
    assert main(["index", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(row["kernel_count"] == 0 for row in report["rows"])


def test_index_malformed_tree(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {
        "group": {"kind": "torus", "n": 1},
        "operator": {"op": "sum", "terms": [{"op": "winding"}]},
        "cutoffs": [4],
        "gammas": [1.0],
    })
    assert main(["index", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "config.operator.terms[0].k" in err


def test_index_validation_messages(tmp_path, capsys):
    base = winding_config()
    for patch, fragment in [
        ({"cutoffs": [8, 8]}, "config.cutoffs"),
        ({"gammas": [0.0]}, "config.gammas"),
        ({"group": {"kind": "so3"}}, "config.group.kind"),
        ({"rel_tol": 2.0}, "config.rel_tol"),
    ]:
        cfg_dict = dict(base, **patch)
        cfg = write_config(tmp_path, "bad.json", cfg_dict)
        assert main(["index", "--config", cfg]) == 1
        assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("patch,fragment", [
    ({"cutoffs": [True, 4]}, "config.cutoffs"),
    ({"gammas": [True]}, "config.gammas"),
    ({"quadrature_level": True}, "config.quadrature_level"),
    ({"quadrature_level": 0}, "config.quadrature_level"),
    ({"group": {"kind": "torus", "n": True}}, "config.group.n"),
    # operator-tree integers and real fields
    ({"operator": {"op": "winding", "k": True}}, "config.operator.k"),
    ({"operator": {"op": "pointwise", "coefficients": [{"freq": [True], "re": 1.0}]}},
     "config.operator.coefficients[0].freq"),
    ({"group": {"kind": "su2"}, "operator": {"op": "pointwise", "entries": [
        {"twice_spin": True, "re": 1.0}]}}, "config.operator.entries[0].twice_spin"),
    ({"group": {"kind": "su2"}, "operator": {"op": "pointwise", "entries": [
        {"twice_spin": 1, "i": 0.5, "re": 1.0}]}}, "config.operator.entries[0].i"),
    ({"group": {"kind": "su2"}, "operator": {"op": "pointwise", "entries": [
        {"twice_spin": 1, "i": "a", "re": 1.0}]}}, "config.operator.entries[0].i"),
    ({"operator": {"op": "multiplier", "table": [{"label": [True], "re": 1.0}]}},
     "config.operator.table[0].label"),
    ({"operator": {"op": "pointwise", "coefficients": [{"freq": [0], "re": True}]}},
     "config.operator.coefficients[0].re"),
    ({"operator": {"op": "multiplier", "formula": "weight_power", "s": True}},
     "config.operator.s"),
    # a JSON string is not a number or a flag either
    ({"operator": {"op": "pointwise", "coefficients": [{"freq": [0], "re": "1.5"}]}},
     "config.operator.coefficients[0].re"),
    ({"reduce_order": "no"}, "config.reduce_order"),
])
def test_index_rejects_booleans_and_bad_levels(tmp_path, capsys, patch, fragment):
    cfg = write_config(tmp_path, "bad.json", dict(winding_config(), **patch))
    assert main(["index", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gammas", [[math.inf], [math.nan], [1.0, -math.inf],
                                    [10 ** 400]])
def test_index_rejects_non_finite_gammas(tmp_path, capsys, gammas):
    # a T^1 table multiplier with a zero entry: at gamma = inf its heat
    # trace is NaN, and a NaN passes the heat tolerance check
    table = [{"label": [l], "re": 0.0 if l == 0 else 1.0} for l in range(-2, 3)]
    cfg = write_config(tmp_path, "bad.json", {
        "group": {"kind": "torus", "n": 1},
        "operator": {"op": "multiplier", "table": table},
        "cutoffs": [1, 2], "gammas": gammas})
    assert main(["index", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "config.gammas" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _torus_pointwise(value):
    return {"op": "pointwise", "coefficients": [
        {"freq": [0], "re": 2.0}, {"freq": [1], "re": 0.5, "im": value}]}


def _su2_entry(value):
    return {"op": "pointwise", "entries": [
        {"twice_spin": 0, "re": 2.0}, {"twice_spin": 1, "i": 0, "j": 1, "re": value}]}


def _table_value(value):
    return {"op": "multiplier", "table": [
        {"label": [0], "re": 1.0}, {"label": [1], "re": [[value]]}]}


def _weight_power(value):
    return {"op": "multiplier", "formula": "weight_power", "s": value}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("group,operator,path", [
    ({"kind": "torus", "n": 1}, _torus_pointwise, "config.operator.coefficients[1].im"),
    ({"kind": "su2"}, _su2_entry, "config.operator.entries[1].re"),
    ({"kind": "torus", "n": 1}, _table_value, "config.operator.table[1].re"),
    ({"kind": "su2"}, _weight_power, "config.operator.s"),
], ids=["torus-pointwise", "su2-entry", "table", "weight-power"])
def test_index_rejects_non_finite_operator_numbers(tmp_path, capsys, value, group,
                                                   operator, path):
    # json.loads accepts NaN and Infinity; they used to reach the SVD
    cfg = write_config(tmp_path, "bad.json", {
        "group": group, "operator": operator(value), "cutoffs": [2, 4]})
    text = (tmp_path / "bad.json").read_text()
    assert "NaN" in text or "Infinity" in text
    assert main(["index", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"{path}: must be finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("group", [{"kind": "torus", "n": 1}, {"kind": "su2"}])
@pytest.mark.parametrize("patch,fragment", [
    ({"quadrature_level": 2.5}, "config.quadrature_level"),
    ({"quadrature_level": 0}, "config.quadrature_level"),
    ({"quadrature_level": "x"}, "config.quadrature_level"),
    ({"quadrature_level": True}, "config.quadrature_level"),
    ({"band": True}, "config.band"),
])
def test_check_validates_level_and_band(tmp_path, capsys, group, patch, fragment):
    cfg = write_config(tmp_path, "bad.json", dict({"group": group}, **patch))
    assert main(["check", "--config", cfg, "--which", "quadrature",
                 "--out", str(tmp_path / "out")]) == 1
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_index_invalid_json_reports_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "group": [,]\n}')
    assert main(["index", "--config", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_reports_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", winding_config(k=2, cutoffs=(4, 8)))
    main(["index", "--config", cfg, "--out", str(tmp_path / "o1")])
    main(["index", "--config", cfg, "--out", str(tmp_path / "o2")])
    assert ((tmp_path / "o1" / "report.json").read_bytes()
            == (tmp_path / "o2" / "report.json").read_bytes())


@pytest.mark.parametrize("which,group", [
    ("plancherel", {"kind": "torus", "n": 1}),
    ("plancherel", {"kind": "torus", "n": 2}),
    ("plancherel", {"kind": "su2"}),
    ("schur", {"kind": "su2"}),
    ("schur", {"kind": "torus", "n": 1}),
    ("trace", {"kind": "torus", "n": 1}),
    ("trace", {"kind": "su2"}),
    ("quadrature", {"kind": "su2"}),
])
def test_check_suites_pass(tmp_path, which, group):
    cfg = write_config(tmp_path, "cfg.json", {"group": group})
    code = main(["check", "--config", cfg, "--which", which,
                 "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is True
    assert (tmp_path / "out" / "tables" / f"check_{which}.csv").exists()


def test_check_schur_reports_one_row(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {"group": {"kind": "su2"}, "band": 8})
    assert main(["check", "--config", cfg, "--which", "schur",
                 "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert [r["name"] for r in rows] == ["schur_band_8_level_8"]
    assert rows[0]["error"] <= 1e-13


def test_check_schur_fails_under_resolved(tmp_path, capsys):
    # level 4 does not resolve the products of band-8 entries: the Gram
    # blocks are off the identity by about 1.59
    cfg = write_config(tmp_path, "cfg.json", {"group": {"kind": "su2"}, "band": 8,
                                              "quadrature_level": 4})
    assert main(["check", "--config", cfg, "--which", "schur",
                 "--out", str(tmp_path / "out")]) == 2
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["pass"] is False
    [row] = report["rows"]
    assert row["name"] == "schur_band_8_level_4" and row["pass"] is False
    assert row["error"] == pytest.approx(1.59, abs=0.01)
    assert "FAIL schur_band_8_level_4" in capsys.readouterr().out


def test_check_schur_builds_no_dense_gram():
    # a dense complex Gram matrix of the band-16 basis alone takes
    # basis.size**2 * 16 bytes (48.6 MiB); the check keeps one block per mode
    size = li.basis_for_band(li.SU2, 16).size
    tracemalloc.start()
    try:
        rows = li.cli._check_rows_schur({}, li.SU2, 16, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[0]["error"] <= rows[0]["tolerance"]
    assert peak < size ** 2 * 16


def test_check_plancherel_memory_bound():
    # the memoized band-16 planes take 8.3 MiB; the ladder's top degree is
    # the last of them, not a second copy
    tracemalloc.start()
    try:
        rows = li.cli._check_rows_plancherel({}, li.SU2, 16, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(row["error"] <= row["tolerance"] for row in rows)
    assert peak < 14 * 2 ** 20


def test_check_su3_quadrature_level_six(tmp_path):
    # no level override: defaults to the capped level 6
    cfg = write_config(tmp_path, "cfg.json", {"group": {"kind": "su3"}})
    assert main(["check", "--config", cfg, "--which", "quadrature",
                 "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    mass_row = next(r for r in report["rows"] if r["name"].startswith("mass"))
    assert mass_row["name"] == "mass_level_6"
    assert mass_row["error"] <= 1e-6


def test_check_su3_quadrature_rejects_levels_above_the_cap(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", {"group": {"kind": "su3"},
                                              "quadrature_level": 9})
    assert main(["check", "--config", cfg, "--which", "quadrature",
                 "--out", str(tmp_path / "out")]) == 1
    assert "config.quadrature_level" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["index"]] + [
    ["check", "--which", which]
    for which in ("plancherel", "schur", "ellipticity", "trace")])
def test_su3_is_refused_before_the_operator_is_read(tmp_path, capsys, command):
    # the operator is malformed too: the group is what the error names
    cfg = write_config(tmp_path, "cfg.json", {
        "group": {"kind": "su3"}, "operator": {"op": "bogus"}, "cutoffs": [2]})
    assert main(command + ["--config", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config.group:" in err and "config.operator" not in err
    assert not (tmp_path / "out").exists()


def test_check_su3_quadrature_builds_no_rule(tmp_path, monkeypatch):
    # the mass check sums the rule's own weights; the 6^8 x 8 charts of the
    # SU(3) level-6 rule are never built
    def no_rule(*args, **kwargs):
        raise AssertionError("haar_quadrature called")

    monkeypatch.setattr(li.cli, "haar_quadrature", no_rule)
    cfg = write_config(tmp_path, "cfg.json", {"group": {"kind": "su3"}})
    assert main(["check", "--config", cfg, "--which", "quadrature",
                 "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [r["name"] for r in report["rows"]] == ["mass_level_6"]
    assert report["rows"][0]["pass"]


def test_check_ellipticity_pass_and_fail(tmp_path, capsys):
    good = write_config(tmp_path, "good.json", {
        "group": {"kind": "torus", "n": 1},
        "operator": {"op": "multiplier", "formula": "weight_power", "s": 2},
    })
    assert main(["check", "--config", good, "--which", "ellipticity",
                 "--out", str(tmp_path / "out")]) == 0
    bad = write_config(tmp_path, "bad.json", {
        "group": {"kind": "torus", "n": 1},
        "operator": {"op": "pointwise", "coefficients": [
            {"freq": [1], "im": -0.5}, {"freq": [-1], "im": 0.5}]},
    })
    code = main(["check", "--config", bad, "--which", "ellipticity",
                 "--out", str(tmp_path / "out2")])
    assert code == 2
    report = json.loads((tmp_path / "out2" / "report.json").read_text())
    sites = [row for row in report["rows"] if row["name"] == "non_invertible_site"]
    assert sites and sites[0]["site"]["chart"] == [0.0]


def test_cache_lifecycle(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    assert main(["cache", "--dir", str(cache_dir), "--action", "list"]) == 0
    assert "0 entries" in capsys.readouterr().out

    cfg = write_config(tmp_path, "cfg.json",
                       dict(winding_config(cutoffs=(4, 8)),
                            cache_dir=str(cache_dir)))
    main(["index", "--config", cfg, "--out", str(tmp_path / "out")])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["cache"]["misses"] > 0

    main(["index", "--config", cfg, "--out", str(tmp_path / "out2")])
    manifest2 = json.loads((tmp_path / "out2" / "manifest.json").read_text())
    assert manifest2["cache"]["hits"] > 0

    assert main(["cache", "--dir", str(cache_dir), "--action", "verify"]) == 0
    capsys.readouterr()

    entries = sorted(cache_dir.glob("*.lgidx"))
    blob = bytearray(entries[0].read_bytes())
    blob[-3] ^= 0x01
    entries[0].write_bytes(bytes(blob))
    assert main(["cache", "--dir", str(cache_dir), "--action", "verify"]) == 2
    out = capsys.readouterr().out
    assert "CORRUPT" in out and entries[0].name in out

    assert main(["cache", "--dir", str(cache_dir), "--action", "purge"]) == 0
    assert main(["cache", "--dir", str(cache_dir), "--action", "list"]) == 0
    assert "0 entries" in capsys.readouterr().out.split("\n")[-2]


@pytest.mark.parametrize("keep", [6, 8 + 10])
def test_cache_verify_truncated_entry(tmp_path, capsys, keep):
    # 6 bytes: inside the header length; 18 bytes: partway through the header
    cache_dir = tmp_path / "cache"
    cfg = write_config(tmp_path, "cfg.json",
                       dict(winding_config(cutoffs=(4, 8)),
                            cache_dir=str(cache_dir)))
    main(["index", "--config", cfg, "--out", str(tmp_path / "out")])
    entries = sorted(cache_dir.glob("*.lgidx"))
    entries[0].write_bytes(entries[0].read_bytes()[:keep])
    capsys.readouterr()
    assert main(["cache", "--dir", str(cache_dir), "--action", "verify"]) == 2
    out = capsys.readouterr().out
    assert f"CORRUPT {entries[0].name}" in out
    assert f"{len(entries)} entries, 1 corrupt" in out
    assert main(["cache", "--dir", str(cache_dir), "--action", "list"]) == 0
    assert "UNREADABLE" in capsys.readouterr().out

    assert main(["index", "--config", cfg, "--out", str(tmp_path / "out2")]) == 0
    manifest = json.loads((tmp_path / "out2" / "manifest.json").read_text())
    assert manifest["cache"] == {"hits": len(entries) - 1, "misses": 1}


def test_cache_keeps_tables_with_equal_labels_apart(tmp_path):
    # same labels, different matrices: the second table is singular at two
    # labels, so its truncations have ker = coker = 2
    cache_dir = str(tmp_path / "cache")

    def table_config(zero_labels):
        table = [{"label": [l], "re": 0.0 if l in zero_labels else 1.0}
                 for l in range(-2, 3)]
        return {"group": {"kind": "torus", "n": 1},
                "operator": {"op": "multiplier", "table": table},
                "cutoffs": [1, 2], "gammas": [1.0], "cache_dir": cache_dir}

    for name, zeros, dims in (("a", (), 0), ("b", (0, 1), 2)):
        cfg = write_config(tmp_path, f"{name}.json", table_config(zeros))
        assert main(["index", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        report = json.loads((tmp_path / name / "report.json").read_text())
        assert {(row["ker_dim"], row["coker_dim"]) for row in report["rows"]} == {
            (dims, dims)}


def test_cache_env_override(tmp_path, monkeypatch):
    env_dir = tmp_path / "envcache"
    env_dir.mkdir()
    monkeypatch.setenv("LIEGROUP_INDEX_CACHE", str(env_dir))
    cfg = write_config(tmp_path, "cfg.json", winding_config(cutoffs=(4, 8)))
    main(["index", "--config", cfg, "--out", str(tmp_path / "out")])
    assert list(env_dir.glob("*.lgidx"))


def test_cache_missing_dir(tmp_path, capsys):
    assert main(["cache", "--dir", str(tmp_path / "nope"),
                 "--action", "list"]) == 1


def test_unwritable_cache_dir_fails_before_assembly(tmp_path, capsys, monkeypatch):
    # a cache directory below a regular file cannot be made: the index
    # command names it and exits 1 before anything is assembled
    calls, assemble = [], li.galerkin.assemble
    monkeypatch.setattr(li.galerkin, "assemble",
                        lambda *args: calls.append(args) or assemble(*args))
    monkeypatch.delenv("LIEGROUP_INDEX_CACHE", raising=False)
    (tmp_path / "blocker").write_text("")
    cache_dir = str(tmp_path / "blocker" / "cache")
    cfg = write_config(tmp_path, "cfg.json", dict(winding_config(), cache_dir=cache_dir))
    out = tmp_path / "out"
    assert main(["index", "--config", cfg, "--out", str(out)]) == 1
    assert cache_dir in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert calls == []


@pytest.mark.parametrize("key, value", [("out_dir", 5), ("cache_dir", True),
                                        ("out_dir", ["out"]), ("cache_dir", 1.5)])
@pytest.mark.parametrize("command", [["index"], ["check", "--which", "schur"]],
                         ids=["index", "check"])
def test_out_dir_and_cache_dir_are_judged_first(tmp_path, capsys, monkeypatch,
                                                command, key, value):
    # before any sweep or check runs and any output is written, also when
    # --out and the environment override the config
    def refuse(*args, **kwargs):
        raise AssertionError("ran before the config was judged")

    monkeypatch.setattr(cli, "stabilization_sweep", refuse)
    monkeypatch.setitem(cli.CHECKS, "schur", refuse)
    monkeypatch.setenv("LIEGROUP_INDEX_CACHE", str(tmp_path / "envcache"))
    cfg = write_config(tmp_path, "cfg.json", dict(winding_config(), **{key: value}))
    out = tmp_path / "out"
    assert main(command[:1] + ["--config", cfg, "--out", str(out)] + command[1:]) == 1
    assert f"config.{key}" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "envcache").exists()


@pytest.mark.parametrize("empty", ["", None])
def test_empty_out_dir_and_cache_dir_keep_the_defaults(tmp_path, monkeypatch, empty):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LIEGROUP_INDEX_CACHE", raising=False)
    cfg = write_config(tmp_path, "cfg.json", dict(winding_config(cutoffs=(4, 8)),
                                                  out_dir=empty, cache_dir=empty))
    assert main(["index", "--config", cfg]) == 0
    manifest = json.loads((tmp_path / "liegroup-index-out" / "manifest.json").read_text())
    assert manifest["cache"] == {"hits": 0, "misses": 0}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "liegroup-index-out"]


def _index_tables(tmp_path, operator, cutoffs=(1, 2)):
    cfg = write_config(tmp_path, "cfg.json", {
        "group": {"kind": "torus", "n": 1}, "operator": operator,
        "cutoffs": list(cutoffs), "gammas": [0.5, 2.0],
        "cache_dir": str(tmp_path / "cache")})
    assert main(["index", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    csv = (tmp_path / "out" / "tables" / "index_report.csv").read_text()
    return manifest["manifest_hash"], csv


def test_index_csv_bytes_of_an_exact_sweep(tmp_path):
    # the identity on T^1: every cell is exact, the gap is inf, marginal False
    mhash, csv = _index_tables(tmp_path, {"op": "multiplier", "formula": "identity"})
    zero = "0.0000000000000000e+00"
    assert csv == "".join(
        [f"# manifest {mhash}\n",
         "cutoff,gamma,heat_trace,kernel_count,density_route,ker_dim,coker_dim,"
         "sv_gap,marginal\n"]
        + [f"{n},{g},{zero},0,{zero},0,0,inf,False\n" for n in (1, 2)
           for g in ("5.0000000000000000e-01", "2.0000000000000000e+00")])


def test_index_csv_nan_density_token(tmp_path):
    # winding(-2): the density route is undefined, recorded as nan
    _, csv = _index_tables(tmp_path, {"op": "winding", "k": -2}, (4, 8))
    rows = csv.splitlines()[2:]
    assert rows == [f"{n},{g},2.0000000000000000e+00,2,nan,2,0,inf,False"
                    for n in (4, 8)
                    for g in ("5.0000000000000000e-01", "2.0000000000000000e+00")]


def test_cache_entry_name_and_bytes_of_an_exact_operator(tmp_path):
    # the identity's one sweep entry: the band-2 basis on both sides, no level
    _index_tables(tmp_path, {"op": "multiplier", "formula": "identity"})
    basis = {"group": {"kind": "torus", "n": 1},
             "labels": [[0], [-1], [1], [-2], [2]]}
    lookup = {"codomain": basis, "domain": basis, "format": li.galerkin.CACHE_FORMAT,
              "level": None, "symbol": {"formula": "identity", "op": "multiplier"},
              "version": li.__version__}
    key = hashlib.sha256(json.dumps(lookup, sort_keys=True).encode()).hexdigest()
    payload = np.eye(5, dtype="<c16").tobytes(order="F")
    header = json.dumps(dict(lookup, shape=[5, 5],
                             payload_sha256=hashlib.sha256(payload).hexdigest()),
                        sort_keys=True).encode()
    (entry,) = (tmp_path / "cache").iterdir()
    assert entry.name == f"{key}.lgidx"
    assert entry.read_bytes() == (b"LGIX" + len(header).to_bytes(4, "little")
                                  + header + payload)


def test_su2_pointwise_operator_tree(rng):
    tree = {"op": "pointwise", "entries": [
        {"twice_spin": 0, "i": 0, "j": 0, "re": 1.0},
        {"twice_spin": 1, "i": 0, "j": 1, "re": 0.25, "im": -0.1},
    ]}
    op = li.parse_operator(tree, li.SU2)
    assert op.symbol.order == 0.0 and op.symbol.x_bandwidth == 1
    rule = li.haar_quadrature(li.SU2, 4)
    labels = li.labels_for_band(li.SU2, 2)
    reps = li.rep_matrices_on_rule(li.su2_label(2), rule)
    f = li.SampledFunction(rule, reps[:, 1, 1])
    fhat = li.fourier_forward(f, labels)
    c_vals = (np.ones(rule.n_nodes)
              + (0.25 - 0.1j) * li.rep_matrices_on_rule(li.su2_label(1), rule)[:, 0, 1])
    got = li.quantize_on_rule(op.symbol, fhat, rule)
    np.testing.assert_allclose(got, c_vals * f.values, atol=1e-10)
    adj = op.adjoint_symbol.evaluate_on_rule(rule, li.su2_label(1))
    np.testing.assert_allclose(adj[:, 0, 0], np.conj(c_vals), atol=1e-12)


def test_index_product_tree(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", {
        "group": {"kind": "torus", "n": 1},
        "operator": {"op": "product", "factors": [
            {"op": "multiplier", "formula": "identity"},
            {"op": "winding", "k": 1},
        ]},
        "cutoffs": [6, 12],
        "gammas": [1.0],
    })
    assert main(["index", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {row["kernel_count"] for row in report["rows"]} == {-1}


def test_index_sum_tree(tmp_path):
    # 2x the winding operator has the same kernel structure, index -1
    cfg = write_config(tmp_path, "cfg.json", {
        "group": {"kind": "torus", "n": 1},
        "operator": {"op": "sum", "terms": [
            {"op": "winding", "k": 1}, {"op": "winding", "k": 1},
        ]},
        "cutoffs": [6, 12],
        "gammas": [1.0],
    })
    assert main(["index", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {row["kernel_count"] for row in report["rows"]} == {-1}


def test_benchmark_tracer_targets_resolve_and_restore(tmp_path):
    # the benchmark's tracer wraps functions by name in every package module;
    # a renamed or deleted target would only surface in a traced benchmark run
    import importlib.util
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "liegroup_index" or name.startswith("liegroup_index.")}
    before = {(name, key): value for name, mod in modules.items()
              for key, value in vars(mod).items()}
    classes = {(module, cls): dict(vars(getattr(modules[f"liegroup_index.{module}"], cls)))
               for module, cls, _, _, _ in tracing.TARGETS if cls is not None}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = write_config(tmp_path, "cfg.json", winding_config(k=1, cutoffs=(4, 8)))
        assert main(["index", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    for name in ("galerkin.assemble", "symbols.evaluate_on_rule",
                 "index_engine.stabilization_sweep"):
        assert spans.get(name, {"calls": 0})["calls"] > 0, name
    # one decomposition per route per cutoff, whatever the number of gammas
    for name in ("index_engine.heat_trace_index",
                 "index_engine.density_route_index"):
        assert spans[name]["calls"] == 2, name
    after = {(name, key): value for name, mod in modules.items()
             for key, value in vars(mod).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    for (module, cls), attrs in classes.items():
        owner = getattr(modules[f"liegroup_index.{module}"], cls)
        assert all(vars(owner)[attr] is value for attr, value in attrs.items())


def test_check_schur_circle_band_128_exact_roots(tmp_path):
    # torus characters from the reduced integer phase are exact roots of
    # unity; exp(2 pi i x l) drifts by 1e-13 at l = 128 on this rule
    cfg = write_config(tmp_path, "cfg.json", {"group": {"kind": "torus", "n": 1},
                                              "band": 128})
    assert main(["check", "--config", cfg, "--which", "schur",
                 "--out", str(tmp_path / "out")]) == 0
    rows = json.loads((tmp_path / "out" / "report.json").read_text())["rows"]
    assert rows[0]["name"] == "schur_band_128_level_257"
    assert rows[0]["error"] <= 1e-14


def test_canonical_json_writes_every_non_finite_float_as_its_string():
    values = [math.inf, -math.inf, math.nan, np.float64(-math.inf), np.float32(math.nan)]
    assert canonical_json(values) == '["inf","-inf","nan","-inf","nan"]\n'


# every multiplier and pointwise node takes sigma^* as its adjoint's symbol
SIGMA_STAR_ADJOINTS = {
    "identity": (li.torus(1), {"op": "multiplier", "formula": "identity"}),
    "heat": (li.SU2, {"op": "multiplier", "formula": "heat"}),
    "laplacian_plus_one": (li.torus(2), {"op": "multiplier",
                                         "formula": "laplacian_plus_one"}),
    "weight_power": (li.SU2, {"op": "multiplier", "formula": "weight_power",
                              "s": -1.5}),
    "table-T1": (li.torus(1), {"op": "multiplier", "order": 1.0, "table": [
        {"label": [l], "re": 1.0 + l, "im": 0.5 * l - 0.25} for l in range(-2, 3)]}),
    "pointwise-T2": (li.torus(2), {"op": "pointwise", "coefficients": [
        {"freq": [0, 0], "re": 2.0}, {"freq": [1, -1], "re": 0.3, "im": 0.4}]}),
    "pointwise-SU2": (li.SU2, {"op": "pointwise", "entries": [
        {"twice_spin": 0, "re": 1.0},
        {"twice_spin": 1, "i": 0, "j": 1, "re": 0.25, "im": -0.1}]}),
}


@pytest.mark.parametrize("group, tree", SIGMA_STAR_ADJOINTS.values(),
                         ids=list(SIGMA_STAR_ADJOINTS))
def test_multipliers_and_pointwise_nodes_take_sigma_star_as_adjoint(group, tree):
    op = li.parse_operator(tree, group)
    assert op.adjoint_symbol.describe == {"kind": "conjugate_transpose",
                                          "of": op.symbol.describe}
    rule = li.haar_quadrature(group, 4)
    for xi in li.labels_for_band(group, 2):
        sigma = op.symbol.evaluate_on_rule(rule, xi)
        np.testing.assert_array_equal(op.adjoint_symbol.evaluate_on_rule(rule, xi),
                                      sigma.conj().transpose(0, 2, 1))


def test_winding_sums_and_products_keep_their_own_adjoints(t1):
    winding = {"op": "winding", "k": 2}
    c = {"op": "pointwise", "coefficients": [{"freq": [1], "re": 0.5, "im": 0.1}]}
    identity = {"op": "multiplier", "formula": "identity"}
    w_adj = {"kind": "winding_adjoint", "k": 2}
    c_adj, i_adj = ({"kind": "conjugate_transpose",
                     "of": li.parse_operator(t, t1).symbol.describe}
                    for t in (c, identity))
    assert li.parse_operator(winding, t1).adjoint_symbol.describe == w_adj
    total = li.parse_operator({"op": "sum", "terms": [winding, c]}, t1)
    assert total.adjoint_symbol.describe == {"kind": "sum", "terms": [w_adj, c_adj]}
    # (W C I)^* takes the factors' adjoints in reverse order: (I^* C^*) W^*
    prod = li.parse_operator({"op": "product", "factors": [winding, c, identity]}, t1)
    assert prod.adjoint_symbol.describe == {"kind": "product", "factors": [
        {"kind": "product", "factors": [i_adj, c_adj]}, w_adj]}
