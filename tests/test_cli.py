import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from boundarylink import catalog, cli, seifert, smoves
from boundarylink import diagrams as dg

ROOT = Path(__file__).parent.parent


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name in ("hopf", "whitehead", "borromean", "unlink2", "beta",
                 "trefoil-matrix", "wh-double-matrix"):
        p = tmp_path / f"{name}.json"
        p.write_text(catalog.raw_payload(name))
        out[name] = str(p)
    out["tmp"] = tmp_path
    return out


def test_validate_ok(paths, capsys):
    assert cli.main(["validate", paths["wh-double-matrix"]]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_invalid_matrix(tmp_path, capsys):
    bad = seifert.SeifertMatrix(1, (2,), ((0, 2), (0, 0)))
    p = tmp_path / "bad.json"
    p.write_text(bad.to_json())
    assert cli.main(["validate", str(p)]) == 2
    assert "violation" in capsys.readouterr().out


def test_validate_bad_json_is_usage_error(tmp_path, capsys):
    p = tmp_path / "garbage.json"
    p.write_text("{nope")
    assert cli.main(["validate", str(p)]) == 64


def test_missing_file_is_usage_error(tmp_path):
    assert cli.main(["validate", str(tmp_path / "absent.json")]) == 64


def test_unknown_subcommand_is_usage_error():
    assert cli.main(["frobnicate"]) == 64


def test_reduce_found_writes_moves(paths, capsys):
    out = str(paths["tmp"] / "moves.json")
    assert cli.main(["reduce", paths["wh-double-matrix"], "--out", out]) == 0
    moves = json.loads((paths["tmp"] / "moves.json").read_text())
    assert all(mv["move"] == "reduce" for mv in moves)


def test_reduce_exhausted(paths):
    assert cli.main(["reduce", paths["trefoil-matrix"]]) == 2


def test_reduce_budget_inconclusive(paths):
    assert cli.main(["reduce", paths["wh-double-matrix"], "--budget", "1"]) == 1


def test_negative_budget_is_usage_error(paths, capsys):
    # a malformed argument is not a mathematical outcome; 0 stays a budget
    assert cli.main(["reduce", paths["wh-double-matrix"], "--budget", "-5"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert cli.main(["reduce", paths["wh-double-matrix"], "--budget", "0"]) == 1


def test_unexpected_exception_is_internal_error(paths, capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_validate", boom)
    assert cli.main(["validate", paths["wh-double-matrix"]]) == 70
    err = capsys.readouterr().err
    assert err == "error: internal error: RuntimeError: boom\n"


@pytest.mark.parametrize("argv, unbuffered, codes", [
    pytest.param(["catalog", "list"], False, {141}, id="buffered"),
    pytest.param(["catalog", "list"], True, {141}, id="unbuffered"),
    pytest.param(["--help"], False, {141}, id="help-buffered"),
    pytest.param(["--help"], True, {0, 141}, id="help-unbuffered"),
    pytest.param(["mu", "--help"], False, {141}, id="mu-help-buffered"),
    pytest.param(["mu", "--help"], True, {0, 141}, id="mu-help-unbuffered"),
])
def test_closed_stdout_ends_quietly(argv, unbuffered, codes):
    # the read end of the pipe is closed before the child writes: a
    # buffered stdout fails at the final flush, an unbuffered one at print.
    # Newer argparse drops the write error of unbuffered help text itself
    # (exit 0); older argparse raises it, and main ends with 141
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "boundarylink.cli", *argv],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(w)
    assert proc.returncode in codes
    assert proc.stderr == ""


def test_goodbasis(paths, capsys):
    assert cli.main(["goodbasis", paths["wh-double-matrix"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ordering"] == [0, 1]
    assert cli.main(["goodbasis", paths["trefoil-matrix"]]) == 2


def test_replay_and_normalize(paths, capsys):
    out = str(paths["tmp"] / "red.json")
    assert cli.main(["reduce", paths["wh-double-matrix"], "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["replay", paths["wh-double-matrix"], out]) == 0
    assert "replayed" in capsys.readouterr().out
    norm = str(paths["tmp"] / "norm.json")
    assert cli.main(["normalize", paths["wh-double-matrix"], out,
                     "--out", norm]) == 0


def test_replay_mismatched_moves_fails(paths, capsys):
    out = str(paths["tmp"] / "red.json")
    assert cli.main(["reduce", paths["wh-double-matrix"], "--out", out]) == 0
    capsys.readouterr()
    # the trefoil matrix does not carry the reduction pattern
    assert cli.main(["replay", paths["trefoil-matrix"], out]) == 2
    assert "replay failed" in capsys.readouterr().out


def test_mu(paths, capsys):
    assert cli.main(["mu", paths["hopf"], "--index", "12"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"index": [1, 2], "value": 1, "indeterminacy": 0}
    assert cli.main(["mu", paths["whitehead"], "--index", "1,1,2,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["value"]) == 1
    # the longitudes are exact for the index, so there is no depth to set
    assert cli.main(["mu", paths["whitehead"], "--index", "1,1,2,2",
                     "--depth", "4"]) == 64


def test_mu_bad_index_usage(paths):
    assert cli.main(["mu", paths["hopf"], "--index", "xy"]) == 64
    assert cli.main(["mu", paths["hopf"], "--index", "13"]) == 64


def test_ht(paths):
    assert cli.main(["ht", paths["whitehead"]]) == 0
    assert cli.main(["ht", paths["hopf"]]) == 2


def test_htplus(paths, capsys):
    assert cli.main(["htplus", paths["whitehead"], "--sublink", "1,2"]) == 0
    assert cli.main(["htplus", paths["hopf"], "--sublink", "1,2"]) == 2


def test_lbeta_certifies(paths, capsys):
    outdir = paths["tmp"] / "bundle"
    assert cli.main(["lbeta", paths["beta"], "--outdir", str(outdir)]) == 0
    cert = json.loads((outdir / "certificate.json").read_text())
    assert cert["verdict"] == "certified-freely-slice"
    assert (outdir / "matrix.json").exists()
    for name in ("a1", "a2", "b1", "b2"):
        assert (outdir / f"{name}.json").exists()


def test_lbeta_refuses_a_diagram_that_is_not_a_2_strand_string_link(
        paths, capsys):
    assert cli.main(["lbeta", paths["whitehead"]]) == 64
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {paths['whitehead']}: "
                   "beta must be a 2-strand string link\n")


def test_lbeta_on_a_linked_closure_is_a_negative_verdict(paths, capsys):
    p = paths["tmp"] / "linked.json"
    p.write_text(dg.braid(2, [1, 1]).to_json())
    assert cli.main(["lbeta", str(p)]) == 2
    assert capsys.readouterr() == (
        "closure of beta has linking number 1, not 0\n", "")


def test_certify_inconclusive_without_derived(paths, capsys):
    assert cli.main(["certify", paths["wh-double-matrix"]]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "inconclusive"


def test_certify_full_bundle(paths, capsys):
    outdir = paths["tmp"] / "bundle"
    assert cli.main(["lbeta", paths["beta"], "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    derived = [f"{n}={outdir}/{n}.json" for n in ("a1", "a2", "b1", "b2")]
    cert_path = str(paths["tmp"] / "cert.json")
    assert cli.main(["certify", str(outdir / "matrix.json"),
                     "--derived", *derived, "--out", cert_path]) == 0
    doc = json.loads((paths["tmp"] / "cert.json").read_text())
    assert doc["verdict"] == "certified-freely-slice"


def test_catalog_list_and_export(paths, capsys):
    assert cli.main(["catalog", "list"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert "whitehead" in names and "beta" in names
    out = str(paths["tmp"] / "export.json")
    assert cli.main(["catalog", "export", "hopf", "--out", out]) == 0
    assert json.loads((paths["tmp"] / "export.json").read_text())
    assert cli.main(["catalog", "export", "no-such-entry"]) == 64
    assert cli.main(["catalog", "export"]) == 64


def _malformed(tmp_path, kind):
    """argv of a blcert call on a malformed document of the given kind."""
    matrix = tmp_path / "matrix.json"
    matrix.write_text(catalog.raw_payload("wh-double-matrix"))
    doc = tmp_path / "doc.json"
    if kind == "components-list":
        d = json.loads(catalog.raw_payload("whitehead"))
        d["components"] = [[label, ss] for label, ss in d["components"].items()]
        doc.write_text(json.dumps(d))
        return ["ht", str(doc)]
    if kind == "moves-not-objects":
        doc.write_text("[1, 2]")
        return ["replay", str(matrix), str(doc)]
    if kind == "ragged-congruence":
        doc.write_text(json.dumps(
            [{"move": "congruence", "blocks": [[[1, 0], [0]]]}]))
        return ["replay", str(matrix), str(doc)]
    entry = json.loads(kind.split(":", 1)[1])
    doc.write_text(json.dumps(
        {"m": 1, "block_sizes": [2], "rows": [[0, entry], [0, 0]]}))
    return ["validate", str(doc)]


@pytest.mark.parametrize("kind", ["components-list", "moves-not-objects",
                                  "ragged-congruence", "entry:1.9",
                                  "entry:true", 'entry:"1"'])
def test_malformed_document_is_usage_error(tmp_path, kind):
    _assert_child_usage_error(_malformed(tmp_path, kind))


def _assert_child_usage_error(argv, prefix="error: "):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "boundarylink.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 64, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(prefix)


@pytest.mark.parametrize("sublink", [",", "", "1,1"])
def test_htplus_refuses_empty_or_repeated_sublink(paths, sublink):
    _assert_child_usage_error(
        ["htplus", paths["whitehead"], "--sublink", sublink])


def test_removed_front_only_flag_is_usage_error(paths):
    _assert_child_usage_error(
        ["reduce", paths["wh-double-matrix"], "--front-only"],
        prefix="usage: blcert")


@pytest.mark.parametrize("command", ["catalog", "reduce", "normalize",
                                     "certify", "lbeta"])
def test_unwritable_output_is_usage_error(paths, command):
    tmp = paths["tmp"]
    matrix = paths["wh-double-matrix"]
    nodir = tmp / "nodir"
    if command == "catalog":
        argv = ["catalog", "export", "beta", "--out", str(nodir / "x.json")]
    elif command == "reduce":
        argv = ["reduce", matrix, "--out", str(nodir / "m.json")]
    elif command == "normalize":
        assert cli.main(["reduce", matrix, "--out", str(tmp / "red.json")]) == 0
        argv = ["normalize", matrix, str(tmp / "red.json"),
                "--out", str(nodir / "n.json")]
    elif command == "certify":
        argv = ["certify", matrix, "--out", str(nodir / "c.json")]
    else:
        (tmp / "afile").write_text("")
        argv = ["lbeta", paths["beta"], "--outdir", str(tmp / "afile" / "sub")]
    _assert_child_usage_error(argv)


def test_non_integer_move_entries_are_refused():
    for doc in ('[{"move": "reduce", "k": 0.0, "offset": 0}]',
                '[{"move": "reduce", "k": 0, "offset": 0, "swapped": 1}]',
                '[{"move": "congruence", "blocks": [[[1, 0], [0, true]]]}]',
                '[{"move": "enlarge", "k": 0, "eps": [1, 0], "rows": [["1"]]}]'):
        with pytest.raises(seifert.StructureError):
            smoves.moves_from_json(doc)


_LOADED = """
import json, sys
from boundarylink import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": sorted(
    m for m in sys.modules if m.split(".")[0] == "boundarylink"),
    "fractions": "fractions" in sys.modules,
    "hashlib": "hashlib" in sys.modules, "loaded": sorted(sys.modules)}))
"""


def _loaded_by(argv):
    """What a fresh interpreter has imported after one cli.main call."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_subcommands_import_only_what_they_run(paths):
    doc = _loaded_by(["validate", paths["wh-double-matrix"]])
    assert doc["code"] == 0
    assert doc["modules"] == ["boundarylink", "boundarylink.cli",
                              "boundarylink.intmat", "boundarylink.seifert"]
    assert not doc["fractions"] and not doc["hashlib"]
    doc = _loaded_by(["ht", paths["whitehead"]])
    assert doc["code"] == 0
    assert "boundarylink.smoves" not in doc["modules"]
    assert "boundarylink.catalog" not in doc["modules"]


@pytest.mark.parametrize("argv, code, absent", [
    (["validate", "wh-double-matrix"], 0, ["dataclasses"]),
    (["catalog", "list"], 0, ["dataclasses", "boundarylink.diagrams"]),
    (["ht", "absent"], 64, ["dataclasses", "boundarylink.milnor"]),
    (["lbeta", "beta"], 0, ["dataclasses"]),
], ids=["validate", "catalog-list", "ht-missing-file", "lbeta"])
def test_child_loads_only_what_it_runs(paths, argv, code, absent):
    paths["absent"] = str(paths["tmp"] / "absent.json")
    doc = _loaded_by([paths.get(a, a) for a in argv])
    assert doc["code"] == code
    assert [m for m in absent if m in doc["loaded"]] == []
