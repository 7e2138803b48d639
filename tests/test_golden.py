"""Byte-for-byte pins of user-visible output.

The files under tests/data/ were written by the package before the
good-basis check became a greedy peel; refactors must leave these outputs
unchanged.  Regenerate them only for a deliberate, documented change.
"""

import os
import subprocess
import sys
from pathlib import Path

from boundarylink import catalog, cli

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent


def test_reproduce_examples_stdout():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_examples.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (DATA / "reproduce_examples.stdout").read_text()


def test_lbeta_outdir_files(tmp_path):
    beta = tmp_path / "beta.json"
    beta.write_text(catalog.raw_payload("beta"))
    out = tmp_path / "out"
    assert cli.main(["lbeta", str(beta), "--outdir", str(out)]) == 0
    expected = DATA / "lbeta-beta"
    assert sorted(p.name for p in out.iterdir()) == \
        sorted(p.name for p in expected.iterdir())
    for p in expected.iterdir():
        assert (out / p.name).read_bytes() == p.read_bytes(), p.name


def test_goodbasis_wh_double_matrix_stdout(tmp_path, capsys):
    path = tmp_path / "wh-double-matrix.json"
    path.write_text(catalog.raw_payload("wh-double-matrix"))
    assert cli.main(["goodbasis", str(path)]) == 0
    assert capsys.readouterr().out == \
        (DATA / "goodbasis-wh-double-matrix.stdout").read_text()
