"""Answers pinned by scripts/write_golden.py before the lattice code changed."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from ipd.cli import main
from ipd.connection import point_str
from ipd.corpus import connection_corpus
from ipd.derham import h1_basis

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLES = sorted((ROOT / "connections").glob("*.json"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_analyze_report_is_byte_identical(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["analyze", str(path)])
    assert buf.getvalue() == (GOLDEN / path.name).read_text()


def test_corpus_table_reproduced():
    table = json.loads((GOLDEN / "corpus24_seed0.json").read_text())
    got = {}
    for c in connection_corpus(24, 0):
        b = h1_basis(c)
        got[c.label] = {
            "h0": b.h0_dim,
            "h1": b.h1_dim,
            "basis": [str(f) for f in b.basis],
            "section_bounds": [[point_str(p), n] for p, n in b.section_bounds],
        }
    assert got == table
