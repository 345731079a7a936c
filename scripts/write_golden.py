#!/usr/bin/env python3
"""Write the golden answers that tests/test_golden.py compares against.

- tests/golden/<name>.json: the `ipd analyze` output for each
  connections/<name>.json, byte for byte;
- tests/golden/corpus24_seed0.json: (h0, h1, basis, section bounds) of
  h1_basis on connection_corpus(24, 0).

Takes the package from src/ of the checkout it lives in, or from the
directory given as the first argument, so that the answers of an earlier
version can be pinned before a change to the lattice code.
"""

import contextlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else str(ROOT / "src"))

from ipd.cli import main as ipd_main  # noqa: E402
from ipd.connection import point_str  # noqa: E402
from ipd.corpus import connection_corpus  # noqa: E402
from ipd.derham import h1_basis  # noqa: E402

OUT = ROOT / "tests" / "golden"
CORPUS_COUNT, CORPUS_SEED = 24, 0


def basis_row(b) -> dict:
    return {
        "h0": b.h0_dim,
        "h1": b.h1_dim,
        "basis": [str(f) for f in b.basis],
        "section_bounds": [[point_str(p), n] for p, n in b.section_bounds],
    }


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    for path in sorted((ROOT / "connections").glob("*.json")):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            ipd_main(["analyze", str(path)])
        (OUT / path.name).write_text(buf.getvalue())
        print(f"wrote {OUT / path.name}")
    table = {
        c.label: basis_row(h1_basis(c))
        for c in connection_corpus(CORPUS_COUNT, CORPUS_SEED)
    }
    corpus_path = OUT / f"corpus{CORPUS_COUNT}_seed{CORPUS_SEED}.json"
    corpus_path.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {corpus_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
