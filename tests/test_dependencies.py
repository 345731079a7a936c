"""The package imports only what pyproject.toml declares, and never scipy.

scipy is a test dependency: `scipy.linalg` alone about doubled the start-up
time and the resident memory of an `ipd` process, so a plain `import ipd`
must leave it unloaded.
"""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ipd"


def _third_party_imports():
    """(file:line, top-level module) for each import outside the stdlib and ipd,
    at any depth, so that an import inside a function counts too."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "ipd":
                    yield f"{path.name}:{node.lineno}", top


def _declared() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def test_every_third_party_import_is_declared():
    declared = _declared()
    undeclared = [
        f"{where} {module}" for where, module in _third_party_imports() if module not in declared
    ]
    assert not undeclared, "imports missing from [project] dependencies: " + ", ".join(undeclared)


def test_import_ipd_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, ipd; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert result.stdout.strip() == "[]"
