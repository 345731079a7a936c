import json
import subprocess
import sys
from fractions import Fraction

import pytest

from ipd.cli import main
from ipd.connection import canonicalize, connection_to_json
from ipd.cycles import build_circle, cycle_to_json
from ipd.exact import RationalFunction, as_scalar
from ipd.families import bessel_connection, gamma_connection, gaussian_connection


@pytest.fixture()
def conn_file(tmp_path):
    def write(name, c):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(connection_to_json(c)))
        return str(path)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dims_command(conn_file, capsys):
    path = conn_file("gamma", gamma_connection(Fraction(1, 2)))
    code, out, _ = run_cli(capsys, "dims", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["h0"] == 0 and doc["h1"] == 1
    assert doc["chi_dr"] == -1 and doc["chi_top"] == 0
    assert doc["basis"] == ["1/(z)"]
    assert doc["profile"]["h1_XD"] == 1


def test_analyze_command_all_checks_pass(conn_file, capsys):
    path = conn_file("gauss", gaussian_connection())
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["version"]
    assert {"profile", "dims", "cycles", "periods", "checks"} <= set(doc)
    assert all(ch["pass"] for ch in doc["checks"])


def test_analyze_trivial_connection_has_h0_note(conn_file, capsys):
    path = conn_file("trivial", canonicalize(RationalFunction.zero(), label="trivial"))
    code, out, _ = run_cli(capsys, "analyze", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["dims"]["h1"] == 0
    assert doc["periods"]["entries"] == []
    assert any(ch["id"] == "pairing.h0_note" for ch in doc["checks"])


def test_cycles_feed_periods(conn_file, capsys, tmp_path):
    path = conn_file("bessel", bessel_connection(Fraction(1)))
    code, out, _ = run_cli(capsys, "cycles", path)
    assert code == 0
    cycles_doc = json.loads(out)
    assert len(cycles_doc) == 2
    assert all("anchors" in cy for cy in cycles_doc)
    cycles_file = tmp_path / "cycles.json"
    cycles_file.write_text(out)

    code, out, _ = run_cli(capsys, "periods", path, "--cycles", str(cycles_file))
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 2
    assert doc["determinant"] is not None


def test_periods_csv(conn_file, capsys):
    path = conn_file("gauss", gaussian_connection())
    code, out, _ = run_cli(capsys, "periods", path, "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("cycle,form,value_re")
    assert len(lines) == 2


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "gaussian")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] and doc["suite"] == "gaussian"
    # an impossible tolerance forces a check failure
    code, _, _ = run_cli(capsys, "verify", "gaussian", "--tol", "1e-17", "--quiet")
    assert code == 1


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "gamma", "--out", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,expected,computed,abs_err,rel_err,pass"
    assert len(lines) == 5


def test_quiet_suppresses_output(conn_file, capsys):
    path = conn_file("gauss", gaussian_connection())
    code, out, _ = run_cli(capsys, "dims", path, "--quiet")
    assert code == 0 and out == ""


def test_input_errors_exit_two(conn_file, capsys, tmp_path):
    absent = tmp_path / "absent.json"
    code, _, err = run_cli(capsys, "dims", str(absent))
    assert code == 2 and "error" in err
    assert f"cannot read {absent}: No such file or directory" in err
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = run_cli(capsys, "dims", str(bad))
    assert code == 2
    assert f"{bad} is not valid JSON: " in err
    zero_den = tmp_path / "zero.json"
    zero_den.write_text(json.dumps({"label": "x", "alpha": {"num": ["1"], "den": ["0"]}}))
    code, _, err = run_cli(capsys, "dims", str(zero_den))
    assert code == 2
    numeric = tmp_path / "numeric.json"
    numeric.write_text(json.dumps({"label": "x", "alpha": {"num": [1], "den": ["1"]}}))
    code, _, err = run_cli(capsys, "dims", str(numeric))
    assert code == 2 and err.startswith("error: ")
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps([connection_to_json(gaussian_connection())]))
    code, _, err = run_cli(capsys, "dims", str(listed))
    assert code == 2 and err.startswith("error: ")
    # a string is not a coefficient list, even one that iterates to scalars
    for alpha in ({"num": "12", "den": ["1"]}, {"num": ["1"], "den": "1"}):
        text = tmp_path / "text.json"
        text.write_text(json.dumps({"label": "x", "alpha": alpha}))
        code, _, err = run_cli(capsys, "dims", str(text))
        assert code == 2 and err.startswith("error: ")
    cycles = tmp_path / "cycles.json"
    cycles.write_text(json.dumps([{"pieces": [], "base_args": []}]))
    path = conn_file("gaussian", gaussian_connection())
    code, _, err = run_cli(capsys, "periods", path, "--cycles", str(cycles))
    assert code == 2 and err.startswith("error: ")
    # orientation is the integer 1 or -1; anything else would scale the period
    bessel = bessel_connection(Fraction(1))
    path = conn_file("bessel", bessel)
    circle = cycle_to_json(build_circle(bessel, as_scalar(0), radius=1.0))
    for orientation, expected in ((-1, 0), (True, 2), ("1", 2), (1.0, 2), (5, 2)):
        cycles.write_text(json.dumps([dict(circle, orientation=orientation)]))
        code, _, err = run_cli(capsys, "periods", path, "--cycles", str(cycles))
        assert code == expected, orientation
        assert err.startswith("error: ") == (expected == 2)


def test_analyze_deterministic(conn_file, capsys):
    path = conn_file("bessel", bessel_connection(Fraction(1)))
    _, out1, _ = run_cli(capsys, "analyze", path)
    _, out2, _ = run_cli(capsys, "analyze", path)
    assert out1 == out2


def test_module_entrypoint(conn_file):
    # one subprocess sanity check of the installed interface
    result = subprocess.run(
        [sys.executable, "-m", "ipd.cli", "verify", "gaussian", "--quiet"],
        capture_output=True,
    )
    assert result.returncode == 0
