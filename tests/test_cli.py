"""End-to-end command line runs, one per exit code."""
import os
import pathlib
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from darbouxflow import verification
from darbouxflow.cli import main
from darbouxflow.config import COMMANDS, load_scenario
from darbouxflow.output import read_csv

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

SVG = "{http://www.w3.org/2000/svg}"

DARBOUX_INI = """
[run]
command = darboux

[curve]
kind = circle

[polarization]
mu = 0.25

[parameters]
initial_point = -1+0j

[grid]
s0 = 0
s1 = 1
h = 1e-2

[output]
csv = pair.csv
svg = pair.svg
"""

FLOW_INI = """
[run]
command = flow

[curve]
kind = vertices
values = 0+0j, 2+0j, 4+0j, 6+0j

[polarization]
mu = arclength

[initial]
kind = line

[grid]
s0 = 0
s1 = 1
h = 1e-2
"""

MOTION_INI = """
[run]
command = motion

[curve]
kind = ngon
n = 6

[parameters]
w0 = -pi/6

[grid]
s0 = 0
s1 = 0.25
h = 1e-3
"""

# The seed sits past the stable fixed point of the separation equation
# (u0 = -4 < -2 = -1/sqrt(mu)), so the transform runs off to infinity at
# s = ln 3 and the integrator must report a blow-up.
POLE_INI = """
[run]
command = darboux

[curve]
kind = line

[polarization]
mu = 0.25

[parameters]
initial_point = 4+0j

[grid]
s0 = 0
s1 = 5
h = 1e-3
"""


def _write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


@pytest.fixture
def session_artifacts(monkeypatch, artifacts):
    """``verify`` at the default step reuses the session's artifacts instead
    of building its own; other steps still build theirs."""
    build = verification.Artifacts

    def shared(h):
        return artifacts if h == artifacts.h else build(h)

    monkeypatch.setattr(verification, "Artifacts", shared)


def test_darboux_writes_named_outputs(tmp_path, capsys):
    cfg = _write(tmp_path, DARBOUX_INI)
    out = tmp_path / "results"
    assert main(["darboux", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == [str(out / "pair.csv"), str(out / "pair.svg")]

    svals, values = read_csv(out / "pair.csv")
    assert values.shape == (2, 101)
    assert svals[0] == 0.0 and abs(svals[-1] - 1.0) < 1e-12
    # Rows: the unit circle and its transform, both on |x| ~ 1 scales.
    assert abs(values[0, 0] - 1.0) < 1e-15

    root = ET.parse(out / "pair.svg").getroot()
    assert root.get("version") == "1.1"
    polylines = list(root.iter(f"{SVG}polyline"))
    assert len(polylines) == 2
    assert [p.get("stroke") for p in polylines] == ["black", "red"]
    assert len(list(root.iter(f"{SVG}circle"))) == 1  # seed marker


def test_flow_uses_default_filename(tmp_path, capsys):
    cfg = _write(tmp_path, FLOW_INI)
    out = tmp_path / "flowout"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == str(out / "flow.csv")
    svals, values = read_csv(out / "flow.csv")
    assert values.shape == (4, 101)


def test_motion_writes_vertex_paths(tmp_path, capsys):
    cfg = _write(tmp_path, MOTION_INI)
    out = tmp_path / "motionout"
    assert main(["motion", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    svals, values = read_csv(out / "motion.csv")
    assert values.shape == (7, 251)  # closed hexagon: 7 vertex trajectories


def test_figure_command_needs_only_the_command(tmp_path, capsys):
    cfg = _write(tmp_path, "[run]\ncommand = figure1\n")
    out = tmp_path / "fig"
    assert main(["figure1", "--config", cfg, "--h", "1e-2",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    root = ET.parse(out / "figure1.svg").getroot()
    polylines = list(root.iter(f"{SVG}polyline"))
    assert len(polylines) == 3
    assert [p.get("stroke") for p in polylines] == ["black", "red", "blue"]
    assert len(root.get("viewBox").split()) == 4


def test_missing_config_is_a_usage_error(tmp_path, capsys):
    assert main(["darboux", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "error:" in capsys.readouterr().err


def test_command_mismatch_is_a_usage_error(tmp_path, capsys):
    cfg = _write(tmp_path, DARBOUX_INI)
    assert main(["flow", "--config", cfg]) == 1
    assert "command line" in capsys.readouterr().err


def test_bad_step_and_bad_tolerance_are_usage_errors(tmp_path, capsys):
    cfg = _write(tmp_path, DARBOUX_INI)
    assert main(["darboux", "--config", cfg, "--h", "-0.1"]) == 1
    assert main(["verify", "--config",
                 _write(tmp_path, "[run]\ncommand = verify\n", "v.ini"),
                 "--tol", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command, text, args, key", [
    ("darboux", DARBOUX_INI.replace("h = 1e-2", "h = nan"), [], "[grid]"),
    ("darboux", DARBOUX_INI.replace("s0 = 0", "s0 = nan"), [], "[grid]"),
    ("darboux", DARBOUX_INI, ["--h", "nan"], "--h"),
    ("verify", "[run]\ncommand = verify\n", ["--h", "nan"], "--h"),
    ("verify", "[run]\ncommand = verify\n", ["--tol", "nan"], "--tol"),
    ("verify", "[run]\ncommand = verify\n\n[verify]\nlemma-identities = nan\n", [],
     "[verify] lemma-identities"),
    ("darboux", DARBOUX_INI.replace("initial_point = -1+0j", "offset_angle = abc"), [],
     "[parameters] offset_angle"),
    ("darboux", DARBOUX_INI.replace("initial_point = -1+0j", "offset_angle = nan"), [],
     "[parameters] offset_angle"),
    ("darboux", DARBOUX_INI.replace("mu = 0.25", "mu = nan"), [], "[polarization] mu"),
    ("darboux", DARBOUX_INI.replace("mu = 0.25", "mu = -inf"), [], "[polarization] mu"),
    ("darboux", DARBOUX_INI.replace("-1+0j", "nan+0j"), [], "[parameters] initial_point"),
    ("darboux", DARBOUX_INI.replace("-1+0j", "(-1, inf)"), [], "[parameters] initial_point"),
    ("motion", MOTION_INI.replace("n = 6", "n = 6\nradius = inf"), [], "[curve] radius"),
    ("motion", MOTION_INI.replace("n = 6", "n = 6\nradius = nan"), [], "[curve] radius"),
    ("darboux", DARBOUX_INI.replace("kind = circle", "kind = circle\nradius = nan"), [],
     "[curve] radius"),
    ("flow", FLOW_INI.replace("mu = arclength", "mu = nan"), [], "[polarization] mu"),
    ("flow", FLOW_INI.replace("mu = arclength", "mu = 0.25, inf, 0.25"), [],
     "[polarization] mu"),
], ids=["grid-h", "grid-s0", "darboux-h", "verify-h", "tol", "verify-key", "offset-text",
        "offset-nan", "mu-nan", "mu-inf", "point-nan", "point-pair-inf", "ngon-radius-inf",
        "ngon-radius-nan", "circle-radius-nan", "flow-mu-nan", "flow-mu-list-inf"])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, command, text, args, key):
    cfg = _write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")] + args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert key in captured.err
    assert captured.out == ""


def test_transform_past_the_pole_is_a_numerical_failure(tmp_path, capsys):
    cfg = _write(tmp_path, POLE_INI)
    assert main(["darboux", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "blew up" in err


def test_polarization_vanishing_between_nodes_is_a_usage_error(tmp_path, capsys):
    # m > 0 at every node, m = 0 at the first RK4 midpoint: bad input, found
    # while the scenario loads (a blow-up past a pole still exits 2, above),
    # for an analytic curve and for one read from samples alike
    samples = tmp_path / "line.csv"
    samples.write_text(
        "n,s,x,y\n" + "".join(f"0,{i * 1e-3!r},{i * 1e-3!r},0\n" for i in range(1001)))
    sampled = DARBOUX_INI.replace("kind = circle", f"kind = samples\ncsv = {samples}").replace(
        "h = 1e-2", "h = 1e-3")
    for text in (POLE_INI, sampled):
        text = text.replace("[polarization]\n",
                            "[polarization]\nm = (s - 0.0005)*(s - 0.0005)\n")
        cfg = _write(tmp_path, text)
        assert main(["darboux", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "between grid nodes" in err


def test_unevenly_spaced_samples_are_a_usage_error(tmp_path, capsys):
    samples = tmp_path / "uneven.csv"
    samples.write_text(
        "n,s,x,y\n" + "".join(f"0,{s!r},{s!r},0\n" for s in (0.0, 0.1, 0.5, 0.6, 0.8)))
    text = DARBOUX_INI.replace("kind = circle", f"kind = samples\ncsv = {samples}").replace(
        "s1 = 1\nh = 1e-2", "s1 = 0.8\nh = 0.2")
    cfg = _write(tmp_path, text)
    assert main(["darboux", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "not evenly spaced" in capsys.readouterr().err


def test_malformed_samples_csv_is_a_usage_error(tmp_path, capsys):
    samples = tmp_path / "bad.csv"
    samples.write_text("n,s,x,y\n0,0,0,0\n0,abc,1,0\n")
    text = DARBOUX_INI.replace("kind = circle", f"kind = samples\ncsv = {samples}")
    assert main(["darboux", "--config", _write(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: [curve] csv: {samples}: ")
    assert captured.out == ""


def test_non_finite_samples_field_is_a_usage_error(tmp_path, capsys):
    samples = tmp_path / "nan.csv"
    samples.write_text("n,s,x,y\n0,0,0,0\n0,0.5,nan,0\n0,1,1,0\n")
    text = DARBOUX_INI.replace("kind = circle", f"kind = samples\ncsv = {samples}").replace(
        "h = 1e-2", "h = 0.5")
    assert main(["darboux", "--config", _write(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [curve] csv: {samples}: data row 2 has a non-finite field\n"
    assert captured.out == ""


def test_arclength_mu_on_coincident_vertices_prints_only_the_error(tmp_path):
    # numpy's divide-by-zero warning on the zero edge must not reach stderr
    text = FLOW_INI.replace("0+0j, 2+0j, 4+0j, 6+0j", "0+0j, 2+0j, 2+0j, 6+0j")
    proc = subprocess.run(
        [sys.executable, "-m", "darbouxflow", "flow", "--config", _write(tmp_path, text),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(SCENARIO_DIR.parent / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "error: [curve] values: consecutive vertices 1 and 2 coincide\n"
    assert proc.stdout == ""


def test_leading_zero_integer_is_a_usage_error(tmp_path, capsys):
    text = (SCENARIO_DIR / "motion_hexagon.ini").read_text().replace(
        "w0 = -pi/6 ", "w0 = -pi/06 ")
    assert main(["motion", "--config", _write(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "error: [parameters] w0: leading zeros in decimal integer literals are not "
        "permitted at column 5 of '-pi/06'\n")


def test_verify_reports_every_check_and_passes(tmp_path, capsys, session_artifacts):
    cfg = _write(tmp_path, "[run]\ncommand = verify\n")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "12/12 checks passed" in out
    assert out.count("PASS") == 12
    assert "FAIL" not in out


def test_verify_with_impossible_tolerance_fails(tmp_path, capsys, session_artifacts):
    cfg = _write(tmp_path, "[run]\ncommand = verify\n")
    assert main(["verify", "--config", cfg, "--tol", "1e-12"]) == 3
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "/12 checks passed" in out


@pytest.mark.parametrize(
    "name", sorted(p.name for p in SCENARIO_DIR.glob("*.ini")))
def test_shipped_scenarios_parse(name):
    sc = load_scenario(SCENARIO_DIR / name)
    assert sc.command in COMMANDS


def test_tolerance_override_from_config_can_fail_one_check(tmp_path, capsys,
                                                          session_artifacts):
    text = "[run]\ncommand = verify\n\n[verify]\ncross-ratio-constancy = 1e-30\n"
    cfg = _write(tmp_path, text)
    assert main(["verify", "--config", cfg]) == 3
    out = capsys.readouterr().out
    assert "11/12 checks passed" in out


def test_unknown_tolerance_name_is_a_usage_error(tmp_path, capsys):
    text = "[run]\ncommand = verify\n\n[verify]\nlemma-identites = 1e-30\n"
    cfg = _write(tmp_path, text)
    assert main(["verify", "--config", cfg, "--h", "1e-2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "lemma-identites" in captured.err
    assert "PASS" not in captured.out and "FAIL" not in captured.out


def test_module_entry_point(tmp_path):
    checkout = SCENARIO_DIR.parent
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "darbouxflow", "darboux",
         "--config", str(SCENARIO_DIR / "darboux_circle.ini"), "--out", str(out)],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [str(out / "pair.csv"), str(out / "pair.svg")]


def test_polarization_errors_are_reported_under_their_key(tmp_path, capsys):
    # a bad m is a [polarization] m error for every curve kind; the curve's
    # own errors keep their keys
    for command, text in (("darboux", DARBOUX_INI), ("flow", FLOW_INI)):
        text = text.replace("[polarization]\n", "[polarization]\nm = 0\n")
        assert main([command, "--config", _write(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: [polarization] m: polarization must be "
                                "nonvanishing and of constant sign\n")
        assert captured.out == ""
    text = DARBOUX_INI.replace("kind = circle", "kind = spiral")
    assert main(["darboux", "--config", _write(tmp_path, text)]) == 1
    assert capsys.readouterr().err.startswith("error: [curve] kind: unknown smooth curve")


def test_polarization_pole_prints_only_the_error(tmp_path):
    # numpy's divide-by-zero warning at s = 0.5 must not reach stderr
    text = DARBOUX_INI.replace("[polarization]\n", "[polarization]\nm = 1/(s-0.5)\n")
    checkout = SCENARIO_DIR.parent
    proc = subprocess.run(
        [sys.executable, "-m", "darbouxflow", "darboux", "--config", _write(tmp_path, text),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == "error: [polarization] m: polarization must be finite\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("w0, where", [
    ("1/(s-0.25)", " at s = 0.25"),
    # the stage midpoint 0.0095 + ulp, one ulp off grid.refined_values()
    ("1/(s-0.009500000000000001)", " at s = 0.009500000000000001"),
    ("1/0", ""), ("exp(1000)", ""), ("1/0 + s", " at s = 0.0")])
def test_non_finite_w0_is_a_usage_error(tmp_path, capsys, recwarn, w0, where):
    text = (SCENARIO_DIR / "motion_hexagon.ini").read_text().replace(
        "w0 = -pi/6 ", f"w0 = {w0} ")
    assert main(["motion", "--config", _write(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [parameters] w0: {w0!r} is not finite{where}\n"
    assert captured.out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
