"""End-to-end command line runs, one per exit code."""
import pathlib
import xml.etree.ElementTree as ET

import pytest

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


def test_transform_past_the_pole_is_a_numerical_failure(tmp_path, capsys):
    cfg = _write(tmp_path, POLE_INI)
    assert main(["darboux", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "blew up" in err


def test_unevenly_spaced_samples_are_a_usage_error(tmp_path, capsys):
    samples = tmp_path / "uneven.csv"
    samples.write_text(
        "n,s,x,y\n" + "".join(f"0,{s!r},{s!r},0\n" for s in (0.0, 0.1, 0.5, 0.6, 0.8)))
    text = DARBOUX_INI.replace("kind = circle", f"kind = samples\ncsv = {samples}").replace(
        "s1 = 1\nh = 1e-2", "s1 = 0.8\nh = 0.2")
    cfg = _write(tmp_path, text)
    assert main(["darboux", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert "not evenly spaced" in capsys.readouterr().err


def test_verify_reports_every_check_and_passes(tmp_path, capsys):
    cfg = _write(tmp_path, "[run]\ncommand = verify\n")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "12/12 checks passed" in out
    assert out.count("PASS") == 12
    assert "FAIL" not in out


def test_verify_with_impossible_tolerance_fails(tmp_path, capsys):
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


def test_tolerance_override_from_config_can_fail_one_check(tmp_path, capsys):
    text = "[run]\ncommand = verify\n\n[verify]\ncross-ratio-constancy = 1e-30\n"
    cfg = _write(tmp_path, text)
    assert main(["verify", "--config", cfg]) == 3
    out = capsys.readouterr().out
    assert "11/12 checks passed" in out
