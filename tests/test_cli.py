"""End-to-end command line runs, one per exit code."""
import os
import pathlib
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from darbouxflow import cli, config, verification
from darbouxflow.cli import main
from darbouxflow.config import COMMANDS, ConfigError, load_scenario
from darbouxflow.errors import (BlowupError, CoincidentPointsError, CurveError,
                                GridTooShortError, NonRegularError,
                                NotArclengthPolarizedError, SingularTangentError)
from darbouxflow.output import read_csv

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
README = SCENARIO_DIR.parent / "README.md"

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

    s, values, _ = read_csv(out / "pair.csv")
    assert values.shape == (2, 101)
    assert s[0] == 0.0 and abs(s[-1] - 1.0) < 1e-12
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
    values = read_csv(out / "flow.csv")[1]
    assert values.shape == (4, 101)


def test_motion_writes_vertex_paths(tmp_path, capsys):
    cfg = _write(tmp_path, MOTION_INI)
    out = tmp_path / "motionout"
    assert main(["motion", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    values = read_csv(out / "motion.csv")[1]
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


def test_unread_scenario_key_is_a_usage_error(tmp_path, capsys):
    # figure1 draws the default circle, so a curve or an m it would drop
    # is refused instead of written as the default figure
    cfg = _write(tmp_path, "[run]\ncommand = figure1\n[curve]\nkind = line\nradius = 5\n"
                           "[polarization]\nm = 2 + s\n")
    out = tmp_path / "fig"
    assert main(["figure1", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: [curve] kind, [curve] radius, [polarization] m: "
                            "not read by the figure1 command\n")
    assert captured.out == "" and not out.exists()


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
    # finite numbers whose node count (s1 - s0)/h overflows to inf
    ("motion", MOTION_INI.replace("s0 = 0", "s0 = -1e308").replace("s1 = 0.25", "s1 = 1e308")
     .replace("h = 1e-3", "h = 1e307"), [], "[grid] s0/s1/h: grid node count overflows"),
    ("motion", MOTION_INI, ["--h", "1e-320"], "error: grid node count overflows"),
    # a finite node count whose stage arrays numpy cannot size
    ("motion", MOTION_INI, ["--h", "1e-300"], "error: grid node count is too large to allocate"),
    ("figure1", "[run]\ncommand = figure1\n", ["--h", "1e-320"],
     "error: grid node count overflows"),
    # endpoints reversed by less than half a step round to no intervals at all
    ("darboux", DARBOUX_INI.replace("s0 = 0\ns1 = 1", "s0 = 1\ns1 = 0.996"), [],
     "[grid] s0/s1/h: grid endpoints reversed: 1.0 > 0.996"),
    # other malformed values and sections, each refused while loading
    ("darboux", DARBOUX_INI.replace("kind = circle", "kind = circle\nradius = 0"), [],
     "[curve] radius: must be positive, got 0.0"),
    ("motion", MOTION_INI.replace("n = 6", "n = 6.5"), [], "[curve] n: not an integer"),
    ("motion", MOTION_INI.replace("[parameters]\n", "[parameters]\nn0 = 1.5\n"), [],
     "[parameters] n0: not an integer"),
    ("darboux", DARBOUX_INI.replace("-1+0j", "(1, 2, 3)"), [],
     "[parameters] initial_point: expected (x, y), got"),
    ("darboux", DARBOUX_INI.replace("-1+0j", "(a, 2)"), [],
     "[parameters] initial_point: expected (x, y) with numeric entries"),
    ("flow", FLOW_INI.replace("0+0j, 2+0j, 4+0j, 6+0j", "0+0j"), [],
     "[curve] values: need at least two comma-separated vertices"),
    ("flow", FLOW_INI.replace("mu = arclength", "mu = 0.25, -0.25, 0.25"), [],
     "error: [polarization] mu: polarization changes sign at edge (1, 2)\n"),
    ("flow", FLOW_INI.replace("mu = arclength", "mu = 0"), [],
     "error: [polarization] mu: polarization vanishes at edge (0, 1)\n"),
    ("darboux", DARBOUX_INI.replace("[grid]", "[nogrid]"), [],
     "error: darboux needs a [grid] section"),
    ("darboux", DARBOUX_INI.replace("[grid]", "[nogrid]"), ["--h", "1e-2"],
     "error: darboux needs a [grid] section"),
    ("motion", MOTION_INI.replace("[grid]", "[nogrid]"), [],
     "error: motion needs a [grid] section"),
    ("flow", FLOW_INI.replace("[grid]", "[nogrid]"), [], "error: flow needs a [grid] section"),
    ("darboux", DARBOUX_INI.replace("kind = circle", "kind = samples\ncsv = nope.csv"), [],
     "[curve] csv: no such file: nope.csv"),
    ("darboux", DARBOUX_INI.replace("initial_point = -1+0j\n", ""), [],
     "[parameters] initial_point: darboux needs initial_point or offset_angle"),
    ("verify", "[run]\ncommand = verify\n\n[verify]\nlemma-identities = 0\n", [],
     "[verify] lemma-identities: must be a finite positive number, got '0'"),
    ("darboux", "[run]\ncommand = darboux\nbroken line\n", [],
     "[line  3]: 'broken line"),
], ids=["grid-h", "grid-s0", "darboux-h", "verify-h", "tol", "verify-key", "offset-text",
        "offset-nan", "mu-nan", "mu-inf", "point-nan", "point-pair-inf", "ngon-radius-inf",
        "ngon-radius-nan", "circle-radius-nan", "flow-mu-nan", "flow-mu-list-inf",
        "grid-count-overflow", "motion-h-count-overflow", "motion-h-count-too-large",
        "figure1-h-count-overflow",
        "grid-reversed", "circle-radius-zero", "ngon-n-fraction", "n0-fraction",
        "point-triple", "point-pair-text", "one-vertex", "flow-mu-list-sign",
        "flow-mu-zero", "darboux-no-grid", "h-no-grid", "motion-no-grid", "flow-no-grid",
        "samples-no-file",
        "darboux-no-seed", "verify-key-zero", "ini-syntax"])
def test_non_finite_numbers_are_usage_errors(tmp_path, capsys, command, text, args, key):
    cfg = _write(tmp_path, text)
    out = [] if command == "verify" else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", cfg] + out + args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert key in captured.err
    assert captured.out == ""


# x stays at 0.2 over six rows, so x' vanishes at the middle nodes
STALLED_CSV = "n,s,x,y\n" + "".join(
    f"0,{i * 0.1!r},{x!r},0\n" for i, x in enumerate((0, 0.1) + (0.2,) * 6 + (0.3, 0.4, 0.5)))


@pytest.mark.parametrize("command, text, key", [
    ("flow", FLOW_INI.replace("0+0j, 2+0j", "0+0j, 0+0j"),
     "[curve] values: consecutive vertices 0 and 1 coincide"),
    ("darboux", DARBOUX_INI.replace("kind = circle", "kind = samples\ncsv = {tmp}/stalled.csv")
     .replace("h = 1e-2", "h = 0.1"), "[curve] csv: curve is not regular"),
    ("darboux", DARBOUX_INI.replace("kind = circle", "kind = circle\nradius = 1e-10"),
     "[curve] radius: curve is not regular"),
    # an ngon's vertices come from its radius, so its errors name that key
    ("flow", FLOW_INI.replace("kind = vertices\nvalues = 0+0j, 2+0j, 4+0j, 6+0j",
                              "kind = ngon\nn = 6\nradius = 1e-12"),
     "[curve] radius: consecutive vertices 3 and 4 coincide"),
    ("motion", MOTION_INI.replace("n = 6", "n = 6\nradius = 1e-12"),
     "[curve] radius: consecutive vertices 3 and 4 coincide"),
], ids=["coincident-vertices", "stalled-samples", "tiny-radius", "tiny-ngon", "tiny-ngon-motion"])
def test_singular_input_found_while_loading_is_a_numerical_failure(tmp_path, capsys, command,
                                                                  text, key):
    # the type decides the exit code while loading too; the key still names the input
    (tmp_path / "stalled.csv").write_text(STALLED_CSV)
    cfg = _write(tmp_path, text.replace("{tmp}", str(tmp_path)))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"numerical failure: {key}")
    assert captured.out == "" and not out.exists()


def test_transform_past_the_pole_is_a_numerical_failure(tmp_path, capsys):
    cfg = _write(tmp_path, POLE_INI)
    assert main(["darboux", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "blew up" in err


FAILURES = [(BlowupError, 2), (CoincidentPointsError, 2), (SingularTangentError, 2),
            (NonRegularError, 2), (CurveError, 1), (GridTooShortError, 1),
            (NotArclengthPolarizedError, 1), (ConfigError, 1), (OSError, 1)]


@pytest.mark.parametrize("error, code", FAILURES, ids=[e.__name__ for e, _ in FAILURES])
def test_exit_code_follows_the_failure_type(tmp_path, capsys, monkeypatch, error, code):
    # raised while running, after the scenario has loaded: the type alone decides
    def fail(*args):
        raise error("raised by the runner")

    monkeypatch.setattr(cli, "integrate_motion", fail)
    out = tmp_path / "out"
    assert main(["motion", "--config", _write(tmp_path, MOTION_INI), "--out", str(out)]) == code
    captured = capsys.readouterr()
    prefix = "numerical failure" if code == 2 else "error"
    assert captured.err == f"{prefix}: raised by the runner\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("error, code", FAILURES, ids=[e.__name__ for e, _ in FAILURES])
def test_exit_code_follows_the_failure_type_while_loading(tmp_path, capsys, monkeypatch,
                                                         error, code):
    # raised by each library call the loader makes: the type alone decides the
    # exit code, and a library error gains the key its input came from
    def fail(*args):
        raise error("raised while loading")

    s = [i * 1e-2 for i in range(101)]
    (tmp_path / "line.csv").write_text("n,s,x,y\n" + "".join(f"0,{v!r},{v!r},0\n" for v in s))
    samples = DARBOUX_INI.replace("kind = circle", f"kind = samples\ncsv = {tmp_path}/line.csv")
    flow = FLOW_INI.replace("mu = arclength", "mu = 0.25")
    prefix = "numerical failure" if code == 2 else "error"
    gains_key = issubclass(error, (CurveError, BlowupError))
    for target, name, command, text, key in (
            (config.SGrid, "from_step", "motion", MOTION_INI, "[grid] s0/s1/h"),
            (config, "_resolve_m", "darboux", DARBOUX_INI, "[polarization] m"),
            (config.PolarizedCurve, "from_generator", "darboux", DARBOUX_INI, "[curve] radius"),
            (config, "read_csv", "darboux", samples, "[curve] csv"),
            (config.PolarizedCurve, "from_samples", "darboux", samples, "[curve] csv"),
            (config, "ngon_vertices", "motion", MOTION_INI, "[curve] n"),
            (config, "_polygon", "motion", MOTION_INI, "[curve] radius"),
            (config, "_polygon", "flow", flow, "[curve] values"),
            (config, "_on_stages", "motion", MOTION_INI, "[parameters] w0"),
            (config, "DiscretePolarizedCurve", "flow", flow, "[polarization] mu")):
        out = tmp_path / "out"
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fail)
            assert main([command, "--config", _write(tmp_path, text), "--out", str(out)]) == code
        captured = capsys.readouterr()
        label = f"{key}: " if gains_key else ""
        assert captured.err == f"{prefix}: {label}raised while loading\n", name
        assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, text, message", [
    ("darboux", DARBOUX_INI.replace("mu = 0.25", "mu = 0"),
     "mu must be a nonzero finite real, got 0.0"),
    ("darboux", DARBOUX_INI.replace("[polarization]\n", "[polarization]\nm = 2\n").replace(
        "initial_point = -1+0j", "offset_angle = 0"), "curve is not arc-length polarized"),
    ("motion", MOTION_INI.replace("[parameters]\n", "[parameters]\nn0 = 9\n"),
     "seed edge 9 outside 0..5"),
    ("flow", (SCENARIO_DIR / "flow_line.ini").read_text().replace(
        "[initial]", "[parameters]\nn0 = 1\n\n[initial]"),
     "initial curve misses base vertex 1"),
    # refused while loading, but they need the csv this test writes
    ("darboux", DARBOUX_INI.replace("kind = circle", "kind = samples\ncsv = {tmp}/three.csv")
     .replace("h = 1e-2", "h = 0.5"),
     "[curve] csv: need at least 5 nodes for the 4th-order stencil, got 3"),
    ("darboux", DARBOUX_INI.replace("kind = circle", "kind = samples\ncsv = {tmp}/three.csv\n"
                                    "row = 1"),
     "[curve] row: no n = 1 in {tmp}/three.csv; its n are 0\n"),
    ("darboux", DARBOUX_INI.replace("kind = circle", "kind = samples\ncsv = {tmp}/three.csv\n"
                                    "row = x"), "[curve] row: not an integer: 'x'"),
], ids=["mu-zero", "not-arclength-polarized", "seed-edge-outside", "initial-misses-vertex",
        "grid-too-short", "samples-row-outside", "samples-row-text"])
def test_bad_input_found_while_running_is_a_usage_error(tmp_path, capsys, command, text,
                                                       message):
    (tmp_path / "three.csv").write_text("n,s,x,y\n0,0,0,0\n0,0.5,0.5,0\n0,1,1,0\n")
    cfg = _write(tmp_path, text.replace("{tmp}", str(tmp_path)))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}".replace("{tmp}", str(tmp_path)))
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("args, message", [
    ([], "the following arguments are required: command"),
    (["darboux"], "the following arguments are required: --config"),
    (["darboux", "--config", "x.ini", "--h", "abc"], "argument --h: invalid float value: 'abc'"),
    (["spiral", "--config", "x.ini"], "argument command: invalid choice: 'spiral'"),
    (["verify", "--config", "x.ini", "--bogus"], "unrecognized arguments: --bogus"),
    # only verify reads --tol and only the others write to --out
    (["darboux", "--config", "x.ini", "--tol", "5"], "unrecognized arguments: --tol 5"),
    (["flow", "--config", "x.ini", "--tol", "1"], "unrecognized arguments: --tol 1"),
    (["motion", "--config", "x.ini", "--tol", "1"], "unrecognized arguments: --tol 1"),
    (["figure1", "--config", "x.ini", "--tol", "1"], "unrecognized arguments: --tol 1"),
    (["verify", "--config", "x.ini", "--out", "d"], "unrecognized arguments: --out d"),
    (["darboux", "--config", "x.ini", "--h", "0"],
     "argument --h: must be a finite positive number, got '0'"),
    (["motion", "--config", "x.ini", "--h", "inf"],
     "argument --h: must be a finite positive number, got 'inf'"),
    (["verify", "--config", "x.ini", "--h", "-1"],
     "argument --h: must be a finite positive number, got '-1'"),
    (["verify", "--config", "x.ini", "--tol", "nan"],
     "argument --tol: must be a finite positive number, got 'nan'"),
    (["verify", "--config", "x.ini", "--tol", "0"],
     "argument --tol: must be a finite positive number, got '0'"),
], ids=["no-command", "no-config", "h-not-a-number", "unknown-command", "unknown-option",
        "darboux-tol", "flow-tol", "motion-tol", "figure1-tol", "verify-out", "h-zero",
        "h-inf", "verify-h-negative", "tol-nan", "tol-zero"])
def test_argparse_errors_are_usage_errors(capsys, args, message):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_every_command_has_a_runner():
    # the parser is built from the runner table; config checks a file's
    # [run] command against COMMANDS for library callers
    assert tuple(cli._RUNNERS) == COMMANDS


@pytest.mark.parametrize("args", [["-h"], ["darboux", "-h"]], ids=["top", "command"])
def test_help_exits_zero(capsys, args):
    with pytest.raises(SystemExit) as info:
        main(args)
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: darbouxflow")


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
        assert err == "error: [polarization] m: polarization vanishes at s = 0.0005\n"


@pytest.mark.parametrize("s0", [1e4, 1e8])
def test_a_motion_reads_back_as_samples_at_any_offset(tmp_path, capsys, s0):
    # the s column carries the float spacing of s0, which the grid rule allows for
    grid = f"s0 = {s0!r}\ns1 = {s0 + 0.25!r}\nh = 1e-3"
    motion = MOTION_INI.replace("s0 = 0\ns1 = 0.25\nh = 1e-3", grid)
    back = DARBOUX_INI.replace("kind = circle", f"kind = samples\ncsv = {tmp_path}/motion.csv\n"
                               "row = 2").replace("s0 = 0\ns1 = 1\nh = 1e-2", grid)
    for command, text in (("motion", motion), ("darboux", back)):
        assert main([command, "--config", _write(tmp_path, text), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert np.array_equal(read_csv(tmp_path / "pair.csv")[1][0],
                          read_csv(tmp_path / "motion.csv")[1][2])


def test_unevenly_spaced_samples_are_a_usage_error(tmp_path, capsys):
    samples = tmp_path / "uneven.csv"
    samples.write_text(
        "n,s,x,y\n" + "".join(f"0,{s!r},{s!r},0\n" for s in (0.0, 0.1, 0.5, 0.6, 0.8)))
    text = DARBOUX_INI.replace("kind = circle", f"kind = samples\ncsv = {samples}").replace(
        "s1 = 1\nh = 1e-2", "s1 = 0.8\nh = 0.2")
    cfg = _write(tmp_path, text)
    assert main(["darboux", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"error: [curve] csv: {samples}: s = 0.1 is off its [grid] node 0.2\n")


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


@pytest.mark.parametrize("values, code, stderr", [
    ("0+0j, 2+0j, 2+0j, 6+0j", 2,
     "numerical failure: [curve] values: consecutive vertices 1 and 2 coincide\n"),
    # 1/a^2 of an edge too long to square reads 0, refused by name without
    # numpy's overflow warning
    ("0+0j, 1e200+0j, 2e200+0j", 1,
     "error: [polarization] mu: polarization vanishes at edge (0, 1)\n"),
], ids=["coincident", "edge-too-long-to-square"])
def test_arclength_mu_prints_only_the_error(tmp_path, values, code, stderr):
    text = FLOW_INI.replace("0+0j, 2+0j, 4+0j, 6+0j", values)
    proc = subprocess.run(
        [sys.executable, "-m", "darbouxflow", "flow", "--config", _write(tmp_path, text),
         "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=str(SCENARIO_DIR.parent / "src")),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert proc.stderr == stderr
    assert proc.stdout == ""


def _wide_motion(values, w0="0", s1="0.01"):
    """A motion of the polygon ``values`` over [0, s1] at h = 0.01."""
    return (MOTION_INI.replace("kind = ngon\nn = 6", f"kind = vertices\nvalues = {values}")
            .replace("-pi/6", w0).replace("s1 = 0.25\nh = 1e-3", f"s1 = {s1}\nh = 0.01"))


OVERFLOWING_CSV = "n,s,x,y\n" + "".join(
    f"0,{i * 0.25!r},{x!r},0\n" for i, x in enumerate((0, 1e308, -1e308, 1e308, 0)))


@pytest.mark.parametrize("text, stderr", [
    # the samples' difference tangents overflow
    (DARBOUX_INI.replace("kind = circle", "kind = samples\ncsv = {tmp}/overflow.csv")
     .replace("h = 1e-2", "h = 0.25"), "error: [curve] csv: x' is not finite at s = 0.0\n"),
    # the input's tangent is finite, the transform's (mu/m) d^2/x' overflows
    (DARBOUX_INI.replace("kind = circle", "kind = circle\nradius = 1e200")
     .replace("mu = 0.25", "mu = 1e-9").replace("-1+0j", "0"),
     "error: the transform's tangent xh' is not finite at s = 0.0\n"),
    # |x'|^2 overflows, so the arc-length seed reads an infinite deviation
    (DARBOUX_INI.replace("kind = circle", "kind = circle\nradius = 1e300")
     .replace("initial_point = -1+0j", "offset_angle = 0"),
     "error: curve is not arc-length polarized: max |1/m - |x'|^2| = inf\n"),
    # the distance of an s from its [grid] node overflows
    (DARBOUX_INI.replace("kind = circle", "kind = samples\ncsv = {tmp}/span.csv")
     .replace("s0 = 0\ns1 = 1\nh = 1e-2", "s0 = 1e308\ns1 = 1.7e308\nh = 7e307"),
     "error: [curve] csv: {tmp}/span.csv: s = -1.7e+308 is off its [grid] node 1e+308\n"),
    # the picture's padded extent overflows; it is refused before either file is opened
    (_wide_motion("0+0j, 1.7e308+0j, 1.7e308+1e308j", "0.1", "0.1")
     + "\n[output]\ncsv = wide.csv\nsvg = wide.svg\n",
     "error: svg picture spans more than a float holds\n"),
    # a vertex rebuilt from the edges overflows, though the input's is finite
    (_wide_motion("-1.5e308+0j, 0+0j, 1.5e308+0j"), "error: x is not finite at row 2, s = 0.0\n"),
    # an edge's vector overflows
    (_wide_motion("-1.5e308+0j, 1.5e308+0j, 1.5e308+1j"),
     "error: [curve] values: edge length is not finite at edge (0, 1)\n"),
], ids=["samples-tangent", "transform-tangent", "arclength-deviation", "csv-span", "svg-extent",
        "motion-rebuild", "polygon-edge"])
def test_an_overflow_prints_only_its_refusal(tmp_path, capsys, text, stderr):
    # pytest turns a numpy RuntimeWarning into an error, so none may escape
    (tmp_path / "overflow.csv").write_text(OVERFLOWING_CSV)
    (tmp_path / "span.csv").write_text("n,s,x,y\n0,-1.7e308,1,2\n0,1.7e308,1,2\n")
    cfg = _write(tmp_path, text.replace("{tmp}", str(tmp_path)))
    out = tmp_path / "out"
    command = re.search(r"command = (\w+)", text)[1]
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", stderr.replace("{tmp}", str(tmp_path)))
    assert list(out.glob("*")) == []


def test_an_overflowing_motion_step_is_a_numerical_failure(tmp_path, capsys):
    # math.sin refuses the angle that overflows in the first step
    text = (MOTION_INI.replace("kind = ngon\nn = 6", "kind = vertices\n"
                               "values = 0+0j, 1e-8+0j, 2e-8+1e-8j")
            .replace("-pi/6", "0.5").replace("s1 = 0.25\nh = 1e-3", "s1 = 1e300\nh = 1e300"))
    out = tmp_path / "out"
    assert main(["motion", "--config", _write(tmp_path, text), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", "numerical failure: integration blew up at grid index 1\n")
    assert not out.exists()


def test_a_picture_thinner_than_its_float_spacing_is_drawn(tmp_path, capsys):
    # 0.05 of the extent is below one spacing of 1e300, so a 5% margin alone
    # would be absorbed and leave a zero-width viewBox
    text = (MOTION_INI.replace("kind = ngon\nn = 6", "kind = vertices\n"
                               "values = 1e300+0j, 1e300+1j, 1e300+2j")
            .replace("-pi/6", "0.1").replace("s1 = 0.25\nh = 1e-3", "s1 = 0.1\nh = 0.01")
            + "\n[output]\ncsv = tiny.csv\nsvg = tiny.svg\n")
    out = tmp_path / "out"
    assert main(["motion", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    assert capsys.readouterr() == (f"{out / 'tiny.csv'}\n{out / 'tiny.svg'}\n", "")
    root = ET.parse(out / "tiny.svg").getroot()
    width, height = float(root.get("width")), float(root.get("height"))
    assert np.isfinite([width, height]).all() and width > 0 and height > 0


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


@pytest.mark.parametrize("h, message", [
    ("1e-320", "grid node count overflows: (s1 - s0)/h = inf"),
    ("1e-300", "grid node count is too large to allocate"),
    ("3", "step h = 3.0 is too coarse: the shortest check grid, [0, 0.4], gets 1 of the 5 "
          "nodes it needs"),
    ("0.2", "step h = 0.2 is too coarse"),
    ("0.12", "step h = 0.12 is too coarse"),
])
def test_verify_refuses_a_step_no_artifact_can_be_built_at(tmp_path, capsys, h, message):
    cfg = _write(tmp_path, "[run]\ncommand = verify\n")
    assert main(["verify", "--config", cfg, "--h", h]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_verify_builds_every_artifact_at_the_coarsest_step_it_takes(tmp_path, capsys):
    # h = 0.1 leaves [0, 0.4] its 5 nodes: the checks run, and fail on their bounds
    cfg = _write(tmp_path, "[run]\ncommand = verify\n")
    assert main(["verify", "--config", cfg, "--h", "0.1"]) == 3
    out = capsys.readouterr().out
    assert out.endswith("/12 checks passed\n") and "Error" not in out


def test_motion_scenario_evaluates_its_w0_once(tmp_path, monkeypatch):
    # once, on the stage abscissas, while loading; the motion reads those values
    sizes = []
    parse = config.parse_expression

    def counting_parse(text):
        fn = parse(text)
        return lambda s: sizes.append(np.size(s)) or fn(s)

    monkeypatch.setattr(config, "parse_expression", counting_parse)
    text = MOTION_INI.replace("w0 = -pi/6", "w0 = -pi/6 + 0.1*sin(s)")
    assert main(["motion", "--config", _write(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 0
    assert sizes == [2 * 251 - 1]


def test_a_failing_artifact_fails_its_checks_and_the_others_still_run(
        tmp_path, capsys, monkeypatch):
    def blow_up(vertices, w0, n0, grid):
        raise BlowupError("integration blew up at grid index 7", index=7)

    monkeypatch.setattr(verification, "integrate_motion", blow_up)
    # an override under a check that could not run is not an unknown name
    text = "[run]\ncommand = verify\n\n[verify]\nrotating-hexagon.edges = 1e-6\n"
    cfg = _write(tmp_path, text)
    assert main(["verify", "--config", cfg, "--h", "1e-2"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 13 and lines[-1] == "6/12 checks passed"
    failed = [line.split()[1].rstrip(":") for line in lines[:12] if line.startswith("FAIL")]
    assert failed == ["rotating-hexagon", "mkdv-generic", "iso-cross-ratio",
                      "pipelines-agree", "frameless-identity", "frame-compatibility"]
    for line in lines[:12]:
        assert line.startswith("PASS") or line.endswith(
            ": BlowupError: integration blew up at grid index 7")


# The scenario files, and README's ```ini blocks under README-<k> names.
SHIPPED = {p.name: p for p in SCENARIO_DIR.glob("*.ini")}
SHIPPED.update((f"README-{k}", text) for k, text in enumerate(
    re.findall(r"```ini\n(.*?)```", README.read_text(), re.S), 1))


def test_readme_has_four_scenario_examples():
    assert sorted(name for name in SHIPPED if name.startswith("README-")) == [
        "README-1", "README-2", "README-3", "README-4"]


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_scenarios_parse(tmp_path, name):
    source = SHIPPED[name]
    path = source if isinstance(source, pathlib.Path) else _write(tmp_path, source)
    sc = load_scenario(path)
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
        assert captured.err == "error: [polarization] m: polarization vanishes at s = 0.0\n"
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
    assert proc.stderr == "error: [polarization] m: polarization is not finite at s = 0.5\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("w0, where", [
    ("1/(s-0.25)", " at s = 0.25"),
    # a pole at a step midpoint, where the loader looks
    ("1/(s-0.0095)", " at s = 0.0095"),
    # a constant fails at every stage, so at s0
    ("1/0", " at s = 0.0"), ("exp(1000)", " at s = 0.0"), ("1/0 + s", " at s = 0.0")])
def test_non_finite_w0_is_a_usage_error(tmp_path, capsys, recwarn, w0, where):
    text = (SCENARIO_DIR / "motion_hexagon.ini").read_text().replace(
        "w0 = -pi/6 ", f"w0 = {w0} ")
    assert main(["motion", "--config", _write(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [parameters] w0: {w0!r} is not finite{where}\n"
    assert captured.out == ""
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("w0", ["-" * 5000 + "1", "1+" * 3000 + "1"],
                         ids=["unary-minus", "sum"])
def test_deeply_nested_w0_is_a_usage_error(tmp_path, capsys, w0):
    text = (SCENARIO_DIR / "motion_hexagon.ini").read_text().replace(
        "w0 = -pi/6 ", f"w0 = {w0} ")
    assert main(["motion", "--config", _write(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: [parameters] w0: expression is nested too deeply\n"
    assert captured.out == ""


@pytest.mark.parametrize("args", [["--tol", "10"], ["--h", "1e-2", "--tol", "100"]],
                         ids=["tol-10", "coarse-h-tol-100"])
def test_tol_loosens_lower_and_upper_bounds(tmp_path, capsys, session_artifacts, args):
    cfg = _write(tmp_path, "[run]\ncommand = verify\n")
    assert main(["verify", "--config", cfg, *args]) == 0
    out = capsys.readouterr().out
    assert out.endswith("12/12 checks passed\n")
    assert "FAIL" not in out


def test_tol_does_not_move_fixed_bounds(tmp_path, capsys, session_artifacts,
                                       acceptance_results):
    cfg = _write(tmp_path, "[run]\ncommand = verify\n")
    assert main(["verify", "--config", cfg, "--tol", "1e6"]) == 0
    out = capsys.readouterr().out
    assert "; svg polylines 3 == 3; svg markers 1 == 1\n" in out
    assert "; mismatched lam spread 0.0755 > 0.0001\n" in out
    assert " > 1; non-unit-speed column deviation " in out
    # the named bounds did move: an upper bound times 1e6, a lower one over
    # it, next to the values this run measured
    (_, error, _, _), (_, ratio, _, _) = acceptance_results["rotated-circle-darboux"].bounds
    assert f"max error {error:.3g} < 1; halving ratio {ratio:.3g} >= 1e-05\n" in out
