"""Scenario parsing: happy paths and the validation messages."""
import math

import numpy as np
import pytest

from darbouxflow import SGrid, Sheet, write_csv
from darbouxflow.config import COMMANDS, ConfigError, load_scenario


def _write(tmp_path, text, name="scenario.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


DARBOUX_INI = """
[run]
command = darboux

[curve]
kind = circle
radius = 1.0

[polarization]
m = 1
mu = 0.25

[parameters]
initial_point = -1+0j

[grid]
s0 = 0
s1 = 1
h = 1e-2

[output]
csv = out.csv
svg = out.svg
"""


def test_darboux_scenario(tmp_path):
    sc = load_scenario(_write(tmp_path, DARBOUX_INI))
    assert sc.command == "darboux"
    assert sc.mu == 0.25
    assert sc.initial_point == -1 + 0j
    assert sc.offset_angle is None
    assert sc.grid.count == 101
    assert sc.csv_path == "out.csv"
    assert sc.svg_path == "out.svg"
    assert abs(sc.source.points[0] - 1.0) < 1e-15


def test_darboux_offset_angle_means_arclength(tmp_path):
    text = DARBOUX_INI.replace("initial_point = -1+0j", "offset_angle = 3.14159")
    sc = load_scenario(_write(tmp_path, text))
    assert sc.offset_angle == pytest.approx(3.14159)
    assert sc.initial_point is None


def test_darboux_rejects_both_seed_forms(tmp_path):
    text = DARBOUX_INI.replace(
        "initial_point = -1+0j", "initial_point = -1+0j\noffset_angle = 1.0")
    with pytest.raises(ConfigError, match="not both"):
        load_scenario(_write(tmp_path, text))


def test_darboux_needs_mu(tmp_path):
    text = DARBOUX_INI.replace("mu = 0.25", "")
    with pytest.raises(ConfigError, match="mu"):
        load_scenario(_write(tmp_path, text))


@pytest.mark.parametrize("section", ["polarization", "parameters"])
def test_bad_mu_names_its_own_section(tmp_path, section):
    text = DARBOUX_INI.replace("mu = 0.25\n", "").replace(
        f"[{section}]\n", f"[{section}]\nmu = abc\n")
    with pytest.raises(ConfigError, match=rf"^\[{section}\] mu: not a number: 'abc'$"):
        load_scenario(_write(tmp_path, text))


def test_point_pair_syntax(tmp_path):
    text = DARBOUX_INI.replace("initial_point = -1+0j", "initial_point = (-1, 0.5)")
    sc = load_scenario(_write(tmp_path, text))
    assert sc.initial_point == -1 + 0.5j


FLOW_INI = """
[run]
command = flow

[curve]
kind = vertices
values = 0+0j, 2+0j, 4+0j, 6+0j

[polarization]
m = 1
mu = arclength

[initial]
kind = line

[grid]
s0 = 0
s1 = 1
h = 1e-2
"""


def test_flow_scenario_with_arclength_mu(tmp_path):
    sc = load_scenario(_write(tmp_path, FLOW_INI))
    assert sc.command == "flow"
    assert np.allclose(sc.base.mu, 0.25)
    assert sc.n0 == 0
    assert sc.initial.points[0] == 0


def test_vertex_list_takes_both_point_forms(tmp_path):
    text = FLOW_INI.replace("0+0j, 2+0j, 4+0j, 6+0j", "(0, 0), 2+0j, (4, 0.5),6+1j")
    sc = load_scenario(_write(tmp_path, text))
    assert list(sc.base.vertices) == [0, 2, 4 + 0.5j, 6 + 1j]
    text = FLOW_INI.replace("0+0j, 2+0j, 4+0j, 6+0j", "(0, 0), (2, 0")
    with pytest.raises(ConfigError, match=r"^\[curve\] values: not a plane point: ' \(2'$"):
        load_scenario(_write(tmp_path, text))


def test_flow_mu_per_edge_list(tmp_path):
    text = FLOW_INI.replace("mu = arclength", "mu = 0.25, 0.5, 0.25")
    sc = load_scenario(_write(tmp_path, text))
    assert list(sc.base.mu) == pytest.approx([0.25, 0.5, 0.25])


def test_flow_mu_list_length_checked(tmp_path):
    text = FLOW_INI.replace("mu = arclength", "mu = 0.25, 0.5")
    with pytest.raises(ConfigError, match="per edge"):
        load_scenario(_write(tmp_path, text))


def test_flow_needs_initial_section(tmp_path):
    text = FLOW_INI.replace("[initial]\nkind = line\n", "")
    with pytest.raises(ConfigError, match="initial"):
        load_scenario(_write(tmp_path, text))


MOTION_INI = """
[run]
command = motion

[curve]
kind = ngon
n = 6

[parameters]
w0 = -pi/6
n0 = 0

[grid]
s0 = 0
s1 = 0.5
h = 1e-3
"""


def test_motion_scenario_constant_w0(tmp_path):
    sc = load_scenario(_write(tmp_path, MOTION_INI))
    assert sc.command == "motion"
    assert isinstance(sc.w0, float)
    assert sc.w0 == pytest.approx(-math.pi / 6)
    assert len(sc.vertices) == 7


def test_motion_expression_w0_stays_callable(tmp_path):
    text = MOTION_INI.replace("w0 = -pi/6", "w0 = 0.2*sin(s)")
    sc = load_scenario(_write(tmp_path, text))
    assert callable(sc.w0)
    assert sc.w0(math.pi / 2) == pytest.approx(0.2)


def test_samples_curve_round_trip(tmp_path):
    grid = SGrid.from_step(0.0, 1.0, 1e-2)
    s = grid.values()
    write_csv(tmp_path / "c.csv", Sheet(grid, np.vstack([np.exp(1j * s)])))
    text = DARBOUX_INI.replace(
        "kind = circle\nradius = 1.0",
        f"kind = samples\ncsv = {tmp_path / 'c.csv'}\nrow = 0")
    sc = load_scenario(_write(tmp_path, text))
    assert np.abs(sc.source.points - np.exp(1j * s)).max() == 0.0


def test_samples_grid_must_match(tmp_path):
    other = SGrid.from_step(0.0, 2.0, 1e-2)
    s = other.values()
    write_csv(tmp_path / "c.csv", Sheet(other, np.vstack([np.exp(1j * s)])))
    text = DARBOUX_INI.replace(
        "kind = circle\nradius = 1.0",
        f"kind = samples\ncsv = {tmp_path / 'c.csv'}\nrow = 0")
    with pytest.raises(ConfigError, match="grid"):
        load_scenario(_write(tmp_path, text))


def test_samples_curve_must_be_evenly_spaced(tmp_path):
    # s steps 0.1, 0.4, 0.1, 0.2 over a span that matches s0 = 0, s1 = 0.8, h = 0.2
    (tmp_path / "c.csv").write_text(
        "n,s,x,y\n" + "".join(f"0,{s!r},{s!r},0\n" for s in (0.0, 0.1, 0.5, 0.6, 0.8)))
    text = DARBOUX_INI.replace(
        "kind = circle\nradius = 1.0",
        f"kind = samples\ncsv = {tmp_path / 'c.csv'}\nrow = 0").replace(
        "s1 = 1\nh = 1e-2", "s1 = 0.8\nh = 0.2")
    with pytest.raises(ConfigError, match="not evenly spaced"):
        load_scenario(_write(tmp_path, text))


def test_command_line_overrides_and_conflicts(tmp_path):
    p = _write(tmp_path, DARBOUX_INI)
    sc = load_scenario(p, command="darboux")
    assert sc.command == "darboux"
    with pytest.raises(ConfigError, match="command"):
        load_scenario(p, command="flow")


def test_h_override_rebuilds_grid(tmp_path):
    sc = load_scenario(_write(tmp_path, DARBOUX_INI), h_override=1e-3)
    assert sc.grid.count == 1001
    with pytest.raises(ConfigError, match="--h"):
        load_scenario(_write(tmp_path, DARBOUX_INI), h_override=-1.0)


def test_verify_section_tolerances(tmp_path):
    text = "[run]\ncommand = verify\n\n[verify]\nlemma-identities = 1e-6\n"
    sc = load_scenario(_write(tmp_path, text))
    assert sc.tolerances == {"lemma-identities": 1e-6}


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(ConfigError, match="command"):
        load_scenario(_write(tmp_path, "[run]\ncommand = dance\n"))
    assert "verify" in COMMANDS


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario("/nonexistent/path.ini")


def test_bad_ngon_and_unknown_kind(tmp_path):
    text = MOTION_INI.replace("n = 6", "n = 2")
    with pytest.raises(ConfigError):
        load_scenario(_write(tmp_path, text))
    text = MOTION_INI.replace("kind = ngon\nn = 6", "kind = blob")
    with pytest.raises(ConfigError, match="blob"):
        load_scenario(_write(tmp_path, text))
