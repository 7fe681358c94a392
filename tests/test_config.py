"""Scenario parsing: happy paths and the validation messages."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darbouxflow import SGrid, Sheet, errors, write_csv
from darbouxflow.config import COMMANDS, ConfigError, load_scenario
from darbouxflow.errors import CurveError


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


@pytest.mark.parametrize("text, message", [
    (DARBOUX_INI.replace("mu = 0.25", "mu = abc"), "[polarization] mu: not a number: 'abc'"),
    # mu has one spelling: under [parameters] it is a key no command reads
    (DARBOUX_INI.replace("[parameters]\n", "[parameters]\nmu = abc\n"),
     "[parameters] mu: not read by the darboux command"),
], ids=["polarization", "parameters"])
def test_bad_mu_names_its_own_section(tmp_path, text, message):
    with pytest.raises(ConfigError) as info:
        load_scenario(_write(tmp_path, text))
    assert str(info.value) == message


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
    # w0 is held on the RK4 stage abscissas, the nodes and the step midpoints
    sc = load_scenario(_write(tmp_path, MOTION_INI))
    assert sc.command == "motion"
    assert sc.w0.shape == (2 * sc.grid.count - 1,)
    assert np.all(sc.w0 == -math.pi / 6)
    assert len(sc.vertices) == 7


def test_motion_expression_w0_is_resolved_on_the_stages(tmp_path):
    text = MOTION_INI.replace("w0 = -pi/6", "w0 = 0.2*sin(s)")
    sc = load_scenario(_write(tmp_path, text))
    assert np.array_equal(sc.w0, 0.2 * np.sin(sc.grid.refined_values()))


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
    with pytest.raises(ConfigError, match=r"^\[curve\] csv: .*: s = 0\.1 is off its \[grid\] "
                                          r"node 0\.2$"):
        load_scenario(_write(tmp_path, text))


def test_samples_summed_step_by_step_load(tmp_path):
    # s += h at s0 = 1e6 drifts up to 3 float spacings off the nodes, far more
    # than 1e-9 of the span: round-off, which the grid rule allows
    s = [1e6]
    for _ in range(8):
        s.append(s[-1] + 1e-3)
    (tmp_path / "c.csv").write_text("n,s,x,y\n" + "".join(
        f"0,{v!r},{k * 1e-3!r},0\n" for k, v in enumerate(s)))
    text = DARBOUX_INI.replace(
        "kind = circle\nradius = 1.0", f"kind = samples\ncsv = {tmp_path / 'c.csv'}").replace(
        "s0 = 0\ns1 = 1\nh = 1e-2", "s0 = 1e6\ns1 = 1000000.008\nh = 1e-3")
    sc = load_scenario(_write(tmp_path, text))
    assert not np.array_equal(s, sc.grid.values())
    assert np.array_equal(sc.source.points, np.arange(9) * 1e-3)


def test_samples_row_is_an_n_label(tmp_path):
    (tmp_path / "c.csv").write_text("n,s,x,y\n" + "".join(
        f"{n},{s!r},{s!r},{n}\n" for n in (7, 3) for s in (0.0, 0.25, 0.5, 0.75, 1.0)))
    text = DARBOUX_INI.replace("kind = circle\nradius = 1.0",
                               f"kind = samples\ncsv = {tmp_path / 'c.csv'}\nrow = 7").replace(
        "h = 1e-2", "h = 0.25")
    assert np.array_equal(load_scenario(_write(tmp_path, text)).source.points.imag, [7.0] * 5)
    with pytest.raises(ConfigError, match=r"^\[curve\] row: no n = 1 in .*c\.csv; its n are 3, 7$"):
        load_scenario(_write(tmp_path, text.replace("row = 7", "row = 1")))


@settings(derandomize=True, deadline=None)
@given(st.floats(-1e8, 1e8), st.floats(1e-3, 1.0), st.integers(5, 40))
def test_samples_read_back_at_any_offset(tmp_path_factory, s0, h, count):
    # the package reads its own CSV back at any s offset, bit for bit
    tmp = tmp_path_factory.mktemp("offset")
    grid = SGrid(s0, h, count)
    rows = np.exp(0.1j * np.arange(count)) * np.array([[1.0], [2.0]])
    write_csv(tmp / "c.csv", Sheet(grid, rows))
    text = DARBOUX_INI.replace(
        "kind = circle\nradius = 1.0", f"kind = samples\ncsv = {tmp / 'c.csv'}\nrow = 1").replace(
        "s0 = 0\ns1 = 1\nh = 1e-2", f"s0 = {s0!r}\ns1 = {grid.s1!r}\nh = {h!r}")
    assert np.array_equal(load_scenario(_write(tmp, text)).source.points, rows[1])


def test_command_line_overrides_and_conflicts(tmp_path):
    p = _write(tmp_path, DARBOUX_INI)
    sc = load_scenario(p, command="darboux")
    assert sc.command == "darboux"
    with pytest.raises(ConfigError, match="command"):
        load_scenario(p, command="flow")


def test_h_override_rebuilds_grid(tmp_path):
    sc = load_scenario(_write(tmp_path, DARBOUX_INI), h_override=1e-3)
    assert sc.grid.count == 1001
    # a bad step from a library caller is the grid's own error (the command
    # line refuses it while parsing)
    with pytest.raises(CurveError, match="grid step"):
        load_scenario(_write(tmp_path, DARBOUX_INI), h_override=-1.0)


def test_verify_section_tolerances(tmp_path):
    text = "[run]\ncommand = verify\n\n[verify]\nlemma-identities = 1e-6\n"
    sc = load_scenario(_write(tmp_path, text))
    assert sc.tolerances == {"lemma-identities": 1e-6}


@pytest.mark.parametrize("command, text, unread", [
    ("figure1", "[run]\ncommand = figure1\n[curve]\nkind = line\n"
                "[polarization]\nm = 2 + s\n", "[curve] kind, [polarization] m"),
    ("darboux", DARBOUX_INI.replace("kind = circle", "kind = line"), "[curve] radius"),
    ("darboux", DARBOUX_INI + "[verify]\nlemma-identities = 1e-6\n",
     "[verify] lemma-identities"),
    ("flow", FLOW_INI.replace("[initial]", "[parameters]\nw0 = 0.1\n[initial]"),
     "[parameters] w0"),
    ("motion", MOTION_INI.replace("[parameters]", "[polarization]\nm = 2\n[parameters]"),
     "[polarization] m"),
    ("verify", "[run]\ncommand = verify\n[grid]\ns0 = 0\ns1 = 1\nh = 1e-2\n",
     "[grid] s0, [grid] s1, [grid] h"),
    ("motion", "[DEFAULT]\nmu = 2\n" + MOTION_INI, "[DEFAULT] mu"),
    ("figure1", "[run]\ncommand = figure1\n[parameters]\nmu = 0.3\n", "[parameters] mu"),
], ids=["figure1", "darboux", "darboux-verify", "flow", "motion", "verify", "default",
        "figure1-parameters-mu"])
def test_keys_the_command_does_not_read_are_refused(tmp_path, command, text, unread):
    with pytest.raises(ConfigError) as info:
        load_scenario(_write(tmp_path, text), command)
    assert str(info.value) == f"{unread}: not read by the {command} command"


def test_a_default_key_read_by_one_section_is_read(tmp_path):
    sc = load_scenario(_write(tmp_path, "[DEFAULT]\nradius = 2\n" + MOTION_INI))
    assert abs(sc.vertices[0] - 2.0) < 1e-15


def test_unknown_command_rejected(tmp_path):
    with pytest.raises(ConfigError, match="command"):
        load_scenario(_write(tmp_path, "[run]\ncommand = dance\n"))
    assert "verify" in COMMANDS


def test_config_error_is_one_of_the_shared_error_types():
    assert ConfigError is errors.ConfigError and issubclass(ConfigError, ValueError)


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read"):
        load_scenario("/nonexistent/path.ini")


def test_bad_ngon_and_unknown_kind(tmp_path):
    text = MOTION_INI.replace("n = 6", "n = 2")
    with pytest.raises(CurveError, match=r"^\[curve\] n: "):
        load_scenario(_write(tmp_path, text))
    text = MOTION_INI.replace("kind = ngon\nn = 6", "kind = blob")
    with pytest.raises(ConfigError, match="blob"):
        load_scenario(_write(tmp_path, text))
