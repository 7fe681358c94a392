"""CSV round-trips and SVG structure."""
import math
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from darbouxflow.config import load_scenario
from darbouxflow.errors import CurveError
from darbouxflow.geometry import SGrid, Sheet
from darbouxflow.output import read_csv, svg_text, write_csv, write_svg


def _sample_sheet():
    grid = SGrid.from_step(0.0, 2 * math.pi, 0.1)
    s = grid.values()
    return Sheet(grid, np.vstack([np.exp(1j * s), 0.5 * np.exp(-1j * s) + 0.25]))


def test_csv_round_trip_is_bit_identical(tmp_path):
    sheet = _sample_sheet()
    path = tmp_path / "sheet.csv"
    write_csv(path, sheet)
    s, values, labels = read_csv(path)
    assert np.array_equal(s, sheet.grid.values())
    assert np.array_equal(values, sheet.values)
    assert labels == [0, 1]


def test_csv_header_and_line_endings(tmp_path):
    path = tmp_path / "sheet.csv"
    write_csv(path, _sample_sheet())
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"n,s,x,y\n")
    assert raw.endswith(b"\n")


def test_csv_17_digit_format(tmp_path):
    grid = SGrid(0.0, 1.0, 1)
    sheet = Sheet(grid, np.array([[1 / 3 + 0j]]))
    path = tmp_path / "third.csv"
    write_csv(path, sheet)
    assert "0.33333333333333331" in path.read_text()


@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(2, 8), st.just(2)),
                  elements=st.floats(-1e300, 1e300, allow_nan=False, width=64)))
def test_csv_floats_survive_verbatim(tmp_path_factory, xy):
    tmp = tmp_path_factory.mktemp("csv")
    sheet = Sheet(SGrid(0.0, 1.0, xy.shape[1]), xy.view(complex)[..., 0])
    path = tmp / "rows.csv"
    write_csv(path, sheet)
    assert path.read_bytes() == _reference_csv_text(sheet).encode()
    assert np.array_equal(read_csv(path)[1], sheet.values)


def _reference_csv_text(sheet):
    """The CSV text formatted point by point from numpy scalars."""
    svals = sheet.grid.values()
    lines = ["n,s,x,y"]
    for n in range(sheet.rows):
        row = sheet.values[n]
        lines.extend(f"{n},{format(float(svals[i]), '.17g')},"
                     f"{format(float(row[i].real), '.17g')},"
                     f"{format(float(row[i].imag), '.17g')}"
                     for i in range(sheet.grid.count))
    return "\n".join(lines) + "\n"


def _reference_svg_text(curves, colors=None, markers=()):
    """svg_text with every point formatted one numpy scalar at a time."""
    def fmt(value):
        return format(float(value), ".8g")

    curves = [np.asarray(c, dtype=complex).ravel() for c in curves]
    markers = [complex(m) for m in markers]
    allpts = np.concatenate(curves + ([np.asarray(markers)] if markers else []))
    xmin, xmax = float(allpts.real.min()), float(allpts.real.max())
    ymin, ymax = float(allpts.imag.min()), float(allpts.imag.max())
    margin = 0.05 * max(xmax - xmin, ymax - ymin, 1e-30)
    xmin, xmax, ymin, ymax = xmin - margin, xmax + margin, ymin - margin, ymax + margin
    width, height = xmax - xmin, ymax - ymin
    stroke = max(width, height) / 240.0
    colors = colors or [("red", "blue", "black")[i % 3] for i in range(len(curves))]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{fmt(480.0)}" height="{fmt(480.0 * height / width)}" '
             f'viewBox="{fmt(xmin)} {fmt(ymin)} {fmt(width)} {fmt(height)}">']
    for curve, color in zip(curves, colors):
        pts = " ".join(f"{fmt(z.real)},{fmt(ymin + ymax - z.imag)}" for z in curve)
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="{fmt(stroke)}" points="{pts}"/>')
    for m in markers:
        parts.append(f'<circle cx="{fmt(m.real)}" cy="{fmt(ymin + ymax - m.imag)}" '
                     f'r="{fmt(2.5 * stroke)}" fill="black"/>')
    return "\n".join(parts + ["</svg>"]) + "\n"


def _edge_sheets():
    rng = np.random.default_rng(17)
    odd = np.array([complex(-0.0, 1e-300), complex(1e300, -0.0), 2 + 3j,
                    complex(-1e-300, -0.0), 1 / 3 - 1e300j])
    yield Sheet(SGrid.from_step(-2.0, 2.0, 1.0), np.vstack([odd, odd[::-1].conj()]))
    yield Sheet(SGrid(-0.0, 1.0, 1), np.array([[-0.0 - 0.0j]]))
    yield Sheet(SGrid.from_step(0.0, 1.0, 1e-2),
                rng.standard_normal((64, 101)) + 1j * rng.standard_normal((64, 101)))


def test_writers_match_the_point_by_point_text(tmp_path):
    path = tmp_path / "sheet.csv"
    for sheet in _edge_sheets():
        write_csv(path, sheet)
        assert path.read_bytes() == _reference_csv_text(sheet).encode()
        curves = list(sheet.values)
        assert svg_text(curves) == _reference_svg_text(curves)
        marked = dict(colors=["green"] * len(curves), markers=[curves[0][0], 1e300j])
        assert svg_text(curves, **marked) == _reference_svg_text(curves, **marked)


def test_read_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c,d\n0,0,1,2\n")
    with pytest.raises(CurveError):
        read_csv(p)


def test_read_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("n,s,x,y\n0,0.0,1,0\n0,0.5,1,0\n1,0.0,2,0\n")
    with pytest.raises(CurveError):
        read_csv(p)


def test_read_csv_rejects_mismatched_grids(tmp_path):
    p = tmp_path / "grids.csv"
    p.write_text("n,s,x,y\n0,0.0,1,0\n0,0.5,1,0\n1,0.0,2,0\n1,0.7,2,0\n")
    with pytest.raises(CurveError):
        read_csv(p)



def _load_samples(tmp_path, path, grid="0 1 0.25"):
    """Read ``path`` back as a samples curve over ``grid`` ("s0 s1 h"), as every
    export job reads its motion CSV."""
    s0, s1, h = grid.split()
    ini = tmp_path / "samples.ini"
    ini.write_text(f"[run]\ncommand = darboux\n[curve]\nkind = samples\ncsv = {path}\n"
                   "[polarization]\nmu = 0.25\n[parameters]\ninitial_point = -1+0j\n"
                   f"[grid]\ns0 = {s0}\ns1 = {s1}\nh = {h}\n")
    return load_scenario(ini)


@pytest.mark.parametrize("text, grid, message", [
    ("", None, "expected an 'n,s,x,y' header"),
    ("n,s,x,y\n", None, "no data rows"),
    ("n,s,x,y\n\n\n", None, "no data rows"),
    ("n,s,x,y\n0,0,1,0\n0,abc,1,0\n", None, "could not convert string 'abc'"),
    ("n,s,x,y\n#1,0,1,0\n", None, "could not convert string '#1'"),
    ("n,s,x,y\n0,0,1,0\n0,1,1\n", None, "number of columns changed"),
    ("n,s,x,y\n0,0,1\n0,1,1\n", None, "rows have 3 fields"),
    ("n,s,x,y\n0.5,0,1,0\n", None, "n must be an integer, got 0.5"),
    ("n,s,x,y\ninf,0,1,0\n", None, "n must be an integer, got inf"),
    ("n,s,x,y\n0,0,1,0\n0,1,nan,0\n", None, "data row 2 has a non-finite field"),
    ("n,s,x,y\n0,0,1,0\n0,inf,1,0\n", None, "data row 2 has a non-finite field"),
    ("n,s,x,y\n0,0,1,-inf\n", None, "data row 1 has a non-finite field"),
    ("n,s,x,y\n0,0,0,0\n0,0.5,1,0\n1,0,nan,0\n1,0.5,1,1\n", None,
     "data row 3 has a non-finite field"),
    # the grid rule: each s sits on its [grid] node
    ("n,s,x,y\n" + "".join(f"0,{1 - k / 8},{k},0\n" for k in range(8)), "0.125 1 0.125",
     "s = 1.0 is off its [grid] node 0.125"),
    ("n,s,x,y\n0,0.5,0,0\n0,0.5,1,0\n0,0.5,2,0\n", "0.5 1.5 0.5",
     "s = 0.5 is off its [grid] node 1.0"),
    ("n,s,x,y\n0,1,0,0\n0,0,1,0\n", "0 1 1", "s = 1.0 is off its [grid] node 0.0"),
    # an s whose distance to its node overflows is refused without numpy's warning
    ("n,s,x,y\n0,-1.7e308,1,2\n0,1.7e308,1,2\n", "1e308 1.7e308 7e307",
     "s = -1.7e+308 is off its [grid] node 1e+308"),
    ("n,s,x,y\n0,1e308,1,2\n0,1.7e308,1,2\n0,-1.7e308,1,2\n", "-8e307 8e307 8e307",
     "s = 1e+308 is off its [grid] node -8e+307"),
    ("n,s,x,y\n0,0,0,0\n0,1,1,0\n", None, "2 s values for 5 [grid] nodes"),
], ids=["empty", "header-only", "blank-body", "text-field", "hash-row", "short-row",
        "three-fields", "fractional-n", "infinite-n", "nan-x", "infinite-s", "infinite-y",
        "nan-in-second-row", "decreasing-s", "constant-s", "reversed-pair", "overflowing-span",
        "overflowing-fall", "too-few-nodes"])
def test_read_csv_rejects_malformed_files(tmp_path, text, grid, message):
    # read back as a samples curve: one line naming the key and the file, no warning
    p = tmp_path / "bad.csv"
    p.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            _load_samples(tmp_path, p, grid or "0 1 0.25")
    text = str(info.value)
    assert text.startswith(f"[curve] csv: {p}: ") and message in text and "\n" not in text


def test_read_csv_groups_interleaved_rows_by_n(tmp_path):
    # rows of different n may interleave, in any order of n; each n keeps
    # its rows in file order and the sheet's rows come out sorted by n
    p = tmp_path / "mixed.csv"
    p.write_text("n, s, x, y\n2,0,5,-0.0\n0,0,1,0\n2,0.5,6,1\n0,0.5,2,0\n")
    s, values, labels = read_csv(p)
    assert np.array_equal(s, [0.0, 0.5])
    assert np.array_equal(values, [[1, 2], [5, 6 + 1j]])
    assert labels == [0, 2]
    assert math.copysign(1.0, values[1, 0].imag) == -1.0


#: s steps 0.1, 0.4, 0.1, 0.2 over the span of s0 = 0, s1 = 0.8, h = 0.2.
UNEVEN_CSV = "n,s,x,y\n" + "".join(f"0,{s!r},{s!r},0\n" for s in (0.0, 0.1, 0.5, 0.6, 0.8))


def test_read_csv_rejects_uneven_spacing(tmp_path):
    p = tmp_path / "uneven.csv"
    p.write_text(UNEVEN_CSV)
    with pytest.raises(ValueError, match=r"^\[curve\] csv: .*: s = 0\.1 is off its \[grid\] "
                                         r"node 0\.2$"):
        _load_samples(tmp_path, p, "0 0.8 0.2")


def test_read_csv_spacing_tolerance(tmp_path):
    # 1e-11 h of jitter is round-off and passes; 1e-8 h is a different grid
    h = 0.25
    for jitter, ok in ((1e-11, True), (1e-8, False)):
        s = h * np.arange(5)
        s[2] += jitter * h
        p = tmp_path / f"jitter{ok}.csv"
        p.write_text("n,s,x,y\n" + "".join(f"0,{float(v)!r},{float(v)!r},0\n" for v in s))
        if ok:
            assert np.array_equal(_load_samples(tmp_path, p).source.points, s)
        else:
            with pytest.raises(ValueError, match=r"s = 0\.5000000025 is off its \[grid\] "
                                                 r"node 0\.5$"):
                _load_samples(tmp_path, p)

# ------------------------------------------------------------------ svg

def test_svg_is_valid_xml_with_polylines_and_marker():
    s = np.linspace(0.0, 2 * math.pi, 50)
    doc = svg_text([np.exp(1j * s), 2 * np.exp(1j * s)], markers=[1 + 0j])
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert root.get("version") == "1.1"
    kids = [child.tag.split("}")[-1] for child in root]
    assert kids.count("polyline") == 2
    assert kids.count("circle") == 1


def test_svg_viewbox_margin():
    square = np.array([0, 1, 1 + 1j, 1j, 0], dtype=complex)
    root = ET.fromstring(svg_text([square]))
    x0, y0, w, h = (float(v) for v in root.get("viewBox").split())
    assert x0 == pytest.approx(-0.05)
    assert y0 == pytest.approx(-0.05)
    assert w == pytest.approx(1.1)
    assert h == pytest.approx(1.1)
    # one point has no extent: the margin falls back to one float spacing
    root = ET.fromstring(svg_text([np.array([1 + 1j])]))
    assert [float(v) for v in root.get("viewBox").split()][2:] == [4.4408921e-16] * 2


def test_svg_color_cycle_and_override():
    s = np.linspace(0.0, 1.0, 5)
    curves = [s + 1j * k for k in range(4)]
    root = ET.fromstring(svg_text(curves))
    strokes = [c.get("stroke") for c in root if c.tag.endswith("polyline")]
    assert strokes == ["red", "blue", "black", "red"]
    root = ET.fromstring(svg_text(curves, colors=["green"] * 4))
    strokes = [c.get("stroke") for c in root if c.tag.endswith("polyline")]
    assert strokes == ["green"] * 4
    with pytest.raises(CurveError):
        svg_text(curves, colors=["green"])


def test_svg_flips_y():
    # the point with the largest imaginary part must get the smallest cy
    curve = np.array([0j, 1j], dtype=complex)
    root = ET.fromstring(svg_text([curve], markers=[0j, 1j]))
    cys = [float(c.get("cy")) for c in root if c.tag.endswith("circle")]
    assert cys[1] < cys[0]


def test_svg_needs_data():
    with pytest.raises(CurveError):
        svg_text([])
    with pytest.raises(CurveError):
        svg_text([np.array([], dtype=complex)])


def test_write_svg_creates_file(tmp_path):
    p = tmp_path / "pic.svg"
    write_svg(p, [np.array([0, 1 + 1j])])
    text = p.read_text()
    assert text.startswith("<svg")
    assert "\r" not in text
