import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdlab.svgplot import MARGIN, PANEL_H, PANEL_W, Panel, _fmt, write_svg

SVG_NS = "{http://www.w3.org/2000/svg}"


def two_panel_figure():
    x = np.linspace(0.0, 1.0, 10)
    left = Panel(title="left", xlabel="x", ylabel="y")
    left.add(x, x ** 2, label="square")
    left.add(x, x, color="#d62728", label="line", dash="4,3")
    right = Panel(title="right")
    right.add(x, np.sin(x))
    return [left, right]


def test_output_is_byte_identical_across_calls(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    write_svg(a, two_panel_figure())
    write_svg(b, two_panel_figure())
    assert a.read_bytes() == b.read_bytes()


def test_svg_is_well_formed_with_expected_structure(tmp_path):
    path = tmp_path / "fig.svg"
    write_svg(path, two_panel_figure())
    root = ET.parse(path).getroot()
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("width") == str(2 * PANEL_W)
    assert root.get("height") == str(PANEL_H)
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 3
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert "left" in texts and "right" in texts
    assert "square" in texts and "line" in texts


def test_flat_series_does_not_divide_by_zero(tmp_path):
    panel = Panel()
    panel.add([0.0, 1.0], [0.5, 0.5])
    write_svg(tmp_path / "flat.svg", [panel])
    content = (tmp_path / "flat.svg").read_text()
    assert "nan" not in content and "inf" not in content


def test_no_timestamps_or_external_references(tmp_path):
    path = tmp_path / "fig.svg"
    write_svg(path, two_panel_figure())
    content = path.read_text()
    assert "date" not in content.lower()
    assert "http" not in content.replace("http://www.w3.org/2000/svg", "")


def per_point_polylines(panels):
    """Each series' polyline points as write_svg rendered them point by
    point, before the coordinates were scaled as arrays."""
    out = []
    for i, panel in enumerate(panels):
        x0, x1, y0, y1 = panel.bounds()
        left, top = i * PANEL_W + MARGIN, MARGIN
        w, h = PANEL_W - 2 * MARGIN, PANEL_H - 2 * MARGIN

        def sx(x):
            return left + (x - x0) / (x1 - x0) * w

        def sy(y):
            return top + h - (y - y0) / (y1 - y0) * h

        out += [" ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(s.x, s.y))
                for s in panel.series]
    return out


def written_polylines(path):
    return re.findall(r'<polyline points="([^"]*)"', path.read_text())


def figure(*panels):
    """Panels from lists of (x, y) series."""
    out = []
    for series in panels:
        panel = Panel()
        for x, y in series:
            panel.add(x, y)
        out.append(panel)
    return out


X = np.linspace(0.0, 1.0, 7)
FIGURES = {
    "flat": figure([(X, np.full(7, 0.25))]),
    "single point": figure([([0.3], [0.7])]),
    "negative": figure([(-X, -3.0 * X ** 2), (X - 0.5, np.sin(X) - 2.0)]),
    "near 1e-300": figure([(1e-300 * X, 3e-300 * X[::-1]), (2e-300 * X, 1e-300 * X)]),
    "several panels": figure([(X, X)], [(X, 1e6 * X), ([1.0], [1.0])], [(X, np.exp(-X))]),
    "one shared x": figure([(X, X), (X, X ** 2), (X, -X)], [(X, X), (X[:3], X[:3])]),
    "equal x in distinct arrays": figure([(X, np.sin(X)), (X.copy(), np.cos(X)), (X + 0.0, X)]),
    "x reversed": figure([(X, X), (X[::-1], X), (X, X[::-1])]),
    "x of -0.0 and 0.0": figure([(np.array([-0.0, 0.5, 1.0]), [0.1, 0.2, 0.3]),
                                 (np.array([0.0, 0.5, 1.0]), [0.3, 0.2, 0.1])],
                                [(np.array([-1.0, -0.0]), [1.0, 2.0]),
                                 (np.array([-1.0, 0.0]), [2.0, 1.0])]),
    "nan in y": figure([(X, np.where(X > 0.5, np.nan, X)), (X, X)]),
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_polylines_are_the_per_point_rendering(tmp_path, name):
    path = tmp_path / "fig.svg"
    write_svg(path, FIGURES[name])
    assert written_polylines(path) == per_point_polylines(FIGURES[name])


coords = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(max_examples=100, deadline=None)
@given(scales=st.lists(st.sampled_from([1e-300, 1e-8, 1.0, 1e6]), min_size=1, max_size=3),
       data=st.data())
def test_drawn_polylines_are_the_per_point_rendering(tmp_path_factory, scales, data):
    """Series drawn at each panel's scale, from one point to many."""
    panels = []
    for scale in scales:
        series = data.draw(st.lists(st.integers(1, 12).flatmap(
            lambda n: st.tuples(st.lists(coords, min_size=n, max_size=n),
                                st.lists(coords, min_size=n, max_size=n))),
            min_size=1, max_size=3))
        panels += figure([(scale * np.array(a), scale * np.array(b)) for a, b in series])
    path = tmp_path_factory.mktemp("svg") / "fig.svg"
    write_svg(path, panels)
    assert written_polylines(path) == per_point_polylines(panels)
