"""Minimal deterministic SVG 1.1 line plots.

CSV is the canonical output of every experiment; these figures are a
convenience rendering. No timestamps, no randomness: identical input
produces identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PANEL_W = 360
PANEL_H = 300
MARGIN = 48


def _fmt(v: float) -> str:
    return f"{v:.6g}"


@dataclass
class Series:
    x: np.ndarray
    y: np.ndarray
    color: str = "#1f77b4"
    label: str = ""
    width: float = 1.5
    dash: str = ""  # e.g. "4,3" for dashed


@dataclass
class Panel:
    series: list = field(default_factory=list)
    title: str = ""
    xlabel: str = ""
    ylabel: str = ""

    def add(self, x, y, **kwargs) -> "Panel":
        self.series.append(Series(np.asarray(x, dtype=float),
                                  np.asarray(y, dtype=float), **kwargs))
        return self

    def bounds(self):
        xs = np.concatenate([s.x for s in self.series])
        ys = np.concatenate([s.y for s in self.series])
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = float(ys.min()), float(ys.max())
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        return x0, x1, y0, y1


def _panel_svg(panel: Panel, ox: float) -> list:
    x0, x1, y0, y1 = panel.bounds()
    left, top = ox + MARGIN, MARGIN
    w, h = PANEL_W - 2 * MARGIN, PANEL_H - 2 * MARGIN

    def sx(x):
        return left + (x - x0) / (x1 - x0) * w

    def sy(y):
        return top + h - (y - y0) / (y1 - y0) * h

    out = [f'<rect x="{left}" y="{top}" width="{w}" height="{h}" '
           'fill="none" stroke="#000000" stroke-width="1"/>']
    if panel.title:
        out.append(f'<text x="{left + w / 2}" y="{top - 10}" text-anchor="middle" '
                   f'font-size="13">{panel.title}</text>')
    if panel.xlabel:
        out.append(f'<text x="{left + w / 2}" y="{top + h + 32}" '
                   f'text-anchor="middle" font-size="11">{panel.xlabel}</text>')
    if panel.ylabel:
        cx, cy = ox + 14, top + h / 2
        out.append(f'<text x="{cx}" y="{cy}" text-anchor="middle" font-size="11" '
                   f'transform="rotate(-90 {cx} {cy})">{panel.ylabel}</text>')
    for value, anchor, px, py in [
        (x0, "start", left, top + h + 14), (x1, "end", left + w, top + h + 14),
    ]:
        out.append(f'<text x="{px}" y="{py}" text-anchor="{anchor}" '
                   f'font-size="10">{_fmt(value)}</text>')
    for value, py in [(y0, top + h), (y1, top + 8)]:
        out.append(f'<text x="{left - 4}" y="{py}" text-anchor="end" '
                   f'font-size="10">{_fmt(value)}</text>')
    points = {}  # each distinct x grid's points, with a %.6g slot for each y
    for s in panel.series:
        if (key := s.x.tobytes()) not in points:
            points[key] = " ".join(["%.6g,%%.6g"] * len(s.x)) % tuple(sx(s.x).tolist())
        pts = points[key] % tuple(sy(s.y).tolist())
        dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
        out.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                   f'stroke-width="{s.width}"{dash}/>')
    # legend: first occurrence of each label, in series order
    seen, entries = set(), []
    for s in panel.series:
        if s.label and s.label not in seen:
            seen.add(s.label)
            entries.append(s)
    for i, s in enumerate(entries):
        ly = top + 14 + 16 * i
        out.append(f'<line x1="{left + w - 86}" y1="{ly - 4}" x2="{left + w - 66}" '
                   f'y2="{ly - 4}" stroke="{s.color}" stroke-width="{s.width}"/>')
        out.append(f'<text x="{left + w - 62}" y="{ly}" font-size="10">{s.label}</text>')
    return out


def write_svg(path, panels) -> None:
    """Render the panels side by side into an SVG 1.1 file."""
    panels = list(panels)
    total_w = PANEL_W * len(panels)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{total_w}" height="{PANEL_H}" '
        f'viewBox="0 0 {total_w} {PANEL_H}" font-family="sans-serif">',
        f'<rect width="{total_w}" height="{PANEL_H}" fill="#ffffff"/>',
    ]
    for i, panel in enumerate(panels):
        lines.extend(_panel_svg(panel, i * PANEL_W))
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n")
