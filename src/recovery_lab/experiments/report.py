"""Run reports, CSV tables, and chart output for experiment sweeps.

Everything written here is byte-deterministic for identical inputs: floats
use a fixed 17-significant-digit rendering, JSON keys are sorted, and wall
time goes to a separate ``timing.txt`` sidecar so report and table files
compare equal across reruns and thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import _jsonio

FORMAT_VERSION = "1"

#: Standing measurement notes echoed into every report header.
STANDARD_NOTES = (
    "preference closeness is reported through the strict-disagreement "
    "probability proxy plus representation sup-distances",
    "pair enumeration: universe indexed lexicographically, pairs by "
    "diagonal order (index sum, then lower index)",
)


@dataclass
class RunReport:
    """Sweep outcome: config echo, seeds, header notes, per-cell statistics."""

    command: str
    config: dict
    seeds: dict
    header: dict
    cells: list[dict]
    format_version: str = FORMAT_VERSION
    wall_time_seconds: float = 0.0  # set by cli_main; sidecar only, kept out of report bytes

    def to_dict(self) -> dict:
        return {
            "format_version": self.format_version,
            "command": self.command,
            "config": self.config,
            "seeds": self.seeds,
            "header": self.header,
            "cells": self.cells,
        }

    def to_json(self) -> str:
        return _jsonio.dumps(self.to_dict()) + "\n"


def quantile_stats(values) -> dict:
    arr = np.asarray(sorted(float(v) for v in values))
    if arr.size == 0:
        return {"count": 0}
    return {
        "count": int(arr.size),
        "q25": float(np.percentile(arr, 25)),
        "q50": float(np.percentile(arr, 50)),
        "q75": float(np.percentile(arr, 75)),
    }


def csv_text(header: str, rows: list[list]) -> str:
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(
                _jsonio.format_float(v).strip('"') if isinstance(v, float) else str(v)
                for v in row
            )
        )
    return "\n".join(lines) + "\n"


@dataclass
class SweepOutput:
    """A report plus the table and chart series derived from it."""

    report: RunReport
    csv_header: str
    csv_rows: list[list]
    series: dict[str, tuple[list[float], list[float]]] = field(default_factory=dict)
    chart_title: str = ""
    x_label: str = "x"
    y_label: str = "y"
    extra_files: dict[str, str] = field(default_factory=dict)

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        name = self.report.command
        written: dict[str, Path] = {}
        report_path = out / "report.json"
        report_path.write_text(self.report.to_json(), encoding="utf-8")
        written["report"] = report_path
        if self.csv_header:
            csv_path = out / f"{name}.csv"
            csv_path.write_text(csv_text(self.csv_header, self.csv_rows), encoding="utf-8")
            written["csv"] = csv_path
        if self.series:
            svg_path = out / f"{name}.svg"
            svg_path.write_text(
                line_chart_svg(
                    self.chart_title or name, self.x_label, self.y_label, self.series
                ),
                encoding="utf-8",
            )
            written["svg"] = svg_path
        for fname, content in self.extra_files.items():
            p = out / fname
            p.write_text(content, encoding="utf-8")
            written[fname] = p
        timing = out / "timing.txt"
        timing.write_text(
            f"wall_time_seconds {self.report.wall_time_seconds:.3f}\n", encoding="utf-8"
        )
        written["timing"] = timing
        return written


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def line_chart_svg(
    title: str,
    x_label: str,
    y_label: str,
    series: dict[str, tuple[list[float], list[float]]],
    width: int = 640,
    height: int = 400,
) -> str:
    """Dependency-free SVG line chart with axes, ticks, and a legend."""
    margin_l, margin_r, margin_t, margin_b = 64, 16, 36, 48
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b
    xs = [x for _, (sx, _) in series.items() for x in sx]
    ys = [y for _, (_, sy) in series.items() for y in sy]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def sx(x: float) -> float:
        return margin_l + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return margin_t + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin_l}" y1="{margin_t + plot_h}" x2="{margin_l + plot_w}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
        f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" '
        f'y2="{margin_t + plot_h}" stroke="black"/>',
        f'<text x="{margin_l + plot_w / 2}" y="{height - 10}" text-anchor="middle">{x_label}</text>',
        f'<text x="16" y="{margin_t + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {margin_t + plot_h / 2})">{y_label}</text>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        px, py = sx(fx), sy(fy)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{margin_t + plot_h}" x2="{_fmt(px)}" '
            f'y2="{margin_t + plot_h + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{margin_t + plot_h + 18}" '
            f'text-anchor="middle">{_fmt(fx)}</text>'
        )
        parts.append(
            f'<line x1="{margin_l - 4}" y1="{_fmt(py)}" x2="{margin_l}" '
            f'y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin_l - 8}" y="{_fmt(py + 4)}" text-anchor="end">{_fmt(fy)}</text>'
        )
    for idx, (name, (vx, vy)) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(vx, vy))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = margin_t + 14 * idx
        parts.append(
            f'<line x1="{margin_l + plot_w - 110}" y1="{ly + 8}" '
            f'x2="{margin_l + plot_w - 90}" y2="{ly + 8}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{margin_l + plot_w - 85}" y="{ly + 12}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
