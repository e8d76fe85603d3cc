"""Renderers: configurations and execution traces as SVG scenes.

Two entry points:

* :func:`render_configuration` — a single snapshot with multiplicity
  labels, the smallest enclosing circle, the Weber point (when exactly
  computable) and safe-point highlighting;
* :func:`render_trace` — a whole execution: per-robot trajectories
  (colored), start markers, crash sites, the gathering point, and a
  caption with the class trajectory.

Both return the SVG text; callers save it wherever they want.  These are
diagnostic drawings for humans, not paper figures — the experiment
tables in EXPERIMENTS.md are the quantitative product.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core import (
    Configuration,
    classify,
    quasi_regularity,
    safe_points,
)
from ..geometry import Point
from ..sim import SimulationResult, Trace
from .svg import SvgDocument

__all__ = ["render_configuration", "render_trace", "robot_color"]

#: Qualitative palette (colorblind-aware Okabe-Ito-ish), cycled per robot.
_PALETTE = [
    "#0072b2",
    "#e69f00",
    "#009e73",
    "#cc79a7",
    "#56b4e9",
    "#d55e00",
    "#f0e442",
    "#7f7f7f",
]


def robot_color(robot_id: int) -> str:
    """Stable color for a robot id."""
    return _PALETTE[robot_id % len(_PALETTE)]


def _world_of(points: Sequence[Point]) -> Tuple[float, float, float, float]:
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    return (min(xs), min(ys), max(xs), max(ys))


def render_configuration(
    config: Configuration,
    width: int = 480,
    height: int = 480,
    caption: Optional[str] = None,
) -> str:
    """One snapshot: support points sized/labelled by multiplicity.

    Safe points get a green halo; the smallest enclosing circle is drawn
    dashed; the exactly-computable Weber point (QR center / L1W median)
    is marked with a small diamond-ish dot.
    """
    doc = SvgDocument(width, height, world=_world_of(config.points))
    sec = config.sec()
    # SEC outline (dashed ring approximated by a plain circle element).
    cx, cy = doc.px(sec.center.x, sec.center.y)
    doc._elements.append(
        f'<circle cx="{cx:.2f}" cy="{cy:.2f}" '
        f'r="{sec.radius * doc._scale:.2f}" fill="none" '
        f'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="5 4"/>'
    )

    cls = classify(config)
    safe = set(safe_points(config))
    for p in config.support:
        mult = config.mult(p)
        if p in safe:
            doc.circle(p.x, p.y, 9.0, fill="none", stroke="#2ca02c",
                       stroke_width=1.5, opacity=0.9)
        doc.circle(
            p.x,
            p.y,
            3.5 + 1.5 * (mult - 1),
            fill="#1f3b70",
            title=f"mult={mult}",
        )
        if mult > 1:
            doc.text(p.x, p.y, f" x{mult}", size_px=11, fill="#1f3b70")

    qr = quasi_regularity(config)
    if qr.is_quasi_regular:
        doc.circle(qr.center.x, qr.center.y, 3.0, fill="#d62728",
                   title=f"Weber point (qreg={qr.m})")

    doc.text_px(
        8, 16, caption or f"class {cls} | n={config.n}", size_px=13
    )
    return doc.to_string()


def render_trace(
    trace: Trace,
    result: Optional[SimulationResult] = None,
    width: int = 640,
    height: int = 640,
    caption: Optional[str] = None,
) -> str:
    """A whole execution: one polyline per robot across all rounds."""
    if len(trace) == 0:
        raise ValueError("cannot render an empty trace")

    # Reconstruct per-robot position sequences from the recorded
    # configurations (points preserve robot order).
    first = trace.records[0].config_before
    n = first.n
    paths: List[List[Point]] = [[] for _ in range(n)]
    for record in trace:
        for rid in range(n):
            paths[rid].append(record.config_before.points[rid])
    last = trace.records[-1].config_after
    for rid in range(n):
        paths[rid].append(last.points[rid])

    every_point = [p for path in paths for p in path]
    doc = SvgDocument(width, height, world=_world_of(every_point))

    crash_sites: Dict[int, Point] = {}
    for record in trace:
        for rid in record.crashed_now:
            crash_sites[rid] = record.config_before.points[rid]

    for rid, path in enumerate(paths):
        color = robot_color(rid)
        doc.polyline(
            [(p.x, p.y) for p in path],
            stroke=color,
            stroke_width=1.6,
            opacity=0.85,
        )
        start = path[0]
        doc.circle(start.x, start.y, 4.0, fill="none", stroke=color,
                   stroke_width=1.5, title=f"robot {rid} start")
        end = path[-1]
        doc.circle(end.x, end.y, 3.0, fill=color, title=f"robot {rid} end")

    for rid, site in crash_sites.items():
        doc.cross(site.x, site.y, size_px=5.0)

    if result is not None and result.gathering_point is not None:
        gp = result.gathering_point
        doc.circle(gp.x, gp.y, 7.0, fill="none", stroke="#2ca02c",
                   stroke_width=2.0, title="gathering point")

    classes = " > ".join(
        str(c)
        for c, _ in _dedup_consecutive(
            [r.config_class for r in trace]
        )
    )
    header = caption or (
        f"rounds={len(trace)}  classes: {classes}"
        + (f"  verdict={result.verdict}" if result else "")
    )
    doc.text_px(8, 16, header, size_px=13)
    doc.text_px(
        8, height - 8,
        "o start   * end   X crash   ring = gathering point",
        size_px=11, fill="#777777",
    )
    return doc.to_string()


def _dedup_consecutive(items: Sequence) -> List[Tuple[object, int]]:
    out: List[Tuple[object, int]] = []
    for item in items:
        if out and out[-1][0] == item:
            out[-1] = (item, out[-1][1] + 1)
        else:
            out.append((item, 1))
    return out
