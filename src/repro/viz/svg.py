"""A minimal, dependency-free SVG document builder.

The offline reproduction environment has no plotting library, but SVG is
plain text: this module provides just enough of it to draw robot
configurations and execution trajectories.  Elements are accumulated in
document order; :meth:`SvgDocument.to_string` serializes with proper XML
escaping.  Only the primitives the renderers need are implemented —
circles, lines, polylines, paths, rectangles, text and groups.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple
from xml.sax.saxutils import escape, quoteattr

__all__ = ["SvgDocument"]


def _fmt(value: float) -> str:
    """Compact numeric formatting: trims trailing zeros, 3 decimals."""
    if isinstance(value, float):
        text = f"{value:.3f}".rstrip("0").rstrip(".")
        return text if text not in ("", "-") else "0"
    return str(value)


class SvgDocument:
    """An SVG scene with a fixed pixel viewport.

    Coordinates given to the drawing methods are *world* coordinates;
    the document maps the world window ``(x0, y0)-(x1, y1)`` onto the
    pixel viewport with the y-axis flipped (SVG grows downward, the
    plane grows upward) and a uniform scale.
    """

    def __init__(
        self,
        width: int = 640,
        height: int = 640,
        world: Optional[Tuple[float, float, float, float]] = None,
        margin: float = 0.05,
        background: str = "#ffffff",
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("viewport must be positive")
        self.width = width
        self.height = height
        self._elements: List[str] = []
        self.background = background
        if world is None:
            world = (0.0, 0.0, 1.0, 1.0)
        self.set_world(world, margin)

    # -- coordinate mapping ---------------------------------------------------

    def set_world(
        self, world: Tuple[float, float, float, float], margin: float = 0.05
    ) -> None:
        """Define the world-coordinate window shown by the viewport."""
        x0, y0, x1, y1 = world
        if x1 <= x0:
            x1 = x0 + 1.0
        if y1 <= y0:
            y1 = y0 + 1.0
        pad_x = (x1 - x0) * margin
        pad_y = (y1 - y0) * margin
        x0, x1 = x0 - pad_x, x1 + pad_x
        y0, y1 = y0 - pad_y, y1 + pad_y
        span = max(x1 - x0, y1 - y0)
        # Center the square world window.
        cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        self._x0 = cx - span / 2.0
        self._y0 = cy - span / 2.0
        self._scale = min(self.width, self.height) / span

    def px(self, x: float, y: float) -> Tuple[float, float]:
        """World -> pixel (y flipped)."""
        return (
            (x - self._x0) * self._scale,
            self.height - (y - self._y0) * self._scale,
        )

    # -- primitives -------------------------------------------------------------

    def _tag(self, name: str, attrs: Dict[str, object], body: str = "") -> None:
        parts = [f"<{name}"]
        for key, value in attrs.items():
            if value is None:
                continue
            rendered = _fmt(value) if isinstance(value, float) else str(value)
            parts.append(f" {key}={quoteattr(rendered)}")
        if body:
            parts.append(f">{body}</{name}>")
        else:
            parts.append("/>")
        self._elements.append("".join(parts))

    def circle(
        self,
        x: float,
        y: float,
        radius_px: float,
        fill: str = "#000000",
        stroke: Optional[str] = None,
        stroke_width: float = 1.0,
        opacity: float = 1.0,
        title: Optional[str] = None,
    ) -> None:
        cx, cy = self.px(x, y)
        body = f"<title>{escape(title)}</title>" if title else ""
        self._tag(
            "circle",
            {
                "cx": cx,
                "cy": cy,
                "r": radius_px,
                "fill": fill,
                "stroke": stroke,
                "stroke-width": stroke_width if stroke else None,
                "opacity": opacity,
            },
            body,
        )

    def line(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        stroke: str = "#000000",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
        dashed: bool = False,
    ) -> None:
        px1, py1 = self.px(x1, y1)
        px2, py2 = self.px(x2, y2)
        self._tag(
            "line",
            {
                "x1": px1,
                "y1": py1,
                "x2": px2,
                "y2": py2,
                "stroke": stroke,
                "stroke-width": stroke_width,
                "opacity": opacity,
                "stroke-dasharray": "4 3" if dashed else None,
            },
        )

    def polyline(
        self,
        points: Sequence[Tuple[float, float]],
        stroke: str = "#000000",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
    ) -> None:
        if len(points) < 2:
            return
        rendered = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (self.px(x, y) for x, y in points)
        )
        self._tag(
            "polyline",
            {
                "points": rendered,
                "fill": "none",
                "stroke": stroke,
                "stroke-width": stroke_width,
                "opacity": opacity,
                "stroke-linejoin": "round",
            },
        )

    def cross(
        self,
        x: float,
        y: float,
        size_px: float = 5.0,
        stroke: str = "#cc0000",
        stroke_width: float = 1.5,
    ) -> None:
        """An X marker (used for crash sites)."""
        cx, cy = self.px(x, y)
        for dx, dy in ((1, 1), (1, -1)):
            self._elements.append(
                f'<line x1={quoteattr(_fmt(cx - size_px * dx))} '
                f'y1={quoteattr(_fmt(cy - size_px * dy))} '
                f'x2={quoteattr(_fmt(cx + size_px * dx))} '
                f'y2={quoteattr(_fmt(cy + size_px * dy))} '
                f'stroke={quoteattr(stroke)} '
                f'stroke-width={quoteattr(_fmt(stroke_width))}/>'
            )

    def text(
        self,
        x: float,
        y: float,
        content: str,
        size_px: float = 12.0,
        fill: str = "#333333",
        anchor: str = "start",
    ) -> None:
        px, py = self.px(x, y)
        self._tag(
            "text",
            {
                "x": px,
                "y": py,
                "font-size": size_px,
                "fill": fill,
                "text-anchor": anchor,
                "font-family": "monospace",
            },
            escape(content),
        )

    def text_px(
        self,
        px: float,
        py: float,
        content: str,
        size_px: float = 12.0,
        fill: str = "#333333",
        anchor: str = "start",
    ) -> None:
        """Text at raw pixel coordinates (captions, legends)."""
        self._tag(
            "text",
            {
                "x": px,
                "y": py,
                "font-size": size_px,
                "fill": fill,
                "text-anchor": anchor,
                "font-family": "monospace",
            },
            escape(content),
        )

    # -- output ---------------------------------------------------------------

    def to_string(self) -> str:
        head = (
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'width="{self.width}" height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">'
        )
        bg = (
            f'<rect x="0" y="0" width="{self.width}" height="{self.height}" '
            f'fill={quoteattr(self.background)}/>'
        )
        return "\n".join([head, bg, *self._elements, "</svg>"])

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_string())
