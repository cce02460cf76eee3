"""Small deterministic SVG emitter for regions and point clouds.

Output is plain text built with fixed-precision formatting, so rendering
the same scene twice yields byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInput

_PALETTE = {
    "region": ("#1f77b4", "none"),
    "fill": ("#1f77b4", "#1f77b422"),
    "accent": ("#d62728", "none"),
    "cloud": ("#2ca02c", "#2ca02c"),
}
_SIZE = 640  # square canvas, in pixels
_MARGIN = 0.08  # padding, as a fraction of the drawing's span


class Scene:
    """Collects polygons and point clouds, then renders one SVG document."""

    def __init__(self):
        self._items: list[tuple[str, np.ndarray, str]] = []

    def add_polygon(self, vertices, style: str = "region") -> "Scene":
        pts = np.asarray(vertices, dtype=np.complex128).ravel()
        if pts.size:
            self._items.append(("polygon", pts, style))
        return self

    def add_points(self, points, style: str = "cloud") -> "Scene":
        pts = np.asarray(points, dtype=np.complex128).ravel()
        if pts.size:
            self._items.append(("points", pts, style))
        return self

    def render(self) -> str:
        if not self._items:
            raise EmptyInput("nothing to render")
        allpts = np.concatenate([p for _, p, _ in self._items])
        x0, x1 = float(allpts.real.min()), float(allpts.real.max())
        y0, y1 = float(allpts.imag.min()), float(allpts.imag.max())
        # the floor grows with the coordinates, so padding never vanishes in them
        span = max(x1 - x0, y1 - y0, 1e-9, 1e-12 * max(map(abs, (x0, x1, y0, y1))))
        pad = _MARGIN * span
        x0, x1 = x0 - pad, x1 + pad
        y0, y1 = y0 - pad, y1 + pad
        span_x, span_y = x1 - x0, y1 - y0
        scale = _SIZE / max(span_x, span_y)
        off_x = (_SIZE - scale * span_x) / 2.0
        off_y = (_SIZE - scale * span_y) / 2.0

        def to_px(pts: np.ndarray) -> np.ndarray:
            """Pixel coordinates, x and y interleaved, by the same float
            operations in the same order for every point."""
            xy = np.empty(2 * pts.size)
            xy[0::2] = off_x + (pts.real - x0) * scale
            xy[1::2] = (_SIZE - off_y) - (pts.imag - y0) * scale
            return xy

        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
            f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
            f'<rect width="{_SIZE}" height="{_SIZE}" fill="#ffffff"/>',
        ]
        px, py = to_px(np.zeros(1, dtype=np.complex128)).tolist()
        if x0 < 0 < x1:
            lines.append(
                f'<line x1="{px:.3f}" y1="0" x2="{px:.3f}" y2="{_SIZE}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
        if y0 < 0 < y1:
            lines.append(
                f'<line x1="0" y1="{py:.3f}" x2="{_SIZE}" y2="{py:.3f}" '
                'stroke="#dddddd" stroke-width="1"/>'
            )
        # an item drawn again (decompose draws one late-group hull for many
        # levels) is formatted once
        drawn: dict[tuple[str, str, bytes], str] = {}
        for kind, pts, style in self._items:
            key = (kind, style, pts.tobytes())
            if key in drawn:
                lines.append(drawn[key])
                continue
            stroke, fill = _PALETTE.get(style, _PALETTE["region"])
            # one %-format over every coordinate of the item
            xy = tuple(to_px(pts).tolist())
            if kind == "polygon":
                coords = " ".join(["%.3f,%.3f"] * pts.size) % xy
                lines.append(
                    f'<polygon points="{coords}" stroke="{stroke}" fill="{fill}" '
                    'stroke-width="1.5"/>'
                )
            else:
                circle = f'<circle cx="%.3f" cy="%.3f" r="2" fill="{fill}" stroke="none"/>'
                lines.append("\n".join([circle] * pts.size) % xy)
            drawn[key] = lines[-1]
        lines.append("</svg>")
        return "\n".join(lines) + "\n"
