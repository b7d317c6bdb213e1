"""Deterministic SVG figures: a trajectory on its grid and the benchmark
box plots, drawn with a minimal document builder.

Hand-rolled rather than delegated to a plotting library so identical
inputs always produce identical bytes (plotting backends embed run-
dependent ids and metadata).
"""

from .bench import METHOD_LEARNED, METHOD_TWO_OPT, summarize
from .decode import Trajectory
from .scenario import GridMap


def _fmt(value) -> str:
    return f"{float(value):.3f}".rstrip("0").rstrip(".")


class SvgDocument:
    def __init__(self, width: float, height: float):
        self.width = width
        self.height = height
        self.elements: list[str] = []

    def rect(self, x, y, w, h, fill, cls=None, stroke=None, stroke_width=None):
        attrs = [
            f'x="{_fmt(x)}"',
            f'y="{_fmt(y)}"',
            f'width="{_fmt(w)}"',
            f'height="{_fmt(h)}"',
            f'fill="{fill}"',
        ]
        if cls:
            attrs.insert(0, f'class="{cls}"')
        if stroke:
            attrs.append(f'stroke="{stroke}"')
        if stroke_width is not None:
            attrs.append(f'stroke-width="{_fmt(stroke_width)}"')
        self.elements.append(f"<rect {' '.join(attrs)}/>")

    def line(self, x1, y1, x2, y2, stroke, width=1.0, cls=None):
        attrs = [
            f'x1="{_fmt(x1)}"',
            f'y1="{_fmt(y1)}"',
            f'x2="{_fmt(x2)}"',
            f'y2="{_fmt(y2)}"',
            f'stroke="{stroke}"',
            f'stroke-width="{_fmt(width)}"',
        ]
        if cls:
            attrs.insert(0, f'class="{cls}"')
        self.elements.append(f"<line {' '.join(attrs)}/>")

    def polyline(self, points, stroke, width=1.0, cls=None):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        cls_attr = f'class="{cls}" ' if cls else ""
        self.elements.append(
            f'<polyline {cls_attr}points="{pts}" fill="none" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}" '
            f'stroke-linejoin="round" stroke-linecap="round"/>'
        )

    def circle(self, cx, cy, r, fill, cls=None):
        cls_attr = f'class="{cls}" ' if cls else ""
        self.elements.append(
            f'<circle {cls_attr}cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}"/>'
        )

    def text(self, x, y, content, size=12, anchor="middle", fill="#000"):
        self.elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
            f'font-family="sans-serif" text-anchor="{anchor}" fill="{fill}">{content}</text>'
        )

    def to_string(self) -> str:
        head = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(self.width)}" '
            f'height="{_fmt(self.height)}" '
            f'viewBox="0 0 {_fmt(self.width)} {_fmt(self.height)}">\n'
        )
        return head + "\n".join(self.elements) + "\n</svg>\n"


CELL_PX = 40.0


def render_trajectory(traj: Trajectory, grid: GridMap) -> str:
    """Grid figure: obstacle cells filled, red trajectory polyline through
    cell centers, start marker. Deterministic bytes for identical inputs."""
    pad = CELL_PX * 0.5
    width = grid.cols * CELL_PX + 2 * pad
    height = grid.rows * CELL_PX + 2 * pad
    doc = SvgDocument(width, height)
    doc.rect(pad, pad, grid.cols * CELL_PX, grid.rows * CELL_PX, "#ffffff",
             cls="bg", stroke="#333333", stroke_width=1.5)
    for r in range(grid.rows):
        for c in range(grid.cols):
            if grid.occupancy[r, c]:
                doc.rect(pad + c * CELL_PX, pad + r * CELL_PX, CELL_PX, CELL_PX,
                         "#444444", cls="obstacle")
    for r in range(1, grid.rows):
        doc.line(pad, pad + r * CELL_PX, pad + grid.cols * CELL_PX, pad + r * CELL_PX,
                 "#cccccc", 0.5, cls="grid")
    for c in range(1, grid.cols):
        doc.line(pad + c * CELL_PX, pad, pad + c * CELL_PX, pad + grid.rows * CELL_PX,
                 "#cccccc", 0.5, cls="grid")

    def center(cell):
        return (pad + (cell[1] + 0.5) * CELL_PX, pad + (cell[0] + 0.5) * CELL_PX)

    if traj.path:
        if len(traj.path) > 1:
            doc.polyline([center(c) for c in traj.path], "#cc2222", 3.0, cls="trajectory")
        doc.circle(*center(traj.path[0]), CELL_PX * 0.18, "#22aa22", cls="start")
    return doc.to_string()


def render_boxplot(records) -> str:
    """Side-by-side box plots of length and wall time per method."""
    summary = summarize(records)
    methods = sorted(summary)
    panel_w, panel_h, margin = 260.0, 240.0, 48.0
    width = 2 * panel_w + 3 * margin
    height = panel_h + 2 * margin + 24
    doc = SvgDocument(width, height)
    doc.rect(0, 0, width, height, "#ffffff", cls="bg")
    fills = {METHOD_TWO_OPT: "#7799dd", METHOD_LEARNED: "#dd8855"}
    for panel, (metric, title) in enumerate(
        (("length_m", "trajectory length (m)"), ("wall_time_s", "wall time (s)"))
    ):
        x0 = margin + panel * (panel_w + margin)
        y0 = margin
        doc.rect(x0, y0, panel_w, panel_h, "#ffffff", cls="panel",
                 stroke="#333333", stroke_width=1.0)
        doc.text(x0 + panel_w / 2, y0 - 10, title, size=13)
        stats = [summary[m][metric] for m in methods]
        lo = min(s["min"] for s in stats)
        hi = max(s["max"] for s in stats)
        span = (hi - lo) or 1.0
        lo -= 0.05 * span
        hi += 0.05 * span

        def to_y(value):
            return y0 + panel_h - (value - lo) / (hi - lo) * panel_h

        slot_w = panel_w / len(methods)
        for k, method in enumerate(methods):
            s = summary[method][metric]
            cx = x0 + (k + 0.5) * slot_w
            box_w = slot_w * 0.4
            doc.line(cx, to_y(s["min"]), cx, to_y(s["q1"]), "#333333", 1.0, cls="whisker")
            doc.line(cx, to_y(s["q3"]), cx, to_y(s["max"]), "#333333", 1.0, cls="whisker")
            doc.rect(cx - box_w / 2, to_y(s["q3"]), box_w,
                     max(to_y(s["q1"]) - to_y(s["q3"]), 0.5),
                     fills.get(method, "#999999"), cls="box",
                     stroke="#333333", stroke_width=1.0)
            doc.line(cx - box_w / 2, to_y(s["median"]), cx + box_w / 2, to_y(s["median"]),
                     "#000000", 1.5, cls="median")
            doc.text(cx, y0 + panel_h + 16, method, size=11)
            doc.text(x0 - 4, to_y(s["median"]) + 4, f"{s['median']:.3g}",
                     size=9, anchor="end")
    return doc.to_string()
