"""Terminal line charts for fidelity curves (the Figs. 3–5 visual).

Renders sparsity-vs-fidelity curves as an ASCII grid so `repro experiment`
output and the benchmark artifacts can show the *shape* of each figure —
crossovers included — without a plotting stack.
"""

from __future__ import annotations

from ..errors import EvaluationError

__all__ = ["render_curves"]

_MARKERS = "ox+*#@%&"


def render_curves(curves: dict[str, dict[float, float]], width: int = 60,
                  height: int = 16, x_label: str = "sparsity",
                  y_label: str = "fidelity") -> str:
    """Plot one or more named curves in a character grid.

    Parameters
    ----------
    curves:
        ``{name: {x: y}}`` — e.g. one entry per explanation method.
    width, height:
        Plot area size in characters.
    """
    if not curves:
        raise EvaluationError("no curves to render")
    xs = sorted({x for c in curves.values() for x in c})
    ys = [y for c in curves.values() for y in c.values()]
    if not xs or not ys:
        raise EvaluationError("curves are empty")
    y_min, y_max = min(ys), max(ys)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = min(xs), max(xs)
    if x_max == x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]

    def to_col(x: float) -> int:
        return int(round((x - x_min) / (x_max - x_min) * (width - 1)))

    def to_row(y: float) -> int:
        return int(round((1.0 - (y - y_min) / (y_max - y_min)) * (height - 1)))

    # zero line, when visible
    if y_min < 0 < y_max:
        zero_row = to_row(0.0)
        for c in range(width):
            grid[zero_row][c] = "·"

    legend = []
    for i, (name, curve) in enumerate(curves.items()):
        marker = _MARKERS[i % len(_MARKERS)]
        legend.append(f"{marker} {name}")
        points = sorted(curve.items())
        cells = [(to_col(x), to_row(y)) for x, y in points]
        # connect consecutive points with interpolated marks
        for (c0, r0), (c1, r1) in zip(cells[:-1], cells[1:]):
            steps = max(abs(c1 - c0), abs(r1 - r0), 1)
            for s in range(steps + 1):
                c = round(c0 + (c1 - c0) * s / steps)
                r = round(r0 + (r1 - r0) * s / steps)
                grid[r][c] = marker
        for c, r in cells:
            grid[r][c] = marker

    lines = []
    for r, row in enumerate(grid):
        if r == 0:
            label = f"{y_max:+.2f} "
        elif r == height - 1:
            label = f"{y_min:+.2f} "
        else:
            label = " " * 7
        lines.append(label + "|" + "".join(row))
    lines.append(" " * 7 + "+" + "-" * width)
    lines.append(" " * 8 + f"{x_min:<.2f}{' ' * (width - 10)}{x_max:>.2f}  ({x_label})")
    lines.append("  " + "   ".join(legend))
    return "\n".join(lines)
