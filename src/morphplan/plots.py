"""Static SVG renderings of trajectories and tracking logs.

The SVG is written by hand so the output is deterministic and the emitted
circle radii stay in world units (tests and quick greps can read them
straight from the attributes)."""

from __future__ import annotations

from pathlib import Path

import numpy as np


class SvgCanvas:
    """Minimal SVG builder with a world-coordinate viewport (y up)."""

    def __init__(self, x_range, y_range, pad: float):
        self.x0 = float(x_range[0]) - pad
        self.x1 = float(x_range[1]) + pad
        self.y0 = float(y_range[0]) - pad
        self.y1 = float(y_range[1]) + pad
        self.elements: list[str] = []

    def _map(self, x, y):
        return float(x), float(self.y1 + self.y0 - y)  # flip y so +y is up

    def polyline(self, xs, ys, stroke="#1f6fb2", width=0.02):
        pts = " ".join("%.4f,%.4f" % self._map(x, y) for x, y in zip(xs, ys))
        self.elements.append(
            f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="{width:.4f}"/>')

    def circle(self, x, y, r):
        cx, cy = self._map(x, y)
        self.elements.append(
            f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="{r:.6f}" fill="none" '
            f'stroke="#c44e52" stroke-width="0.0100"/>')

    def rect_border(self):
        w = self.x1 - self.x0
        h = self.y1 - self.y0
        self.elements.append(
            f'<rect x="{self.x0:.4f}" y="{self.y0:.4f}" width="{w:.4f}" height="{h:.4f}" '
            f'fill="none" stroke="#888888" stroke-width="0.01"/>')

    def text(self, x, y, s):
        cx, cy = self._map(x, y)
        self.elements.append(
            f'<text x="{cx:.4f}" y="{cy:.4f}" font-size="0.120" fill="#333333">{s}</text>')

    def render(self) -> str:
        w = self.x1 - self.x0
        h = self.y1 - self.y0
        height_px = int(round(800 * h / max(w, 1e-9)))
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="800" '
                f'height="{height_px}" viewBox="{self.x0:.4f} {self.y0:.4f} {w:.4f} {h:.4f}">')
        return head + "\n" + "\n".join(self.elements) + "\n</svg>\n"

    def write(self, path):
        Path(path).write_text(self.render(), newline="\n")


def plot_topdown(times, data, path):
    """Top-down XY path with radius-scaled footprint circles at 20 uniform
    time stamps; data is the (N, orders, 4) sample array."""
    xs = data[:, 0, 0]
    ys = data[:, 0, 1]
    rs = data[:, 0, 3]
    canvas = SvgCanvas((xs.min(), xs.max()), (ys.min(), ys.max()), pad=max(0.3, rs.max() + 0.1))
    canvas.rect_border()
    canvas.polyline(xs, ys)
    stamp_idx = np.unique(np.linspace(0, len(times) - 1, 20).astype(int))
    for k in stamp_idx:
        canvas.circle(xs[k], ys[k], rs[k])
    canvas.write(path)


def plot_series(times, data, path):
    """Radius and speed over time as normalized polylines."""
    canvas = SvgCanvas((0.0, 1.0), (0.0, 1.0), pad=0.1)
    canvas.rect_border()
    t = (times - times[0]) / max(times[-1] - times[0], 1e-9)
    rs = data[:, 0, 3]
    speed = np.linalg.norm(data[:, 1, :3], axis=1)
    r_span = max(rs.max() - rs.min(), 1e-9)
    canvas.polyline(t, (rs - rs.min()) / r_span, stroke="#c44e52", width=0.005)
    v_span = max(speed.max(), 1e-9)
    canvas.polyline(t, speed / v_span, stroke="#1f6fb2", width=0.005)
    canvas.text(0.02, 0.95, f"radius [{rs.min():.3f}, {rs.max():.3f}] m")
    canvas.text(0.02, 0.88, f"speed max {speed.max():.3f} m/s")
    canvas.write(path)


def plot_tracking_error(times, positions, references, path):
    canvas = SvgCanvas((0.0, 1.0), (0.0, 1.0), pad=0.1)
    canvas.rect_border()
    err = np.linalg.norm(positions - references, axis=1)
    t = (times - times[0]) / max(times[-1] - times[0], 1e-9)
    span = max(err.max(), 1e-9)
    canvas.polyline(t, err / span, stroke="#55a868", width=0.005)
    canvas.text(0.02, 0.95, f"max error {err.max():.4f} m")
    canvas.write(path)


def plot_input_file(path, out_dir):
    """Dispatch on the CSV header: trajectory exports get the top-down and
    series plots, tracking logs get the error plot.  Both read their columns
    with `trajectory.read_csv_columns`: a missing column, a row that does not
    parse, a value that is not finite or no rows raise ValueError."""
    from .trajectory import read_csv_columns, read_sample_csv

    path = Path(path)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(path) as fh:
        header = fh.readline().strip()
    stem = path.stem
    if header.startswith("t,ref_x"):
        data = read_csv_columns(path, ("t", "x", "y", "z", "ref_x", "ref_y", "ref_z"))
        plot_tracking_error(data[:, 0], data[:, 1:4], data[:, 4:7], out / f"{stem}_error.svg")
        return [out / f"{stem}_error.svg"]
    if header.startswith("t,x"):
        times, data = read_sample_csv(path)
        plot_topdown(times, data, out / f"{stem}_topdown.svg")
        plot_series(times, data, out / f"{stem}_series.svg")
        return [out / f"{stem}_topdown.svg", out / f"{stem}_series.svg"]
    raise ValueError(f"unrecognized input header in {path}")
