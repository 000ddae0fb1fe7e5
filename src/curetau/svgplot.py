"""Minimal deterministic SVG step plots (no plotting dependency)."""

import numpy as np

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 58, 16, 30, 44
_COLORS = ("#1b6ca8", "#c0392b", "#2e8540", "#8e44ad")


def _ticks(lo, hi):
    return [float(f"{v:.4g}") for v in np.linspace(lo, hi, 5)]


class _Frame:
    def __init__(self, x_range, y_range):
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range

    def px(self, x):
        span = self.x1 - self.x0 or 1.0
        return _MARGIN_L + (x - self.x0) / span * (_WIDTH - _MARGIN_L - _MARGIN_R)

    def py(self, y):
        span = self.y1 - self.y0 or 1.0
        return _HEIGHT - _MARGIN_B - (y - self.y0) / span * (_HEIGHT - _MARGIN_T - _MARGIN_B)


def _step_points(grid, values, initial, x_end):
    """The corners of a step curve from 0 to ``x_end``: two at each jump."""
    xs = np.concatenate(([0.0], np.repeat(np.asarray(grid, dtype=float), 2), [x_end]))
    ys = np.repeat(np.concatenate(([initial], np.asarray(values, dtype=float))), 2)
    return xs, ys


def _pixels(frame, xs, ys, sep):
    """The points as ``x,y`` pixel pairs of two decimals, joined by ``sep``."""
    flat = np.column_stack((frame.px(xs), frame.py(ys))).ravel().tolist()
    return sep.join(["%.2f,%.2f"] * (len(flat) // 2)) % tuple(flat)


def step_plot_svg(curves, title="", x_label="time", y_label="value", zero_line=False):
    """Render labeled step curves to an SVG string.

    ``curves`` is a list of ``(label, grid, values, initial_value, band)``
    tuples where ``band`` is ``None`` or ``(lo_values, hi_values)`` aligned
    with ``grid``.
    """
    x_end = max((float(g[-1]) for _, g, *_ in curves if len(g)), default=1.0)
    x_end = x_end * 1.05 if x_end > 0 else 1.0
    lo, hi = 0.0, 1.0
    for _, grid, values, initial, band in curves:
        candidates = [initial, *np.asarray(values, dtype=float).tolist()]
        if band is not None:
            candidates += np.asarray(band, dtype=float).ravel().tolist()
        lo = min(lo, min(candidates))
        hi = max(hi, max(candidates))
    frame = _Frame((0.0, x_end), (lo, hi))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    axis_y = _HEIGHT - _MARGIN_B
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_WIDTH - _MARGIN_R}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for tick in _ticks(0.0, x_end):
        x = frame.px(tick)
        parts.append(f'<line x1="{x:.2f}" y1="{axis_y}" x2="{x:.2f}" y2="{axis_y + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.2f}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
    for tick in _ticks(lo, hi):
        y = frame.py(tick)
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{y:.2f}" x2="{_MARGIN_L}" y2="{y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
    parts.append(
        f'<text x="{(_MARGIN_L + _WIDTH - _MARGIN_R) / 2:.0f}" y="{_HEIGHT - 8}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{(_MARGIN_T + axis_y) / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {(_MARGIN_T + axis_y) / 2:.0f})">{y_label}</text>'
    )
    if zero_line and lo < 0 < hi:
        y = frame.py(0.0)
        parts.append(
            f'<line x1="{_MARGIN_L}" y1="{y:.2f}" x2="{_WIDTH - _MARGIN_R}" y2="{y:.2f}" '
            'stroke="#999999" stroke-width="1" stroke-dasharray="4,3"/>'
        )

    for k, (label, grid, values, initial, band) in enumerate(curves):
        color = _COLORS[k % len(_COLORS)]
        if band is not None and len(grid):
            lo_x, lo_y = _step_points(grid, band[0], float(band[0][0]), x_end)
            hi_x, hi_y = _step_points(grid, band[1], float(band[1][0]), x_end)
            points = _pixels(frame, np.concatenate((lo_x, hi_x[::-1])),
                             np.concatenate((lo_y, hi_y[::-1])), " ")
            parts.append(f'<polygon points="{points}" fill="{color}" opacity="0.15"/>')
        path = "M" + _pixels(frame, *_step_points(grid, values, initial, x_end), " L")
        parts.append(f'<path d="{path}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        lx = _WIDTH - _MARGIN_R - 150
        ly = _MARGIN_T + 16 * (k + 1)
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>')
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def tau_to_svg(tau, label="", **kwargs):
    """Render a TauCurve, with its band when present."""
    band = None
    if tau.sd is not None:
        band = (tau.ci_low, tau.ci_high)
    return step_plot_svg([(label, tau.grid, tau.values, 0.0, band)],
                         zero_line=True, **kwargs)
