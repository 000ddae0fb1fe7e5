"""The SVG writers' step paths against the per-point loop they replaced.

The writers build each curve's corners and pixel coordinates as arrays and
format them in one pass.  The arithmetic is the loop's, operation for
operation, so every coordinate string must be the loop's byte for byte.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from curetau.svgplot import _Frame, step_plot_svg


def looped_step_points(grid, values, initial, x_end):
    xs, ys = [0.0], [initial]
    for t, v in zip(grid, values):
        xs.extend([float(t), float(t)])
        ys.extend([ys[-1], float(v)])
    return xs + [x_end], ys + [ys[-1]]


def looped_pixels(frame, xs, ys):
    return [f"{frame.px(x):.2f},{frame.py(y):.2f}" for x, y in zip(xs, ys)]


@st.composite
def banded_curves(draw):
    """A step curve with a band: 1-40 jumps, values and band in [-2, 2]."""
    size = draw(st.integers(1, 40))
    steps = draw(st.lists(st.floats(0.001, 5.0), min_size=size, max_size=size))
    columns = [draw(st.lists(st.floats(-2.0, 2.0), min_size=size, max_size=size))
               for _ in range(3)]
    initial = draw(st.sampled_from([0.0, 1.0, -0.0, 0.37]))
    return np.cumsum(steps), *map(np.array, columns), initial


@settings(max_examples=100)
@given(curve=banded_curves())
def test_paths_and_bands_are_the_looped_bytes(curve):
    grid, values, low, high, initial = curve
    svg = step_plot_svg([("curve", grid, values, initial, (low, high))])
    x_end = float(grid[-1]) * 1.05
    everything = [initial, *values.tolist(), *low.tolist(), *high.tolist()]
    frame = _Frame((0.0, x_end), (min(0.0, *everything), max(1.0, *everything)))

    path = looped_pixels(frame, *looped_step_points(grid, values, initial, x_end))
    assert '<path d="M' + " L".join(path) + '"' in svg
    lo_x, lo_y = looped_step_points(grid, low, float(low[0]), x_end)
    hi_x, hi_y = looped_step_points(grid, high, float(high[0]), x_end)
    band = looped_pixels(frame, lo_x, lo_y) + looped_pixels(frame, hi_x[::-1], hi_y[::-1])
    assert '<polygon points="' + " ".join(band) + '"' in svg
