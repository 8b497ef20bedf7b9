"""Built-in compactly supported test functions for probes and studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .piecewise import bspline

__all__ = ["TestFunction", "bspline_bump", "gaussian_bump", "jump_function", "get_family"]


@dataclass(frozen=True)
class TestFunction:
    name: str
    f: object          # vectorized callable
    support: tuple     # (lo, hi) floats


def bspline_bump(order: int = 8, shift: float = 0.0, scale: float = 1.0) -> TestFunction:
    """B-spline of the given order: C^{order-2}, support [shift, shift + order*scale]."""
    pp = bspline(order)

    def f(x):
        return pp.eval_array((np.asarray(x, dtype=float) - shift) / scale)

    return TestFunction(name=f"bspline{order}", f=f, support=(shift, shift + order * scale))


def gaussian_bump(center: float = 2.0, sigma: float = 0.5, halfwidth: float = 2.0) -> TestFunction:
    """Gaussian restricted to a window (tiny jump ~exp(-(w/sigma)^2) at the edges)."""

    def f(x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x - center) <= halfwidth
        return np.where(inside, np.exp(-(((x - center) / sigma) ** 2)), 0.0)

    return TestFunction(name="gaussian", f=f, support=(center - halfwidth, center + halfwidth))


def jump_function() -> TestFunction:
    """Indicator of [0, 1): the canonical function outside every r > 1/p class."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= 0.0) & (x < 1.0), 1.0, 0.0)

    return TestFunction(name="jump", f=f, support=(0.0, 1.0))


_FAMILIES = {
    "bump": lambda: bspline_bump(8),
    "bspline": lambda: bspline_bump(6),
    "bspline3": lambda: bspline_bump(3),
    "gaussian": lambda: gaussian_bump(),
    "jump": lambda: jump_function(),
}


def get_family(name: str) -> TestFunction:
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from {sorted(_FAMILIES)}") from None
