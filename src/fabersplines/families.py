"""Built-in compactly supported test functions for probes and studies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .piecewise import shift_sum

__all__ = ["TestFunction", "bspline_bump", "gaussian_bump", "jump_function", "get_family"]


@dataclass(frozen=True)
class TestFunction:
    name: str
    f: object          # vectorized callable
    support: tuple     # (lo, hi) floats


def bspline_bump(order: int = 8) -> TestFunction:
    """B-spline N_order: C^{order-2}, support [0, order]."""
    return TestFunction(name=f"bspline{order}", f=lambda x: shift_sum(order, [1.0], 0, x), support=(0.0, float(order)))


def gaussian_bump() -> TestFunction:
    """exp(-((x - 2) / 0.5)^2) on [0, 4], 0 outside (a jump of ~exp(-16) at the edges)."""

    def f(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x - 2.0) <= 2.0, np.exp(-(((x - 2.0) / 0.5) ** 2)), 0.0)

    return TestFunction(name="gaussian", f=f, support=(0.0, 4.0))


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
