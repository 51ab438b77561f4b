"""Uniform time grid shared by the design and simulation routines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch

# most steps whose half lattice (2 n + 1 float64 values) numpy can
# still size as one array
_MAX_STEPS = np.iinfo(np.intp).max // 16


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_k = k * dt`` for ``k = 0 .. n_steps``.

    The grid always starts at t = 0, where the input envelope switches
    on.  ``from_span`` is the preferred constructor: it snaps the step
    so that the requested span is hit exactly by an integer number of
    steps (``n = round(span / dt_nominal)``, ``dt = span / n``).
    """

    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (self.dt > 0.0) or self.n_steps < 1:
            raise ValueError("need dt > 0 and at least one step")
        if self.n_steps > _MAX_STEPS:
            raise ValueError(f"{self.n_steps:.3g} steps exceed numpy's array size")

    @classmethod
    def from_span(cls, span: float, dt_nominal: float) -> TimeGrid:
        if not (span > 0.0 and dt_nominal > 0.0):
            raise ValueError("span and dt_nominal must be positive")
        n = max(1, int(round(span / dt_nominal)))
        return cls(dt=span / n, n_steps=n)

    @property
    def span(self) -> float:
        return self.n_steps * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.span, self.n_steps + 1)

    @property
    def half_times(self) -> np.ndarray:
        """All grid points and midpoints: ``2 * n_steps + 1`` values."""
        return np.linspace(0.0, self.span, 2 * self.n_steps + 1)

    def covers(self, duration: float) -> bool:
        return self.span >= duration - 1e-12 * max(1.0, duration)

    def require_cover(self, duration: float) -> None:
        """Raise :class:`GridMismatch` unless the grid covers ``duration``."""
        if not self.covers(duration):
            raise GridMismatch(
                f"grid span {self.span:.6g} us does not cover the pulse "
                f"support {duration:.6g} us"
            )
