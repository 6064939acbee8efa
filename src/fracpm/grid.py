"""Periodic grids on the box [-1, 1)^N, the order parameter and nodal fields.

Conventions, used everywhere downstream:

* nodes x_j = -1 + j*h with h = 2/n per axis, node j = 0..n-1 (left endpoint
  included, right excluded);
* Fourier basis e^{i pi k . x} with integer wavevectors k; a real field of n
  nodes per axis resolves k in [-n/2, n/2);
* hat coefficients are normalized so that a constant field c has coefficient
  c at k = 0, i.e. forward transform divides by n^N.

Every per-point quantity of a grid is a tuple with one array per axis, of
the grid's shape: `nodes()` is (x,) in 1D and (X, Y) in 2D, and so is
`wavenumbers()`, whose integer k follow numpy's native FFT layout
([0, 1, ..., n/2-1, -n/2, ..., -1] per axis) so callers never reorder
anything. Code that sums or loops over these tuples is the same in 1D
and 2D.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ExcludedParameterError

MAX_NODES = 2**22  # n**dim ceiling: bounds every per-node array before allocation


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform periodic grid, n nodes per axis on [-1, 1)^dim."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigError(f"dimension must be 1 or 2, got {self.dim}")
        if self.n < 4 or self.n % 2 != 0:
            raise ConfigError(f"grid size must be even and >= 4, got {self.n}")
        if self.n**self.dim > MAX_NODES:
            raise ConfigError(f"grid of {self.n}^{self.dim} nodes exceeds the {MAX_NODES} node ceiling")

    @property
    def h(self) -> float:
        return 2.0 / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    def axis_nodes(self) -> np.ndarray:
        """Node coordinates along one axis."""
        return -1.0 + self.h * np.arange(self.n)

    def nodes(self) -> tuple:
        """Node coordinates, one array per axis: (x,) in 1D, (X, Y) in 2D
        (meshgrid with ij indexing)."""
        return tuple(np.meshgrid(*[self.axis_nodes()] * self.dim, indexing="ij"))

    def wavenumbers(self) -> tuple:
        """Integer wavevector components in FFT layout, one array per axis."""
        k = np.fft.fftfreq(self.n, d=1.0 / self.n)
        return tuple(np.meshgrid(*[k] * self.dim, indexing="ij"))


@dataclass(frozen=True)
class FracParams:
    """Fractional order parameter epsilon in the open interval (0, 1).

    forbid_half guards quantities whose sign analysis degenerates at
    epsilon = 1/2; constructing such a quantity there raises
    ExcludedParameterError rather than returning an untrustworthy number.
    """

    epsilon: float
    forbid_half: bool = False

    def __post_init__(self):
        e = self.epsilon
        if not (0.0 < e < 1.0):
            raise ConfigError(f"epsilon must lie in (0, 1), got {e}")
        if 1.0 - e == 1.0:  # the 1D kernel's zeta(1 - epsilon) would sit on its pole
            raise ConfigError(f"epsilon = {e} is 0 to double precision: 1 - epsilon rounds to 1")
        if self.forbid_half and abs(e - 0.5) < 1e-12:
            raise ExcludedParameterError(
                "epsilon = 1/2 is excluded for sign-definite quantities"
            )


@dataclass
class ScalarField:
    """Real nodal values on a PeriodicGrid."""

    grid: PeriodicGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ConfigError(
                f"field shape {v.shape} does not match grid {self.grid.shape}"
            )
        self.values = v

    def l2(self) -> float:
        """Continuum-normalized L2 norm over the box of volume 2^dim."""
        cell = self.grid.h ** self.grid.dim
        return float(np.sqrt(np.sum(self.values**2) * cell))

