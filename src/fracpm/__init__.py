"""fracpm: fractional-gradient Perona-Malik diffusion on the periodic box.

Spectral fractional-derivative fields for piecewise-constant data, exact
series/integral oracles for their singular behaviour at the jump set,
semi-implicit evolution of the regular part, and spectral-gap analysis of
the linearized operator. See README.md for the command-line entry points.
"""

from .errors import (
    BlowUpError,
    ConfigError,
    ExcludedParameterError,
    FracpmError,
    LinearAlgebraError,
)
from .grid import FracParams, PeriodicGrid, ScalarField
from .geometry import JumpSet1D, JumpSet2D, exponent_fit
from .curves import Circle, SplineCurve
from .kernel import ClausenEvaluator
from .evolution import SolverConfig, Trajectory, evolve

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "Circle",
    "ClausenEvaluator",
    "ConfigError",
    "ExcludedParameterError",
    "FracParams",
    "FracpmError",
    "JumpSet1D",
    "JumpSet2D",
    "LinearAlgebraError",
    "PeriodicGrid",
    "ScalarField",
    "SolverConfig",
    "SplineCurve",
    "Trajectory",
    "evolve",
    "exponent_fit",
    "__version__",
]
