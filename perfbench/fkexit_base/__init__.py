"""Monte Carlo Feynman-Kac solver for Dirichlet exit problems of jump
diffusions, with deterministic PDE oracles, boundary-regularity
classification, and viscosity-property checking."""

__version__ = "0.1.0"

from .feynman_kac import DirichletProblem, MCEstimate  # noqa: F401
from .geometry import Ball, Box, Cylinder, Interval  # noqa: F401
from .levy import ProcessSpec  # noqa: F401
