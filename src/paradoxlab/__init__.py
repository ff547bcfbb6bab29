"""Numerical toolkit for six canonical quantum-mechanics paradoxes.

Exact finite-dimensional quantum mechanics plus seeded Monte Carlo
experiments: two-slit complementarity, the field-measurement bound, the
quantum Zeno effect, Bell/CHSH correlations, lightcone collapse geometry,
and the premeasurement chain, all in natural units (hbar = c = mu = 1).
See the `paradox-lab` command for the experiment runner.
"""

__version__ = "0.1.0"

from . import bell, bounds, catlab, lightcone, qcore, twoslit, zeno
from .errors import ParadoxLabError
from .rng import SeededStream

__all__ = [
    "__version__",
    "bell",
    "bounds",
    "catlab",
    "lightcone",
    "qcore",
    "twoslit",
    "zeno",
    "ParadoxLabError",
    "SeededStream",
]
