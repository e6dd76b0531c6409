"""Numerical laboratory for zeros of Gaussian random SU(2) polynomials."""

__version__ = "0.1.0"

from . import model, montecarlo, zeros
from .model import *
from .montecarlo import *
from .rng import RngSeed
from .zeros import *

__all__ = [*model.__all__, *montecarlo.__all__, "RngSeed", *zeros.__all__]
