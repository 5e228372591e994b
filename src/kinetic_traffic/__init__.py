"""Numerical laboratory for homogeneous kinetic traffic models.

Two binary-interaction kernels on a shared velocity grid: a jump kernel
whose equilibria are known in closed form (mass concentrated on a ladder
of quantized speeds) and a spread kernel that relaxes to smooth profiles.
The package builds the discrete interaction tensors, integrates the
resulting quadratic ODE system, evaluates the closed-form oracle, and
reduces everything to macroscopic outputs: fundamental diagrams,
acceleration estimates, and convergence rates.
"""
from . import dynamics, equilibrium, macroscopics, matrices, params
from .dynamics import *
from .equilibrium import *
from .macroscopics import *
from .matrices import *
from .params import *

__version__ = "0.1.0"

# each public name is declared once, in the __all__ of its own module
__all__ = sorted(dynamics.__all__ + equilibrium.__all__ + macroscopics.__all__
                 + matrices.__all__ + params.__all__)
