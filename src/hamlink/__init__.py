"""Feedback realizations of bilinear couplings between open linear systems.

Given two open linear quantum stochastic systems and a bilinear interaction
Hamiltonian between them, this package synthesizes an equivalent
field-mediated interconnection: extra coupling channels on each system and
a static symplectic feedback gain whose closed loop reproduces the direct
interaction exactly, while the original external channels pass through
unchanged.  A verification layer checks the equivalence both algebraically
(drift, noise, and coupling residuals) and dynamically (moment
trajectories).
"""

__version__ = "0.1.0"

from . import errors, symcore, lqss, synth, verify, files, demo
from .errors import *
from .symcore import *
from .lqss import *
from .synth import *
from .verify import *
from .files import *
from .demo import *

__all__ = ["__version__"] + [
    name
    for module in (errors, symcore, lqss, synth, verify, files, demo)
    for name in module.__all__
]
