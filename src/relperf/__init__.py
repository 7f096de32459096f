"""Equilibrium strategies of competitive CARA investment-consumption games
under general (non-exponential) discounting: closed forms, best-response
fixed-point iteration, Monte Carlo simulation, and spike-variation checks.

The package exports every name in its modules' ``__all__`` lists.
"""

from . import best_response, core, diagnostics, discount, mfg, nagent, simulate
from .best_response import *  # noqa: F403
from .core import *  # noqa: F403
from .diagnostics import *  # noqa: F403
from .discount import *  # noqa: F403
from .mfg import *  # noqa: F403
from .nagent import *  # noqa: F403
from .simulate import *  # noqa: F403

__all__ = [name for module in (core, discount, nagent, mfg, best_response, simulate,
                               diagnostics)
           for name in module.__all__]

__version__ = "0.1.0"
