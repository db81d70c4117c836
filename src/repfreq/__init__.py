"""Equilibrium action-frequency bounds for reputation games.

Each public name lives in its module alone (``from repfreq.bounds import
min_stackelberg_freq``); importing the package loads every library module, so
``repfreq.bounds`` and the like are attributes of it. The command line,
``repfreq.cli``, is loaded only on request.
"""

from . import apps, attain, bounds, concentration, game, linprog, simulate, stage

__version__ = "0.1.0"
