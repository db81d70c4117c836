"""Membership of a target action distribution in the attainable set.

The program is the frequency bound's block LP and lives in :mod:`repfreq.bounds`;
this module keeps the public import path.
"""

from .bounds import TargetDecomposition, decompose_target
