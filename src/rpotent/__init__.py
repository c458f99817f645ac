"""Exact decomposability analysis for nonnegative matrices with A^r = A.

Import the submodules directly, e.g. ``from rpotent.potency import potent_at``.
The potency decision has two entry points, ``potency.minimal_potency`` and
``potency.potent_at``; ``Potent.at`` moves a checked value to another
exponent.
"""

__version__ = "0.1.0"
