"""Exact decomposability analysis for nonnegative matrices with A^r = A.

Import the submodules directly, e.g. ``from rpotent.potency import as_potent``.
"""

__version__ = "0.1.0"
