"""Every target of the benchmark's per-layer tracer still resolves.

``bench/tracer.py`` wraps functions and methods of the package by name when
a run is made with ``--trace 1``; a rename or a move would break that run.
This test resolves each target the way ``Tracer.install`` does: with
``getattr`` on the module for a function, and from the owning class's own
``__dict__`` for a method.
"""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)
try:
    from tracer import TARGETS
finally:
    sys.path.remove(BENCH)


@pytest.mark.parametrize("module_name, class_name, attr", [t[:3] for t in TARGETS])
def test_trace_target_resolves(module_name, class_name, attr):
    module = importlib.import_module(f"rpotent.{module_name}")
    if class_name is None:
        assert callable(getattr(module, attr))
    else:
        owner = getattr(module, class_name)
        assert callable(owner.__dict__[attr])
