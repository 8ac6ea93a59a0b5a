"""The functions of ``scipy.special``, loaded at the first read of one (PEP 562).

Importing ``scipy.special`` takes about 0.25 s (its array-API layer loads
``numpy.f2py`` and ``numpy.testing``), while the closed forms, a replay and
a Beta or lattice histogram never evaluate a special function.  So
``model``, ``oracle`` and ``montecarlo`` import this module as ``special``
instead: the first read of a name imports ``scipy.special`` and stores the
function here, so every later read is a plain module attribute.  The
import lock makes a first read from two threads at once safe.
"""

import importlib


def __getattr__(name: str):
    value = getattr(importlib.import_module("scipy.special"), name)
    globals()[name] = value
    return value
