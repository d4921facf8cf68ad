"""Shared utilities: deterministic RNG, timers, validation helpers, tables.

Import each helper from its own module.  The package re-exports nothing, so
importing ``rng`` or ``tables`` (dependency-free) never loads ``validation``
(NumPy and SciPy) along with it.
"""
