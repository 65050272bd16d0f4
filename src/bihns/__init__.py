"""Spectral solver and verification lab for the fourth-order Schrodinger
equation on the unit interval with hinged (Navier) or clamped (Dirichlet)
boundary data.

Callers import the submodules (``bihns.cli``, ``bihns.nonlinear``, ...)."""

__version__ = "0.1.0"
