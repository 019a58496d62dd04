"""Epistemic model checker for one-round distributed task solvability."""

__version__ = "0.1.0"
