"""Boundary-link Seifert matrix calculus, link diagrams, and Milnor invariants."""

__version__ = "0.1.0"
