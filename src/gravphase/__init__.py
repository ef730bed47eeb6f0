"""Gravitational entangling phases for delocalised quantum sources, with
truncated-mode operator verification of the commutator-generated phase
corrections."""

__version__ = "0.1.0"
