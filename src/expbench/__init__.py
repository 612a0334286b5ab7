"""Exponential integrators for advection-dominated problems with a
hardware-independent memory-operation cost model."""

__version__ = "0.1.0"
