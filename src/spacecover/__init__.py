"""Solvers for Space Cover on rank-r perturbations of graphic matroids and their duals."""

from .instances import DualInstance, PrimalInstance, SpaceCoverInstance, random_instance

__all__ = ["SpaceCoverInstance", "PrimalInstance", "DualInstance", "random_instance"]

__version__ = "0.1.0"
