"""Simulation engine and theory oracles for covariant quantum kernels on
coset-structured data."""

from . import dataset, experiment, kernel, noise, theory

__all__ = [
    "dataset",
    "experiment",
    "kernel",
    "noise",
    "theory",
]
