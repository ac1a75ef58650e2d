"""Steklov-type eigenvalue experiments on rough planar domains.

Finite-element solvers for the weighted eigenvalue pencil with boundary mass,
boundary-integral cross-checks, spectral-asymptotics predictions, and a small
reproducible experiment harness on top.
"""

__version__ = "0.1.0"

__all__ = ["active_backend", "__version__"]


def active_backend() -> str:
    """Name of the kernel implementation: the vectorized numpy kernels."""
    return "numpy"
