"""Alternate-coin quantum walk on the two-dimensional integer lattice.

Exact unitary evolution (lattice and Fourier pictures), the long-time
velocity density on its two-ellipse support, and a verification harness
that cross-checks the two against each other.  Each public object is
imported from the module that defines it (``from altwalk.model import
Model``).
"""

from . import model, lattice, spectral, limit, verify

__version__ = "0.1.0"

__all__ = ["lattice", "limit", "model", "spectral", "verify", "__version__"]
