"""Graphs with universal perfect state transfer: exact constructions,
continuous-time quantum walk simulation, and certification.

The top level holds the quick-start names and the types they return; every
other public function lives in its submodule (`upst.walk`, `upst.spectra`,
`upst.serialize`, ...).
"""

from .graph import CirculantSpec, HermitianGraph, circulant_to_graph
from .spectra import EigenSystem, circulant_eigensystem
from .constructors import NoncirculantParams, nondense_circulant, noncirculant_graph
from .walk import TransferReport, verify_upst

__version__ = "0.1.0"

__all__ = [
    "CirculantSpec",
    "EigenSystem",
    "HermitianGraph",
    "NoncirculantParams",
    "TransferReport",
    "circulant_eigensystem",
    "circulant_to_graph",
    "nondense_circulant",
    "noncirculant_graph",
    "verify_upst",
]
