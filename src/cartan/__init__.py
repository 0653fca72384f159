"""Cochain-level cup-i products, Steenrod squares and an effective Cartan witness over GF(2)."""

from .cochains import (Cochain, cartan_coboundary, cartan_defect, cup, delta, ones,
                       steenrod_square)
from .f2 import F2Sum, singleton
from .surjection import surj_compose, table_reduction

__all__ = [
    "Cochain",
    "F2Sum",
    "cartan_coboundary",
    "cartan_defect",
    "cup",
    "delta",
    "ones",
    "singleton",
    "steenrod_square",
    "surj_compose",
    "table_reduction",
]

__version__ = "0.1.0"
