"""Canonical forms, isomorph-free enumeration, and exact counting for
typed composition trees (T-trees).

The package models the tree-shaped skeleton of product configuration
problems: which component types exist, which may contain which, and how
many.  Solutions are T-trees; reordering the children inside a node's
per-type lists yields an isomorphic solution, and each isomorphism class
has a unique order-minimal ("canonical") member.  The modules provide the
tree order and canonicity test (`order`), exhaustive and canonical-only
enumeration (`search`), configuration/T-tree conversions and text formats
(`core`), and exact counting of both spaces (`counting`).
"""

from . import core, counting, order, search
from .core import *
from .counting import *
from .order import *
from .search import *

__version__ = "0.1.0"

__all__: list[str] = []  # each module lists its own public names
__all__ += core.__all__
__all__ += counting.__all__
__all__ += order.__all__
__all__ += search.__all__
