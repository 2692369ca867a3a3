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

from .core import (
    ConfigTree,
    ConfigError,
    ParseError,
    ProblemError,
    StructuralProblem,
    TTree,
    TypeSymbol,
    UnknownTypeError,
    config_to_ttree,
    make_config,
    parse_config,
    parse_problem,
    parse_ttree,
    parse_ttrees,
    render_config,
    render_problem,
    render_ttree,
    ttree,
    ttree_conforms,
    ttree_to_config,
)
from .counting import (
    CountTable,
    approx_canonical,
    chain_problem,
    comparison_table,
    count_all,
    count_canonical,
)
from .order import (
    TreeOrdering,
    canonicalize,
    compare,
    is_canonical,
    is_canonical_counted,
    isomorphic,
)
from .search import (
    ExtensionSite,
    apply_extension,
    canonical_removal,
    enumerate_all,
    enumerate_canonical,
    extension_sites,
    is_canonical_incremental,
    unit_extensions,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConfigTree",
    "CountTable",
    "ExtensionSite",
    "ParseError",
    "ProblemError",
    "StructuralProblem",
    "TTree",
    "TreeOrdering",
    "TypeSymbol",
    "UnknownTypeError",
    "approx_canonical",
    "apply_extension",
    "canonical_removal",
    "canonicalize",
    "chain_problem",
    "compare",
    "comparison_table",
    "config_to_ttree",
    "count_all",
    "count_canonical",
    "enumerate_all",
    "enumerate_canonical",
    "extension_sites",
    "is_canonical",
    "is_canonical_counted",
    "is_canonical_incremental",
    "isomorphic",
    "make_config",
    "parse_config",
    "parse_problem",
    "parse_ttree",
    "parse_ttrees",
    "render_config",
    "render_problem",
    "render_ttree",
    "ttree",
    "ttree_conforms",
    "ttree_to_config",
    "unit_extensions",
]
