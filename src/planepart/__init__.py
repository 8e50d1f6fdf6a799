"""Resolving partitions of projective plane incidence graphs.

The package exports the names that the README's library example and
perfbench import; everything else is imported from its submodule.
"""

from .analysis import estimate_unseparated, lower_bound
from .construct import construct_partition
from .metric import is_resolving
from .plane import build_plane, plane_to_doc

__version__ = "0.1.0"
