"""Exact subset-distance indices on graphs, tree transforms that iron
branches toward paths, spanning-tree constructions with checkable
certificates, and a table of exact rational bounds."""

# each module's __all__ is its public surface; the package republishes them
from . import bounds, construct, errors, families, graph, steiner, transforms, weights
from .bounds import *
from .construct import *
from .errors import *
from .families import *
from .graph import *
from .steiner import *
from .transforms import *
from .weights import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *bounds.__all__, *construct.__all__, *errors.__all__, *families.__all__,
    *graph.__all__, *steiner.__all__, *transforms.__all__, *weights.__all__,
]
