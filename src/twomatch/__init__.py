"""twomatch: exact maximum matchings and optimal pairs of edge-disjoint
matchings, with machine verification of the structural facts bounding the
ratio between the two optima by 5/4."""

from . import alternating, graph, graph6, matching, pairs, reports
from .alternating import *
from .graph import *
from .graph6 import *
from .matching import *
from .pairs import *
from .reports import *

__version__ = "0.1.0"

__all__ = [
    *graph.__all__,
    *graph6.__all__,
    *matching.__all__,
    *pairs.__all__,
    *alternating.__all__,
    *reports.__all__,
    "__version__",
]
