"""kgpath: knowledge-graph retrieval and inference-path ranking.

Builds question-conditioned schema graphs from a large knowledge graph,
prunes them with a learned node scorer, and ranks random-walk inference
paths to produce open-set answers with explicit reasoning chains.
"""

from .kg import Edge, KnowledgeGraph, load_graph
from .linking import KeyNodeSet, QueryRecord
from .neural import ScoringModel
from .pruning import PrunedGraph
from .schema import NodeType, SchemaGraph, build_schema

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "KnowledgeGraph",
    "KeyNodeSet",
    "NodeType",
    "PrunedGraph",
    "QueryRecord",
    "SchemaGraph",
    "ScoringModel",
    "build_schema",
    "load_graph",
    "__version__",
]
