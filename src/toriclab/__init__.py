"""Toric ideals of graphs: distinguished bases and robustness checks."""

from .bases import (
    FiberBundle,
    GraphAnalysis,
    PrimitiveElement,
    analyze_graph,
    fiber_bundle,
    graph_config,
)
from .binomials import BasisSet, Binomial, make_binomial
from .corpus import random_connected_graphs
from .errors import InternalInvariantError, ScaleGuardError
from .graphs import Graph, GraphError, load_graph, parse_graph
from .oracle import (
    ToricConfig,
    analyze_config,
    config_from_rows,
    fiber,
    graver_bounded,
    sample_groebner,
)
from .robustness import (
    ImplicationSuite,
    RobustnessVerdict,
    circuit_rule_violations,
    implication_suite,
    robustness_verdict,
)
from .walks import ClosedEvenWalk, make_walk, walk_binomial

__version__ = "0.1.0"

__all__ = [
    "BasisSet",
    "Binomial",
    "ClosedEvenWalk",
    "FiberBundle",
    "Graph",
    "GraphAnalysis",
    "GraphError",
    "ImplicationSuite",
    "InternalInvariantError",
    "PrimitiveElement",
    "RobustnessVerdict",
    "ScaleGuardError",
    "ToricConfig",
    "analyze_config",
    "analyze_graph",
    "circuit_rule_violations",
    "config_from_rows",
    "fiber",
    "fiber_bundle",
    "graph_config",
    "graver_bounded",
    "implication_suite",
    "load_graph",
    "make_binomial",
    "make_walk",
    "parse_graph",
    "random_connected_graphs",
    "robustness_verdict",
    "sample_groebner",
    "walk_binomial",
    "__version__",
]
