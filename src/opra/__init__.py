"""opra: a graph query engine for routes, aggregates, extrema and
on-demand auxiliary labellings.

Queries match node and path variables against a labelled graph under
three kinds of constraints (path endpoints, regular expressions over
node constraints, linear inequalities over positionwise aggregates) and
may define derived labellings evaluated on demand, including nested
queries and path extrema.  Evaluation goes through an implicit product
graph searched with bounded breadth-first exploration; a brute-force
oracle provides independent reference semantics for testing.
"""

from .answer_graph import AGState, AnswerGraph, Plan
from .automata import (
    Nfa, compile_regex, eval_node_constraint, match_paths, step,
)
from .embedding import (
    DataGraph, WeightedAutomaton, build_automaton_graph, data_graph_from_dict,
    embed, embed_path, load_data_graph,
)
from .engine import (
    build_answer_graph, engine_answers, evaluate, evaluate_extremum, prepare,
)
from .errors import (
    ArityMismatchError, DuplicateEntryError, DuplicateLabellingNameError,
    EnumerationCapExceededError, EvalError, ForwardOntologyReferenceError,
    GraphLoadError, IndeterminateSumError, NameCollisionError, OpraError,
    PositionVarOutOfRangeError, PositionVarOutsideRegexError,
    QuerySyntaxError, RecursionDepthExceededError, ResourceExceededError,
    UnknownLabellingError, UnknownNodeError, UnknownVariableError,
    ValidationError,
)
from .extint import NEG_INF, POS_INF, ExtInt, is_finite
from .graph import (
    SINK, Graph, Labelling, aggregate, graph_from_dict, graph_to_dict,
    load_graph, path_index,
)
from .ontology import ExtendedGraph, eval_fundamental, eval_term, extend
from .oracle import (
    OracleConfig, OracleView, brute_extremum, enumerate_answers,
    enumerate_satisfying, match_paths_language, oracle_eval_term,
    regex_matches,
)
from .parser import parse
from .query import OpraQuery, PraQuery, to_text
from .solver import (
    MAX, MIN, EmptinessResult, ExtremumResult, SolveConfig, check_empty,
    derive_bounds, extremum,
)
from .solver import enumerate_answers as enumerate_product_answers
from .validate import ValidatedQuery, query_node_vars, query_path_vars, validate

__version__ = "0.1.0"
