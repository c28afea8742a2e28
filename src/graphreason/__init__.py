"""Knowledge-graph grounded stepwise reasoning with searchable thought states.

The package wires a typed knowledge graph store to a language model behind
two interaction drivers (a stepwise agent and automatic graph exploration),
runs chain / beam / merge search strategies over thought states, meters
every model and graph call against closed-form cost bounds, and evaluates
answers with deterministic overlap scoring plus an optional model judge.
"""

from .agent import AgentAction, AgentStep, Scratchpad, run_agent_step
from .costs import CostBound, CostCounters, bound_for, check
from .evaluation import (
    EvalResult,
    Question,
    aggregate,
    classify_error,
    judge_correct,
    load_questions,
    rouge_l,
)
from .explore import (
    AttributeHit,
    ExplorationState,
    ExploreConfig,
    ExploreMemo,
    end_check,
    explore,
    extract_entities,
    prune_entities,
    prune_relations,
    resolve_anchors,
    search_attributes,
)
from .kg import (
    KnowledgeGraph,
    NodeRecord,
    SyntheticGraphSpec,
    Triple,
    generate_synthetic_graph,
    graph_definition,
    load_graph,
    neighbor_check,
    node_degree,
    node_feature,
    render_triple,
    retrieve_node,
    save_graph,
)
from .llm import (
    CompletionRequest,
    DecodingParams,
    ReplayBackend,
    WireBackend,
    complete,
    parse_bracketed_answer,
)
from .prompts import PROMPT_TEMPLATES, PromptTemplate, load_examples, render
from .runner import RunConfig, run_experiment, run_sweep, score_run
from .strategies import (
    SearchConfig,
    SearchResult,
    ThoughtState,
    evaluate_score,
    evaluate_select,
    merge_pair,
    merged_state,
    run_search,
    select_frontier,
)
from .traces import TraceRecord, build_trace, load_trace, validate_trace, write_trace

__version__ = "0.1.0"

__all__ = [
    "AgentAction",
    "AgentStep",
    "AttributeHit",
    "CompletionRequest",
    "CostBound",
    "CostCounters",
    "DecodingParams",
    "EvalResult",
    "ExplorationState",
    "ExploreConfig",
    "ExploreMemo",
    "KnowledgeGraph",
    "NodeRecord",
    "PROMPT_TEMPLATES",
    "PromptTemplate",
    "Question",
    "ReplayBackend",
    "RunConfig",
    "Scratchpad",
    "SearchConfig",
    "SearchResult",
    "SyntheticGraphSpec",
    "ThoughtState",
    "TraceRecord",
    "Triple",
    "WireBackend",
    "aggregate",
    "bound_for",
    "build_trace",
    "check",
    "classify_error",
    "complete",
    "end_check",
    "evaluate_score",
    "evaluate_select",
    "explore",
    "extract_entities",
    "generate_synthetic_graph",
    "graph_definition",
    "judge_correct",
    "load_examples",
    "load_graph",
    "load_questions",
    "load_trace",
    "merge_pair",
    "merged_state",
    "neighbor_check",
    "node_degree",
    "node_feature",
    "parse_bracketed_answer",
    "prune_entities",
    "prune_relations",
    "render",
    "render_triple",
    "resolve_anchors",
    "retrieve_node",
    "rouge_l",
    "run_agent_step",
    "run_experiment",
    "run_search",
    "run_sweep",
    "save_graph",
    "score_run",
    "search_attributes",
    "select_frontier",
    "validate_trace",
    "write_trace",
]
