"""Knowledge-graph grounded stepwise reasoning with searchable thought states.

The package wires a typed knowledge graph store to a language model behind
two interaction drivers (a stepwise agent and automatic graph exploration),
runs chain / beam / merge search strategies over thought states, meters
every model and graph call against closed-form cost bounds, and evaluates
answers with deterministic overlap scoring plus an optional model judge.

Each module is its own API (``graphreason.runner``, ``graphreason.llm``, ...);
the package re-exports nothing.
"""
