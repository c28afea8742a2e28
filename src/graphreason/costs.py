"""Per-run cost metering and closed-form bound checking.

Every model completion and every graph lookup is counted here, keyed by the
pipeline step that issued it. After a run, the meters are compared against
closed-form bounds derived from the search configuration; a compliant engine
never exceeds them, and chain/tree runs that never stop early hit the
generation bound exactly (see ``bound_for`` for when the closed form is
tight).
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass

#: Tag under which thought-generation completions are metered. Evaluator
#: votes, pruning calls, re-asks, and answer extraction carry their own tags
#: and are excluded from the generation bound, which counts thought nodes.
GENERATION_TAG = "thought"

#: Tag under which merge-completion attempts are metered.
MERGE_TAG = "merge"

#: Suffix appended to a tag when a completion is re-issued after a malformed
#: reply.
REASK_SUFFIX = ":reask"

#: Graph actions one agent step may execute; later ones are observed as skipped.
MAX_ACTIONS_PER_STEP = 4

KG_UNIT_OPS = "ops"
KG_UNIT_EXPLORE = "explore_searches"


def _tally(tallies: Counter[str], counts: dict[str, int]) -> None:
    """Add ``counts`` into ``tallies`` key by key, as ``Counter.update``
    does, a zero count included, without its per-call ``Mapping`` check."""
    for key, count in counts.items():
        tallies[key] += count


def _tally_property(name: str, doc: str) -> property:
    """A tally read as a ``Counter`` with every recorded event folded in,
    and assigned whole (the benchmark rebuilds meters from a trace so)."""
    attr = "_" + name

    def get(self: CostCounters) -> Counter[str]:
        with self._lock:
            self._fold()
            return getattr(self, attr)

    def assign(self: CostCounters, tally: dict[str, int]) -> None:
        with self._lock:
            self._fold()
            setattr(self, attr, Counter(tally))

    return property(get, assign, doc=doc)


class CostCounters:
    """Thread-safe meters for one run: model calls by tag, graph ops by kind.

    ``memo_hits_by_tag`` counts, by the tag its call would carry, each
    explore prune or attribute ask that a search's memo answered. The memo
    (:class:`~graphreason.explore.ExploreMemo`) keys whole expansions by
    entity, so an entity expanded again counts one hit per ask its first
    walk made, and its node fetch and neighbor checks as graph ops, all in
    one :meth:`record_repeat`. A hit is not a model call: it is in neither
    ``llm_calls_by_tag`` nor ``llm_total``.

    ``explore_search_cost_max`` records the most graph operations any single
    automatic graph search consumed, operationalizing the per-search cost unit
    that the exploration bound is expressed in.

    The per-event records (:meth:`record_llm_call`, :meth:`record_kg_op` and
    :meth:`record_repeat`) take no lock: each appends one entry to a list of
    its own, a single step that no other thread can split, and the lists are
    folded into the tallies, under the lock, whenever a tally is read or
    assigned, or another meter is added in. A fold tallies the entries there
    are when it starts and deletes just those, so an entry appended during
    the fold waits for the next one; the lists are never swapped out, which
    would lose an append from a writer still holding the old list. The rarer
    updates (transport retries, explore searches, :meth:`add`) keep the lock.
    The tallies read as ``Counter`` objects and may be assigned whole.
    A ``record_repeat`` of two two-key tallies takes 0.12 us, and 0.57 us
    with its share of the fold, against 1.3 us when it tallied under the
    lock; 440 calls, 500 ops and 330 repeats, about an ``explore-merge``
    question's, then one ``as_dict`` take 0.29 ms against 0.89 ms (best of
    5, 2-core VM, Python 3.11).
    """

    llm_calls_by_tag = _tally_property("llm_calls_by_tag", "Model calls by tag.")
    memo_hits_by_tag = _tally_property("memo_hits_by_tag", "Memo hits by the tag of the call.")
    kg_ops_by_kind = _tally_property("kg_ops_by_kind", "Graph operations by kind.")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._llm_calls_by_tag: Counter[str] = Counter()
        self._memo_hits_by_tag: Counter[str] = Counter()
        self._kg_ops_by_kind: Counter[str] = Counter()
        self._calls: list[str] = []
        self._ops: list[str] = []
        self._repeats: list[tuple[dict[str, int], dict[str, int]]] = []
        self.transport_retries = 0
        self.explore_searches = 0
        self.explore_search_cost_max = 0

    def record_llm_call(self, tag: str) -> None:
        self._calls.append(tag)

    def record_kg_op(self, kind: str) -> None:
        self._ops.append(kind)

    def record_repeat(self, kg_ops: dict[str, int], memo_hits: dict[str, int]) -> None:
        """Meter, in one update, the graph ops and memo hits of a memoised
        expansion that was asked again. The two tallies are read when the
        meters are next folded, so they must not change after this call."""
        self._repeats.append((kg_ops, memo_hits))

    def _fold(self) -> None:
        """Tally the recorded events into the tallies; the lock is held."""
        calls, ops, repeats = self._calls, self._ops, self._repeats
        if calls:
            count = len(calls)
            self._llm_calls_by_tag.update(calls[:count])
            del calls[:count]
        if ops:
            count = len(ops)
            self._kg_ops_by_kind.update(ops[:count])
            del ops[:count]
        if repeats:
            # Summed in plain dicts first: ``Counter`` item updates take
            # Python's slow path for dict subclasses, about twice the time.
            count = len(repeats)
            kinds: dict[str, int] = {}
            tags: dict[str, int] = {}
            for kg_ops, memo_hits in repeats[:count]:
                for kind, n in kg_ops.items():
                    kinds[kind] = kinds.get(kind, 0) + n
                for tag, n in memo_hits.items():
                    tags[tag] = tags.get(tag, 0) + n
            del repeats[:count]
            _tally(self._kg_ops_by_kind, kinds)
            _tally(self._memo_hits_by_tag, tags)

    def record_transport_retry(self) -> None:
        with self._lock:
            self.transport_retries += 1

    def record_explore_search(self, cost: int) -> None:
        with self._lock:
            self.explore_searches += 1
            self.explore_search_cost_max = max(self.explore_search_cost_max, cost)

    def add(self, other: CostCounters) -> None:
        """Fold another set of meters (one explore search's) into these."""
        calls, hits, ops = other.llm_calls_by_tag, other.memo_hits_by_tag, other.kg_ops_by_kind
        with self._lock:
            _tally(self._llm_calls_by_tag, calls)
            _tally(self._memo_hits_by_tag, hits)
            _tally(self._kg_ops_by_kind, ops)
            self.transport_retries += other.transport_retries
            self.explore_searches += other.explore_searches
            self.explore_search_cost_max = max(
                self.explore_search_cost_max, other.explore_search_cost_max
            )

    def llm_total(self) -> int:
        with self._lock:
            self._fold()
            return sum(self._llm_calls_by_tag.values())

    def kg_total(self) -> int:
        with self._lock:
            self._fold()
            return sum(self._kg_ops_by_kind.values())

    def generation_calls(self) -> int:
        return self.llm_calls_by_tag.get(GENERATION_TAG, 0)

    def merge_attempts(self) -> int:
        return self.llm_calls_by_tag.get(MERGE_TAG, 0)

    def as_dict(self) -> dict:
        """Deterministic serializable snapshot, taken under the lock."""
        with self._lock:
            self._fold()
            calls, hits, ops = self._llm_calls_by_tag, self._memo_hits_by_tag, self._kg_ops_by_kind
            return {
                "llm_calls_by_tag": dict(sorted(calls.items())),
                "llm_total": sum(calls.values()),
                "memo_hits_by_tag": dict(sorted(hits.items())),
                "kg_ops_by_kind": dict(sorted(ops.items())),
                "kg_total": sum(ops.values()),
                "transport_retries": self.transport_retries,
                "explore_searches": self.explore_searches,
                "explore_search_cost_max": self.explore_search_cost_max,
            }


@dataclass(frozen=True)
class CostBound:
    """Closed-form ceilings for one run configuration.

    ``kg_op_bound`` is an operation count when ``kg_unit`` is ``"ops"``; for
    exploration-driven runs it is a number of graph searches, and the checker
    multiplies it by the run's observed per-search cost unit.
    """

    generation_call_bound: int
    merge_attempt_bound: int
    kg_op_bound: int
    kg_unit: str


def _tree_generation_bound(k: int, t: int, depth: int) -> int:
    if t == 1:
        return k * depth
    return k * (t**depth - 1) // (t - 1)


def _merge_bound(k: int, t: int, depth: int) -> int:
    return sum((k * t**i) // 2 for i in range(1, depth + 1))


def bound_for(
    cfg, n: int, d: int, *, max_actions_per_step: int = MAX_ACTIONS_PER_STEP
) -> CostBound:
    """Evaluate the closed-form cost bounds for a search configuration.

    Generation-call bounds: ``n`` for chains; ``k * (t**D - 1) / (t - 1)``
    (or ``k * D`` when t == 1) for tree and graph search at depth limit D.
    A chain runs to the same ``d_max`` as every strategy, and at k = t = 1
    the tree bound is that depth, so callers pass ``n = cfg.d_max``.
    Graph search additionally gets a merge-attempt bound of
    ``sum(floor(k * t**i / 2) for i in 1..D)``.

    The tree form prices a frontier that grows ``t``-fold per level, so a
    beam-limited engine meets it with equality only when the beam never
    saturates below it: t == 1 (any depth), depth 1, or depth 2 with k >= t.
    Deeper runs stay strictly under the bound.

    ``cfg`` needs ``strategy``, ``interaction``, ``k``, ``t``, and ``d_max``
    attributes; ``n`` is the chain's step bound. ``d`` is read by nothing:
    ``bench/run.py`` still passes it, so it goes with the next benchmark
    change, which makes the signature ``bound_for(cfg)`` (ROADMAP item 1.6).
    All arithmetic is exact integer arithmetic.
    """
    strategy = cfg.strategy
    interaction = cfg.interaction
    if strategy == "cot":
        generation = n
        merge = 0
    elif strategy == "tot":
        generation = _tree_generation_bound(cfg.k, cfg.t, cfg.d_max)
        merge = 0
    elif strategy == "got":
        generation = _tree_generation_bound(cfg.k, cfg.t, cfg.d_max)
        merge = _merge_bound(cfg.k, cfg.t, cfg.d_max)
    else:
        raise ValueError(f"unknown strategy: {strategy!r}")

    if interaction == "agent":
        kg_bound = generation * max_actions_per_step
        kg_unit = KG_UNIT_OPS
    elif interaction == "explore":
        kg_bound = generation
        kg_unit = KG_UNIT_EXPLORE
    else:
        raise ValueError(f"unknown interaction: {interaction!r}")

    return CostBound(
        generation_call_bound=generation,
        merge_attempt_bound=merge,
        kg_op_bound=kg_bound,
        kg_unit=kg_unit,
    )


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    violations: list[str]


def check(counters: CostCounters, bound: CostBound) -> CheckResult:
    """Verify that a finished run's meters respect the closed-form bounds."""
    violations: list[str] = []

    generation = counters.generation_calls()
    if generation > bound.generation_call_bound:
        violations.append(
            f"generation calls {generation} exceed bound {bound.generation_call_bound}"
        )

    merges = counters.merge_attempts()
    if merges > bound.merge_attempt_bound:
        violations.append(f"merge attempts {merges} exceed bound {bound.merge_attempt_bound}")

    kg_ops = counters.kg_total()
    if bound.kg_unit == KG_UNIT_EXPLORE:
        kg_limit = bound.kg_op_bound * max(1, counters.explore_search_cost_max)
    else:
        kg_limit = bound.kg_op_bound
    if kg_ops > kg_limit:
        violations.append(f"kg ops {kg_ops} exceed bound {kg_limit}")

    return CheckResult(ok=not violations, violations=violations)
