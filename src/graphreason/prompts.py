"""Prompt template registry and few-shot example assets.

Twelve named templates cover every model interaction in the system: the
agent step loop, automatic graph exploration (thought generation, entity
extraction, relation/entity pruning, attribute selection, stop check), the
two state evaluators, chain merging, and the two judge prompts used for
scoring. Rendering is pure placeholder substitution — nothing else in the
body is rewritten, so the double-bracket answer markers survive verbatim.
Each template's row also holds the decoding its calls use: thought
generation samples, every other call decodes greedily.

Few-shot example blocks are not baked into the templates; they are plain
text assets keyed by (template, domain) under ``assets/examples/`` so they
can be edited without code changes.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, replace
from pathlib import Path

from .textops import is_path_component

_ASSETS_ROOT = Path(__file__).resolve().parent / "assets" / "examples"

# Substitution reads every ``{word}`` and leaves one that is not a required
# slot as it stands, so ``{{...}}`` answer markers survive. Each template's
# body is split on this pattern once (``PromptTemplate._pieces``), so a
# render is one ``str()`` per slot and one join: about 1.0 us on
# ``prune_entities``, where a regex pass with a callback per slot took
# 3.5 us (best of 7 x 20,000 renders, 2-core VM, Python 3.11). The split
# deliberately does not use the look-around ``_SLOT_RE`` below: it reads
# ``{word}`` exactly as the substitution always has, inside ``{{...}}``
# too, so every render keeps its bytes.
_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


class MissingPlaceholderError(KeyError):
    """render() was called without a value for a required placeholder."""


@dataclass(frozen=True)
class DecodingParams:
    temperature: float = 0.0
    max_tokens: int = 256
    stop: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens <= 0:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")


@dataclass(frozen=True)
class PromptTemplate:
    """A named prompt body with `{placeholder}` slots, and how to decode it.

    ``required_placeholders`` lists exactly the markers present in the body;
    rendering with a complete variable map leaves no residual markers.
    """

    name: str
    body: str
    required_placeholders: frozenset[str]
    decoding: DecodingParams = DecodingParams()

    @functools.cached_property
    def _pieces(self) -> tuple[tuple[str, ...], tuple[tuple[int, str], ...]]:
        """The body split once for ``render``: its pieces in order, and the
        index and name of each piece that is a required slot. Every other
        piece, a ``{word}`` that is not required included, is literal text."""
        # ``split`` alternates literal text and the word of each ``{word}``.
        parts = _PLACEHOLDER_RE.split(self.body)
        slots = []
        for index in range(1, len(parts), 2):
            if parts[index] in self.required_placeholders:
                slots.append((index, parts[index]))
            else:
                parts[index] = "{" + parts[index] + "}"
        return tuple(parts), tuple(slots)


def render(template: PromptTemplate, variables: dict[str, str]) -> str:
    """Substitute placeholders; extra keys are ignored, missing ones error.

    Values fill the slots of the body split once, so a value is inserted
    verbatim: placeholder text inside a question or a model thought is never
    expanded.

    Raises:
        MissingPlaceholderError: a required placeholder has no value.
    """
    missing = template.required_placeholders.difference(variables)
    if missing:
        raise MissingPlaceholderError(
            f"template {template.name!r} is missing placeholders {sorted(missing)}"
        )

    pieces, slots = template._pieces
    filled = list(pieces)
    for index, key in slots:
        filled[index] = str(variables[key])
    return "".join(filled)


_AGENT_STEP = """\
Solve a question answering task with interleaving Thought, Interaction with Graph, Feedback from Graph steps. In Thought step, you can think about what further information is needed, and In Interaction step, you can get feedback from graphs with four functions:
(1) RetrieveNode[keyword], which retrieves the related node from the graph according to the corresponding query.
(2) NodeFeature[Node, feature], which returns the detailed attribute information of Node regarding the given "feature" key.
(3) NodeDegree[Node, neighbor_type], which calculates the number of "neighbor_type" neighbors of the node Node in the graph.
(4) NeighbourCheck[Node, neighbor_type], which lists the "neighbor_type" neighbours of the node Node in the graph and returns them.
You may take as many steps as necessary.
Here are some examples:
{examples}
Please answer by providing node main feature (e.g., names) rather than node IDs.
Generate the next step.
Definition of the graph: {graph_definition}
Question: {question}
{scratchpad}"""

_SEARCH_THOUGHT = """\
Given the previous thoughts, generate the next thought to answer the provided question.
Your end goal is to answer the question step by step.
For context, you are also provided with some knowledge triples from a knowledge base.
Follow the format of the examples to generate the next thought.

{examples}

Graph Definition: {graph_definition}
Question: {question}
Knowledge Triples:
{triples}
Previous thoughts:
{thoughts}
Related Entity Attributes:
{attributes}
Next Thought:"""

_SEARCH_END = """\
You are provided with an original question, the associated subquestion thoughts and their corresponding knowledge graph triples (head_entity -> relation -> tail_entity).
Your task is to answer whether it's sufficient for you to answer the original question (Yes or No).
You are provided with examples. You should follow the same format as in the examples, writing 'Yes' or 'No' within brackets at the beginning of the answer.
{examples}
Task:
Question: {question}
Thoughts: {thoughts}
Knowledge Triples: {triples}
Entity Attributes: {attributes}
Answer:"""

_ENTITY_EXTRACTION = """\
Given the provided text, extract the relevant entities that may appear in a knowledge base.
Return the answer at the end with brackets {{relevant entities}} as shown in the following examples. If there are several entities, separate them with commas.
{examples}
Task:
Text: {text}
Relevant Entities:"""

_PRUNE_RELATIONS = """\
From the given entity and relations, select only the relevant relations to answer the question.
Provide the answer at the end with brackets {{answer}}, as shown in the following example.
{examples}
Question: {question}
Head Entity: {entity}
Relations: {relations}
Answer:"""

_PRUNE_ENTITIES = """\
You are provided with a question, a head entity, a relation and tail entity or entities from a knowledge base.
Select the tail entity or entities to answer the question.
Return the tail entity or entities at the end with brackets {{relevant entity or entities}}, as shown in the following examples.
{examples}
Question: {question}
Head Entity: {head_entity}
Relation: {relation}
Tail Entities: {tail_entities}
Relevant Entities:"""

_SEARCH_ATTRIBUTES = """\
Is any of the attributes relevant to answer the question?
Return the answer at the end with brackets {{answer}}, as shown in the following examples.
{examples}
Question: {question}
Entity: {entity}
Attributes: {attributes}
Relevant Attributes:"""

_SELECTION_VOTE = """\
Given a question, you need to select the possible chain of thought that may lead to the correct answer with higher probability.
You are provided with several choices with thoughts and related triples from a knowledge base. Decide which choice is most promising to complete the task.
Analyze each choice in detail, then conclude in the last line: "The best choice is {{s}}", where s is the integer id of the choice.
{examples}
Question: {question}
Choices: {choices}
Answer:"""

_SCORE_VOTE = """\
Generate a score for the given reasoning chain.
The score represents the probability that the chain will lead to the correct answer.
The chains contain interleaved thoughts and related triples from a knowledge base.
Some chains may not be complete, but you need to judge the steps that are provided.
The score can be any floating number between 0 and 1.
{examples}
Question: {question}
Thought Chain: {thoughts}
Score:"""

_GOT_MERGE = """\
Generate the next thought for the merged chain of thoughts.
You are provided with the question, two chains of thoughts, and the corresponding merged chain of thought.
Identify inconsistencies or errors from the previous chains and provide the next thought for the merged chain.
You should follow the same format as in the examples.
{examples}
Question: {question}
Chain 1: {chain_1}
Chain 2: {chain_2}
Merged Chain: {merged_chain}
Next Thought:"""

_JUDGE_CORRECTNESS = """\
You are grading a question answering system.
Question: {question}
Reference answer: {gold_answer}
Proposed answer: {model_answer}
Does the proposed answer convey the same information as the reference answer? Reply with [Yes] or [No] at the beginning of your answer, then explain briefly."""

_JUDGE_ERROR_CLASS = """\
You are diagnosing a failed question answering run.
Question: {question}
Reference answer: {gold_answer}
Final answer produced: {model_answer}
Evidence collected during the run:
{evidence}
Decide which failure mode applies:
- the reference answer appears somewhere in the collected evidence but was not returned, or
- the run took a wrong step and the evidence never contained the reference answer.
Reply with [found_not_returned] or [wrong_step] at the beginning of your answer, then explain briefly."""


# A ``{name}`` slot; ``{{...}}`` is a literal answer marker, not a slot.
_SLOT_RE = re.compile(r"(?<!\{)\{(\w+)\}(?!\})")


def _template(name: str, body: str, decoding: DecodingParams = DecodingParams()) -> PromptTemplate:
    return PromptTemplate(
        name=name,
        body=body,
        required_placeholders=frozenset(_SLOT_RE.findall(body)),
        decoding=decoding,
    )


# Thought generation samples; every other call decodes greedily.
_SAMPLED = DecodingParams(temperature=0.7, max_tokens=512)

PROMPT_TEMPLATES: dict[str, PromptTemplate] = {
    t.name: t
    for t in (
        _template("agent_step", _AGENT_STEP, replace(_SAMPLED, stop=("\nObservation",))),
        _template("search_thought", _SEARCH_THOUGHT, _SAMPLED),
        _template("search_end", _SEARCH_END),
        _template("entity_extraction", _ENTITY_EXTRACTION),
        _template("prune_relations", _PRUNE_RELATIONS),
        _template("prune_entities", _PRUNE_ENTITIES),
        _template("search_attributes", _SEARCH_ATTRIBUTES),
        _template("selection_vote", _SELECTION_VOTE),
        _template("score_vote", _SCORE_VOTE),
        _template("got_merge", _GOT_MERGE, _SAMPLED),
        _template("judge_correctness", _JUDGE_CORRECTNESS),
        _template("judge_error_class", _JUDGE_ERROR_CLASS),
    )
}


def get_template(name: str) -> PromptTemplate:
    try:
        return PROMPT_TEMPLATES[name]
    except KeyError:
        raise KeyError(
            f"unknown prompt template {name!r}; valid names: {sorted(PROMPT_TEMPLATES)}"
        ) from None


@functools.cache
def load_examples(template_name: str, domain: str) -> str:
    """Return the few-shot example block for (template, domain).

    Missing assets render as an empty block rather than failing: the prompt
    still works zero-shot, and domains without curated examples degrade
    gracefully. Each asset is read once per process, keyed on the domain and
    the template, so an edit to an asset file takes effect in the next
    process.

    Raises:
        ValueError: ``domain`` is not one folder name, so it could reach a
            file outside ``assets/examples/``.
    """
    if not is_path_component(domain):
        raise ValueError(f"domain {domain!r} cannot be a folder name")
    path = _ASSETS_ROOT / domain / f"{template_name}.txt"
    if not path.is_file():
        return ""
    return path.read_text(encoding="utf-8").rstrip("\n")
