"""Template registry and rendering."""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphreason import prompts
from graphreason.llm import request_for
from graphreason.prompts import (
    MissingPlaceholderError,
    PROMPT_TEMPLATES,
    PromptTemplate,
    get_template,
    load_examples,
    render,
)

from helpers import reference_render

EXPECTED_NAMES = {
    "agent_step",
    "search_thought",
    "search_end",
    "entity_extraction",
    "prune_relations",
    "prune_entities",
    "search_attributes",
    "selection_vote",
    "score_vote",
    "got_merge",
    "judge_correctness",
    "judge_error_class",
}


def test_registry_is_frozen_to_the_known_set():
    assert set(PROMPT_TEMPLATES) == EXPECTED_NAMES


def test_every_placeholder_appears_in_its_body():
    for template in PROMPT_TEMPLATES.values():
        for key in template.required_placeholders:
            assert "{" + key + "}" in template.body, (template.name, key)


def test_get_template_names_valid_choices():
    assert get_template("agent_step").name == "agent_step"
    with pytest.raises(KeyError, match="agent_step"):
        get_template("nope")


def test_render_fills_all_required_keys():
    template = get_template("entity_extraction")
    text = render(template, {"examples": "EX", "text": "the KRT39 gene"})
    assert "EX" in text
    assert "the KRT39 gene" in text
    assert "{text}" not in text
    assert "{examples}" not in text


def test_render_missing_key_raises():
    template = get_template("entity_extraction")
    with pytest.raises(MissingPlaceholderError, match="text"):
        render(template, {"examples": ""})


def test_render_ignores_extra_keys():
    template = get_template("entity_extraction")
    with_extra = render(template, {"examples": "", "text": "x", "bogus": "IGNORED"})
    without = render(template, {"examples": "", "text": "x"})
    assert with_extra == without
    assert "IGNORED" not in with_extra


def test_render_leaves_literal_double_braces_alone():
    """Answer-format cues like {{answer}} are template text, not slots."""
    template = get_template("prune_relations")
    text = render(
        template,
        {"examples": "", "question": "q", "entity": "e", "relations": "r1, r2"},
    )
    assert "{{" in text


def test_agent_step_body_documents_the_four_lookups():
    body = get_template("agent_step").body
    for op in ("RetrieveNode", "NodeFeature", "NeighbourCheck", "NodeDegree"):
        assert op in body
    # Finish is taught by example rather than by the function list.
    assert "Finish[" in load_examples("agent_step", "synthetic")


@given(
    value=st.text(
        alphabet=st.characters(blacklist_characters="{}", blacklist_categories=("Cs",)),
        max_size=40,
    )
)
def test_render_substitutes_verbatim(value):
    template = PromptTemplate(
        name="probe", body="A {slot} Z", required_placeholders=frozenset({"slot"})
    )
    assert render(template, {"slot": value}) == f"A {value} Z"


def test_render_keeps_placeholder_text_in_values_verbatim():
    """A question or thought that mentions a slot name is not expanded."""
    text = render(
        get_template("agent_step"),
        {
            "examples": "EX",
            "graph_definition": "DEF",
            "question": "What fills {scratchpad}?",
            "scratchpad": "Thought 1: look at {triples} and {question}",
        },
    )
    assert "Question: What fills {scratchpad}?\n" in text
    assert text.endswith("\nThought 1: look at {triples} and {question}")

    text = render(
        get_template("search_thought"),
        {
            "examples": "EX",
            "graph_definition": "DEF",
            "question": "Q",
            "triples": "TRIPLE-ROWS",
            "thoughts": "Next, expand {triples}.",
            "attributes": "{attributes}",
        },
    )
    assert text.count("TRIPLE-ROWS") == 1
    assert "Previous thoughts:\nNext, expand {triples}.\n" in text
    assert "Related Entity Attributes:\n{attributes}\n" in text


_BRACED = st.lists(st.sampled_from(["{a}", "{b}", "{", "}", "a", " "]), max_size=6).map("".join)


@given(first=_BRACED, second=_BRACED)
def test_render_is_one_pass(first, second):
    template = PromptTemplate(
        name="probe", body="A {a} B {b} Z", required_placeholders=frozenset({"a", "b"})
    )
    assert render(template, {"a": first, "b": second}) == f"A {first} B {second} Z"


# Template bodies from required slots, unknown ``{word}``s, ``{{...}}``
# markers, stray braces and backslashes.
_BODY_PIECES = [
    "{a}", "{b}", "{c}", "{{a}}", "{{x}}", "{zz}", "{", "}", "{{", "}}", "\\", " a ", "\n"
]
_VALUES = (
    st.text(max_size=6)
    | st.sampled_from(["{a}", "{b}", "{{a}}", "\\1", "\\g<1>", "}{"])
    | st.integers()
    | st.none()
    | st.floats(allow_nan=False)
)


@settings(max_examples=300)
@given(
    body=st.lists(st.sampled_from(_BODY_PIECES) | st.text(max_size=3), max_size=12).map("".join),
    required=st.frozensets(st.sampled_from(["a", "b", "c", "zz"])),
    values=st.fixed_dictionaries({name: _VALUES for name in ["a", "b", "c", "zz", "x"]}),
    omitted=st.sampled_from([None, None, None, "a", "zz"]),
)
@example(body="x {{a}} {b} }{a}{", required=frozenset({"a"}), values={"a": 1, "b": 2}, omitted=None)
@example(body="only {a}", required=frozenset({"a", "zz"}), values={"a": 1, "zz": 2}, omitted="zz")
def test_render_equals_a_regex_pass_over_any_body(body, required, values, omitted):
    template = PromptTemplate(name="probe", body=body, required_placeholders=required)
    variables = {name: value for name, value in values.items() if name != omitted}
    try:
        expected = reference_render(template, variables)
    except MissingPlaceholderError as exc:
        # The check runs over the required names, in the body or not.
        with pytest.raises(MissingPlaceholderError) as caught:
            render(template, variables)
        assert str(caught.value) == str(exc)
    else:
        assert render(template, variables) == expected


@given(data=st.data())
def test_render_equals_a_regex_pass_over_every_template(data):
    for template in PROMPT_TEMPLATES.values():
        names = sorted(template.required_placeholders) + ["extra"]
        variables = {name: data.draw(_VALUES, label=name) for name in names}
        assert render(template, variables) == reference_render(template, variables)


def test_load_examples_reads_packaged_assets():
    text = load_examples("agent_step", "synthetic")
    assert "Finish[" in text
    assert not text.endswith("\n")


def test_load_examples_missing_domain_falls_back_to_zero_shot():
    assert load_examples("agent_step", "no-such-domain") == ""


def test_load_examples_refuses_a_domain_outside_the_assets(tmp_path):
    (tmp_path / "agent_step.txt").write_text("PLANTED\n", encoding="utf-8")
    relative = os.path.relpath(tmp_path, prompts._ASSETS_ROOT)
    with pytest.raises(ValueError, match="cannot be a folder name"):
        load_examples("agent_step", relative)
    with pytest.raises(ValueError, match="cannot be a folder name"):
        request_for("agent_step", {}, tag="thought", domain=relative)


def test_load_examples_reads_each_asset_once(tmp_path, monkeypatch):
    monkeypatch.setattr(prompts, "_ASSETS_ROOT", tmp_path)
    asset = tmp_path / "read-once" / "score_vote.txt"
    asset.parent.mkdir(parents=True)
    asset.write_text("FIRST BLOCK\n", encoding="utf-8")
    assert load_examples("score_vote", "read-once") == "FIRST BLOCK"
    asset.write_text("SECOND BLOCK\n", encoding="utf-8")
    assert load_examples("score_vote", "read-once") == "FIRST BLOCK"
