"""Parsing, rendering, and the auxiliary file formats."""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from chorkit import amendment, cc, projection, sp, syntax
from chorkit.cc import Com, End, Le, Lit, Prefix, Ref, State
from chorkit.syntax import ParseError, parse_source, parse_state_text, parse_table_text
from test_interning import ACCEPTANCE_SEED, behaviours, exprs
from test_parse_golden import WHITESPACE

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def test_parse_safe_purchase_source():
    text = (SAMPLES / "purchase_safe.chor").read_text(encoding="utf-8")
    assert parse_source(text).to_program() == corpus.purchase_safe()


def test_parse_bare_end():
    unit = parse_source("main = end")
    assert unit.definitions == ()
    assert unit.main == End()


def test_parsing_does_not_check_well_formedness():
    unit = parse_source("main = p.e -> p.x; end")
    prog = unit.to_program()
    assert prog.main == Prefix(Com("p", Ref("e"), "p", "x"), End())
    assert cc.wf_violations(prog) == ["the main choreography is not well-formed"]


def test_parse_definitions_and_calls():
    text = "def X(p, q) =\n  p.ping -> q.x;\n  end\n\nmain = call X\n"
    prog = parse_source(text).to_program()
    assert prog == cc.ChorProgram(
        {"X": cc.Procedure(("p", "q"), Prefix(Com("p", Ref("ping"), "q", "x"), End()))},
        cc.Call("X"),
    )


def test_parse_expressions_and_guards():
    text = "main = if p.succ(x) <= 2 then { p.0 -> q.y; end } else { end }"
    main = parse_source(text).main
    assert main.guard == Le(cc.Succ(Ref("x")), Lit(2))
    assert main.then_c.action.expr == Lit(0)


def test_parse_error_carries_a_location():
    with pytest.raises(ParseError) as exc:
        parse_source("main = p.e -> q.")
    diag = exc.value.diagnostics[0]
    assert diag.severity == "error"
    assert diag.line == 1 and diag.col > 0


def test_duplicate_definition_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse_source("def X(p, q) = end\ndef X(p, q) = end\nmain = end")
    assert "duplicate" in exc.value.diagnostics[0].message


def test_unknown_label_is_an_error():
    with pytest.raises(ParseError) as exc:
        parse_source("main = p -> q[up]; end")
    assert "unknown label" in exc.value.diagnostics[0].message


def test_comments_and_whitespace_are_ignored():
    text = "# protocol\nmain =  end  # done"
    assert parse_source(text).main == End()


def test_split_cuts_at_the_whitespace_the_regular_expression_skips():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(every.split()) == re.sub(r"\s", "", every)


def _scan_by_regex(text: str) -> tuple[list[str], set[str]]:
    """The scanner that cutting at whitespace replaced: one regular
    expression over the whole text, with the same check of characters."""
    tokens = syntax._TOKEN.findall(text)
    tokens = tokens[: tokens.index("") + 1]
    names = set()
    first_bad = len(tokens)
    for tok in set(tokens):
        head = tok[:1]
        if head.isalpha() or head == "_":
            names.add(tok)
        elif not (tok in syntax._SYMBOLS or head.isdecimal() or not tok):
            first_bad = min(first_bad, tokens.index(tok))
    if first_bad < len(tokens):
        raise syntax._error(text, first_bad, f"unexpected character {tokens[first_bad][0]!r}")
    return tokens, names - syntax.KEYWORDS


def _scanned(scan, text: str):
    try:
        return scan(text)
    except ParseError as exc:
        return exc.diagnostics


# Whitespace of every kind, comment starts, carriage returns, which end no
# comment, a digit that is not decimal and one that is, symbols, and words.
_SCAN_PIECES = [*WHITESPACE, " ", "\n", "#", "\r", "\u00b2", "\u0663", *"-><=.;[]{}(),",
                *"apqxZ_019", "if", "end", "succ"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_SCAN_PIECES), max_size=40).map("".join))
def test_scanning_agrees_with_one_regular_expression(text):
    assert _scanned(syntax._scan, text) == _scanned(_scan_by_regex, text)


# ---------------------------------------------------------------------------
# Rendering


def test_render_end():
    assert syntax.render_chor(End()) == "end"
    assert syntax.render_behaviour(sp.End()) == "end"


def test_render_parse_round_trip_for_all_samples():
    for path in sorted(SAMPLES.glob("*.chor")):
        unit = parse_source(path.read_text(encoding="utf-8"))
        again = parse_source(syntax.render_unit(unit))
        assert again == unit, path.name


def test_render_program_round_trips_the_corpus():
    for name, prog in corpus.named_corpus():
        text = syntax.render_program(prog)
        assert parse_source(text).to_program() == prog, name
    for prog in corpus.random_programs(7, 25):
        text = syntax.render_program(prog)
        assert parse_source(text).to_program() == prog


def test_render_network_lists_processes_in_canonical_order():
    from chorkit import projection

    compiled = projection.epp(corpus.purchase_safe())
    text = syntax.render_network(compiled.net)
    lines = text.splitlines()
    assert lines[0].startswith("buyer[")
    assert lines[1].startswith("seller[")
    assert "seller & { left: seller?y; end, right: end }" in lines[0]


def test_render_behaviour_forms():
    b = sp.Offer("p", sp.Recv("p", "x", sp.End()), None)
    assert syntax.render_behaviour(b) == "p & { left: p?x; end }"
    assert syntax.render_behaviour(sp.Call("X@p")) == "call X@p"


def test_render_behaviour_offers_with_one_option_and_with_none():
    recv = sp.Recv("p", "x", sp.End())
    shown = {
        sp.Offer("p", recv, None): "p & { left: p?x; end }",
        sp.Offer("p", None, recv): "p & { right: p?x; end }",
        sp.Offer("p", None, None): "p & {  }",
        sp.Offer("p", recv, sp.Call("X")): "p & { left: p?x; end, right: call X }",
    }
    for b, text in shown.items():
        assert syntax.render_behaviour(b) == text == oracles.render_behaviour(b)


@settings(max_examples=300, deadline=None)
@given(behaviours)
def test_render_behaviour_matches_the_recursive_oracle(b):
    assert syntax.render_behaviour(b) == oracles.render_behaviour(b)


@settings(max_examples=200, deadline=None)
@given(exprs)
def test_render_expr_matches_the_recursive_oracle(e):
    assert syntax.render_expr(e) == oracles.render_expr(e)


def test_render_behaviour_matches_the_oracle_on_every_projection():
    """Every behaviour EPP gives for a sample or corpus program, plain and
    amended, renders as the recursive oracle renders it."""
    progs = [parse_source(path.read_text(encoding="utf-8")).to_program()
             for path in sorted(SAMPLES.glob("*.chor"))]
    progs += [prog for _, prog in corpus.named_corpus()]
    progs += corpus.random_programs(ACCEPTANCE_SEED, 50)
    rendered = 0
    for prog in progs:
        try:
            amended = amendment.amend_program(prog)
        except cc.IllFormedError:
            continue
        for version in (prog, amended):
            try:
                compiled = projection.epp(version)
            except projection.UnprojectableError:
                continue
            bodies = [b for _, b in compiled.net.items()] + list(compiled.procedures.values())
            for b in bodies:
                assert syntax.render_behaviour(b) == oracles.render_behaviour(b)
            rendered += len(bodies)
    assert rendered > 300


def test_render_is_deterministic():
    prog = corpus.purchase_safe()
    assert syntax.render_program(prog) == syntax.render_program(prog)


def test_running_call_renders_for_traces_only():
    running = cc.RunningCall("X", ("q",), End())
    text = syntax.render_chor(running)
    assert "awaiting" in text and "q" in text


# ---------------------------------------------------------------------------
# State and table files


def test_parse_state_file():
    s = parse_state_text("buyer.offer = 2\n\n# note\nseller.x = 0\n")
    assert s == State({("buyer", "offer"): 2})


def test_parse_state_file_rejects_garbage():
    with pytest.raises(ParseError):
        parse_state_text("buyer = 2\n")


def _diagnostics(parse, text: str) -> list[str]:
    with pytest.raises(ParseError) as exc:
        parse(text)
    return [d.text() for d in exc.value.diagnostics]


@pytest.mark.parametrize("text, bad", [
    ("p q.x = 1\n", "p q"), ("1.x = 1\n", "1"), ("p.x y = 1\n", "x y"), ("p.if = 1\n", "if"),
    ("main.x = 1\n", "main"), ("p.x.y = 1\n", "x.y"), ("\u00b2p.x = 1\n", "\u00b2p"),
])
def test_state_file_processes_and_variables_are_names(text, bad):
    assert _diagnostics(parse_state_text, text) == [f"error: line 1 col 1: not a name: {bad!r}"]


def test_state_file_names_follow_the_source_grammar():
    s = parse_state_text("p\u00b2.x_1 = 1\n_q.\u00c4 = 2\n")
    assert s == State({("p\u00b2", "x_1"): 1, ("_q", "\u00c4"): 2})
    unit = parse_source("main = p\u00b2.x_1 -> _q.\u00c4; end")
    assert unit.main == Prefix(Com("p\u00b2", Ref("x_1"), "_q", "\u00c4"), End())


def test_state_file_binds_each_variable_once():
    text = "p.x = 1\n# again\np.y = 2\np.x = 7\nq.x = 3\np.x = 0\n"
    assert _diagnostics(parse_state_text, text) == [
        "error: line 4 col 1: p.x bound twice, first on line 1",
        "error: line 6 col 1: p.x bound twice, first on line 1",
    ]


def test_table_file_gives_each_input_once():
    assert _diagnostics(parse_table_text, "0 -> 1\n0 -> 5\n") == [
        "error: line 2 col 1: input 0 given twice, first on line 1"
    ]
    # Inputs are compared as numbers, and an `undef` row counts as well.
    assert _diagnostics(parse_table_text, "0, 1 -> undef\n1,1 -> 2\n00,1 -> 1\n") == [
        "error: line 3 col 1: input 00,1 given twice, first on line 1"
    ]


def test_parse_table_file():
    table = parse_table_text("0,0 -> 1\n0,1 -> 0\n2,2 -> undef\n")
    assert table.arity == 2
    assert table.entries == {(0, 0): 1, (0, 1): 0, (2, 2): None}


def test_parse_table_file_rejects_mixed_arity():
    with pytest.raises(ParseError):
        parse_table_text("0 -> 1\n0,1 -> 0\n")


def test_parse_table_file_rejects_empty():
    with pytest.raises(ParseError):
        parse_table_text("# nothing\n")
