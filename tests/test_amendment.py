"""Repair of unprojectable choreographies and the selection-expansion relation."""

from __future__ import annotations

import itertools
from collections import Counter

import corpus
from chorkit import amendment, cc, projection
from chorkit.amendment import (
    Amendment,
    add_selections,
    amend,
    amend_program,
    is_selection_expansion,
    needs_selection,
)
from chorkit.cc import (
    ChorProgram,
    Com,
    CommEvent,
    Cond,
    End,
    Eq,
    Label,
    Lit,
    Prefix,
    Procedure,
    Ref,
    Sel,
    SelectEvent,
    TauEvent,
)


# ---------------------------------------------------------------------------
# needs_selection (the unprojectable-process filter)


def test_purchase_conditional_leaves_buyer_uninformed():
    cond = corpus.purchase_unsafe().main.cont
    got = needs_selection(
        {}, cond.pid, cond.guard, ["buyer", "seller"], cond.then_c, cond.else_c
    )
    assert got == ["buyer"]


def test_projectable_conditional_needs_no_selections():
    cond = corpus.purchase_safe().main.cont
    got = needs_selection(
        {}, cond.pid, cond.guard, ["buyer", "seller"], cond.then_c, cond.else_c
    )
    assert got == []


def test_the_deciding_process_is_always_excluded():
    cond = corpus.purchase_unsafe().main.cont
    assert needs_selection({}, cond.pid, cond.guard, ["seller"], cond.then_c, cond.else_c) == []


# ---------------------------------------------------------------------------
# add_selections


def test_add_selections_empty_list_is_identity():
    c = Prefix(Com("p", Ref("e"), "q", "x"), End())
    assert add_selections("p", Label.LEFT, [], c) == c


def test_add_selections_single_receiver():
    assert add_selections("p", Label.LEFT, ["q"], End()) == Prefix(
        Sel("p", "q", Label.LEFT), End()
    )


def test_add_selections_preserves_list_order():
    got = add_selections("p", Label.RIGHT, ["q", "r"], End())
    assert got == Prefix(
        Sel("p", "q", Label.RIGHT), Prefix(Sel("p", "r", Label.RIGHT), End())
    )


# ---------------------------------------------------------------------------
# amend


def test_amend_delayed_choice_adds_selections_to_p_only():
    prog = corpus.delayed_choice()
    got = amend({}, ["p", "q", "r"], prog.main)
    expected = Prefix(
        Com("p", Ref("e"), "q", "x"),
        Cond(
            "r",
            Eq(Ref("flag"), Lit(0)),
            Prefix(
                Sel("r", "p", Label.LEFT),
                Prefix(Com("r", Ref("e2"), "p", "y"), End()),
            ),
            Prefix(Sel("r", "p", Label.RIGHT), End()),
        ),
    )
    assert got == expected


def test_amend_of_end_is_end():
    assert amend({}, ["p", "q"], End()) == End()


def test_amend_is_identity_on_safe_purchase():
    prog = corpus.purchase_safe()
    assert amend({}, ["buyer", "seller"], prog.main) == prog.main


def test_amend_defs_of_empty_is_empty():
    assert Amendment(ChorProgram({}, End())).procedures == {}


def test_amend_defs_amends_bodies_pointwise():
    body = Cond(
        "p",
        Eq(Ref("flag"), Lit(0)),
        Prefix(Com("p", Ref("e"), "q", "x"), End()),
        End(),
    )
    defs = {"X": Procedure(("p", "q", "r"), body)}
    amended = Amendment(ChorProgram(defs, End()))
    assert amended.pids == ["p", "q", "r"]
    got = amended.procedures
    assert got["X"].pids == ("p", "q", "r")
    amended_body = got["X"].body
    assert amended_body.then_c.action == Sel("p", "q", Label.LEFT)
    assert amended_body.else_c.action == Sel("p", "q", Label.RIGHT)


def test_amend_defs_keeps_projectable_bodies():
    prog = corpus.procedure_demo()
    amended = Amendment(prog)
    assert amended.pids == ["p", "q"]
    assert amended.procedures == dict(prog.procedures)


def test_amend_program_turns_unsafe_purchase_into_the_safe_one():
    assert amend_program(corpus.purchase_unsafe()).main == corpus.purchase_safe().main


def test_amend_program_of_end():
    prog = ChorProgram({}, End())
    got = amend_program(prog)
    assert got.procedures == {} and got.main == End()


def test_amend_program_proxy_informs_only_the_relay():
    got = amend_program(corpus.proxy_choice()).main
    # q learns the outcome; r behaves the same either way and is left alone.
    assert got.then_c.action == Sel("p", "q", Label.LEFT)
    assert got.else_c.action == Sel("p", "q", Label.RIGHT)
    sels = _selection_receivers(got)
    assert sels == {"q"}


def _selection_receivers(c: cc.Choreography) -> set[str]:
    if isinstance(c, Prefix):
        rest = _selection_receivers(c.cont)
        if isinstance(c.action, Sel):
            rest = rest | {c.action.receiver}
        return rest
    if isinstance(c, Cond):
        return _selection_receivers(c.then_c) | _selection_receivers(c.else_c)
    if isinstance(c, cc.RunningCall):
        return _selection_receivers(c.body)
    return set()


# ---------------------------------------------------------------------------
# Syntactic properties over the corpus


def _corpus_programs():
    return [p for _, p in corpus.named_corpus()] + corpus.random_programs(41, 25)


def test_amend_preserves_well_formedness():
    for prog in _corpus_programs():
        amended = amend(prog.procedures, sorted(cc.process_names(prog)), prog.main)
        assert not cc.wf_violations(cc.ChorProgram(prog.procedures, amended))
        assert not cc.wf_violations(amend_program(prog))


def test_amend_output_is_projectable_for_all_covered_processes():
    for prog in _corpus_programs():
        pids = sorted(cc.process_names(prog))
        repaired = amend_program(prog)
        defs, memo = repaired.procedures, {}
        for c in [repaired.main, *(proc.body for proc in defs.values())]:
            assert all(projection.projectable(defs, c, p, memo) for p in pids)


def test_amend_is_identity_on_projectable_programs():
    seen_projectable = 0
    for prog in _corpus_programs():
        if projection.projectable_program(prog):
            seen_projectable += 1
            assert amend_program(prog) == prog
    assert seen_projectable > 0


def test_amend_is_idempotent():
    for prog in _corpus_programs():
        once = amend_program(prog)
        assert amend_program(once) == once


# ---------------------------------------------------------------------------
# Selection expansion


_COM = CommEvent("p", 1, "q")
_SEL = SelectEvent("r", "s", Label.LEFT)
_TAU = TauEvent("r")
_ALPHABET = (_COM, _SEL, _TAU)


def test_expansion_is_reflexive_on_examples():
    tl = (_COM, _TAU)
    assert is_selection_expansion(tl, tl)


def test_expansion_allows_extra_selections_anywhere():
    assert is_selection_expansion((_COM,), (_SEL, _COM))


def test_expansion_rejects_changed_communications():
    assert not is_selection_expansion(
        (CommEvent("p", 1, "q"),), (CommEvent("p", 2, "q"),)
    )


def _derivable(base: tuple, expanded: tuple) -> bool:
    """Brute-force enumeration of the inductive definition.

    Base case: the two lists are permutations of each other.  Step case: peel
    one selection off the expanded list and recurse.  (The relation is closed
    under permutation of its second argument, so trying each occurrence of a
    selection, keeping the remainder in order, enumerates all derivations.)
    """
    if Counter(base) == Counter(expanded):
        return True
    for i, t in enumerate(expanded):
        if isinstance(t, SelectEvent):
            if _derivable(base, expanded[:i] + expanded[i + 1 :]):
                return True
    return False


def _all_sequences(max_len: int):
    for n in range(max_len + 1):
        yield from itertools.product(_ALPHABET, repeat=n)


def test_expansion_check_agrees_with_brute_force_up_to_length_four():
    sequences = list(_all_sequences(4))
    for base in sequences:
        for expanded in sequences:
            assert is_selection_expansion(base, expanded) == _derivable(
                base, expanded
            ), (base, expanded)


def test_expansion_is_reflexive_and_transitive_at_small_sizes():
    small = list(_all_sequences(2))
    for tl in small:
        assert is_selection_expansion(tl, tl)
    for a in small:
        for b in small:
            if not is_selection_expansion(a, b):
                continue
            for c in small:
                if is_selection_expansion(b, c):
                    assert is_selection_expansion(a, c)
