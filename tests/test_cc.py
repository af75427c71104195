"""Core language: evaluation, stores, well-formedness, and the semantics."""

from __future__ import annotations

import pytest

import corpus
from chorkit import cc, explore
from chorkit.cc import (
    BoolLit,
    Call,
    ChorProgram,
    Com,
    CommEvent,
    Cond,
    End,
    Eq,
    Label,
    Le,
    Lit,
    Prefix,
    Procedure,
    Ref,
    RunningCall,
    Sel,
    State,
    Succ,
    TauEvent,
)


def test_eval_literal():
    assert cc.eval_expr(Lit(0), State(), "p") == 0
    assert cc.eval_expr(Lit(7), State({("p", "x"): 1}), "q") == 7


def test_eval_unset_variable_reads_default():
    assert cc.eval_expr(Ref("y"), State(), "p") == 0


def test_eval_successor():
    s = State({("p", "x"): 2})
    assert cc.eval_expr(Succ(Ref("x")), s, "p") == 3
    assert cc.eval_expr(Succ(Succ(Lit(0))), s, "p") == 2


def test_eval_reads_at_the_given_process():
    s = State({("p", "x"): 2, ("q", "x"): 9})
    assert cc.eval_expr(Ref("x"), s, "p") == 2
    assert cc.eval_expr(Ref("x"), s, "q") == 9


def test_beval_constants():
    assert cc.eval_bexpr(BoolLit(True), State(), "p") is True
    assert cc.eval_bexpr(BoolLit(False), State(), "p") is False


def test_beval_equality():
    s_eq = State({("p", "x"): 2, ("p", "y"): 2})
    s_ne = State({("p", "x"): 2})
    b = Eq(Ref("x"), Ref("y"))
    assert cc.eval_bexpr(b, s_eq, "p") is True
    assert cc.eval_bexpr(b, s_ne, "p") is False


def test_beval_less_or_equal():
    s = State({("p", "x"): 2})
    assert cc.eval_bexpr(Le(Ref("x"), Lit(2)), s, "p") is True
    assert cc.eval_bexpr(Le(Lit(3), Ref("x")), s, "p") is False


# ---------------------------------------------------------------------------
# Stores


def test_state_update_default_collapses():
    assert State().set("p", "x", 0) == State()
    assert State().set("p", "x", 0).items() == ()


def test_state_read_after_write():
    assert State().set("p", "x", 5).get("p", "x") == 5


def test_state_last_write_wins():
    s = State().set("p", "x", 1).set("p", "x", 2)
    assert s.get("p", "x") == 2


def test_state_canonicalisation_is_idempotent():
    s = State({("p", "x"): 3, ("q", "y"): 0})
    assert State(dict(s.items())) == s
    assert s.items() == ((("p", "x"), 3),)


def test_state_extensional_equality_and_hash():
    a = State().set("p", "x", 1).set("p", "x", 0)
    b = State()
    assert a == b
    assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# Well-formedness and process sets


def _main_violations(c) -> list[str]:
    return cc.wf_violations(ChorProgram({"X": Procedure(("p",), End())}, c))


def test_purchase_choreographies_are_well_formed():
    assert cc.wf_violations(corpus.purchase_unsafe()) == []
    assert cc.wf_violations(corpus.purchase_safe()) == []


def test_self_communication_is_not_well_formed():
    bad = Prefix(Com("p", Ref("e"), "p", "x"), End())
    assert _main_violations(bad) == ["the main choreography is not well-formed"]


def test_end_is_well_formed():
    assert _main_violations(End()) == []


def test_duplicate_pending_is_not_well_formed():
    assert _main_violations(RunningCall("X", ("p", "p"), End())) == [
        "the main choreography is not well-formed"
    ]


def test_program_wf_accepts_purchase_safe():
    assert not cc.wf_violations(corpus.purchase_safe())


def test_program_wf_rejects_undefined_procedure():
    assert cc.wf_violations(ChorProgram({}, Call("X")))


def test_program_wf_rejects_body_outside_declared_processes():
    proc = Procedure(("p",), Prefix(Com("q", Ref("e"), "r", "x"), End()))
    assert cc.wf_violations(ChorProgram({"X": proc}, End()))


def test_program_wf_requires_called_processes_to_be_declared():
    # Y engages r, so a body of X calling Y must declare r as well.
    inner = Procedure(("p", "r"), Prefix(Com("p", Ref("e"), "r", "x"), End()))
    outer = Procedure(("p", "q"), Call("Y"))
    prog = ChorProgram({"Y": inner, "X": outer}, Call("X"))
    assert cc.wf_violations(prog)
    widened = ChorProgram(
        {"Y": inner, "X": Procedure(("p", "q", "r"), Call("Y"))}, Call("X")
    )
    assert not cc.wf_violations(widened)


def _com(a, b, cont):
    return Prefix(Com(a, Ref("e"), b, "x"), cont)


# Programs with several violations at once, and every message they get, in
# order: the main choreography, then each procedure by name (its
# declaration, then its body), then undefined calls by site and name, then
# undeclared processes by procedure, with those of called procedures.
WF_PINS = [
    (
        ChorProgram(
            {
                "A": Procedure(("p",), _com("p", "r", Call("B"))),
                "B": Procedure(("q", "s", "q"), Prefix(Sel("q", "q", Label.LEFT), Call("V"))),
                "C": Procedure((), _com("t", "u", End())),
            },
            _com("p", "p", RunningCall(
                "Z", ("p", "p"), Cond("q", BoolLit(True), Call("W"), Call("A"))
            )),
        ),
        [
            "the main choreography is not well-formed",
            "procedure B declares a process twice",
            "the body of procedure B is not well-formed",
            "procedure C declares no processes",
            "main calls undefined procedure W",
            "main calls undefined procedure Z",
            "procedure B calls undefined procedure V",
            "the body of procedure A uses undeclared processes: q, r, s",
            "the body of procedure C uses undeclared processes: t, u",
        ],
    ),
    (
        ChorProgram(
            {
                "X": Procedure(("p", "q"), RunningCall(
                    "Y", ("q", "q"), Cond("r", BoolLit(False), Call("U"), Call("Y"))
                )),
                "Y": Procedure(("p", "s"), _com("s", "s", Call("X"))),
            },
            Call("X"),
        ),
        [
            "the body of procedure X is not well-formed",
            "the body of procedure Y is not well-formed",
            "procedure X calls undefined procedure U",
            "the body of procedure X uses undeclared processes: r, s",
            "the body of procedure Y uses undeclared processes: q",
        ],
    ),
    (
        ChorProgram({}, Cond(
            "p", BoolLit(True), _com("q", "q", Call("B")), RunningCall("A", ("r", "s", "r"), Call("C"))
        )),
        [
            "the main choreography is not well-formed",
            "main calls undefined procedure A",
            "main calls undefined procedure B",
            "main calls undefined procedure C",
        ],
    ),
]


@pytest.mark.parametrize("prog, messages", WF_PINS)
def test_wf_violations_lists_every_message_in_order(prog, messages):
    assert cc.wf_violations(prog) == messages


def test_process_names_of_purchase():
    assert cc.process_names(corpus.purchase_unsafe()) == {"buyer", "seller"}


def test_process_names_of_end_is_empty():
    assert cc.process_names(ChorProgram({}, End())) == frozenset()


def test_process_names_includes_declared_pids_of_unused_procedures():
    proc = Procedure(("p", "q"), Prefix(Com("p", Ref("e"), "q", "x"), End()))
    assert cc.process_names(ChorProgram({"X": proc}, End())) == {"p", "q"}


def test_process_names_are_the_main_processes_and_every_declared_one():
    for prog in _corpus_programs():
        declared = [p for proc in prog.procedures.values() for p in proc.pids]
        names = cc.process_names(prog)
        assert type(names) is frozenset
        assert names == cc._walk(prog.main)[1].union(declared)


# ---------------------------------------------------------------------------
# Semantics


def test_parallel_orders_enables_both_communications():
    prog = corpus.parallel_orders()
    s = State({("o1", "order"): 1, ("o2", "order"): 2})
    labels = [t for t, _, _ in cc.enabled(prog.procedures, prog.main, s)]
    assert labels == [CommEvent("o1", 1, "p1"), CommEvent("o2", 2, "p2")]


def test_tautological_guard_steps_into_then_branch():
    then_c = Prefix(Com("p", Ref("e"), "q", "x"), End())
    cond = Cond("p", Eq(Ref("x"), Ref("x")), then_c, End())
    steps = cc.enabled({}, cond, State())
    assert steps == ((TauEvent("p"), then_c, State()),)


def test_conditional_can_resolve_before_a_blocking_communication():
    prog = corpus.delayed_choice()
    labels = {t for t, _, _ in cc.enabled(prog.procedures, prog.main, State())}
    assert TauEvent("r") in labels
    assert CommEvent("p", 0, "q") in labels


def test_enabled_rejects_ill_formed_programs():
    with pytest.raises(cc.IllFormedError):
        cc.enabled({}, Call("X"), State())
    with pytest.raises(cc.IllFormedError):
        cc.traces({}, Prefix(Com("p", Ref("e"), "p", "x"), End()), State(), 2)


def test_call_enters_once_per_declared_process():
    prog = corpus.procedure_demo()
    steps = cc.enabled(prog.procedures, prog.main, State())
    body = prog.procedures["Ping"].body
    assert steps == (
        (TauEvent("p"), RunningCall("Ping", ("q",), body), State()),
        (TauEvent("q"), RunningCall("Ping", ("p",), body), State()),
    )


def test_entered_call_runs_body_only_for_entered_processes():
    body = Prefix(Com("p", Ref("ping"), "q", "x"), End())
    running = RunningCall("Ping", ("q",), body)
    defs = {"Ping": Procedure(("p", "q"), body)}
    labels = [t for t, _, _ in cc.enabled(defs, running, State())]
    # q still has to enter; the p-to-q communication must wait for it.
    assert labels == [TauEvent("q")]


def test_single_process_call_unfolds_directly():
    prog = corpus.endless_loop()
    steps = cc.enabled(prog.procedures, prog.main, State())
    assert steps == ((TauEvent("p"), Call("Loop"), State()),)


def test_parallel_orders_has_exactly_two_full_runs():
    prog = corpus.parallel_orders()
    s = State({("o1", "order"): 1, ("o2", "order"): 2})
    entries = cc.traces(prog.procedures, prog.main, s, 2)
    full = [(tl, c, st) for tl, c, st in entries if c == End()]
    assert len(full) == 2
    first = (CommEvent("o1", 1, "p1"), CommEvent("o2", 2, "p2"))
    assert {tl for tl, _, _ in full} == {first, first[::-1]}
    states = [st for _, _, st in full]
    assert states[0] == states[1] == s.set("p1", "x", 1).set("p2", "y", 2)


def test_traces_depth_zero_is_just_the_start():
    prog = corpus.purchase_safe()
    assert cc.traces(prog.procedures, prog.main, State(), 0) == [
        ((), prog.main, State())
    ]


def test_traces_of_end_is_only_the_empty_trace():
    assert cc.traces({}, End(), State(), 5) == [((), End(), State())]


def test_traces_budget_is_enforced():
    prog = corpus.parallel_orders()
    space = explore.Space(cc.successors(prog.procedures))
    budget = explore.Budget(2)
    with pytest.raises(cc.BudgetExceeded):
        explore.bfs(space, (prog.main, State()), 4, budget, explore.per_trace)
    assert budget.used == 3


# ---------------------------------------------------------------------------
# Property checks over the corpus


def _corpus_programs():
    return [p for _, p in corpus.named_corpus()] + corpus.random_programs(97, 25)


def test_label_determinism_on_corpus():
    for prog in _corpus_programs():
        for _, c, s in cc.traces(prog.procedures, prog.main, State(), 4):
            by_label: dict = {}
            for t, c2, s2 in cc.enabled(prog.procedures, c, s):
                if t in by_label:
                    assert by_label[t] == (c2, s2)
                by_label[t] = (c2, s2)


def test_wf_preservation_on_corpus():
    for prog in _corpus_programs():
        for _, c, _ in cc.traces(prog.procedures, prog.main, State(), 4):
            assert not cc.wf_violations(ChorProgram(prog.procedures, c))


def test_labels_mention_only_program_processes():
    for prog in _corpus_programs():
        names = cc.process_names(prog)
        for tl, _, _ in cc.traces(prog.procedures, prog.main, State(), 4):
            for t in tl:
                assert set(cc.label_processes(t)) <= names


def test_branching_is_finite_and_exploration_terminates():
    for prog in _corpus_programs():
        for _, c, s in cc.traces(prog.procedures, prog.main, State(), 3):
            steps = cc.enabled(prog.procedures, c, s)
            assert isinstance(steps, tuple)
            assert len(steps) < 64
