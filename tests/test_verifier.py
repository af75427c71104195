"""Bounded checkers: counterexamples, amendment correspondences, implements."""

from __future__ import annotations

from pathlib import Path

import pytest

import corpus
from chorkit import amendment, cc, projection, sp, syntax, verifier
from chorkit.cc import ChorProgram, CommEvent, End, State, TauEvent
from chorkit.verifier import (
    COUNTEREXAMPLE,
    EXHAUSTED,
    HOLDS,
    FnTable,
    check_amend_complete,
    check_amend_sound,
    check_epp_correspondence,
    check_implements,
    check_implements_network,
    check_intermediate_formulation,
    check_naive_correspondence,
)


def _count_selections(c: cc.Choreography) -> int:
    if isinstance(c, cc.Prefix):
        return int(isinstance(c.action, cc.Sel)) + _count_selections(c.cont)
    if isinstance(c, cc.Cond):
        return _count_selections(c.then_c) + _count_selections(c.else_c)
    if isinstance(c, cc.RunningCall):
        return _count_selections(c.body)
    return 0


# ---------------------------------------------------------------------------
# Naive correspondence (the refuted exact-reachability claim)


def test_naive_correspondence_fails_on_delayed_choice():
    report = check_naive_correspondence(corpus.delayed_choice(), State(), 2)
    assert report.verdict == COUNTEREXAMPLE
    assert report.witness is not None
    assert report.witness.trace == (TauEvent("r"),)


def test_naive_counterexample_witness_replays():
    prog = corpus.delayed_choice()
    report = check_naive_correspondence(prog, State(), 2)
    w = report.witness
    entries = cc.traces(prog.procedures, prog.main, State(), len(w.trace))
    assert (w.trace, w.term, w.state) in entries


def test_naive_correspondence_holds_without_conditionals():
    report = check_naive_correspondence(corpus.parallel_orders(), State(), 3)
    assert report.verdict == HOLDS


def test_naive_correspondence_holds_on_projectable_input():
    report = check_naive_correspondence(corpus.purchase_safe(), State(), 4)
    assert report.verdict == HOLDS


def test_naive_counterexample_is_monotone_in_depth():
    prog = corpus.delayed_choice()
    for depth in (2, 3, 4):
        assert check_naive_correspondence(prog, State(), depth).verdict == COUNTEREXAMPLE


def test_budget_exhaustion_is_reported():
    report = check_naive_correspondence(corpus.delayed_choice(), State(), 2, state_budget=3)
    assert report.verdict == EXHAUSTED


# ---------------------------------------------------------------------------
# Corrected correspondences


def test_amend_complete_holds_on_delayed_choice():
    report = check_amend_complete(corpus.delayed_choice(), State(), 2, 4)
    assert report.verdict == HOLDS


def test_amend_complete_holds_vacuously_on_end():
    report = check_amend_complete(ChorProgram({}, End()), State(), 4, 4)
    assert report.verdict == HOLDS


def test_amend_complete_holds_on_blocked_selection_at_depth_one():
    # The q-to-r step can go first in the original; the amended program has to
    # resolve the conditional and emit a selection before mirroring it.
    report = check_amend_complete(corpus.blocked_selection(), State(), 1, 4)
    assert report.verdict == HOLDS


def test_amend_sound_holds_on_delayed_choice():
    report = check_amend_sound(corpus.delayed_choice(), State(), 2, 4)
    assert report.verdict == HOLDS


def test_amend_sound_holds_on_the_already_amended_program():
    repaired = amendment.amend_program(corpus.delayed_choice())
    report = check_amend_sound(repaired, State(), 2, 4)
    assert report.verdict == HOLDS


def test_amend_sound_holds_on_end():
    report = check_amend_sound(ChorProgram({}, End()), State(), 4, 4)
    assert report.verdict == HOLDS


def test_amend_sound_holds_when_amendment_is_identity():
    report = check_amend_sound(corpus.purchase_safe(), State(), 4, 4)
    assert report.verdict == HOLDS


# ---------------------------------------------------------------------------
# The rejected intermediate formulation


def test_intermediate_formulation_fails_on_blocked_selection():
    report = check_intermediate_formulation(corpus.blocked_selection(), State(), 2, 4)
    assert report.verdict == COUNTEREXAMPLE
    w = report.witness
    assert w.trace[-1] == CommEvent("q", 0, "r")
    entries = cc.traces(
        corpus.blocked_selection().procedures,
        corpus.blocked_selection().main,
        State(),
        len(w.trace),
    )
    assert (w.trace, w.term, w.state) in entries


def test_intermediate_formulation_holds_without_conditionals():
    report = check_intermediate_formulation(corpus.parallel_orders(), State(), 3, 4)
    assert report.verdict == HOLDS


def test_intermediate_formulation_tolerates_delayed_choice():
    # Here only the communication ahead of the conditional commutes, and the
    # amendment can always mirror that first step directly.
    report = check_intermediate_formulation(corpus.delayed_choice(), State(), 2, 4)
    assert report.verdict == HOLDS


def test_blocked_selection_fails_strict_but_passes_relaxed_correspondence():
    prog = corpus.blocked_selection()
    assert check_intermediate_formulation(prog, State(), 2, 4).verdict == COUNTEREXAMPLE
    assert check_amend_complete(prog, State(), 2, 4).verdict == HOLDS


def test_intermediate_budget_stops_the_search_that_outgrows_it():
    # blocked_selection fails before any catch-up search; delayed_choice
    # holds after one for each step.
    for prog, verdict in ((corpus.blocked_selection(), COUNTEREXAMPLE),
                          (corpus.delayed_choice(), HOLDS)):
        full = check_intermediate_formulation(prog, State(), 2, 4)
        assert full.verdict == verdict
        for budget in range(1, full.stats.states_explored):
            report = check_intermediate_formulation(prog, State(), 2, 4, state_budget=budget)
            assert report.verdict == EXHAUSTED
            assert report.stats.states_explored == budget + 1


# ---------------------------------------------------------------------------
# EPP trace correspondence


def test_epp_correspondence_on_safe_purchase():
    report = check_epp_correspondence(corpus.purchase_safe(), State(), 5)
    assert report.verdict == HOLDS


def test_epp_correspondence_on_end():
    report = check_epp_correspondence(ChorProgram({}, End()), State(), 4)
    assert report.verdict == HOLDS


def test_epp_correspondence_on_amended_delayed_choice():
    prog = amendment.amend_program(corpus.delayed_choice())
    report = check_epp_correspondence(prog, State(), 5)
    assert report.verdict == HOLDS


def test_epp_correspondence_requires_projectability():
    with pytest.raises(projection.UnprojectableError):
        check_epp_correspondence(corpus.purchase_unsafe(), State(), 3)


# ---------------------------------------------------------------------------
# Function implementation


SUCC_TABLE = FnTable(1, {(n,): n + 1 for n in range(4)})
EQ_TABLE = FnTable(2, {(a, b): 1 if a == b else 0 for a in range(4) for b in range(4)})
LOOP_TABLE = FnTable(1, {(n,): None for n in range(2)})


def test_successor_program_implements_its_table():
    report = check_implements(corpus.successor_fn(), SUCC_TABLE, ["p"], "q", 8)
    assert report.verdict == HOLDS


def test_equality_program_implements_its_table():
    report = check_implements(corpus.equality_fn(), EQ_TABLE, ["p", "q"], "r", 8)
    assert report.verdict == HOLDS


def test_looping_program_never_reaches_a_terminal():
    report = check_implements(corpus.endless_loop(), LOOP_TABLE, ["p"], "p", 50)
    assert report.verdict == HOLDS


def test_defined_table_on_a_loop_is_a_counterexample():
    # Every input has a result, yet the space closes without a terminal
    # configuration: no run can ever deliver it.
    table = FnTable(1, {(0,): 1, (1,): 2})
    prog = corpus.endless_loop()
    amended = amendment.amend_program(prog)
    reports = [
        check_implements(prog, table, ["p"], "p", 50),
        check_implements(amended, table, ["p"], "p", 50),
        check_implements_network(projection.epp(amended), table, ["p"], "p", 50),
    ]
    for report in reports:
        assert report.verdict == COUNTEREXAMPLE
        assert report.witness.trace == ()
        assert report.witness.state == State()
        assert report.witness.note == (
            "inputs (0,): no run terminates (1 reachable configuration, none terminal)"
        )
    assert reports[0].witness.term == prog.main
    assert reports[2].witness.term == projection.epp(amended).net


def _implements_both(prog: ChorProgram, table: FnTable, bound: int = 8) -> list:
    """`check_implements` on the successor program's shape and
    `check_implements_network` on its projection, inputs p, output q."""
    net = projection.epp(amendment.amend_program(prog))
    return [
        check_implements(prog, table, ["p"], "q", bound),
        check_implements_network(net, table, ["p"], "q", bound),
    ]


def test_a_run_that_terminates_where_the_table_is_undefined_is_a_counterexample():
    reports = _implements_both(corpus.successor_fn(), FnTable(1, {(0,): None}))
    for report, term in zip(reports, (End(), sp.Network())):
        assert report.verdict == COUNTEREXAMPLE
        assert report.witness.term == term
        assert report.text().splitlines()[2:] == [
            "witness trace: p -> q : 1",
            "witness state: q.x = 1",
            "note: inputs (0,): terminated although the function is undefined here",
            "stats: 2 states explored, max depth 8",
        ]


def test_a_wrong_output_names_the_process_the_value_and_the_expected_one():
    reports = _implements_both(corpus.successor_fn(), FnTable(1, {(0,): 1, (1,): 5}))
    for report, term in zip(reports, (End(), sp.Network())):
        assert report.verdict == COUNTEREXAMPLE
        assert report.witness.term == term
        assert report.text().splitlines()[2:] == [
            "witness trace: p -> q : 2",
            "witness state: p.x = 1",
            "q.x = 2",
            "note: inputs (1,): q.x = 2, expected 5",
            "stats: 4 states explored, max depth 8",
        ]


def test_a_deadlocked_network_is_stuck_before_completion():
    # A choreography never gets stuck short of `end`, so only a network can:
    # q waits for r, which never sends, and p's send to q is never received.
    net = sp.Network({"p": sp.Send("q", cc.Ref("x"), sp.End()), "q": sp.Recv("r", "x", sp.End())})
    report = check_implements_network(sp.SPProgram({}, net), FnTable(1, {(1,): 2}), ["p"], "q", 8)
    assert report.verdict == COUNTEREXAMPLE
    assert report.witness.term == net
    assert report.witness.state == State({("p", "x"): 1})
    assert report.text().splitlines()[2:] == [
        "witness trace: (empty)",
        "witness state: p.x = 1",
        "note: inputs (1,): stuck before completion",
        "stats: 1 states explored, max depth 8",
    ]


def test_defined_table_on_a_loop_holds_when_the_bound_cuts_the_search():
    table = FnTable(1, {(0,): 1, (1,): 2})
    assert check_implements(corpus.endless_loop(), table, ["p"], "p", 0).verdict == HOLDS


def test_wrong_table_is_a_counterexample_with_replayable_witness():
    prog = corpus.successor_fn()
    bad = FnTable(1, {(0,): 5})
    report = check_implements(prog, bad, ["p"], "q", 8)
    assert report.verdict == COUNTEREXAMPLE
    w = report.witness
    entries = cc.traces(prog.procedures, prog.main, State(), len(w.trace))
    assert (w.trace, w.term, w.state) in entries


def test_arity_mismatch_is_rejected():
    with pytest.raises(ValueError):
        check_implements(corpus.successor_fn(), EQ_TABLE, ["p"], "q", 8)


def test_projected_networks_check_process_names_as_their_choreographies_do():
    # A network drops the processes that have ended, so the names are checked
    # against those the projection records: an unknown output once gave a
    # made-up counterexample, "inputs (0,): zz.x = 0, expected 1".
    sample = Path(__file__).resolve().parent.parent / "samples" / "successor_fn.chor"
    prog = syntax.parse_source(sample.read_text(encoding="utf-8")).to_program()
    compiled = projection.epp(prog)
    assert compiled.processes == {"p", "q"}
    for ins, out, message in (
        (["p"], "zz", "the program has no process zz"),
        (["zz"], "q", "the program has no process zz"),
        (["p", "p"], "q", "input process p is named twice"),
    ):
        table = FnTable(len(ins), {(0,) * len(ins): 1})
        for check, program in ((check_implements, prog), (check_implements_network, compiled)):
            with pytest.raises(ValueError, match=message):
                check(program, table, ins, out, 8)
    assert check_implements_network(compiled, SUCC_TABLE, ["p"], "q", 8).verdict == HOLDS
    # Hand-built programs, without the set, still take any name.
    anonymous = sp.SPProgram(compiled.procedures, compiled.net)
    assert anonymous == compiled and repr(anonymous) == repr(compiled)
    report = check_implements_network(anonymous, FnTable(1, {(0,): 1}), ["p"], "zz", 8)
    assert report.witness.note == "inputs (0,): zz.x = 0, expected 1"


def test_amendment_preserves_implements():
    for prog, table, ins, out, bound in (
        (corpus.successor_fn(), SUCC_TABLE, ["p"], "q", 8),
        (corpus.equality_fn(), EQ_TABLE, ["p", "q"], "r", 8),
    ):
        repaired = amendment.amend_program(prog)
        extra = _count_selections(repaired.main) - _count_selections(prog.main)
        report = check_implements(repaired, table, ins, out, bound + extra)
        assert report.verdict == HOLDS


def test_projection_preserves_implements():
    for prog, table, ins, out, bound in (
        (corpus.successor_fn(), SUCC_TABLE, ["p"], "q", 8),
        (corpus.equality_fn(), EQ_TABLE, ["p", "q"], "r", 8),
    ):
        repaired = amendment.amend_program(prog)
        extra = _count_selections(repaired.main) - _count_selections(prog.main)
        compiled = projection.epp(repaired)
        report = check_implements_network(compiled, table, ins, out, bound + extra)
        assert report.verdict == HOLDS


# ---------------------------------------------------------------------------
# Reports


def test_report_to_dict_shape():
    report = check_naive_correspondence(corpus.delayed_choice(), State(), 2)
    record = report.to_dict()
    assert record["check"] == "naive-correspondence"
    assert record["verdict"] == COUNTEREXAMPLE
    assert record["witness"]["trace"] == ["tau r"]
    assert set(record["stats"]) == {"states_explored", "max_depth"}
    held = check_naive_correspondence(corpus.parallel_orders(), State(), 3).to_dict()
    assert held["witness"] is None


def test_report_text_is_deterministic():
    a = check_amend_complete(corpus.delayed_choice(), State(), 2, 4).text()
    b = check_amend_complete(corpus.delayed_choice(), State(), 2, 4).text()
    assert a == b


SAMPLES = Path(__file__).resolve().parent.parent / "samples"
MAX_DEPTH_CAP = 1000  # the largest conclusive count tried at every budget


def _budget_charging_runs():
    """(name, run) for each budget-charging check on the corpus, the samples
    and the three function tables; `run(budget)` gives the report."""
    programs = corpus.named_corpus() + [
        (f"random_{i:02d}", prog)
        for i, prog in enumerate(corpus.random_programs(20260808, 50))
    ] + [
        (path.name, syntax.parse_source(path.read_text(encoding="utf-8")).to_program())
        for path in sorted(SAMPLES.glob("*.chor"))
    ]
    for name, prog in programs:
        yield f"naive/{name}", lambda b, p=prog: check_naive_correspondence(p, State(), 3, b)
        for check in (check_amend_complete, check_amend_sound, check_intermediate_formulation):
            yield f"{check.__name__}/{name}", lambda b, p=prog, c=check: c(p, State(), 3, 3, b)
    for i, (prog, table, ins, out, bound) in enumerate((
        (corpus.successor_fn(), SUCC_TABLE, ["p"], "q", 8),
        (corpus.equality_fn(), EQ_TABLE, ["p", "q"], "r", 8),
        (corpus.endless_loop(), LOOP_TABLE, ["p"], "p", 50),
        (corpus.endless_loop(), FnTable(1, {(0,): 1, (1,): 2}), ["p"], "p", 50),
    )):
        amended = amendment.amend_program(prog)
        net = projection.epp(amended)
        args = (table, ins, out, bound)
        yield f"implements/{i}", lambda b, p=prog, a=args: check_implements(p, *a, b)
        yield f"implements/{i}/amended", lambda b, p=amended, a=args: check_implements(p, *a, b)
        yield f"implements-network/{i}", lambda b, n=net, a=args: check_implements_network(n, *a, b)


def test_max_depth_is_the_declared_bound_under_every_budget():
    # Every budget from 0 to the conclusive count, which is at most
    # MAX_DEPTH_CAP for every check.
    over_cap = []
    for name, run in _budget_charging_runs():
        full = run(MAX_DEPTH_CAP)
        if full.verdict == EXHAUSTED:
            over_cap.append(name)
            continue
        for budget in range(full.stats.states_explored + 1):
            report = run(budget)
            assert report.stats.max_depth == full.stats.max_depth, (name, budget)
    assert over_cap == []
