"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The corpus for the bulk criteria is the full set of named example
programs plus 50 pseudo-random well-formed programs from a fixed seed.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

import corpus
from chorkit import amendment, cc, projection, sp, verifier
from chorkit.cc import (
    ChorProgram,
    CommEvent,
    Cond,
    End,
    Label,
    Prefix,
    Sel,
    SelectEvent,
    State,
    TauEvent,
)
from chorkit.verifier import COUNTEREXAMPLE, HOLDS, FnTable

ACCEPTANCE_SEED = 20260808


def _report(criterion: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}")
    assert ok, criterion


def _full_corpus() -> list[tuple[str, ChorProgram]]:
    named = corpus.named_corpus()
    randoms = [
        (f"random_{i:02d}", prog)
        for i, prog in enumerate(corpus.random_programs(ACCEPTANCE_SEED, 50))
    ]
    return named + randoms


def _count_selections(c: cc.Choreography) -> int:
    if isinstance(c, Prefix):
        return int(isinstance(c.action, Sel)) + _count_selections(c.cont)
    if isinstance(c, Cond):
        return _count_selections(c.then_c) + _count_selections(c.else_c)
    if isinstance(c, cc.RunningCall):
        return _count_selections(c.body)
    return 0


def test_criterion_01_unsafe_purchase_is_unprojectable():
    prog = corpus.purchase_unsafe()
    not_projectable = not projection.projectable({}, prog.main, "buyer")
    try:
        projection.epp(prog)
        blamed = False
    except projection.UnprojectableError as exc:
        blamed = (
            len(exc.failures) == 1
            and exc.failures[0].process == "buyer"
            and exc.failures[0].site == "main"
            and isinstance(exc.failures[0].term, Cond)
        )
    _report("criterion 1: unsafe purchase unprojectable, blame at (conditional, buyer)",
            not_projectable and blamed)


def test_criterion_02_epp_golden_network():
    from chorkit.sp import Choose, Network, Offer, Recv, Send
    from chorkit.cc import Le, Lit, Ref
    from chorkit import syntax

    compiled = projection.epp(corpus.purchase_safe())
    expected = Network(
        {
            "buyer": Send(
                "seller",
                Ref("offer"),
                Offer("seller", Recv("seller", "y", sp.End()), sp.End()),
            ),
            "seller": Recv(
                "buyer",
                "x",
                sp.Cond(
                    Le(Ref("x"), Lit(2)),
                    Choose("buyer", Label.LEFT, Send("buyer", Ref("product"), sp.End())),
                    Choose("buyer", Label.RIGHT, sp.End()),
                ),
            ),
        }
    )
    structural = compiled.net == expected and compiled.procedures == {}
    rendered = syntax.render_network(compiled.net) == syntax.render_network(expected)
    _report("criterion 2: EPP of the safe purchase equals the expected network",
            structural and rendered)


def test_criterion_03_amendment_golden_tests():
    from chorkit.cc import Com, Eq, Lit, Ref

    safe_main = amendment.amend_program(corpus.purchase_unsafe()).main
    purchase_ok = safe_main == corpus.purchase_safe().main

    delayed = amendment.amend_program(corpus.delayed_choice()).main
    delayed_expected = Prefix(
        Com("p", Ref("e"), "q", "x"),
        Cond(
            "r",
            Eq(Ref("flag"), Lit(0)),
            Prefix(Sel("r", "p", Label.LEFT), Prefix(Com("r", Ref("e2"), "p", "y"), End())),
            Prefix(Sel("r", "p", Label.RIGHT), End()),
        ),
    )
    delayed_ok = delayed == delayed_expected

    proxy = amendment.amend_program(corpus.proxy_choice()).main
    proxy_ok = (
        proxy.then_c.action == Sel("p", "q", Label.LEFT)
        and proxy.else_c.action == Sel("p", "q", Label.RIGHT)
        and not isinstance(proxy.then_c.cont.action, Sel)
        and not isinstance(proxy.else_c.cont.action, Sel)
    )
    _report("criterion 3: amendment golden tests (purchase, delayed choice, proxy)",
            purchase_ok and delayed_ok and proxy_ok)


def test_criterion_04_naive_correspondence_counterexample():
    prog = corpus.delayed_choice()
    started = time.perf_counter()
    report = verifier.check_naive_correspondence(prog, State(), 2)
    elapsed = time.perf_counter() - started
    replayable = False
    if report.verdict == COUNTEREXAMPLE:
        w = report.witness
        entries = cc.traces(prog.procedures, prog.main, State(), len(w.trace))
        replayable = (w.trace, w.term, w.state) in entries
    _report(
        "criterion 4: naive correspondence refuted with replayable witness "
        f"({elapsed:.3f}s)",
        report.verdict == COUNTEREXAMPLE and replayable and elapsed < 1.0,
    )


def test_criterion_05_intermediate_formulation_counterexample():
    prog = corpus.blocked_selection()
    strict = verifier.check_intermediate_formulation(prog, State(), 2, 4)
    relaxed = verifier.check_amend_complete(prog, State(), 2, 4)
    _report(
        "criterion 5: strict formulation refuted, relaxed one holds",
        strict.verdict == COUNTEREXAMPLE and relaxed.verdict == HOLDS,
    )


def test_criterion_06_amendment_correspondence_suite():
    started = time.perf_counter()
    failures = []
    for name, prog in _full_corpus():
        complete = verifier.check_amend_complete(prog, State(), 6, 6)
        sound = verifier.check_amend_sound(prog, State(), 6, 6)
        if complete.verdict != HOLDS:
            failures.append((name, "complete", complete.verdict))
        if sound.verdict != HOLDS:
            failures.append((name, "sound", sound.verdict))
    elapsed = time.perf_counter() - started
    _report(
        f"criterion 6: amendment correspondence holds both ways on the corpus ({elapsed:.1f}s, "
        f"failures: {failures})",
        not failures and elapsed < 300.0,
    )


def test_criterion_07_amendment_syntactic_suite():
    failures = []
    for name, prog in _full_corpus():
        pids = sorted(cc.process_names(prog))
        repaired = amendment.amend_program(prog)
        memo: projection.Memo = {}
        defs = repaired.procedures
        if cc.wf_violations(repaired):
            failures.append((name, "wf"))
        if not all(projection.projectable(defs, repaired.main, p, memo) for p in pids):
            failures.append((name, "main projectability"))
        for proc_name, proc in defs.items():
            if not all(projection.projectable(defs, proc.body, p, memo) for p in pids):
                failures.append((name, f"procedure {proc_name} projectability"))
        if projection.projectable_program(prog) and repaired != prog:
            failures.append((name, "identity"))
        if amendment.amend_program(repaired) != repaired:
            failures.append((name, "idempotence"))
    _report(
        f"criterion 7: amendment syntactic properties hold on the corpus (failures: {failures})",
        not failures,
    )


def test_criterion_08_selection_expansion_oracle_equivalence():
    alphabet = (
        CommEvent("p", 1, "q"),
        SelectEvent("r", "s", Label.LEFT),
        TauEvent("r"),
    )

    def derivable(base: tuple, expanded: tuple) -> bool:
        if Counter(base) == Counter(expanded):
            return True
        for i, t in enumerate(expanded):
            if isinstance(t, SelectEvent) and derivable(
                base, expanded[:i] + expanded[i + 1 :]
            ):
                return True
        return False

    sequences = [
        seq
        for n in range(5)
        for seq in itertools.product(alphabet, repeat=n)
    ]
    disagreements = sum(
        1
        for base in sequences
        for expanded in sequences
        if amendment.is_selection_expansion(base, expanded) != derivable(base, expanded)
    )
    _report(
        f"criterion 8: selection-expansion check matches brute force on "
        f"{len(sequences) ** 2} pairs ({disagreements} disagreements)",
        disagreements == 0,
    )


def test_criterion_09_out_of_order_execution():
    prog = corpus.parallel_orders()
    s = State({("o1", "order"): 1, ("o2", "order"): 2})
    entries = cc.traces(prog.procedures, prog.main, s, 3)
    maximal = [
        (tl, c, st)
        for tl, c, st in entries
        if not cc.enabled(prog.procedures, c, st)
    ]
    ok = (
        len(maximal) == 2
        and all(c == End() for _, c, _ in maximal)
        and maximal[0][2] == maximal[1][2]
        and {tl for tl, _, _ in maximal}
        == {
            (CommEvent("o1", 1, "p1"), CommEvent("o2", 2, "p2")),
            (CommEvent("o2", 2, "p2"), CommEvent("o1", 1, "p1")),
        }
    )
    _report("criterion 9: exactly two full runs, same final state", ok)


def test_criterion_10_implements_chain():
    succ_table = FnTable(1, {(n,): n + 1 for n in range(4)})
    eq_table = FnTable(2, {(a, b): 1 if a == b else 0 for a in range(4) for b in range(4)})
    failures = []
    for name, prog, table, ins, out, bound in (
        ("successor", corpus.successor_fn(), succ_table, ["p"], "q", 8),
        ("equality", corpus.equality_fn(), eq_table, ["p", "q"], "r", 8),
    ):
        base = verifier.check_implements(prog, table, ins, out, bound)
        if base.verdict != HOLDS:
            failures.append((name, "direct", base.verdict))
        repaired = amendment.amend_program(prog)
        extra = _count_selections(repaired.main) - _count_selections(prog.main)
        amended = verifier.check_implements(repaired, table, ins, out, bound + extra)
        if amended.verdict != HOLDS:
            failures.append((name, "amended", amended.verdict))
        compiled = projection.epp(repaired)
        network = verifier.check_implements_network(
            compiled, table, ins, out, bound + extra
        )
        if network.verdict != HOLDS:
            failures.append((name, "network", network.verdict))
    loop_table = FnTable(1, {(n,): None for n in range(2)})
    loop = verifier.check_implements(corpus.endless_loop(), loop_table, ["p"], "p", 50)
    if loop.verdict != HOLDS:
        failures.append(("loop", "no-terminal", loop.verdict))
    _report(
        f"criterion 10: implements chain for successor/equality/loop (failures: {failures})",
        not failures,
    )


def test_criterion_11_epp_trace_correspondence():
    failures = []
    for name, prog in _full_corpus():
        candidates = []
        if projection.projectable_program(prog):
            candidates.append((name, prog))
        candidates.append((f"{name} (amended)", amendment.amend_program(prog)))
        for label, candidate in candidates:
            report = verifier.check_epp_correspondence(candidate, State(), 5)
            if report.verdict != HOLDS:
                failures.append((label, report.verdict))
    _report(
        f"criterion 11: EPP trace correspondence at depth 5 (failures: {failures})",
        not failures,
    )
