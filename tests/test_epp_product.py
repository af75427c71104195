"""The EPP check on configuration sets agrees with listing traces.

`oracles.epp_by_traces` lists every (trace, configuration) entry on both
sides; `verifier.check_epp_correspondence` walks pairs of configuration sets
reached by the same trace, breadth-first.  At an unlimited budget their
verdicts, witnesses, `max_depth` and report texts but for the stats line must
be identical.  The walk's `states_explored` counts what it charged the
budget: one unit per pair of sets it expands, once each, and one per
configuration either side steps.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from test_parse_golden import _programs
from chorkit import amendment, cc, explore, projection, sp, syntax, verifier
from chorkit.cc import ChorProgram, Com, End, Label, Lit, Prefix, State
from chorkit.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
ACCEPTANCE_SEED = 20260808


def _candidates() -> list[tuple[str, ChorProgram]]:
    """The corpus, projectable programs as they are and every one amended."""
    progs = corpus.named_corpus() + [
        (f"random_{i:02d}", prog)
        for i, prog in enumerate(corpus.random_programs(ACCEPTANCE_SEED, 50))
    ]
    out = []
    for name, prog in progs:
        if projection.projectable_program(prog):
            out.append((name, prog))
        out.append((f"{name} (amended)", amendment.amend_program(prog)))
    return out


def _pairs(k: int) -> ChorProgram:
    """k independent pairs, each exchanging three messages in sequence."""
    c = End()
    for j in reversed(range(k)):
        a, b = f"a{j}", f"b{j}"
        steps = ((a, b, "x", j), (b, a, "y", j + 1), (a, b, "z", j + 2))
        for s, r, var, v in reversed(steps):
            c = Prefix(Com(s, Lit(v), r, var), c)
    return ChorProgram({}, c)


def _without_stats(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if not line.startswith("stats: "))


def _same(prog, depth) -> dict:
    """The check's record at an unlimited budget, once it agrees with trace
    listing and its count is exact: a budget of exactly what it charged gives
    the same report, and one unit less runs out at that last unit."""
    got = verifier.check_epp_correspondence(prog, State(), depth, math.inf)
    want = oracles.epp_by_traces(prog, State(), depth, math.inf)
    assert (got.verdict, got.witness, got.stats.max_depth) == (
        want.verdict, want.witness, want.stats.max_depth
    )
    assert _without_stats(got.text()) == _without_stats(want.text())
    used = got.stats.states_explored
    exact = verifier.check_epp_correspondence(prog, State(), depth, used)
    assert exact.to_dict() == got.to_dict()
    if used:
        short = verifier.check_epp_correspondence(prog, State(), depth, used - 1)
        assert (short.verdict, short.witness, short.stats) == (
            verifier.EXHAUSTED, None, verifier.SearchStats(used, depth)
        )
    return got.to_dict()


def _within(prog, depth, budget) -> None:
    """The walk charges the same units in the same order whatever the limit,
    so a budget either covers them all or runs out one unit over it."""
    full = verifier.check_epp_correspondence(prog, State(), depth, math.inf)
    got = verifier.check_epp_correspondence(prog, State(), depth, budget)
    if budget >= full.stats.states_explored:
        assert got.to_dict() == full.to_dict()
    else:
        assert (got.verdict, got.witness, got.stats) == (
            verifier.EXHAUSTED, None, verifier.SearchStats(budget + 1, depth)
        )


def test_corpus_agrees_with_trace_listing():
    for name, prog in _candidates():
        assert _same(prog, 5)["verdict"] == verifier.HOLDS, name


def _whole(prog, depth, budget=math.inf) -> verifier.Report:
    """The walk of the whole product, with no split into groups."""
    return oracles.epp_whole_walk(prog, State(), depth, budget)


# states_explored of the whole walk on `_pairs(k)` at depths 4 to 7.  Each
# side has 4 ** k configurations, and the walk steps each one it reaches
# before the bound once and expands each pair of them once, so past the
# longest run, 3 * k steps, it charges 3 * 4 ** k.
PAIRS_EXPLORED = {1: [12, 12, 12, 12], 2: [30, 39, 45, 48], 3: [60, 96, 132, 162]}


@pytest.mark.parametrize("k", [1, 2, 3])
def test_independent_pairs_agree_with_trace_listing(k):
    # The check walks each pair alone, on sides of its own: four pairs of
    # configurations and four configurations on each side, 12 * k at any
    # depth of at least 4, one more than the longest run.
    explored, whole = [], []
    for depth in range(4, 8):
        record = _same(_pairs(k), depth)
        assert record["verdict"] == verifier.HOLDS
        explored.append(record["stats"]["states_explored"])
        report = _whole(_pairs(k), depth)
        assert report.verdict == verifier.HOLDS
        whole.append(report.stats.states_explored)
    assert explored == [12 * k] * 4
    assert whole == PAIRS_EXPLORED[k]


def test_eight_pairs_at_depth_24_hold_within_100_units():
    # The whole walk charges 196,605 units: 3 * 4 ** 8, less the last pair,
    # which the bound reaches with no step left, and its configurations.
    report = verifier.check_epp_correspondence(_pairs(8), State(), 24)
    assert (report.verdict, report.stats.states_explored) == (verifier.HOLDS, 12 * 8)


def test_endless_loop_at_depth_2000_agrees_with_trace_listing():
    # One configuration on each side, stepped once, and the pair of them
    # expanded once: its only successor is itself, so the walk stops there.
    record = _same(corpus.endless_loop(), 2000)
    assert record["verdict"] == verifier.HOLDS
    assert record["stats"]["states_explored"] == 3


def test_endless_loop_holds_at_depth_a_million_in_three_units():
    # The walk stops at the first level that reaches no new pair, whatever
    # the bound; a walk that expanded the pair once per depth ran out here.
    report = verifier.check_epp_correspondence(corpus.endless_loop(), State(), 10**6)
    assert (report.verdict, report.stats.states_explored) == (verifier.HOLDS, 3)


@settings(max_examples=80, deadline=None)
@given(_programs(), st.integers(0, 4))
def test_generated_programs_agree_with_trace_listing(prog, depth):
    # Most generated programs are ill-formed; both checks reject those alike.
    problems = cc.wf_violations(prog)
    if problems:
        for check in (verifier.check_epp_correspondence, oracles.epp_by_traces):
            with pytest.raises(cc.IllFormedError, match=re.escape("; ".join(problems))):
                check(prog, State(), depth)
        return
    if not projection.projectable_program(prog):
        prog = amendment.amend_program(prog)
    got = verifier.check_epp_correspondence(prog, State(), depth, math.inf)
    want = oracles.epp_by_traces(prog, State(), depth, math.inf)
    assert (got.verdict, got.witness) == (want.verdict, want.witness)
    assert got.verdict == verifier.HOLDS  # the EPP theorem


# ---------------------------------------------------------------------------
# Mutated projections: both kinds of counterexample


def _rewrite(b: sp.Behaviour, edit, hits: list) -> sp.Behaviour:
    """Rebuild `b`, replacing the nodes `edit` maps to something else."""
    out = edit(b, hits)
    if out is not None:
        return out
    if isinstance(b, (sp.Send, sp.Recv, sp.Choose)):
        return dataclasses.replace(b, cont=_rewrite(b.cont, edit, hits))
    if isinstance(b, sp.Offer):
        return sp.Offer(
            b.src,
            None if b.left is None else _rewrite(b.left, edit, hits),
            None if b.right is None else _rewrite(b.right, edit, hits),
        )
    if isinstance(b, sp.Cond):
        then_b, else_b = _rewrite(b.then_b, edit, hits), _rewrite(b.else_b, edit, hits)
        return sp.Cond(b.guard, then_b, else_b)
    return b


def _nth(kind, change, n: int):
    """An edit that applies `change` to the n-th node of type `kind` only."""

    def edit(b, hits):
        if not isinstance(b, kind):
            return None
        hits[0] += 1
        return change(b) if hits[0] == n + 1 else None

    return edit


MUTATIONS = {
    # A different value travels: the choreography's message is missing.
    "send-value": (sp.Send, lambda b: sp.Send(b.dst, cc.Succ(b.expr), b.cont)),
    # The other label travels: the choreography's selection is missing.
    "flip-label": (
        sp.Choose,
        lambda b: sp.Choose(
            b.dst, Label.RIGHT if b.label is Label.LEFT else Label.LEFT, b.cont
        ),
    ),
    # An internal step after a process ends: the network has every
    # choreography trace and more.
    "trailing-tau": (sp.End, lambda b: sp.Cond(cc.BoolLit(True), sp.End(), sp.End())),
}


def _mutated(compiled: sp.SPProgram, edit) -> sp.SPProgram:
    hits = [0]
    net = sp.Network({p: _rewrite(b, edit, hits) for p, b in compiled.net.items()})
    procedures = {
        name: _rewrite(compiled.procedures[name], edit, hits)
        for name in sorted(compiled.procedures)
    }
    return sp.SPProgram(procedures, net)


def _patch_epp(monkeypatch, edit) -> None:
    real = projection.epp
    monkeypatch.setattr(projection, "epp", lambda prog: _mutated(real(prog), edit))


def test_mutated_projections_agree_with_trace_listing(monkeypatch):
    real = projection.epp
    compared = 0
    notes = []
    for name, prog in _candidates():
        compiled = real(prog)
        for mutation, (kind, change) in MUTATIONS.items():
            for n in range(2):
                edit = _nth(kind, change, n)
                if _mutated(compiled, edit) == compiled:
                    continue
                with monkeypatch.context() as m:
                    _patch_epp(m, edit)
                    record = _same(prog, 5)
                compared += 1
                if record["witness"] is not None:
                    notes.append(record["witness"]["note"])
    assert compared >= 50
    assert "choreography trace missing from the projection" in notes
    assert "projection trace missing from the choreography" in notes


def _loop(main: cc.Choreography) -> ChorProgram:
    """`main` over a procedure L in which a sends b a value forever."""
    body = Prefix(Com("a", Lit(1), "b", "x"), cc.Call("L"))
    return ChorProgram({"L": cc.Procedure(("a", "b"), body)}, main)


def test_divergence_after_a_repeated_configuration_pair(monkeypatch):
    # z's internal step stays enabled while the loop goes round, and sorts
    # after every loop label, so the traces in label order run the loop and
    # pass the same pair of configurations again and again.  A pair that
    # repeats has the same successors, so the shortest divergent trace takes
    # z's step first.
    g = cc.BoolLit(True)
    prog = _loop(cc.Cond("z", g, cc.Call("L"), cc.Call("L")))
    with monkeypatch.context() as m:
        _patch_epp(m, _nth(sp.Cond, lambda b: sp.End(), 0))  # z does nothing
        record = _same(prog, 9)
    assert record["witness"]["note"] == "choreography trace missing from the projection"
    assert record["witness"]["trace"] == ["tau z"]
    real = projection.epp
    extra = sp.Cond(g, sp.End(), sp.End())
    monkeypatch.setattr(
        projection,
        "epp",
        lambda prog: sp.SPProgram(real(prog).procedures, real(prog).net.set("z", extra)),
    )
    record = _same(_loop(cc.Call("L")), 9)
    assert record["witness"]["note"] == "projection trace missing from the choreography"
    assert record["witness"]["trace"] == ["tau z"]


# ---------------------------------------------------------------------------
# Sides that are not label-deterministic
#
# Both semantics are label-deterministic, so on programs every configuration
# set holds one configuration.  Random automata over the same labels give sets
# of several, whose order decides the witness configuration.

NFA_LABELS = (cc.TauEvent("a"), cc.TauEvent("b"), cc.CommEvent("a", 0, "b"))


def _random_nfa(rng, n: int) -> dict:
    """State i -> its (label index, target) moves, in an arbitrary order."""
    return {
        i: list({(rng.randrange(len(NFA_LABELS)), rng.randrange(n)): None
                 for _ in range(rng.randrange(4))})
        for i in range(n)
    }


def _nfa_step(nfa: dict, prefix: str) -> explore.Step:
    """The automaton's moves in label order, as every `explore.Step` gives
    them; the sort is stable, so the moves of one label keep the automaton's
    order, which is the order of the sets they reach."""

    def step(cfg):
        i = int(cfg[0][len(prefix):])
        moves = sorted(nfa[i], key=lambda m: cc.label_key(NFA_LABELS[m[0]]))
        return tuple((NFA_LABELS[t], (f"{prefix}{j}", State())) for t, j in moves)

    return step


def _list_entries(step, start, depth: int) -> list:
    """(trace, configuration) pairs, breadth-first, as `cc.traces` lists them."""
    out = [((), start)]
    seen = set(out)
    frontier = list(out)
    for _ in range(depth):
        nxt = []
        for tl, cfg in frontier:
            for t, cfg2 in step(cfg):
                entry = (tl + (t,), cfg2)
                if entry not in seen:
                    seen.add(entry)
                    out.append(entry)
                    nxt.append(entry)
        frontier = nxt
    return out


def _first_only(entries: list, others: list, note: str):
    """The shortest trace of `entries` that `others` lack, the least of those
    in label order, with the first configuration listed for it."""
    key = lambda tl: (len(tl), tuple(cc.label_key(t) for t in tl))
    only = sorted({tl for tl, _ in entries} - {tl for tl, _ in others}, key=key)
    if not only:
        return None
    cfg = next(c for tl, c in entries if tl == only[0])
    return verifier.Witness(only[0], cfg[0], cfg[1], note)


def test_nondeterministic_sides_agree_with_trace_listing():
    rng = random.Random(20260808)
    shared_traces = 0
    for _ in range(200):
        chor_nfa = _random_nfa(rng, rng.randrange(1, 6))
        net_nfa = {i: list(moves) for i, moves in chor_nfa.items()}
        edit = rng.randrange(3)  # keep, drop a move, add a move
        i = rng.randrange(len(net_nfa))
        if edit == 1 and net_nfa[i]:
            net_nfa[i].pop(rng.randrange(len(net_nfa[i])))
        elif edit == 2:
            net_nfa[i].insert(0, (rng.randrange(len(NFA_LABELS)), rng.randrange(len(net_nfa))))
        chor_step, net_step = _nfa_step(chor_nfa, "c"), _nfa_step(net_nfa, "n")
        start_c, start_n = ("c0", State()), ("n0", State())
        for depth in range(6):
            chor_listed = _list_entries(chor_step, start_c, depth)
            net_listed = _list_entries(net_step, start_n, depth)
            shared_traces += len(chor_listed) - len({tl for tl, _ in chor_listed})
            want = _first_only(
                chor_listed, net_listed, "choreography trace missing from the projection"
            ) or _first_only(
                net_listed, chor_listed, "projection trace missing from the choreography"
            )
            budget = explore.Budget()
            assert _walk(chor_step, net_step, depth, budget) == want
            used = budget.used
            assert _walk(chor_step, net_step, depth, explore.Budget(used)) == want
            if used:
                short = explore.Budget(used - 1)
                with pytest.raises(explore.BudgetExceeded):
                    _walk(chor_step, net_step, depth, short)
                assert short.used == used
    assert shared_traces > 0  # some traces reach several configurations


def _walk(chor_step, net_step, depth: int, budget: explore.Budget):
    chor = verifier._Subsets(chor_step, ("c0", State()), budget)
    net = verifier._Subsets(net_step, ("n0", State()), budget)
    return verifier._first_divergence(chor, net, depth, budget)


# ---------------------------------------------------------------------------
# Budgets and ill-formed networks


def test_a_budget_gives_the_unlimited_report_or_runs_out_one_unit_over_it(monkeypatch):
    prog = amendment.amend_program(corpus.delayed_choice())
    _patch_epp(monkeypatch, _nth(*MUTATIONS["trailing-tau"], 0))
    record = _same(prog, 5)
    assert record["verdict"] == verifier.COUNTEREXAMPLE
    for budget in range(record["stats"]["states_explored"] + 2):
        _within(prog, 5, budget)
    for name, prog in _candidates()[:12] + [("end", ChorProgram({}, End()))]:
        _same(prog, 4)
        for budget in (0, 1, 3, 8, 20):
            _within(prog, 4, budget)


def test_an_exhausted_report_counts_units_up_to_the_first_over_the_limit(monkeypatch):
    # purchase_safe at depth 5 expands 5 pairs and steps 5 configurations on
    # each side, and depth 6 adds nothing; a budget of 0 runs out at once.
    prog = corpus.purchase_safe()
    got = {(depth, budget): verifier.check_epp_correspondence(prog, State(), depth, budget)
           for depth, budget in ((5, math.inf), (6, math.inf), (6, 0), (6, 1), (6, 14), (6, 15))}
    assert {k: (r.verdict, r.stats.states_explored) for k, r in got.items()} == {
        (5, math.inf): (verifier.HOLDS, 15),
        (6, math.inf): (verifier.HOLDS, 15),
        (6, 0): (verifier.EXHAUSTED, 1),
        (6, 1): (verifier.EXHAUSTED, 2),
        (6, 14): (verifier.EXHAUSTED, 15),
        (6, 15): (verifier.HOLDS, 15),
    }
    # Both sides charge one budget: with a mutated network, a budget as large
    # as the choreography's trace entries runs out before the divergence,
    # which the walk finds once it may charge 18 units.
    prog = amendment.amend_program(corpus.delayed_choice())
    _patch_epp(monkeypatch, _nth(*MUTATIONS["trailing-tau"], 0))
    chor_n = len(cc.traces(prog.procedures, prog.main, State(), 5))
    report = verifier.check_epp_correspondence(prog, State(), 5, chor_n)
    assert (report.verdict, report.stats.states_explored) == (verifier.EXHAUSTED, chor_n + 1)
    report = verifier.check_epp_correspondence(prog, State(), 5, 18)
    assert (report.verdict, report.stats.states_explored) == (verifier.COUNTEREXAMPLE, 18)


def test_self_addressed_network_is_rejected_whatever_the_budget(monkeypatch):
    prog = corpus.purchase_safe()
    to_self = _nth(sp.Send, lambda b: sp.Send("buyer", b.expr, b.cont), 0)
    _patch_epp(monkeypatch, to_self)
    for check in (verifier.check_epp_correspondence, oracles.epp_by_traces):
        with pytest.raises(sp.IllFormedNetworkError):
            check(prog, State(), 5)
    for budget in (0, 2, math.inf):
        with pytest.raises(sp.IllFormedNetworkError):
            verifier.check_epp_correspondence(prog, State(), 5, budget)
    # Trace listing looks at the network only once the choreography's
    # listing fits the budget.
    assert oracles.epp_by_traces(prog, State(), 5, 2).verdict == verifier.EXHAUSTED


# ---------------------------------------------------------------------------
# Independent processes walked apart
#
# `projection.independent_groups` splits the processes of a procedure-free
# program and of its network into groups that never interact, and the check
# walks each group alone, on sides of its own, to the bound, and reports the
# least of their witnesses.  The whole walk is the oracle: the check's verdict
# and witness are its own wherever both conclude, and where it holds, the
# check has charged no more than it, but for the start pair and the two start
# configurations of each group after the first.

GROUP_PIDS = (("a", "b", "c"), ("d", "e", "f"), ("g", "h", "i"))


def _interactions(pids: tuple) -> st.SearchStrategy:
    ends = st.permutations(pids).map(lambda ps: ps[:2])
    return st.one_of(
        st.builds(lambda sr, v, var: Com(sr[0], Lit(v), sr[1], var),
                  ends, st.integers(0, 2), st.sampled_from("xy")),
        st.builds(lambda sr, label: cc.Sel(sr[0], sr[1], label), ends, st.sampled_from(Label)),
    )


def _seq(etas, tail=End()) -> cc.Choreography:
    for eta in reversed(etas):
        tail = Prefix(eta, tail)
    return tail


@st.composite
def _disjoint_unions(draw) -> ChorProgram:
    """Two or three groups of processes, each with a run of interactions of
    its own, interleaved at the top level; the last group may end in a
    conditional over its processes.  Amended where it is not projectable."""
    k = draw(st.integers(2, 3))
    runs = [draw(st.lists(_interactions(GROUP_PIDS[i]), min_size=1, max_size=3)) for i in range(k)]
    order = draw(st.permutations([i for i, run in enumerate(runs) for _ in run]))
    etas = [runs[i].pop(0) for i in order]
    tail = End()
    if draw(st.booleans()):
        pids = GROUP_PIDS[k - 1]
        branch = st.lists(_interactions(pids), max_size=2).map(_seq)
        guard = cc.Le(cc.Ref("x"), Lit(draw(st.integers(0, 2))))
        tail = cc.Cond(draw(st.sampled_from(pids)), guard, draw(branch), draw(branch))
    prog = ChorProgram({}, _seq(etas, tail))
    return prog if projection.projectable_program(prog) else amendment.amend_program(prog)


def _couple(b: sp.Send) -> sp.Send:
    """The send addressed to a process of another group, which its sender,
    in the group of its partner, never is."""
    other = GROUP_PIDS[1] if b.dst in GROUP_PIDS[0] else GROUP_PIDS[0]
    return sp.Send(other[0], b.expr, b.cont)


EDITS = {**MUTATIONS, "couple": (sp.Send, _couple)}


def _agrees_with_the_whole_walk(prog, depth) -> verifier.Report:
    """The check's report at an unlimited budget, once its verdict and
    witness are the whole walk's wherever both conclude, and its count is
    exact: every budget below it runs out one unit over, and every other
    gives the same report."""
    got = verifier.check_epp_correspondence(prog, State(), depth, math.inf)
    whole = _whole(prog, depth)
    assert (got.verdict, got.witness) == (whole.verdict, whole.witness)
    assert _without_stats(got.text()) == _without_stats(whole.text())
    if got.holds:
        groups = len(projection.independent_groups(prog, projection.epp(prog)))
        starts = 3 * max(groups - 1, 0)
        assert got.stats.states_explored <= whole.stats.states_explored + starts
    used = got.stats.states_explored
    for budget in range(used + 2):
        report = verifier.check_epp_correspondence(prog, State(), depth, budget)
        if budget < used:
            assert (report.verdict, report.witness, report.stats) == (
                verifier.EXHAUSTED, None, verifier.SearchStats(budget + 1, depth)
            )
        else:
            assert (report.to_dict(), report.text()) == (got.to_dict(), got.text())
        oracle = _whole(prog, depth, budget)
        if verifier.EXHAUSTED not in (report.verdict, oracle.verdict):
            assert (report.verdict, report.witness) == (oracle.verdict, oracle.witness)
    return got


@settings(max_examples=80, deadline=None)
@given(_disjoint_unions(), st.sampled_from([6, 7, 5, 4, 3, 2, 1, 0]),
       st.sampled_from([None, *EDITS]), st.integers(0, 1))
def test_disjoint_unions_agree_with_the_whole_walk(prog, depth, edit, n):
    with pytest.MonkeyPatch.context() as m:
        if edit is not None:
            _patch_epp(m, _nth(*EDITS[edit], n))
        try:
            report = _agrees_with_the_whole_walk(prog, depth)
        except sp.IllFormedNetworkError:
            assert edit is not None
            return
    if edit is None:
        assert report.holds  # the EPP theorem


def test_holds_counts_never_exceed_the_whole_walks():
    # parallel_orders sends two independent orders: the check walks each
    # alone, from a start pair and two start configurations of its own, so
    # at depth 1 it charges 3 units more than the whole walk; past depth 2
    # the whole walk also expands the pair after both orders and steps its
    # configurations, and charges as much as the group walks.
    source = (SAMPLES / "parallel_orders.chor").read_text(encoding="utf-8")
    prog = syntax.parse_source(source).to_program()
    counts = [(_agrees_with_the_whole_walk(prog, depth).stats.states_explored,
               _whole(prog, depth).stats.states_explored) for depth in range(4)]
    assert counts == [(0, 0), (6, 3), (12, 9), (12, 12)]
    for k, depths in ((2, range(8)), (3, [7])):
        for depth in depths:
            assert _agrees_with_the_whole_walk(_pairs(k), depth).holds


def _break(monkeypatch, edits: dict) -> None:
    """Rewrite the projected behaviour of each process in `edits` with its
    edit, as `_nth` makes them."""
    real = projection.epp

    def epp(prog):
        compiled = real(prog)
        net = compiled.net
        for p, edit in edits.items():
            net = net.set(p, _rewrite(net.get(p), edit, [0]))
        return sp.SPProgram(compiled.procedures, net)

    monkeypatch.setattr(projection, "epp", epp)


def _line_and_pairs(n: int) -> ChorProgram:
    """Ten independent pairs of processes: a0 and b0 exchange n messages in
    turn, a0 first, and each other pair exchanges three, as in `_pairs`."""
    etas = [Com("a0", Lit(i), "b0", "x") if i % 2 == 0 else Com("b0", Lit(i), "a0", "x")
            for i in range(n)]
    for j in range(1, 10):
        a, b = f"a{j}", f"b{j}"
        etas += [Com(a, Lit(j), b, "x"), Com(b, Lit(j + 1), a, "y"), Com(a, Lit(j + 2), b, "z")]
    return ChorProgram({}, _seq(etas))


@pytest.mark.parametrize("n, units", [(12, 144), (16, 156)])
def test_a_broken_line_among_ten_pairs_is_a_counterexample_under_1000_units(
    monkeypatch, n, units
):
    # b0's last send carries another value.  Walking the whole product again
    # for its witness charged 493,119 units at n = 12 and ran out of the
    # default budget at n = 16; the group walks find it in a few hundred.
    send_value = MUTATIONS["send-value"][1]
    _break(monkeypatch, {"b0": _nth(sp.Send, send_value, n // 2 - 1)})
    prog = _line_and_pairs(n)
    report = verifier.check_epp_correspondence(prog, State(), n)
    assert (report.verdict, report.stats.states_explored) == (verifier.COUNTEREXAMPLE, units)
    assert report.witness == oracles.epp_by_label_filter(prog, State(), n).witness
    assert report.witness.note == "choreography trace missing from the projection"
    assert len(report.witness.trace) == n


def test_label_order_picks_between_divergences_of_equal_length(monkeypatch):
    # The group of a and d is walked first, as its least process is a, but
    # b's message sorts before d's, so the second group's witness is least.
    prog = ChorProgram({}, _seq([Com("d", Lit(0), "a", "x"), Com("b", Lit(0), "c", "x")]))
    send_value = MUTATIONS["send-value"][1]
    _break(monkeypatch, {p: _nth(sp.Send, send_value, 0) for p in "db"})
    assert projection.independent_groups(prog, projection.epp(prog)) == [
        frozenset("ad"), frozenset("bc")
    ]
    report = _agrees_with_the_whole_walk(prog, 3)
    assert [cc.label_text(t) for t in report.witness.trace] == ["b -> c : 0"]
    assert report.witness.note == "choreography trace missing from the projection"
    _agrees_with_label_filtering(prog, 3)


def test_a_longer_choreography_only_divergence_beats_a_network_only_one(monkeypatch):
    # a takes an internal step after its message, a network-only trace of
    # two labels in the first group; c's second send carries another value,
    # a choreography-only trace of three in the second.
    prog = ChorProgram({}, _seq([Com("a", Lit(0), "b", "x"), Com("c", Lit(0), "d", "x"),
                                 Com("d", Lit(1), "c", "y"), Com("c", Lit(2), "d", "z")]))
    _break(monkeypatch, {"a": _nth(*MUTATIONS["trailing-tau"], 0),
                         "c": _nth(sp.Send, MUTATIONS["send-value"][1], 1)})
    assert len(projection.independent_groups(prog, projection.epp(prog))) == 2
    for depth in (2, 4):
        report = _agrees_with_the_whole_walk(prog, depth)
        _agrees_with_label_filtering(prog, depth)
    assert [cc.label_text(t) for t in report.witness.trace] == [
        "c -> d : 0", "d -> c : 1", "c -> d : 2"
    ]
    assert report.witness.note == "choreography trace missing from the projection"


def _agrees_with_label_filtering(prog, depth) -> None:
    """The check's report is the label-filtering walk's, byte for byte, at
    an unlimited budget and at every budget up to one over its count."""
    got = verifier.check_epp_correspondence(prog, State(), depth, math.inf)
    assert got.to_dict() == oracles.epp_by_label_filter(prog, State(), depth, math.inf).to_dict()
    for budget in range(got.stats.states_explored + 2):
        report = verifier.check_epp_correspondence(prog, State(), depth, budget)
        oracle = oracles.epp_by_label_filter(prog, State(), depth, budget)
        assert report.to_dict() == oracle.to_dict(), budget


@settings(max_examples=60, deadline=None)
@given(_disjoint_unions(), st.sampled_from([6, 5, 4, 3, 2, 1, 0]),
       st.sampled_from([None, *EDITS]), st.integers(0, 1))
def test_restricted_group_walks_agree_with_label_filtering(prog, depth, edit, n):
    with pytest.MonkeyPatch.context() as m:
        if edit is not None:
            _patch_epp(m, _nth(*EDITS[edit], n))
        try:
            _agrees_with_label_filtering(prog, depth)
        except sp.IllFormedNetworkError:
            assert edit is not None
            with pytest.raises(sp.IllFormedNetworkError):
                oracles.epp_by_label_filter(prog, State(), depth)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_restricted_pair_walks_agree_with_label_filtering(k):
    for depth in (0, 1, 4, 6, 3 * k + 1):
        _agrees_with_label_filtering(_pairs(k), depth)


@settings(max_examples=60, deadline=None)
@given(_disjoint_unions())
def test_restrict_keeps_the_traces_of_its_group(prog):
    # The traces of a group's restriction, up to depth 4, are the program's
    # traces whose labels all involve the group, reaching the same stores.
    groups = projection.independent_groups(prog, projection.epp(prog))
    assert len(groups) >= 2
    whole = cc.traces({}, prog.main, State(), 4)
    for group in groups:
        part = projection.restrict(prog.main, group)
        assert {(tl, s) for tl, _, s in cc.traces({}, part, State(), 4)} == {
            (tl, s) for tl, _, s in whole
            if all(not group.isdisjoint(cc.label_processes(t)) for t in tl)
        }
    assert projection.restrict(prog.main, frozenset().union(*groups)) is prog.main


def test_groups_follow_interactions_conditionals_and_the_network(monkeypatch):
    parallel = ChorProgram({}, _seq([Com("o1", Lit(0), "p1", "x"), Com("o2", Lit(0), "p2", "y")]))
    assert projection.independent_groups(parallel, projection.epp(parallel)) == [
        frozenset({"o1", "p1"}), frozenset({"o2", "p2"})
    ]
    # q -> r is in both branches, so it commutes past p's conditional, and
    # no selection tells q or r the outcome: p's behaviour never meets them
    # in the network, but the conditional joins them.
    guard = cc.Le(cc.Ref("x"), Lit(0))
    branch = _seq([Com("q", Lit(1), "r", "x")])
    prog = ChorProgram({}, _seq([Com("s", Lit(1), "t", "x")], cc.Cond("p", guard, branch, branch)))
    compiled = projection.epp(prog)
    assert compiled.net.get("p") == sp.Cond(guard, sp.End(), sp.End())
    assert projection.independent_groups(prog, compiled) == [frozenset("pqr"), frozenset("st")]
    report = _agrees_with_the_whole_walk(prog, 6)
    assert report.holds and report.stats.states_explored < _whole(prog, 6).stats.states_explored
    # A conditional with nothing in its branches is a group of its own; one
    # nested in another joins the group of the outer one.
    alone = cc.Cond("d", guard, End(), End())
    prog = ChorProgram({}, _seq([Com("a", Lit(1), "b", "x"), Com("b", Lit(2), "c", "x")], alone))
    groups = projection.independent_groups(prog, projection.epp(prog))
    assert groups == [frozenset("abc"), frozenset("d")]
    assert _agrees_with_the_whole_walk(prog, 4).stats.states_explored == 15
    nested = ChorProgram({}, cc.Cond("p", guard, alone, End()))
    assert projection.independent_groups(nested, sp.SPProgram({}, sp.Network())) == []
    # One group, procedures, or a network that couples the groups: no split.
    for connected in (_pairs(1), corpus.purchase_safe(), _loop(cc.Call("L"))):
        assert projection.independent_groups(connected, projection.epp(connected)) == []
    with monkeypatch.context() as m:
        _patch_epp(m, _nth(sp.Send, _couple, 0))
        assert projection.independent_groups(parallel, projection.epp(parallel)) == []
        assert _agrees_with_the_whole_walk(parallel, 6).verdict == verifier.COUNTEREXAMPLE
    # A network in which p1 relays its order to p2 once both have theirs:
    # neither group can take the extra step alone, so only the network's
    # partners join them, and the whole walk finds the relay.
    relay = sp.Network({
        "o1": sp.Send("p1", Lit(0), sp.End()),
        "o2": sp.Send("p2", Lit(0), sp.End()),
        "p1": sp.Recv("o1", "x", sp.Send("p2", Lit(1), sp.End())),
        "p2": sp.Recv("o2", "y", sp.Recv("p1", "x", sp.End())),
    })
    monkeypatch.setattr(projection, "epp", lambda prog: sp.SPProgram({}, relay))
    assert projection.independent_groups(parallel, projection.epp(parallel)) == []
    report = _agrees_with_the_whole_walk(parallel, 6)
    assert report.witness.note == "projection trace missing from the choreography"
    assert [cc.label_text(t) for t in report.witness.trace] == [
        "o1 -> p1 : 0", "o2 -> p2 : 0", "p1 -> p2 : 1"
    ]


# ---------------------------------------------------------------------------
# No trace listing, and the CLI


def test_epp_check_lists_no_traces(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the EPP check listed traces")

    monkeypatch.setattr(cc, "traces", refuse)
    monkeypatch.setattr(sp, "traces", refuse)
    for name, prog in _candidates():
        report = verifier.check_epp_correspondence(prog, State(), 5)
        assert report.verdict == verifier.HOLDS, name


class _Logged:
    """One side of a walk, with the configuration sets the walk asks it to
    step, in order; its own lookups of single configurations go unlogged."""

    def __init__(self, side: verifier._Subsets):
        self.side, self.cfgs, self.asked = side, side.cfgs, []

    def succ(self, cfgs: tuple) -> dict:
        self.asked.append(cfgs)
        return self.side.succ(cfgs)


def _expanded_once(monkeypatch, prog, depth: int) -> int:
    """How many product nodes the check's walks and the whole product walk
    expand, once no walk has expanded any of them twice."""
    walks = []
    real = verifier._first_divergence

    def logged(chor, net, depth, budget):
        walks.append((_Logged(chor), _Logged(net)))
        return real(*walks[-1], depth, budget)

    with monkeypatch.context() as m:
        m.setattr(verifier, "_first_divergence", logged)
        verifier.check_epp_correspondence(prog, State(), depth)
        _whole(prog, depth)
    expanded = 0
    for chor, net in walks:
        nodes = list(zip(chor.asked, net.asked, strict=True))
        assert len(set(nodes)) == len(nodes)
        expanded += len(nodes)
    return expanded


def test_every_product_node_is_expanded_at_most_once(monkeypatch):
    expanded = sum(_expanded_once(monkeypatch, prog, 5) for _, prog in _candidates())
    assert expanded > 300
    # Past the longest run, 3 * k steps, the group walks expand 4 pairs per
    # pair of processes, and the whole walk one per configuration of the
    # product, 4 ** k.
    for k in (1, 3):
        assert _expanded_once(monkeypatch, _pairs(k), 10) == 4 * k + 4**k
    assert _expanded_once(monkeypatch, corpus.endless_loop(), 10**6) == 2


@settings(max_examples=60, deadline=None)
@given(st.one_of(_programs(), _disjoint_unions()), st.integers(0, 6))
def test_generated_walks_expand_each_product_node_at_most_once(prog, depth):
    if cc.wf_violations(prog):
        return
    if not projection.projectable_program(prog):
        prog = amendment.amend_program(prog)
    with pytest.MonkeyPatch.context() as m:
        _expanded_once(m, prog, depth)


def _run(capsys, argv) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _without_count(output: tuple) -> tuple:
    """CLI output with the count of states explored blanked: trace listing
    counts entries, and tests/cli_samples.json pins the walk's counts."""
    code, out, err = output
    out = re.sub(r"\d+ states explored", "N states explored", out)
    out = re.sub(r'"states_explored": \d+', '"states_explored": N', out)
    return code, out, err


def test_cli_verify_epp_is_unchanged_on_every_sample(monkeypatch, capsys):
    for sample in sorted(SAMPLES.glob("*.chor")):
        for extra in ([], ["--json"], ["--depth", "3"]):
            argv = ["verify", "epp", str(sample), *extra]
            got = _run(capsys, argv)
            with monkeypatch.context() as m:
                m.setattr(verifier, "check_epp_correspondence", oracles.epp_by_traces)
                want = _run(capsys, argv)
            assert _without_count(got) == _without_count(want), (sample.name, extra)
