"""The EPP check on configuration sets agrees with listing traces.

`oracles.epp_by_traces` lists every (trace, configuration) entry on both
sides; `verifier.check_epp_correspondence` walks pairs of configuration sets
reached by the same trace.  Their reports must be identical, witnesses,
`states_explored` and exhausted budgets included.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path

import pytest

import corpus
import oracles
from chorkit import amendment, cc, explore, projection, sp, verifier
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


def _same(prog, depth, state_budget=verifier.DEFAULT_STATE_BUDGET) -> dict:
    got = verifier.check_epp_correspondence(prog, State(), depth, state_budget)
    want = oracles.epp_by_traces(prog, State(), depth, state_budget)
    assert got.to_dict() == want.to_dict()
    assert got.text() == want.text()
    return got.to_dict()


def test_corpus_agrees_with_trace_listing():
    for name, prog in _candidates():
        assert _same(prog, 5)["verdict"] == verifier.HOLDS, name


@pytest.mark.parametrize("k", [1, 2, 3])
def test_independent_pairs_agree_with_trace_listing(k):
    for depth in range(4, 8):
        assert _same(_pairs(k), depth)["verdict"] == verifier.HOLDS


def test_endless_loop_at_depth_2000_agrees_with_trace_listing():
    record = _same(corpus.endless_loop(), 2000)
    assert record["verdict"] == verifier.HOLDS
    assert record["stats"]["states_explored"] == 4002


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
    # after every loop label, so the first divergent trace runs the loop up
    # to the bound and passes the same pair of configurations again and again.
    g = cc.BoolLit(True)
    prog = _loop(cc.Cond("z", g, cc.Call("L"), cc.Call("L")))
    with monkeypatch.context() as m:
        _patch_epp(m, _nth(sp.Cond, lambda b: sp.End(), 0))  # z does nothing
        record = _same(prog, 9)
    assert record["witness"]["note"] == "choreography trace missing from the projection"
    assert len(record["witness"]["trace"]) == 9
    real = projection.epp
    extra = sp.Cond(g, sp.End(), sp.End())
    monkeypatch.setattr(
        projection,
        "epp",
        lambda prog: sp.SPProgram(real(prog).procedures, real(prog).net.set("z", extra)),
    )
    record = _same(_loop(cc.Call("L")), 9)
    assert record["witness"]["note"] == "projection trace missing from the choreography"
    assert len(record["witness"]["trace"]) == 9


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
    def step(cfg):
        i = int(cfg[0][len(prefix):])
        return tuple((NFA_LABELS[t], (f"{prefix}{j}", State())) for t, j in nfa[i])

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
    key = lambda tl: tuple(cc.label_key(t) for t in tl)
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
            chor = verifier._Subsets(chor_step, start_c)
            net = verifier._Subsets(net_step, start_n)
            assert chor.entries(depth, len(chor_listed)) == len(chor_listed)
            assert net.entries(depth, len(net_listed)) == len(net_listed)
            assert verifier._first_divergence(chor, net, depth) == want
            if len(chor_listed) > 1:
                with pytest.raises(cc.BudgetExceeded):
                    chor.entries(depth, len(chor_listed) - 1)
    assert shared_traces > 0  # some traces reach several configurations


# ---------------------------------------------------------------------------
# Budgets and ill-formed networks


def test_budget_exhausts_on_each_side_as_trace_listing_does(monkeypatch):
    prog = amendment.amend_program(corpus.delayed_choice())
    _patch_epp(monkeypatch, _nth(*MUTATIONS["trailing-tau"], 0))
    compiled = projection.epp(prog)
    chor_n = len(cc.traces(prog.procedures, prog.main, State(), 5))
    net_n = len(sp.traces(compiled.procedures, compiled.net, State(), 5))
    assert chor_n < net_n
    verdicts = {}
    for budget in sorted({0, 1, 2, chor_n - 1, chor_n, net_n - 1, net_n}):
        verdicts[budget] = _same(prog, 5, budget)["verdict"]
    assert verdicts[chor_n - 1] == verifier.EXHAUSTED  # the choreography side
    assert verdicts[net_n - 1] == verifier.EXHAUSTED  # the network side alone
    assert verdicts[net_n] == verifier.COUNTEREXAMPLE
    for name, prog in _candidates()[:12] + [("end", ChorProgram({}, End()))]:
        for budget in (0, 1, 3, 8, 20):
            _same(prog, 4, budget)


def test_an_exhausted_report_counts_entries_up_to_the_first_over_the_limit(monkeypatch):
    # purchase_safe has 5 entries on each side at depth 6; a side stops at
    # its limit's next entry, and a budget of 0 still allows the start entry.
    prog = corpus.purchase_safe()
    got = {budget: verifier.check_epp_correspondence(prog, State(), 6, budget)
           for budget in (0, 1, 2, 4, 5)}
    assert {b: (r.verdict, r.stats.states_explored) for b, r in got.items()} == {
        0: (verifier.EXHAUSTED, 2),
        1: (verifier.EXHAUSTED, 2),
        2: (verifier.EXHAUSTED, 3),
        4: (verifier.EXHAUSTED, 5),
        5: (verifier.HOLDS, 10),
    }
    # The network side running out adds to the choreography side's count.
    prog = amendment.amend_program(corpus.delayed_choice())
    _patch_epp(monkeypatch, _nth(*MUTATIONS["trailing-tau"], 0))
    chor_n = len(cc.traces(prog.procedures, prog.main, State(), 5))
    report = verifier.check_epp_correspondence(prog, State(), 5, chor_n)
    assert (report.verdict, report.stats.states_explored) == (verifier.EXHAUSTED, 2 * chor_n + 1)


def test_self_addressed_network_is_rejected_after_the_choreography_budget(monkeypatch):
    prog = corpus.purchase_safe()
    to_self = _nth(sp.Send, lambda b: sp.Send("buyer", b.expr, b.cont), 0)
    _patch_epp(monkeypatch, to_self)
    for check in (verifier.check_epp_correspondence, oracles.epp_by_traces):
        with pytest.raises(sp.IllFormedNetworkError):
            check(prog, State(), 5)
    assert _same(prog, 5, 2)["verdict"] == verifier.EXHAUSTED


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


def _run(capsys, argv) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_verify_epp_is_unchanged_on_every_sample(monkeypatch, capsys):
    for sample in sorted(SAMPLES.glob("*.chor")):
        for extra in ([], ["--json"], ["--depth", "3"]):
            argv = ["verify", "epp", str(sample), *extra]
            got = _run(capsys, argv)
            with monkeypatch.context() as m:
                m.setattr(verifier, "check_epp_correspondence", oracles.epp_by_traces)
                want = _run(capsys, argv)
            assert got == want, (sample.name, extra)
