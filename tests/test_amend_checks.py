"""The amendment checkers agree with the ones they replaced.

`oracles` keeps the naive, amend-complete and amend-sound checkers as they
were before label ranks, indexed matching, the memo of entered call bodies and
extension searches deepened only until every run is matched: multisets are
label tuples, matching goes through Counters, every entered call body is
stepped afresh, every extension is searched to the full bound, and every
entry of a configuration is tried, in the order it was found.  The naive
check must give the same `Report.to_dict()` and `text()`, exhausted runs
included.
amend-complete and amend-sound must give the same verdict, witness and
`max_depth`, with no more states explored (see `assert_deepened`).  So must
the intermediate check, which catches up by one search over (original,
amended, original steps taken) triples, against
`oracles.intermediate_by_traces`, which lists the traces of both extensions
and matches them pair by pair.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from chorkit import amendment, cc, explore, syntax, verifier
from chorkit.cc import ChorProgram, State
from test_epp_product import _pairs

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
ACCEPTANCE_SEED = 20260808

CHECKS = (
    ("naive", verifier.check_naive_correspondence, oracles.naive_correspondence),
    ("amend-complete", verifier.check_amend_complete, oracles.amend_complete),
    ("amend-sound", verifier.check_amend_sound, oracles.amend_sound),
)
DEEPENED = {"amend-complete", "amend-sound", "intermediate"}


def _programs() -> list[tuple[str, ChorProgram]]:
    """The acceptance corpus and every sample."""
    randoms = [
        (f"random_{i:02d}", prog)
        for i, prog in enumerate(corpus.random_programs(ACCEPTANCE_SEED, 50))
    ]
    samples = [
        (path.name, syntax.parse_source(path.read_text(encoding="utf-8")).to_program())
        for path in sorted(SAMPLES.glob("*.chor"))
    ]
    return corpus.named_corpus() + randoms + samples


PROGRAMS = _programs()

STATES_TEXT = re.compile(r"^stats: \d+ states explored", re.M)


def _masked(report: tuple) -> tuple:
    """A report's `to_dict()` and `text()` with the states explored left out."""
    record, text = report
    record = {**record, "stats": {**record["stats"], "states_explored": None}}
    return record, STATES_TEXT.sub("stats: states explored", text)


def assert_deepened(got: tuple, want: tuple, unbudgeted: tuple) -> None:
    """`got`, the (`to_dict()`, `text()`) of a check that searches fewer
    entries than its oracle, against the oracle's `want` under the same
    budget and its `unbudgeted` report: amend-complete and amend-sound deepen
    extension searches only until every run is matched, and the intermediate
    check keeps each triple of its catch-up search once where the oracle
    lists traces.

    So the oracle explores no fewer states and runs out wherever the new
    check does; a conclusive report has the unbudgeted oracle's verdict,
    witness and `max_depth`.  Where that oracle runs out too, as the
    intermediate oracle's trace listings do on loops, the new report is taken
    only if the oracle also ran out under its budget.
    """
    assert got[0]["stats"]["states_explored"] <= want[0]["stats"]["states_explored"]
    if got[0]["verdict"] == verifier.EXHAUSTED:
        assert _masked(got) == _masked(want)
    elif unbudgeted[0]["verdict"] == verifier.EXHAUSTED:
        assert want[0]["verdict"] == verifier.EXHAUSTED
    else:
        assert _masked(got) == _masked(unbudgeted)


def _report(check, prog: ChorProgram, depth: int, bound: int, budget: float):
    if check in (verifier.check_naive_correspondence, oracles.naive_correspondence):
        report = check(prog, State(), depth, state_budget=budget)
    else:
        report = check(prog, State(), depth, bound, state_budget=budget)
    return report.to_dict(), report.text()


def _same(
    prog: ChorProgram, depth: int, bound: int, budget: float = math.inf,
    unbudgeted: list | None = None,
) -> tuple[list, list]:
    """Each check's `to_dict()` on `prog`, and its oracle's (`to_dict()`,
    `text()`), asserted to agree; `unbudgeted` has the oracles' reports
    without a budget, if known."""
    got = [_report(new, prog, depth, bound, budget) for _, new, _ in CHECKS]
    want = [_report(old, prog, depth, bound, budget) for _, _, old in CHECKS]
    if unbudgeted is None:
        unbudgeted = want if budget == math.inf else _same(prog, depth, bound)[1]
    for (kind, _, _), g, w, full in zip(CHECKS, got, want, unbudgeted):
        if kind in DEEPENED:
            assert_deepened(g, w, full)
        else:
            assert g == w, (kind, depth, bound, budget)
    return [g[0] for g in got], want


@pytest.mark.parametrize("depth,bound", [(6, 6), (4, 3)])
def test_reports_match_the_oracles_on_the_corpus_and_samples(depth, bound):
    for name, prog in PROGRAMS:
        _same(prog, depth, bound)


def test_reports_match_the_oracles_under_budgets():
    exhausted = 0
    for name, prog in PROGRAMS:
        got, want = _same(prog, 4, 3)
        totals = [r["stats"]["states_explored"] for r in got + [w[0] for w in want]]
        # Just below each check's own count and its oracle's, too.
        for budget in sorted({0, 1, 50, 500} | {t - 1 for t in totals if t}):
            reports = _same(prog, 4, 3, budget, want)[0]
            exhausted += sum(r["verdict"] == verifier.EXHAUSTED for r in reports)
    assert exhausted > 100


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 4), st.integers(0, 3))
def test_reports_match_the_oracles_on_generated_programs(seed, depth, bound):
    _same(corpus.random_programs(seed, 1)[0], depth, bound)


# ---------------------------------------------------------------------------
# Counterexamples, from an amendment broken on purpose


def _break(c: cc.Choreography, flip: bool) -> cc.Choreography:
    """`c` with the first selection a conditional's then-branch starts with,
    in pre-order, dropped or (`flip`) sent with the other label."""

    def walk(c):
        if isinstance(c, cc.Prefix):
            cont = walk(c.cont)
            return None if cont is None else cc.Prefix(c.action, cont)
        if isinstance(c, cc.Cond):
            head = c.then_c
            if isinstance(head, cc.Prefix) and isinstance(head.action, cc.Sel):
                sel = head.action
                then_c = (
                    cc.Prefix(cc.Sel(sel.sender, sel.receiver, cc.Label.RIGHT), head.cont)
                    if flip
                    else head.cont
                )
                return cc.Cond(c.pid, c.guard, then_c, c.else_c)
            then_c = walk(c.then_c)
            if then_c is not None:
                return cc.Cond(c.pid, c.guard, then_c, c.else_c)
            else_c = walk(c.else_c)
            return None if else_c is None else cc.Cond(c.pid, c.guard, c.then_c, else_c)
        if isinstance(c, cc.RunningCall):
            body = walk(c.body)
            return None if body is None else cc.RunningCall(c.name, c.pending, body)
        return None

    broken = walk(c)
    return c if broken is None else broken


# A loop whose conditional already carries its selection: the broken
# amendment drops it in the amended procedure, so later iterations reach one
# configuration by several multisets, and all of them fail.
SELECTING_LOOP = syntax.parse_source(
    "def X(p, q) = if p.e == 0 then { p -> q[left]; p.0 -> q.x; call X }"
    " else { p -> q[right]; end }\nmain = call X\n"
).to_program()


@pytest.mark.parametrize("flip", [False, True])
def test_counterexamples_match_the_oracles_under_a_broken_amendment(monkeypatch, flip):
    """The broken amendment is not compositional, so the amendment of a
    reached configuration drifts from where the amended program went: every
    check finds counterexamples, several entries of one configuration fail,
    and the witness is the first of them in the order they were found."""

    amend = amendment.amend

    def broken_amend(defs, pids, c, memo=None, done=None, inserted=None, nested=False):
        # The insertion bound is the one of the amendment it breaks.
        amend(defs, pids, c, None, None, inserted)
        return _break(oracles._amend(defs, pids, c), flip)

    counts: list = []
    failing = oracles.failing

    def counting_failing(entries, fails):
        failed = failing(entries, fails)
        if failed:
            counts.append(len(failed))
        return failed

    monkeypatch.setattr(amendment, "amend", broken_amend)
    monkeypatch.setattr(oracles, "failing", counting_failing)
    found = set()
    for name, prog in PROGRAMS:
        for depth, bound in ((4, 3), (3, 2)):
            for report in _same(prog, depth, bound)[0]:
                if report["verdict"] == verifier.COUNTEREXAMPLE:
                    found.add(report["check"])
    assert {"amend-complete", "amend-sound"} <= found
    for depth, bound in ((10, 0), (10, 2), (11, 1)):
        counts.clear()
        reports = _same(SELECTING_LOOP, depth, bound)[0]
        assert all(r["verdict"] == verifier.COUNTEREXAMPLE for r in reports)
        # Counted at the oracles' witnesses, which the checks' equal.
        assert counts == [2, 2, 2], (depth, bound)


# A line with no conditional, so amendment inserts no selection anywhere.
LINE = syntax.parse_source("main = p.e -> q.x; q.e -> r.y; end\n").to_program()


def test_a_match_the_per_level_growth_misses_is_found_at_the_bound(monkeypatch):
    """An amendment that puts one selection in front of every term but `end`
    gives the amended program one step more than `max_insertions` (0 here)
    allows for, and only `end` and `main` are amendments the amended program
    reaches.  So amend-complete matches the run to the middle of the line
    only by its level-1 extension to `end`, and only once the amended side is
    searched to the full bound, at level 2.  The runs still unmatched there
    are tried against every extension, the earlier levels' too, so the check
    holds as the oracle does."""
    sel = cc.Sel("p", "q", cc.Label.LEFT)
    amend = amendment.amend

    def amend_with_a_first_selection(defs, pids, c, memo=None, done=None, inserted=None):
        return cc.Prefix(sel, c) if isinstance(c, cc.Prefix) else amend(defs, pids, c, memo)

    monkeypatch.setattr(amendment, "amend", amend_with_a_first_selection)
    for depth, bound in ((1, 1), (2, 1), (1, 2), (2, 2)):
        reports = _same(LINE, depth, bound)[0]
        if (depth, bound) == (1, 2):
            assert [r["verdict"] for r in reports[1:]] == [verifier.HOLDS] * 2


# ---------------------------------------------------------------------------
# The insertion bound


def _chain(d: int) -> ChorProgram:
    """d nested conditionals over three processes.  At each level the two
    processes that do not decide act differently in the two branches, so
    amendment gives both a selection there."""
    pids = ("p", "q", "r")
    c = cc.End()
    for i in reversed(range(d)):
        a, b, o = pids[i % 3], pids[(i + 1) % 3], pids[(i + 2) % 3]
        c = cc.Prefix(cc.Com(b, cc.Lit(i % 10), a, "x"), cc.Cond(
            a, cc.Le(cc.Ref("x"), cc.Lit(i)),
            cc.Prefix(cc.Com(a, cc.Lit(1), o, "y"), c),
            cc.Prefix(cc.Com(o, cc.Lit(2), b, "y"), cc.End()),
        ))
    return ChorProgram({}, c)


def test_max_insertions_is_the_count_of_its_definition():
    chain = _chain(3)
    assert amendment.Amendment(chain).max_insertions == 2
    for name, prog in PROGRAMS + [("chain_3", chain)]:
        assert amendment.Amendment(prog).max_insertions == oracles.max_insertions(prog), name


def test_the_amendment_and_its_bound_amend_each_term_a_few_times(monkeypatch):
    """Amending a nested chain and computing its bound calls `amend` a number
    of times linear in the nesting: re-amending both branches of every
    conditional made it 1,704 / 6,529 / 25,554 for 25 / 50 / 100 levels."""
    calls = 0
    amend = amendment.amend

    def counting_amend(*args, **kwargs):
        nonlocal calls
        calls += 1
        return amend(*args, **kwargs)

    monkeypatch.setattr(amendment, "amend", counting_amend)
    for d in (25, 50, 100):
        calls = 0
        assert amendment.Amendment(_chain(d)).max_insertions == 2
        assert calls <= 5 * d, (d, calls)


# ---------------------------------------------------------------------------
# Machine-independent counts, and the memoised step function


PINNED = {  # random_NN: (amend-complete, amend-sound) states explored at (6, 6)
    4: (116, 120),
    5: (54, 54),
    6: (47, 57),
}


def _nesting(c: cc.Choreography) -> int:
    """Entered calls nested inside one another at the deepest point of `c`."""
    if isinstance(c, cc.Prefix):
        return _nesting(c.cont)
    if isinstance(c, cc.Cond):
        return max(_nesting(c.then_c), _nesting(c.else_c))
    if isinstance(c, cc.RunningCall):
        return 1 + _nesting(c.body)
    return 0


def test_states_explored_are_pinned_and_steps_match_the_memo_free_oracle(monkeypatch):
    """Every configuration the checks reached, and every one within their
    declared depth on either side, through one memoised step function per
    side, has the transitions the memo-free oracle gives it, in the same
    order.  The checks stop deepening once every run is matched, so the
    configurations within the bound are searched here outright."""
    defs_of: dict = {}
    spaces: list = []
    successors = cc.successors

    def recording_successors(defs):
        step = successors(defs)
        defs_of[step] = defs
        return step

    class RecordingSpace(explore.Space):
        __slots__ = ()

        def __init__(self, step):
            super().__init__(step)
            spaces.append(self)

    monkeypatch.setattr(cc, "successors", recording_successors)
    monkeypatch.setattr(explore, "Space", RecordingSpace)
    randoms = corpus.random_programs(ACCEPTANCE_SEED, 50)
    deepest = 0
    for i, pinned in PINNED.items():
        spaces.clear()
        complete = verifier.check_amend_complete(randoms[i], State(), 6, 6)
        sound = verifier.check_amend_sound(randoms[i], State(), 6, 6)
        assert (complete.verdict, sound.verdict) == (verifier.HOLDS, verifier.HOLDS)
        assert (complete.stats.states_explored, sound.stats.states_explored) == pinned
        amended = amendment.Amendment(randoms[i])
        for defs, main in (
            (randoms[i].procedures, randoms[i].main),
            (amended.procedures, amended.main),
        ):
            space = explore.Space(cc.successors(defs))
            explore.bfs(space, (main, State()), sound.stats.max_depth, explore.Budget(),
                        explore.per_config)
        for space in spaces:
            want = oracles.successors(defs_of[space.step])
            for cfg, moves in space.memo.items():
                assert moves == want(cfg), cfg
                deepest = max(deepest, _nesting(cfg[0]))
    # Entered calls nest 33 deep in the configurations within the bound.
    assert deepest == 33


# ---------------------------------------------------------------------------
# One step relation for both sides, where amendment leaves the procedures alone


SIDED = [new for _, new, _ in CHECKS] + [verifier.check_intermediate_formulation]


def _bodies_unchanged(prog: ChorProgram) -> bool:
    """Whether amendment renders every procedure body as it was."""
    amended = amendment.amend_program(prog)
    return all(
        syntax.render_chor(amended.procedures[name].body) == syntax.render_chor(proc.body)
        for name, proc in prog.procedures.items()
    )


def _changed_bodies() -> list[ChorProgram]:
    """Generated programs with a procedure whose body amendment changes."""
    progs = corpus.random_programs(1, 200) + corpus.random_programs(2, 200)
    return [prog for prog in progs if not _bodies_unchanged(prog)]


def test_shared_and_separate_step_relations_give_the_same_reports(monkeypatch):
    """The naive, amend-complete, amend-sound and intermediate checks give
    the same `to_dict()` through one step relation for both sides as through
    one per side, forced here, on the corpus plain and amended, the samples,
    and generated programs whose procedure bodies amendment changes; the two
    sides share their relation exactly when amendment leaves every body
    alone."""
    progs = [prog for _, prog in PROGRAMS]
    progs += [amendment.amend_program(prog) for _, prog in PROGRAMS[:60]]
    progs += _changed_bodies()
    shared = 0
    for prog in progs:
        sides = verifier._Sides(prog, None, 1)
        assert (sides.amended is sides.orig) == _bodies_unchanged(prog)
        shared += sides.amended is sides.orig
    assert (len(progs), shared) == (154, 128)

    def reports() -> list:
        return [
            _report(check, prog, depth, bound, math.inf)[0]
            for prog in progs
            for depth, bound in ((2, 2), (4, 3), (6, 6))
            for check in SIDED
        ]

    got = reports()
    init = verifier._Sides.__init__

    def separate(self, prog, state, state_budget):
        init(self, prog, state, state_budget)
        self.amended = explore.Space(cc.successors(self.amendment.procedures))

    monkeypatch.setattr(verifier._Sides, "__init__", separate)
    assert got == reports()


# Calls of the step function by amend-complete at (6, 6), and its states
# explored: a relation per side made 10 and 11 calls.
STEPS_PINNED = {"purchase_safe": (5, 10), "delayed_choice": (9, 13)}


def test_step_calls_are_pinned_and_no_configuration_is_stepped_twice(monkeypatch):
    """Step calls are a machine-independent count.  Where amendment leaves
    the procedure bodies alone, a check steps each configuration at most
    once, however many of its searches on either side reach it."""
    stepped: Counter = Counter()
    successors = cc.successors

    def counting_successors(defs):
        step = successors(defs)

        def counted(cfg):
            stepped[cfg] += 1
            return step(cfg)

        return counted

    monkeypatch.setattr(cc, "successors", counting_successors)
    named = dict(corpus.named_corpus())
    for name, pinned in STEPS_PINNED.items():
        stepped.clear()
        report = verifier.check_amend_complete(named[name], State(), 6, 6)
        assert (sum(stepped.values()), report.stats.states_explored) == pinned, name
    checked = 0
    for name, prog in PROGRAMS:
        if not _bodies_unchanged(prog):
            continue
        for check in SIDED:
            stepped.clear()
            _report(check, prog, 4, 3, math.inf)
            assert max(stepped.values()) == 1, (name, check.__name__)
            checked += 1
    assert checked == 4 * (len(PROGRAMS) - 2)


def test_amend_sound_reaches_depth_ten_on_random_04():
    """The extension searches stop at the level where every amended run is
    matched, so the cost no longer triples per two levels of depth: the full
    searches explored 321,347 states at depth 10, bound 6."""
    prog = corpus.random_programs(ACCEPTANCE_SEED, 50)[4]
    report = verifier.check_amend_sound(prog, State(), 10, 6)
    assert (report.verdict, report.stats.states_explored, report.stats.max_depth) == (
        verifier.HOLDS, 362, 48,
    )
    got = _report(verifier.check_amend_sound, prog, 8, 6, math.inf)
    want = _report(oracles.amend_sound, prog, 8, 6, math.inf)
    assert_deepened(got, want, want)


def test_amend_complete_reaches_depth_ten_on_random_04():
    """The amended side grows by non-selection labels, so a tau-loop no
    longer fills it with runs longer than any match: growing it by total
    length explored 3,852 states at depth 10, bound 6."""
    prog = corpus.random_programs(ACCEPTANCE_SEED, 50)[4]
    report = verifier.check_amend_complete(prog, State(), 10, 6)
    assert (report.verdict, report.stats.states_explored, report.stats.max_depth) == (
        verifier.HOLDS, 400, 48,
    )
    got = _report(verifier.check_amend_complete, prog, 8, 6, math.inf)
    want = _report(oracles.amend_complete, prog, 8, 6, math.inf)
    assert_deepened(got, want, want)


# ---------------------------------------------------------------------------
# The intermediate formulation, against trace listings matched pair by pair


GENERATED_BUDGET = 20_000


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3), st.integers(0, 3), st.booleans())
def test_intermediate_matches_the_oracle_on_generated_programs(seed, depth, bound, amend):
    """The catch-up search gives the verdict, witness and note that matching
    each listed trace of the original's extension against each of the
    amendment's with `oracles.deletes_to` gives.  Where the program has
    selections of its own, one amended trace can leave the original at
    several (configuration, steps) pairs, so the search may keep more triples
    than the two listings keep traces: of 9,967 generated checks at depths up
    to 4 and bounds up to 3, 61 did, by at most 15 states.  Elsewhere it keeps
    no more."""
    prog = corpus.random_programs(seed, 1)[0]
    if amend:
        prog = amendment.amend_program(prog)
    got = _report(verifier.check_intermediate_formulation, prog, depth, bound, GENERATED_BUDGET)
    want = _report(oracles.intermediate_by_traces, prog, depth, bound, GENERATED_BUDGET)
    if "Sel(" not in repr(prog):
        assert_deepened(got, want, want)
    elif want[0]["verdict"] != verifier.EXHAUSTED:
        assert _masked(got) == _masked(want)


def test_intermediate_holds_on_random_04_to_06_at_depth_six():
    """Each triple of the catch-up search is kept once, however many traces
    reach it, so these six checks conclude; the trace listings ran out of the
    default budget, at 1,000,001 states, on every one of them."""
    randoms = corpus.random_programs(ACCEPTANCE_SEED, 50)
    for i in (4, 5, 6):
        for prog in (randoms[i], amendment.amend_program(randoms[i])):
            report = verifier.check_intermediate_formulation(prog, State(), 6, 6)
            assert report.verdict == verifier.HOLDS, i
            assert report.stats.states_explored < 10_000, i


def test_intermediate_catch_ups_stop_at_their_first_caught_up_level():
    """Each catch-up search grows a level at a time and stops at the first
    level with a caught-up triple.  On k independent pairs at depth 3k,
    searches run to the full bound charged 1,843, 22,468 and 242,434 units
    for k = 3 to 5 and ran out of the default budget at k = 6."""
    got = [verifier.check_intermediate_formulation(_pairs(k), State(), 3 * k)
           for k in (3, 4, 5, 6)]
    assert [(r.verdict, r.stats.states_explored) for r in got] == [
        (verifier.HOLDS, 208), (verifier.HOLDS, 1024), (verifier.HOLDS, 4864),
        (verifier.HOLDS, 22528),
    ]
