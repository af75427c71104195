"""The exploration engine agrees with the loops it replaced.

`oracles` keeps each bounded search as it was written before `explore.bfs`
took them over: the trace listing of `cc.traces`/`sp.traces`, the
multiset-keyed `_reach` and the terminal analysis behind `implements`, each
with its own memo and budget.  The engine-backed versions must return the same
entries in the same order, the same dead lists and closure flags, and run out
of budget at the same entry, and a search grown a level at a time must do all
of that as one `explore.bfs` call does.  A search given a level, its count of
labels that are not selections, and grown by length and level, must keep what
one `explore.bfs` call keeps within both bounds, and what a plain search
keeps, in its order, while the level holds nothing back.  The checkers and the
CLI built on them must print the same, byte for byte, except that
amend-complete and amend-sound deepen their extension searches only until
every run is matched, and the intermediate check catches up by one search
over triples instead of listing traces, so they explore fewer states
(`test_amend_checks.assert_deepened`).
"""

from __future__ import annotations

import math
import random
import re
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from chorkit import amendment, cc, explore, projection, sp, syntax, verifier
from chorkit.cc import ChorProgram, Com, Prefix, Ref, State
from chorkit.cli import main
from test_amend_checks import DEEPENED, assert_deepened

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
ACCEPTANCE_SEED = 20260808


def _samples() -> list[tuple[str, ChorProgram]]:
    return [
        (path.name, syntax.parse_source(path.read_text(encoding="utf-8")).to_program())
        for path in sorted(SAMPLES.glob("*.chor"))
    ]


def _blocked_late() -> ChorProgram:
    """`blocked_selection` behind two independent communications of q and r:
    its failing configuration is reached by two traces, in either order."""
    main = corpus.blocked_selection().main
    main = Prefix(Com("q", Ref("e"), "s", "x"), Prefix(Com("r", Ref("e"), "t", "x"), main))
    return ChorProgram({}, main)


def _programs() -> list[tuple[str, ChorProgram]]:
    """The corpus, plain and amended, and every sample."""
    plain = corpus.named_corpus() + [("blocked_late", _blocked_late())] + [
        (f"random_{i:02d}", prog)
        for i, prog in enumerate(corpus.random_programs(ACCEPTANCE_SEED, 50))
    ]
    amended = [(f"{name}/amended", amendment.amend_program(p)) for name, p in plain]
    return plain + amended + _samples()


def _outcome(search, limit):
    """What a search gives under a budget of `limit`: its result, or None when
    it ran out, with the budget used either way."""
    budget = explore.Budget(limit)
    try:
        result = search(budget)
    except explore.BudgetExceeded:
        result = None
    return result, budget.used


def _same_under_budgets(new, old, normalise) -> None:
    """`new` and `old` (functions of a budget) agree without a budget, with
    just enough budget, and at budgets that cut the search short."""
    _, total = _outcome(old, math.inf)
    for limit in {math.inf, 0, 1, total // 2, total - 1, total}:
        got, used = _outcome(new, limit)
        want, want_used = _outcome(old, limit)
        assert used == want_used, limit
        assert (got is None) == (want is None) == (limit < total), limit
        if got is not None:
            assert normalise(got) == normalise(want), limit


def _in_order(found: dict) -> list:
    return [(cfg, list(bucket.items())) for cfg, bucket in found.items()]


def _terminal(result) -> tuple:
    reached, dead, closed = result
    return list(reached.items()), dead, closed


def _reach_as_labels(step, start, depth: int, budget) -> dict:
    """`verifier._reach` with its multisets of ranks read back as label
    tuples in `cc.label_key` order, the oracle's keys."""
    ranks = verifier._Ranks()
    found = verifier._reach(explore.Space(step), start, depth, budget, ranks)
    label = {r: t for t, r in ranks.of.items()}
    return {
        cfg: {oracles.mkey(label[r] for r in mk): trace for mk, trace in bucket.items()}
        for cfg, bucket in found.items()
    }


def _same_searches(step, start, depth: int) -> None:
    _same_under_budgets(
        lambda b: _reach_as_labels(step, start, depth, b),
        lambda b: oracles.reach(oracles.Space(step), start, depth, b),
        _in_order,
    )
    _same_under_budgets(
        lambda b: verifier._terminal_analysis(explore.Space(step), start, depth, b),
        lambda b: oracles.terminal_analysis(oracles.Space(step), start, depth, b),
        _terminal,
    )


def _check_engine(prog: ChorProgram, depth: int) -> None:
    """Trace listings, `_reach` and the terminal analysis of `prog`, and of
    its projected amendment, against the oracles."""
    defs = prog.procedures
    assert cc.traces(defs, prog.main, State(), depth) == oracles.traces(
        cc._enabled, defs, prog.main, State(), depth
    )
    compiled = projection.epp(amendment.amend_program(prog))
    assert sp.traces(compiled.procedures, compiled.net, State(), depth) == oracles.traces(
        sp._enabled, compiled.procedures, compiled.net, State(), depth
    )
    _same_searches(cc.successors(defs), (prog.main, State()), depth)
    _same_searches(sp.successors(compiled.procedures), (compiled.net, State()), depth)


def test_engine_matches_the_old_loops_on_the_corpus_and_samples():
    for _, prog in _programs():
        for depth in (0, 1, 4):
            _check_engine(prog, depth)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 5))
def test_engine_matches_the_old_loops_on_generated_programs(seed, depth):
    _check_engine(corpus.random_programs(seed, 1)[0], depth)


LABELS = (cc.TauEvent("a"), cc.TauEvent("b"), cc.CommEvent("a", 0, "b"))


def _automata(count: int, loops: tuple = ()):
    """Step functions of `count` label-nondeterministic automata with several
    dead states: one trace reaches several configurations and searches end
    in several ways.  State 0 is the start.  Given `loops`, the automata
    use those labels too, and about 2 in 5 states have a move back to
    themselves by one of them."""
    rng = random.Random(ACCEPTANCE_SEED)
    labels = LABELS + loops
    for _ in range(count):
        n = rng.randrange(1, 7)
        moves = {
            i: sorted({(rng.randrange(len(labels)), rng.randrange(n))
                       for _ in range(rng.randrange(4))})
            for i in range(n)
        }
        for i in range(n) if loops else ():
            if rng.random() < 0.4:
                loop = (len(LABELS) + rng.randrange(len(loops)), i)
                moves[i] = sorted({*moves[i], loop})
        yield lambda i, moves=moves: tuple((labels[t], j) for t, j in moves[i])


def test_engine_matches_the_old_loops_on_random_automata():
    for step in _automata(200):

        def enabled(defs, i, s, step=step):
            return tuple((t, j, s) for t, j in step(i))

        for depth in range(6):
            entries = explore.bfs(explore.Space(step), 0, depth, explore.Budget(),
                                  explore.per_trace)[1]
            want = oracles.traces(enabled, {}, 0, None, depth)
            assert [(tl, i, None) for i, _, tl in entries] == want
            _same_searches(step, 0, depth)


def _grown_in_steps(space, start, depth: int, budget, tag) -> tuple:
    """`explore.bfs`, but from a search grown one level at a time, with the
    entries each level returns checked against its insertion order."""
    search = explore.Search(space, start, budget, tag)
    entries = []
    for k in range(depth + 1):
        entries += search.grow(k)
    assert search.grow(depth) == []
    assert entries == search.order
    return search.found, search.order, search.closed


def _same_growth(step, start, depth: int) -> None:
    for tag in (explore.per_trace, explore.per_config, oracles.mkey_add):
        for bound in (depth, depth + 1):
            _same_under_budgets(
                lambda b: _grown_in_steps(explore.Space(step), start, bound, b, tag),
                lambda b: explore.bfs(explore.Space(step), start, bound, b, tag),
                lambda r: (_in_order(r[0]), r[1], r[2]),
            )


def test_a_search_grown_in_steps_matches_one_bfs_call():
    """The same entries, tags, traces, order, closure and budget use, and
    out of budget at the same entry, over the corpus and random automata."""
    for _, prog in _programs():
        _same_growth(cc.successors(prog.procedures), (prog.main, State()), 3)
    for step in _automata(100):
        for depth in range(5):
            _same_growth(step, 0, depth)


SELECTIONS = (cc.SelectEvent("a", "b", cc.Label.LEFT), cc.SelectEvent("b", "a", cc.Label.RIGHT))


def _level(mk: tuple) -> int:
    """The labels of a multiset that are not selections."""
    return sum(not cc.is_selection(t) for t in mk)


def _steps(rng: random.Random, top: int) -> list[tuple[int, int]]:
    """(length, level) bounds rising in steps to (`top`, `top`): the length
    alone, the level alone, or both."""
    depth = level = 0
    out = [(0, 0)]
    while (depth, level) != (top, top):
        up = rng.randrange(3)
        depth = min(top, depth + (up != 1) * rng.randrange(1, 3))
        level = min(top, level + (up != 0))
        out.append((depth, level))
    return out


def _same_as_filtered_bfs(step, start, top: int, rng: random.Random) -> int:
    """A search by level, grown in steps, keeps at each step exactly the
    entries of one full search filtered to both bounds, charges one budget
    unit for each, returns each once, and keeps for each a trace of its
    labels that reaches it.  Once it says it is closed, the full search has
    nothing more within one more step on either bound.  The steps where the
    length bound leaves out entries the level lets in are counted."""
    full, order, _ = explore.bfs(explore.Space(step), start, top + 1, explore.Budget(),
                                 oracles.mkey_add)

    def within(depth: int, level: int) -> set:
        return {(cfg, mk) for cfg, mk, _ in order if len(mk) <= depth and _level(mk) <= level}

    # A search that overruns the full one runs out rather than on and on.
    budget = explore.Budget(len(order))
    search = explore.Search(explore.Space(step), start, budget, oracles.mkey_add, _level)
    shown = []
    capped = 0
    for depth, level in _steps(rng, top):
        shown += search.grow(depth, level)
        want = within(depth, level)
        capped += any(depth < len(mk) <= top and _level(mk) <= level for _, mk, _ in order)
        got = {(cfg, mk) for cfg, bucket in search.found.items() for mk in bucket}
        assert got == want, (depth, level)
        if search.closed:
            assert within(depth + 1, level + 1) == got, (depth, level)
        assert budget.used == len(want) == len(search.order)
        assert shown == search.order
    for cfg, mk, trace in search.order:
        assert search.found[cfg][mk] == trace
        assert tuple(sorted(trace, key=cc.label_key)) == mk
        reached = {start}
        for t in trace:
            reached = {j for i in reached for u, j in step(i) if u == t}
        assert cfg in reached
    return capped


def test_a_search_by_level_keeps_the_entries_of_a_full_search_within_both_bounds():
    rng = random.Random(ACCEPTANCE_SEED)
    capped = 0
    for _, prog in _programs():
        capped += _same_as_filtered_bfs(
            cc.successors(prog.procedures), (prog.main, State()), 4, rng
        )
    assert capped > 50
    capped = 0
    # Runs of selections make multisets grow without end where only the
    # length bound stops the search.
    for step in _automata(150, SELECTIONS):
        capped += _same_as_filtered_bfs(step, 0, 7, rng)
    assert capped > 200


def _same_as_plain(step, start, top: int) -> None:
    """A search by level never held back by its level finds what a plain
    search finds, in the same order, with the same traces."""
    plain = explore.Search(explore.Space(step), start, explore.Budget(), oracles.mkey_add)
    weak = explore.Search(explore.Space(step), start, explore.Budget(), oracles.mkey_add,
                          _level)
    for depth in range(top + 1):
        assert weak.grow(depth, depth + depth % 2) == plain.grow(depth), depth
        assert (weak.order, weak.closed) == (plain.order, plain.closed), depth


def test_a_search_by_level_at_a_level_of_its_depth_is_a_plain_search():
    for _, prog in _programs():
        _same_as_plain(cc.successors(prog.procedures), (prog.main, State()), 4)
    for step in _automata(150, SELECTIONS):
        _same_as_plain(step, 0, 7)


# ---------------------------------------------------------------------------
# Reports and the CLI, against the checkers as they were


def _as_before(monkeypatch) -> None:
    """Route the checkers through the old loops and the old amendment and
    intermediate checks, and give the semantics the old `label_processes`."""
    monkeypatch.setattr(cc, "label_processes", oracles.label_processes)
    monkeypatch.setattr(verifier, "_terminal_analysis", oracles.terminal_analysis)
    monkeypatch.setattr(verifier, "check_naive_correspondence", oracles.naive_correspondence)
    monkeypatch.setattr(verifier, "check_amend_complete", oracles.amend_complete)
    monkeypatch.setattr(verifier, "check_amend_sound", oracles.amend_sound)
    monkeypatch.setattr(
        verifier, "check_intermediate_formulation", oracles.intermediate_by_traces
    )


CHECKERS = {
    "naive": "check_naive_correspondence",
    "amend-complete": "check_amend_complete",
    "amend-sound": "check_amend_sound",
    "intermediate": "check_intermediate_formulation",
}


def _reports(prog: ChorProgram) -> dict:
    """Each check's (`to_dict()`, `text()`) on `prog`, by (check, depth,
    bound, budget)."""
    full = verifier.DEFAULT_STATE_BUDGET
    runs = []
    for depth, bound in ((3, 3), (2, 4)):
        runs += [(name, depth, bound, full)
                 for name in ("naive", "amend-complete", "amend-sound")]
    for depth, bound in ((3, 1), (1, 2)):
        runs.append(("intermediate", depth, bound, full))
    for budget in (0, 5, 37):
        runs += [("naive", 3, 3, budget), ("amend-complete", 3, 3, budget),
                 ("amend-sound", 3, 3, budget), ("intermediate", 3, 1, budget)]
    out = {}
    for run in runs:
        name, depth, bound, budget = run
        check = getattr(verifier, CHECKERS[name])
        if name == "naive":
            report = check(prog, State(), depth, budget)
        else:
            report = check(prog, State(), depth, bound, budget)
        out[run] = report.to_dict(), report.text()
    return out


def test_reports_are_unchanged_on_the_corpus_and_samples(monkeypatch):
    programs = _programs()
    got = [_reports(prog) for _, prog in programs]
    with monkeypatch.context() as m:
        _as_before(m)
        want = [_reports(prog) for _, prog in programs]
    for (name, _), g, w in zip(programs, got, want):
        for run, report in g.items():
            if run[0] in DEEPENED:
                unbudgeted = w[(*run[:3], verifier.DEFAULT_STATE_BUDGET)]
                assert_deepened(report, w[run], unbudgeted)
            else:
                assert report == w[run], (name, run)


IMPLEMENTS = (
    ("successor_fn.table", "p", "q", "8"),
    ("equality_fn.table", "p,q", "r", "8"),
    ("endless_loop.table", "p", "p", "50"),
)


def _commands(sample: Path) -> list[list[str]]:
    out = [["run", str(sample), "--seed", seed] for seed in ("1", "7")]
    for kind in ("naive", "amend-complete", "amend-sound", "intermediate", "epp"):
        for extra in ([], ["--json"], ["--depth", "3", "--bound", "2"]):
            out.append(["verify", kind, str(sample), *extra])
    for table, inputs, output, bound in IMPLEMENTS:
        for extra in ([], ["--json"], ["--bound", "0"]):
            out.append([
                "implements", str(sample), "--table", str(SAMPLES / table),
                "--inputs", inputs, "--output", output, "--bound", bound, *extra,
            ])
    return out


def _run(capsys, argv) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


STATES_SHOWN = re.compile(r'(?<="states_explored": )\d+|(?<=^stats: )\d+(?= states)', re.M)


def _states_apart(run: tuple) -> tuple:
    """A CLI run with the states explored it prints taken out, and that count."""
    code, out, err = run
    return (code, STATES_SHOWN.sub("N", out), err), int(STATES_SHOWN.search(out)[0])


def test_cli_is_unchanged_on_every_sample(monkeypatch, capsys):
    for sample in sorted(SAMPLES.glob("*.chor")):
        for argv in _commands(sample):
            got = _run(capsys, argv)
            with monkeypatch.context() as m:
                _as_before(m)
                want = _run(capsys, argv)
            if argv[0] == "verify" and argv[1] in DEEPENED:
                (got, states), (want, want_states) = _states_apart(got), _states_apart(want)
                assert states <= want_states, argv
            assert got == want, argv


def test_run_all_is_unchanged_on_every_sample(capsys):
    offer = syntax.parse_state_text((SAMPLES / "offer.state").read_text(encoding="utf-8"))
    for name, prog in _samples():
        for steps, state in ((0, None), (3, None), (25, None), (25, offer)):
            argv = ["run", str(SAMPLES / name), "--all", "--steps", str(steps)]
            if state is not None:
                argv += ["--state", str(SAMPLES / "offer.state")]
            want = oracles.run_all(prog, state or State(), steps)
            assert _run(capsys, argv) == (0, want, ""), argv
