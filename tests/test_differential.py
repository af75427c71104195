"""Projection and amendment against the memo-free recursive oracles of
`oracles`: the projection of every site on every process and the conditional
each (process, site) pair blames, the failure report, EPP, the amended program,
its insertion bound, and every projection an amendment memoises; and the
well-formedness walk against the recursive definitions it follows.

Inputs: the corpus, the samples, nested chains and long lines built with the
term constructors, and generated programs.  The oracles recurse once per
prefix, so they run under a raised recursion limit; the code under test runs
under the limit it is given (`test_deep_terms.py` runs it under the default).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from test_deep_terms import recursion_limit
from test_interning import _chain, _line
from chorkit import amendment, cc, projection, syntax

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
ACCEPTANCE_SEED = 20260808
ORACLE_LIMIT = 20_000


def _sites(prog: cc.ChorProgram):
    """Each site with the processes projection covers there."""
    yield "main", prog.main, sorted(cc.process_names(prog))
    for name in sorted(prog.procedures):
        proc = prog.procedures[name]
        yield name, proc.body, proc.pids


def _oracle_projection(defs, term: cc.Choreography, p: cc.Pid):
    """The oracle's (projection, blamed conditional); one of them is None."""
    with recursion_limit(ORACLE_LIMIT):
        blamed = oracles._blame(defs, term, p)
        return (None if blamed is not None else oracles._bproj(defs, term, p)), blamed


def _subterms(c: cc.Choreography) -> list[cc.Choreography]:
    """The distinct subterms of c, each after those inside it."""
    out: list = []
    seen: set = set()
    stack = [(c, False)]
    while stack:
        term, expanded = stack.pop()
        if term in seen:
            continue
        if expanded:
            seen.add(term)
            out.append(term)
            continue
        stack.append((term, True))
        if isinstance(term, cc.Prefix):
            stack.append((term.cont, False))
        elif isinstance(term, cc.Cond):
            stack += ((term.else_c, False), (term.then_c, False))
        elif isinstance(term, cc.RunningCall):
            stack.append((term.body, False))
    return out


# Past this many subterms a site is projected whole, not inside out.
_INSIDE_OUT = 300


def _same_networks(got, want) -> None:
    assert (got.net, got.procedures) == (want.net, want.procedures)


def _agree(prog: cc.ChorProgram) -> None:
    defs = prog.procedures
    shared: projection.Memo = {}
    for site, term, pids in _sites(prog):
        for p in pids:
            want, blamed = _oracle_projection(defs, term, p)
            assert projection.blame(defs, term, p) is blamed, (site, p)
            assert projection.bproj(defs, term, p) is want, (site, p)
        # Through one memo for every pair, as `project_failures` runs them,
        # and inside out, so that walks stop at memoised projections and
        # failures in the middle of a run.
        subterms = _subterms(term)
        for sub in subterms if len(subterms) <= _INSIDE_OUT else [term]:
            for p in pids:
                want, blamed = _oracle_projection(defs, sub, p)
                assert projection.blame(defs, sub, p, shared) is blamed, (site, p)
                assert projection.bproj(defs, sub, p, shared) is want, (site, p)

    with recursion_limit(ORACLE_LIMIT):
        failures = oracles.project_failures(prog)
    assert projection.project_failures(prog) == failures
    if failures:
        with pytest.raises(projection.UnprojectableError) as caught:
            projection.epp(prog)
        assert caught.value.failures == failures
    else:
        with recursion_limit(ORACLE_LIMIT):
            want_epp = oracles.epp(prog)
        _same_networks(projection.epp(prog), want_epp)

    view = amendment.Amendment(prog)
    with recursion_limit(ORACLE_LIMIT):
        want_amended = oracles.amend_program(prog)
        want_bound = oracles.max_insertions(prog)
    amended = amendment.amend_program(prog)
    assert amended == want_amended
    assert cc.ChorProgram(view.procedures, view.main) == want_amended
    assert view.max_insertions == want_bound
    # The memo holds exact projections, those amendment records for the
    # conditionals it repairs among them.
    for (term, p), got in view.memo.items():
        want, blamed = _oracle_projection(defs, term, p)
        assert got is (blamed if isinstance(got, cc.Cond) else want), p

    assert projection.project_failures(amended) == []
    with recursion_limit(ORACLE_LIMIT):
        want_epp = oracles.epp(amended)
    _same_networks(projection.epp(amended), want_epp)


def test_corpus_agrees_with_the_oracles():
    progs = corpus.named_corpus() + [
        (f"random_{i:02d}", prog)
        for i, prog in enumerate(corpus.random_programs(ACCEPTANCE_SEED, 50))
    ]
    for name, prog in progs:
        try:
            _agree(prog)
        except AssertionError as exc:
            raise AssertionError(name) from exc


@pytest.mark.parametrize("path", sorted(SAMPLES.glob("*.chor")), ids=lambda p: p.stem)
def test_samples_agree_with_the_oracles(path):
    _agree(syntax.parse_source(path.read_text(encoding="utf-8")).to_program())


@pytest.mark.parametrize("depth", [25, 50, 100])
def test_nested_chains_agree_with_the_oracles(depth):
    _agree(_chain(depth))


@pytest.mark.parametrize("length", [200, 400, 800])
def test_long_lines_agree_with_the_oracles(length):
    _agree(_line(length))


# Generated programs.  Well-formed ones declare every process for every
# procedure and address no action to its sender; merges of calls against
# other behaviours make many of them unprojectable.
PIDS = "pqrs"
_exprs = st.builds(cc.Lit, st.integers(0, 2)) | st.builds(cc.Ref, st.sampled_from("xy"))
_guards = st.builds(cc.Le, st.builds(cc.Ref, st.sampled_from("xy")), _exprs)


def _chors(names: list[str], well_formed: bool):
    pairs = st.tuples(st.sampled_from(PIDS), st.sampled_from(PIDS))
    if well_formed:
        pairs = pairs.filter(lambda t: t[0] != t[1])
    actions = st.builds(
        lambda pair, e, var: cc.Com(pair[0], e, pair[1], var), pairs, _exprs, st.sampled_from("xy")
    ) | st.builds(lambda pair, label: cc.Sel(pair[0], pair[1], label), pairs, st.sampled_from(cc.Label))
    pending = st.lists(st.sampled_from(PIDS), min_size=1, max_size=2, unique=well_formed)
    leaves = st.just(cc.End())
    if names:
        leaves |= st.builds(cc.Call, st.sampled_from(names))

    def extend(inner):
        out = st.builds(cc.Prefix, actions, inner) | st.builds(
            cc.Cond, st.sampled_from(PIDS), _guards, inner, inner
        )
        if names:
            out |= st.builds(cc.RunningCall, st.sampled_from(names), pending.map(tuple), inner)
        return out

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def _programs(draw, well_formed: bool = True) -> cc.ChorProgram:
    names = draw(st.lists(st.sampled_from("XY"), max_size=2, unique=True))
    chors = _chors(names, well_formed)
    procedures = {name: cc.Procedure(tuple(PIDS), draw(chors)) for name in names}
    return cc.ChorProgram(procedures, draw(chors))


@settings(max_examples=150, deadline=None)
@given(_programs())
def test_generated_programs_agree_with_the_oracles(prog):
    assert cc.wf_violations(prog) == []
    _agree(prog)


# The recursive definitions `cc._walk` follows: well-formedness, processes and
# called procedures.


def _well_formed(c: cc.Choreography) -> bool:
    if isinstance(c, cc.Prefix):
        return c.action.sender != c.action.receiver and _well_formed(c.cont)
    if isinstance(c, cc.Cond):
        return _well_formed(c.then_c) and _well_formed(c.else_c)
    if isinstance(c, cc.RunningCall):
        return len(set(c.pending)) == len(c.pending) and _well_formed(c.body)
    return True


def _processes(c: cc.Choreography) -> frozenset:
    if isinstance(c, cc.Prefix):
        return frozenset((c.action.sender, c.action.receiver)) | _processes(c.cont)
    if isinstance(c, cc.Cond):
        return frozenset((c.pid,)) | _processes(c.then_c) | _processes(c.else_c)
    if isinstance(c, cc.RunningCall):
        return frozenset(c.pending) | _processes(c.body)
    return frozenset()


def _called(c: cc.Choreography) -> frozenset:
    if isinstance(c, cc.Prefix):
        return _called(c.cont)
    if isinstance(c, cc.Cond):
        return _called(c.then_c) | _called(c.else_c)
    if isinstance(c, cc.Call):
        return frozenset((c.name,))
    if isinstance(c, cc.RunningCall):
        return frozenset((c.name,)) | _called(c.body)
    return frozenset()


@settings(max_examples=300, deadline=None)
@given(_programs(well_formed=False))
def test_term_walks_follow_their_recursive_definitions(prog):
    for _, term, _ in _sites(prog):
        for sub in _subterms(term):
            assert cc._walk(sub) == (_well_formed(sub), _processes(sub), _called(sub))
    assert cc.process_names(prog) == _processes(prog.main).union(*(
        proc.pids for proc in prog.procedures.values()
    ))
