"""Terms far deeper than the interpreter's default recursion limit.

Parsing is one loop with a stack of the open conditionals, and counts a tower
of `succ(` in a loop.  Well-formedness, process names, projection, EPP and
amendment walk a run of prefixes with a loop and recurse only at conditionals
and entered calls, so a 5,000-interaction line and a 400-level chain of
conditionals go through them under the default limit; EPP names each
participant's procedure instances while it projects.  The network check
`sp.require_wf` walks with an explicit stack and visits shared subterms once.
`repr` of a term expands nodes off a stack, so a deep witness prints in a
`--json` report.  Merging walks the run of prefixes two behaviours share
with a loop too, so the branches of a conditional may share 5,000
interactions.  The projection failure search skips each site's leading run
of prefixes.  Behaviours render off an explicit stack, and a tower of `succ`
is evaluated and rendered by counting its layers in a loop; rendering a
choreography still recurses once per prefix (ROADMAP item 7).  A hash-consed
tower of conditionals whose branches are one node goes through
well-formedness, projection and amendment, which enter each conditional once.
The amendment checks pick witnesses in the order they reached configurations,
so they run at depth 1 on a 5,000-interaction line too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from test_interning import PIDS, _chain, _line, behaviours
from test_interning import _dataclass_repr
from chorkit import amendment, cc, cli, projection, sp, syntax, verifier

DEFAULT_LIMIT = 1000  # CPython's


@contextmanager
def recursion_limit(limit: int):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _actions(b: sp.Behaviour) -> int:
    """How many sends and receives a behaviour without branches runs."""
    n = 0
    while isinstance(b, (sp.Send, sp.Recv)):
        n, b = n + 1, b.cont
    assert b is sp.End()
    return n


def test_a_5000_interaction_line():
    prog = _line(5000)
    with recursion_limit(DEFAULT_LIMIT):
        problems = cc.wf_violations(prog)
        names = cc.process_names(prog)
        failures = projection.project_failures(prog)
        network = projection.epp(prog)
        amended = amendment.amend_program(prog)
        restricted = projection.restrict(prog.main, names)
    assert (problems, names, failures) == ([], frozenset("abcd"), [])
    assert restricted is prog.main
    # Each process of the ring takes part in two of every four interactions.
    assert {p: _actions(network.net.get(p)) for p in "abcd"} == dict.fromkeys("abcd", 2500)
    assert amended.main is prog.main


def test_the_failure_search_projects_only_the_end_of_a_5000_interaction_line(monkeypatch):
    """A prefix never fails, so `project_failures` projects each process
    from the term that ends the line, once, and from nothing above it."""
    prog = _line(5000)
    calls = []
    project = projection._bproj

    def spy(defs, c, r, memo, instances=False):
        calls.append((c, r))
        return project(defs, c, r, memo, instances)

    monkeypatch.setattr(projection, "_bproj", spy)
    with recursion_limit(DEFAULT_LIMIT):
        assert projection.project_failures(prog) == []
    assert calls == [(cc.End(), p) for p in "abcd"]


def test_rendering_a_5000_action_behaviour():
    """Sends, receives, selections and single-option offers, 5,000 deep, then
    a conditional and an offer of two options; the loop renders what the
    recursive oracle renders."""
    b = sp.Cond(cc.Eq(cc.Ref("x"), cc.Lit(0)), sp.Call("X"),
                sp.Offer("q", sp.End(), sp.Recv("q", "y", sp.End())))
    for i in reversed(range(5000)):
        kind = i % 5
        if kind == 0:
            b = sp.Send("q", cc.Lit(i % 10), b)
        elif kind == 1:
            b = sp.Recv("q", "x", b)
        elif kind == 2:
            b = sp.Choose("q", cc.Label.RIGHT, b)
        elif kind == 3:
            b = sp.Offer("q", b, None)
        else:
            b = sp.Offer("q", None, b)
    network = projection.epp(_line(5000)).net
    with recursion_limit(DEFAULT_LIMIT):
        text = syntax.render_behaviour(b)
        shown = syntax.render_network(network)
    with recursion_limit(20_000):  # the oracle recurses once per action
        assert text == oracles.render_behaviour(b)
        assert shown.splitlines() == [
            f"{p}[ {oracles.render_behaviour(network.get(p))} ]" for p in "abcd"]
    assert text.startswith("q!0; q?x; q+right; q & { left: q & { right: q!5; ")
    assert text.endswith("if x == 0 then { call X } else { q & { left: end, right: q?y; end } }"
                         + " }" * 2000)


def test_a_5000_high_succ_tower(tmp_path, capsys):
    """One interaction sends a tower of 5,000 `succ`: every command takes it
    under the default limit, and a run computes 5,000."""
    tower = "succ(" * 5000 + "0" + ")" * 5000
    source = tmp_path / "tower.chor"
    source.write_text(f"main = p.{tower} -> q.x; end\n", encoding="utf-8")
    commands = [["check"], ["project"], ["amend"], ["run", "--all"], ["run", "--seed", "1"],
                ["verify", "epp"], ["verify", "naive"], ["verify", "amend-complete"]]
    with recursion_limit(DEFAULT_LIMIT):
        e = syntax.parse_source(source.read_text(encoding="utf-8")).main.action.expr
        assert cc.eval_expr(e, cc.State(), "p") == 5000
        assert syntax.render_expr(e) == tower
        codes = [cli.main([*command, str(source)]) for command in commands]
    captured = capsys.readouterr()
    assert (codes, captured.err) == ([0] * 8, "")
    assert f"p[ q!{tower}; end ]\nq[ p?x; end ]\n" in captured.out
    assert f"main =\n  p.{tower} -> q.x;\n  end\n" in captured.out
    assert captured.out.count("final state: q.x = 5000\n") == 2


def test_a_400_level_chain():
    prog = _chain(400)
    with recursion_limit(DEFAULT_LIMIT):
        problems = cc.wf_violations(prog)
        failures = projection.project_failures(prog)
        amended = amendment.amend_program(prog)
        still = projection.project_failures(amended)
    assert problems == []
    conds = []  # the chain's conditionals, outermost first
    c = prog.main
    while isinstance(c, cc.Prefix):
        conds.append(c.cont)
        c = c.cont.then_c.cont
    assert len(conds) == 400
    # Neither q nor r can tell apart the branches of level 399, which p
    # decides; p first fails a level up, at 398, whose branches send it
    # different messages.
    blamed = {f.process: conds.index(f.term) for f in failures}
    assert blamed == {"p": 398, "q": 399, "r": 399}
    assert {f.site for f in failures} == {"main"}
    assert still == []


def test_parsing_deep_sources():
    progs = [_line(5000), _chain(400)]
    with recursion_limit(20_000):  # rendering recurses once per level
        texts = [syntax.render_program(prog) for prog in progs]
    tower = "main = p.x -> q.y;\nif q.y <= " + "succ(" * 5000 + "0" + ")" * 5000 + (
        " then { end } else { end }\n")
    with recursion_limit(DEFAULT_LIMIT):
        parsed = [syntax.parse_source(text).main for text in texts]
        guard = syntax.parse_source(tower).main.cont.guard
    # Hash-consing makes an equal term the very same object.
    assert all(got is prog.main for got, prog in zip(parsed, progs))
    e, depth = guard.right, 0
    while isinstance(e, cc.Succ):
        e, depth = e.arg, depth + 1
    assert (guard.left, e, depth) == (cc.Ref("y"), cc.Lit(0), 5000)


def _self_addressed(p: cc.Pid, b: sp.Behaviour) -> bool:
    """The definition: some action of `b`, in any branch, addresses `p`."""
    if isinstance(b, (sp.Send, sp.Choose)):
        return b.dst == p or _self_addressed(p, b.cont)
    if isinstance(b, sp.Recv):
        return b.src == p or _self_addressed(p, b.cont)
    if isinstance(b, sp.Offer):
        return b.src == p or any(
            opt is not None and _self_addressed(p, opt) for opt in (b.left, b.right))
    if isinstance(b, sp.Cond):
        return _self_addressed(p, b.then_b) or _self_addressed(p, b.else_b)
    return False


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PIDS), behaviours)
def test_self_addressed_follows_its_definition(p, b):
    assert sp._self_addressed(p, b) == _self_addressed(p, b)
    assert sp.network_wf(sp.Network({p: b})) == (not _self_addressed(p, b))


def test_a_shared_tower_of_40_conditionals():
    # Both branches of each level are one node, so the tower has 40
    # conditionals but 2**40 paths; the walk visits each node once.
    guard = cc.Le(cc.Ref("x"), cc.Lit(0))
    for leaf, addressed in ((sp.Send("q", cc.Lit(1), sp.End()), False),
                            (sp.Choose("p", cc.Label.LEFT, sp.End()), True)):
        b = leaf
        for _ in range(40):
            b = sp.Cond(guard, b, b)
        began = time.perf_counter()
        with recursion_limit(DEFAULT_LIMIT):
            assert sp._self_addressed("p", b) is addressed
            assert sp.network_wf(sp.Network({"p": b})) is not addressed
        assert time.perf_counter() - began < 1.0


TOWER = """
from chorkit import amendment, cc, projection
guard = cc.Le(cc.Ref("x"), cc.Lit(0))
c = cc.Prefix(cc.Com("q", cc.Lit(1), "r", "y"), cc.End())
for _ in range(40):
    c = cc.Cond("p", guard, c, c)
prog = cc.ChorProgram({}, c)
print(cc.wf_violations(prog), sorted(cc.process_names(prog)))
print(projection.project_failures(prog), projection.epp(prog).net.get("r"))
print(amendment.amend_program(prog).main is c)
print(projection.restrict(c, frozenset("pqr")) is c, projection.restrict(c, frozenset("s")))
"""


def test_a_shared_tower_of_40_chor_conditionals():
    """40 conditionals but 2**40 paths: a walk that followed every path would
    not end, so the tower runs in a fresh interpreter that can be stopped."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", TOWER], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[] ['p', 'q', 'r']",
        "[] Recv(src='q', var='y', cont=End())",
        "True",
        "True End()",
    ]


def test_require_wf_on_the_projection_of_a_5000_interaction_line():
    network = projection.epp(_line(5000)).net
    with recursion_limit(DEFAULT_LIMIT):
        sp.require_wf(network)
        assert sp.network_wf(network)
    # A self-addressed send below 5,000 receives.
    deep = sp.Send("a", cc.Lit(0), sp.End())
    for _ in range(5000):
        deep = sp.Recv("b", "x", deep)
    with recursion_limit(DEFAULT_LIMIT):
        assert not sp.network_wf(network.set("a", deep))


def test_a_5000_interaction_line_ending_in_a_call():
    """EPP names each process's instance at the bottom of its 2,500 actions,
    and the EPP check holds on it."""
    line = _line(5000)
    body = cc.Prefix(cc.Com("a", cc.Lit(1), "b", "y"), cc.End())
    c = cc.Call("X")
    prefixes = []
    term = line.main
    while isinstance(term, cc.Prefix):
        prefixes.append(term.action)
        term = term.cont
    for eta in reversed(prefixes):
        c = cc.Prefix(eta, c)
    prog = cc.ChorProgram({"X": cc.Procedure(("a", "b"), body)}, c)
    with recursion_limit(DEFAULT_LIMIT):
        network = projection.epp(prog)
        report = verifier.check_epp_correspondence(prog, cc.State(), 4)
    assert report.verdict == verifier.HOLDS
    for p in "abcd":
        b = network.net.get(p)
        while isinstance(b, (sp.Send, sp.Recv)):
            b = b.cont
        assert b == (sp.Call(f"X@{p}") if p in "ab" else sp.End()), p


def test_checks_at_depth_1_on_a_5000_interaction_line_ending_apart():
    """A line of `p -> q` interactions ending in `r.0 -> s.y`, which can fire
    first.  The start and the configuration it reaches differ only at the
    bottom of the line, and a witness is picked in the order configurations
    were reached, so no check compares the two."""
    c = cc.Prefix(cc.Com("r", cc.Lit(0), "s", "y"), cc.End())
    for i in reversed(range(5000)):
        c = cc.Prefix(cc.Com("p", cc.Lit(i % 10), "q", "x"), c)
    prog = cc.ChorProgram({}, c)
    checks = (
        verifier.check_naive_correspondence,
        verifier.check_amend_complete,
        verifier.check_amend_sound,
        verifier.check_intermediate_formulation,
    )
    with recursion_limit(DEFAULT_LIMIT):
        reports = [check(prog, cc.State(), 1) for check in checks]
    assert [r.verdict for r in reports] == [verifier.HOLDS] * 4


def test_repr_of_a_5000_interaction_line():
    prog = _line(5000)
    behaviour = projection.epp(prog).net.get("a")
    with recursion_limit(DEFAULT_LIMIT):
        text = repr(prog.main)
        shown = repr(behaviour)
    ring = "abcd"
    assert text == "".join(
        f"Prefix(action=Com(sender={ring[i % 4]!r}, expr=Lit(value={i % 10}), "
        f"receiver={ring[(i + 1) % 4]!r}, var='x'), cont="
        for i in range(5000)
    ) + "End()" + ")" * 5000
    with recursion_limit(20_000):  # the reference repr recurses once per level
        assert shown == _dataclass_repr(behaviour)


def test_json_report_of_a_deep_witness(tmp_path, capsys):
    """`--json` prints the witness term, here 3,002 interactions deep, and
    exits 1 with the counterexample the text form reports."""
    source = tmp_path / "deep.chor"
    source.write_text(
        "main = p.e -> q.x; if r.flag == 0 then { r.e2 -> p.y; "
        + " ".join(f"a.{i % 10} -> b.x;" for i in range(3000))
        + " end } else { end }\n"
    )
    argv = ["verify", "naive", str(source), "--depth", "1"]
    with recursion_limit(DEFAULT_LIMIT):
        codes = [cli.main(argv), cli.main(argv + ["--json"])]
    text, shown = capsys.readouterr().out.split("\n{", 1)
    report = json.loads("{" + shown)
    assert codes == [1, 1]
    assert report["verdict"] == verifier.COUNTEREXAMPLE
    assert f"witness trace: {', '.join(report['witness']['trace'])}" in text
    assert report["witness"]["term"].count("Prefix(") == 3002


def _shared_run(n: int, then_end: cc.Choreography, else_end: cc.Choreography) -> cc.ChorProgram:
    """A conditional p decides whose branches share n interactions between q
    and r, then end in `then_end` and `else_end`."""
    def branch(c: cc.Choreography) -> cc.Choreography:
        for i in reversed(range(n)):
            c = cc.Prefix(cc.Com("q", cc.Lit(i % 10), "r", "x"), c)
        return c

    guard = cc.Eq(cc.Ref("x"), cc.Lit(0))
    return cc.ChorProgram({}, cc.Cond("p", guard, branch(then_end), branch(else_end)))


def _last_send(v: int) -> cc.Choreography:
    return cc.Prefix(cc.Com("r", cc.Lit(v), "q", "z"), cc.End())


def _last_selection(label: cc.Label) -> cc.Choreography:
    return cc.Prefix(cc.Sel("p", "r", label), cc.End())


def test_merging_branches_that_share_5000_interactions():
    """r cannot tell apart branches that differ only in its own last send,
    while a last selection from p lets it; the merge is the recursive
    definition's."""
    differ = _shared_run(5000, _last_send(1), _last_send(2))
    selects = _shared_run(5000, _last_selection(cc.Label.LEFT), _last_selection(cc.Label.RIGHT))
    memo: dict = {}
    pairs = [
        tuple(projection.bproj({}, branch, "r", memo) for branch in (c.then_c, c.else_c))
        for c in (differ.main, selects.main)
    ]
    with recursion_limit(DEFAULT_LIMIT):
        merged = [projection.merge(*pair) for pair in pairs]
        failures = [projection.project_failures(prog) for prog in (differ, selects)]
    assert merged[0] is None
    assert failures == [[projection.ProjectionFailure("r", differ.main, "main")], []]
    with recursion_limit(20_000):  # the reference merge recurses once per prefix
        want = oracles._merge(*pairs[1])
    assert merged[1] is want
    b = merged[1]
    for _ in range(5000):
        b = b.cont
    assert b == sp.Offer("p", sp.End(), sp.End())


def _merge_source(then_last: str, else_last: str) -> str:
    run = " ".join(f"q.{i % 10} -> r.x;" for i in range(1500))
    return (f"main = if p.x == 0 then {{ {run} {then_last} end }}"
            f" else {{ {run} {else_last} end }}\n")


def test_the_cli_on_branches_that_share_1500_interactions(tmp_path, capsys):
    """`check` and `verify epp` name r's failure when the branches differ in
    r's last send, and pass when they differ only in p's last selection to
    r.  `project` renders r's 1,500 receives and its offer in a loop;
    rendering the amendment still recurses once per prefix."""
    differ = tmp_path / "differ.chor"
    differ.write_text(_merge_source("r.1 -> q.z;", "r.2 -> q.z;"), encoding="utf-8")
    selects = tmp_path / "selects.chor"
    selects.write_text(_merge_source("p -> r[left];", "p -> r[right];"), encoding="utf-8")
    runs = [
        (["check", str(differ)], 1),
        (["verify", "epp", str(differ)], 1),
        (["check", str(selects)], 0),
        (["verify", "epp", str(selects), "--depth", "3"], 0),
        (["project", str(selects)], 0),
        (["amend", str(selects)], 2),
    ]
    with recursion_limit(DEFAULT_LIMIT):
        codes = [cli.main(argv) for argv, _ in runs]
    captured = capsys.readouterr()
    assert codes == [code for _, code in runs]
    term = "if p.x == 0 then { q.0 -> r.x; q.1 -> r.x; q.2 -> r.x; q.3 -> r.x; q...."
    failure = f"cannot project for r (in main): {term}\n"
    deep = f"error: {selects}: nested too deeply to process\n"
    assert captured.err == failure * 2 + deep
    assert "ok: well-formed and projectable" in captured.out
    assert "verdict: holds-within-bound" in captured.out
    receives = "q?x; " * 1500
    assert f"\nr[ {receives}p & {{ left: end, right: end }} ]\n" in captured.out
