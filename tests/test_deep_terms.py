"""Terms far deeper than the interpreter's default recursion limit.

Well-formedness, process names, projection, EPP and amendment walk a run of
prefixes with a loop and recurse only at conditionals and entered calls, so a
5,000-interaction line and a 400-level chain of conditionals go through them
under the default limit.  Parsing, rendering, `projection._merge`,
`projection._with_instances` and `sp._self_addressed` still recurse (ROADMAP
item 3).
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from test_interning import _chain, _line
from chorkit import amendment, cc, projection, sp

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
    assert (problems, names, failures) == ([], frozenset("abcd"), [])
    # Each process of the ring takes part in two of every four interactions.
    assert {p: _actions(network.net.get(p)) for p in "abcd"} == dict.fromkeys("abcd", 2500)
    assert amended.main is prog.main


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
