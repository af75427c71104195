"""Automatic repair of unprojectable choreographies.

Wherever a conditional leaves some process unable to tell which branch was
taken, selections from the deciding process are inserted at the head of both
branches (left for then, right for else).  The output is projectable for every
process the repair was asked to cover.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from . import cc, sp
from .projection import Memo, projectable


def needs_selection(
    defs: Mapping[cc.ProcName, cc.Procedure],
    pid: cc.Pid,
    guard: cc.BExpr,
    pids: Sequence[cc.Pid],
    then_c: cc.Choreography,
    else_c: cc.Choreography,
    memo: Memo | None = None,
) -> list[cc.Pid]:
    """Processes from `pids` (order kept) that cannot project the conditional.

    The deciding process is always excluded: it knows its own choice.
    """
    cond = cc.Cond(pid, guard, then_c, else_c)
    memo = {} if memo is None else memo
    out = []
    for r in pids:
        if r == pid:
            continue
        if not projectable(defs, cond, r, memo):
            out.append(r)
    return out


def add_selections(
    sender: cc.Pid,
    label: cc.Label,
    receivers: Sequence[cc.Pid],
    c: cc.Choreography,
) -> cc.Choreography:
    """Prefix c with one selection from sender to each receiver, in list order."""
    out = c
    for r in reversed(receivers):
        out = cc.Prefix(cc.Sel(sender, r, label), out)
    return out


def amend(
    defs: Mapping[cc.ProcName, cc.Procedure],
    pids: Sequence[cc.Pid],
    c: cc.Choreography,
    memo: Memo | None = None,
    done: dict | None = None,
    inserted: list[int] | None = None,
    nested: bool = False,
) -> cc.Choreography:
    """Insert the selections needed to make c projectable on all of `pids`.

    Branches are repaired first; the processes still unable to project the
    repaired conditional then receive a selection in both branches.  Calls
    sharing the projection `memo` must share `defs`; each level then projects
    only what the levels below did not.  `nested` tells that c lies in a
    branch of a conditional being amended, which will project it: the
    projections of c's repaired conditionals on the processes they inform are
    then put in the memo too.  `done`, when given, maps terms to their
    amendments; calls sharing it must share `defs` and `pids` too, and then
    amend a shared subterm once.  `inserted`, when given, receives the number
    of selections put in each branch of each conditional amended here (not
    found in `done`).

    A run of prefixes is walked with a loop down to a term found in `done` or
    no prefix, and rebuilt on the way back up, so only conditionals and
    entered calls recurse.  Every prefix of the run goes into `done`: a check
    amends the residuals of the terms it steps, which are often suffixes of
    runs amended already.
    """
    memo = {} if memo is None else memo
    done = {} if done is None else done
    run = []  # the prefixes walked
    out = done.get(c)
    while out is None and isinstance(c, cc.Prefix):
        run.append(c)
        c = c.cont
        out = done.get(c)
    if out is None:
        if isinstance(c, cc.Cond):
            then_a = amend(defs, pids, c.then_c, memo, done, inserted, True)
            else_a = amend(defs, pids, c.else_c, memo, done, inserted, True)
            uninformed = needs_selection(defs, c.pid, c.guard, pids, then_a, else_a, memo)
            if inserted is not None:
                inserted.append(len(uninformed))
            out = cc.Cond(
                c.pid,
                c.guard,
                add_selections(c.pid, cc.Label.LEFT, uninformed, then_a),
                add_selections(c.pid, cc.Label.RIGHT, uninformed, else_a),
            )
            if nested:
                # A process the repair informs sees only its own selection in
                # either branch, and `needs_selection` has put the projections
                # of the amended branches, which every process has, in the memo.
                for r in uninformed:
                    memo[(out, r)] = sp.Offer(c.pid, memo[(then_a, r)], memo[(else_a, r)])
        elif isinstance(c, cc.RunningCall):
            body = amend(defs, pids, c.body, memo, done, inserted, nested)
            out = cc.RunningCall(c.name, c.pending, body)
        else:
            out = c  # Call, End
        done[c] = out
    while run:
        c = run.pop()
        out = done[c] = c if out is c.cont else cc.Prefix(c.action, out)
    return out


class Amendment:
    """A well-formed program's amendment for every process it uses.

    The procedure bodies and `main`, and any term the program reaches later
    (`term`), are amended against the original definitions through one
    projection memo and one cache of amended terms, so a term shared by
    several of them is amended once.
    """

    def __init__(self, prog: cc.ChorProgram):
        # Every process the program uses, in a fixed order so output is
        # reproducible.
        self.pids = sorted(cc.require_wf(prog))
        self.defs = prog.procedures
        self.memo: Memo = {}
        self._done: dict = {}
        self._inserted: list[int] = []
        self.procedures = {
            name: cc.Procedure(proc.pids, self.term(proc.body, self._inserted))
            for name, proc in prog.procedures.items()
        }
        self.main = self.term(prog.main, self._inserted)

    def term(self, c: cc.Choreography, inserted: list[int] | None = None) -> cc.Choreography:
        """The amendment of `c`, a term of the program or one it reaches;
        `inserted` is passed on to `amend`."""
        out = self._done.get(c)
        if out is None:
            out = self._done[c] = amend(self.defs, self.pids, c, self.memo, self._done, inserted)
        return out

    @property
    def max_insertions(self) -> int:
        """Most selections amendment inserts at any single conditional of the
        procedure bodies and `main`, as counted while amending them.

        Every inserted selection fires after its conditional's internal
        action, so a trace with k internal actions carries at most k times
        this many extra selections; searches on the amended side are bounded
        accordingly.
        """
        return max(self._inserted, default=0)


def amend_program(prog: cc.ChorProgram) -> cc.ChorProgram:
    """Amend a whole program for every process it uses."""
    amended = Amendment(prog)
    return cc.ChorProgram(amended.procedures, amended.main)


def _split_selections(labels: Iterable[cc.TransitionLabel]) -> tuple[tuple, tuple]:
    """A multiset of labels as its non-selection part and its selection part,
    each a tuple of label keys in order."""
    rest: list = []
    sels: list = []
    for t in labels:
        (sels if cc.is_selection(t) else rest).append(cc.label_key(t))
    return tuple(sorted(rest)), tuple(sorted(sels))


def sub_multiset(small: Sequence, big: Sequence) -> bool:
    """True when every item of `small` occurs in `big` at least as often; both
    are sorted."""
    if not small:
        return True
    n = len(big)
    if len(small) > n:
        return False
    j = 0
    for x in small:
        while j < n and big[j] < x:
            j += 1
        if j == n or big[j] != x:
            return False
        j += 1
    return True


def is_selection_expansion(
    base: Sequence[cc.TransitionLabel], expanded: Sequence[cc.TransitionLabel]
) -> bool:
    """True when `expanded` is a permutation of `base` plus extra selections.

    Equivalently: both have the same non-selection part, and the selections of
    `base` are a sub-multiset of those of `expanded`.
    """
    base_rest, base_sels = _split_selections(base)
    rest, sels = _split_selections(expanded)
    return base_rest == rest and sub_multiset(base_sels, sels)
