"""Automatic repair of unprojectable choreographies.

Wherever a conditional leaves some process unable to tell which branch was
taken, selections from the deciding process are inserted at the head of both
branches (left for then, right for else).  The output is projectable for every
process the repair was asked to cover.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from . import cc
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
) -> cc.Choreography:
    """Insert the selections needed to make c projectable on all of `pids`.

    Branches are repaired first; the processes still unable to project the
    repaired conditional then receive a selection in both branches.  Calls
    sharing the projection `memo` must share `defs`; each level then projects
    only what the levels below did not.
    """
    memo = {} if memo is None else memo
    if isinstance(c, cc.Prefix):
        return cc.Prefix(c.action, amend(defs, pids, c.cont, memo))
    if isinstance(c, cc.Cond):
        then_a = amend(defs, pids, c.then_c, memo)
        else_a = amend(defs, pids, c.else_c, memo)
        uninformed = needs_selection(defs, c.pid, c.guard, pids, then_a, else_a, memo)
        return cc.Cond(
            c.pid,
            c.guard,
            add_selections(c.pid, cc.Label.LEFT, uninformed, then_a),
            add_selections(c.pid, cc.Label.RIGHT, uninformed, else_a),
        )
    if isinstance(c, cc.RunningCall):
        return cc.RunningCall(c.name, c.pending, amend(defs, pids, c.body, memo))
    return c  # Call, End


def amend_defs(
    defs: Mapping[cc.ProcName, cc.Procedure],
    pids: Sequence[cc.Pid],
    memo: Memo | None = None,
) -> dict[cc.ProcName, cc.Procedure]:
    """Amend every procedure body pointwise, against the original definitions."""
    memo = {} if memo is None else memo
    return {
        name: cc.Procedure(proc.pids, amend(defs, pids, proc.body, memo))
        for name, proc in defs.items()
    }


def amend_pids(prog: cc.ChorProgram) -> list[cc.Pid]:
    """The process list amendment covers for a program: everything it uses,
    in a fixed lexicographic order so output is reproducible."""
    return sorted(cc.process_names(prog))


def amend_program(prog: cc.ChorProgram) -> cc.ChorProgram:
    """Amend a whole program for every process it uses."""
    problems = cc.wf_violations(prog)
    if problems:
        raise cc.IllFormedError("; ".join(problems))
    pids = amend_pids(prog)
    memo: Memo = {}
    return cc.ChorProgram(
        amend_defs(prog.procedures, pids, memo),
        amend(prog.procedures, pids, prog.main, memo),
    )


def is_selection_expansion(
    base: Sequence[cc.TransitionLabel], expanded: Sequence[cc.TransitionLabel]
) -> bool:
    """True when `expanded` is a permutation of `base` plus extra selections.

    Equivalently: the multiset difference expanded - base is well-defined and
    contains selection labels only.
    """
    missing = Counter(base) - Counter(expanded)
    if missing:
        return False
    extra = Counter(expanded) - Counter(base)
    return all(cc.is_selection(t) for t in extra)
