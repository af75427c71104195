"""Compiling choreographies to networks: merging, projection, and EPP.

Projection extracts the local behaviour one process must run to play its part
in a choreography.  For a conditional it evaluates, a process gets a local
conditional; for one it does not, the two branch projections are merged, which
succeeds only when the process can act without knowing the outcome (identical
behaviour, or branch offers distinguished by incoming selection labels).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from . import cc, sp


class _Undefined(Exception):
    """Internal: merging or projection failed."""


def _merge(b1: sp.Behaviour, b2: sp.Behaviour) -> sp.Behaviour:
    if b1 is b2:
        # Behaviours are hash-consed, and merging one with itself gives it back.
        return b1
    if type(b1) is not type(b2):
        raise _Undefined
    if isinstance(b1, sp.End):
        return b1
    if isinstance(b1, sp.Send):
        if (b1.dst, b1.expr) != (b2.dst, b2.expr):
            raise _Undefined
        return sp.Send(b1.dst, b1.expr, _merge(b1.cont, b2.cont))
    if isinstance(b1, sp.Recv):
        if (b1.src, b1.var) != (b2.src, b2.var):
            raise _Undefined
        return sp.Recv(b1.src, b1.var, _merge(b1.cont, b2.cont))
    if isinstance(b1, sp.Choose):
        if (b1.dst, b1.label) != (b2.dst, b2.label):
            raise _Undefined
        return sp.Choose(b1.dst, b1.label, _merge(b1.cont, b2.cont))
    if isinstance(b1, sp.Cond):
        if b1.guard != b2.guard:
            raise _Undefined
        return sp.Cond(b1.guard, _merge(b1.then_b, b2.then_b), _merge(b1.else_b, b2.else_b))
    if isinstance(b1, sp.Call):
        if b1.name != b2.name:
            raise _Undefined
        return b1
    if isinstance(b1, sp.Offer):
        if b1.src != b2.src:
            raise _Undefined
        return sp.Offer(
            b1.src,
            _merge_option(b1.left, b2.left),
            _merge_option(b1.right, b2.right),
        )
    raise TypeError(f"not a behaviour: {b1!r}")


def _merge_option(
    o1: Optional[sp.Behaviour], o2: Optional[sp.Behaviour]
) -> Optional[sp.Behaviour]:
    if o1 is None:
        return o2
    if o2 is None:
        return o1
    return _merge(o1, o2)


def merge(b1: sp.Behaviour, b2: sp.Behaviour) -> Optional[sp.Behaviour]:
    """Combine two candidate behaviours for one process, None when impossible.

    Branch offers on the same partner combine slot-wise; every other
    constructor must match exactly and merging recurses into continuations.
    """
    try:
        return _merge(b1, b2)
    except _Undefined:
        return None


Memo = dict  # (term, process) -> its projection, or the conditional blamed


def _bproj(
    defs: Mapping[cc.ProcName, cc.Procedure], c: cc.Choreography, r: cc.Pid, memo: Memo
) -> sp.Behaviour:
    """Project c on r, raising _Undefined with the innermost conditional whose
    branch merge fails.  `memo` belongs to one pass over fixed `defs`; since
    terms are hash-consed its hits are exact.

    A run of prefixes is walked with a loop down to a memo hit or a term that
    is no prefix, that tail is projected, and the behaviours of the run's
    actions on r are built on the way back up; only the run's head and its
    tail are memoised.  A run therefore takes no stack frame per prefix, and
    only conditionals and entered calls recurse."""
    out = memo.get((c, r))
    if out is not None:
        if isinstance(out, cc.Cond):
            raise _Undefined(out)
        return out
    head = c
    mine = []  # the run's actions that involve r
    while isinstance(c, cc.Prefix):
        eta = c.action
        if r == eta.sender or r == eta.receiver:
            mine.append(eta)
        c = c.cont
        out = memo.get((c, r))
        if out is not None:
            if isinstance(out, cc.Cond):
                memo[(head, r)] = out
                raise _Undefined(out)
            break
    else:
        if isinstance(c, cc.Cond):
            then_b = _bproj(defs, c.then_c, r, memo)
            else_b = _bproj(defs, c.else_c, r, memo)
            if r == c.pid:
                out = sp.Cond(c.guard, then_b, else_b)
            else:
                out = merge(then_b, else_b)
                if out is None:
                    # A failure is memoised as the conditional it blames.
                    memo[(c, r)] = memo[(head, r)] = c
                    raise _Undefined(c)
        elif isinstance(c, cc.Call):
            proc = defs.get(c.name)
            out = sp.Call(c.name) if proc is not None and r in proc.pids else sp.End()
        elif isinstance(c, cc.RunningCall):
            out = sp.Call(c.name) if r in c.pending else _bproj(defs, c.body, r, memo)
        else:
            out = sp.End()
        memo[(c, r)] = out
    while mine:
        eta = mine.pop()
        if isinstance(eta, cc.Com):
            if r == eta.sender:
                out = sp.Send(eta.receiver, eta.expr, out)
            else:
                out = sp.Recv(eta.sender, eta.var, out)
        elif r == eta.sender:
            out = sp.Choose(eta.receiver, eta.label, out)
        elif eta.label is cc.Label.LEFT:
            out = sp.Offer(eta.sender, out, None)
        else:
            out = sp.Offer(eta.sender, None, out)
    if head is not c:
        memo[(head, r)] = out
    return out


def bproj(
    defs: Mapping[cc.ProcName, cc.Procedure],
    c: cc.Choreography,
    r: cc.Pid,
    memo: Memo | None = None,
) -> Optional[sp.Behaviour]:
    """Project a choreography onto one process; None when unprojectable.

    Calls sharing `memo` must share `defs`."""
    try:
        return _bproj(defs, c, r, {} if memo is None else memo)
    except _Undefined:
        return None


def blame(
    defs: Mapping[cc.ProcName, cc.Procedure],
    c: cc.Choreography,
    r: cc.Pid,
    memo: Memo | None = None,
) -> Optional[cc.Choreography]:
    """The innermost conditional whose branch merge fails when projecting on r."""
    try:
        _bproj(defs, c, r, {} if memo is None else memo)
        return None
    except _Undefined as exc:
        return exc.args[0]


def projectable(
    defs: Mapping[cc.ProcName, cc.Procedure],
    c: cc.Choreography,
    r: cc.Pid,
    memo: Memo | None = None,
) -> bool:
    return bproj(defs, c, r, memo) is not None


@dataclass(frozen=True)
class ProjectionFailure:
    """One (term, process) pair at which projection is undefined."""

    process: cc.Pid
    term: cc.Choreography
    site: str  # "main" or the procedure name


class UnprojectableError(ValueError):
    """EPP is undefined; carries every failing (term, process) pair."""

    def __init__(self, failures: list[ProjectionFailure]):
        self.failures = failures
        parts = [f"({f.site}, {f.process})" for f in failures]
        super().__init__("cannot project at " + ", ".join(parts))


def instance_name(name: cc.ProcName, p: cc.Pid) -> cc.ProcName:
    """Behaviour-procedure name for one participant of a choreographic procedure."""
    return f"{name}@{p}"


def _with_instances(b: sp.Behaviour, p: cc.Pid) -> sp.Behaviour:
    if isinstance(b, sp.Send):
        return sp.Send(b.dst, b.expr, _with_instances(b.cont, p))
    if isinstance(b, sp.Recv):
        return sp.Recv(b.src, b.var, _with_instances(b.cont, p))
    if isinstance(b, sp.Choose):
        return sp.Choose(b.dst, b.label, _with_instances(b.cont, p))
    if isinstance(b, sp.Offer):
        left = None if b.left is None else _with_instances(b.left, p)
        right = None if b.right is None else _with_instances(b.right, p)
        return sp.Offer(b.src, left, right)
    if isinstance(b, sp.Cond):
        return sp.Cond(b.guard, _with_instances(b.then_b, p), _with_instances(b.else_b, p))
    if isinstance(b, sp.Call):
        return sp.Call(instance_name(b.name, p))
    return b


def project_failures(
    prog: cc.ChorProgram, memo: Memo | None = None, names: frozenset[cc.Pid] | None = None
) -> list[ProjectionFailure]:
    """Every (term, process) pair at which EPP of the program is undefined;
    `names`, when given, are the program's `cc.process_names`."""
    memo = {} if memo is None else memo
    failures: list[ProjectionFailure] = []
    for p in sorted(cc.process_names(prog) if names is None else names):
        term = blame(prog.procedures, prog.main, p, memo)
        if term is not None:
            failures.append(ProjectionFailure(p, term, "main"))
    for name in sorted(prog.procedures):
        proc = prog.procedures[name]
        for p in proc.pids:
            term = blame(prog.procedures, proc.body, p, memo)
            if term is not None:
                failures.append(ProjectionFailure(p, term, name))
    return failures


def projectable_program(prog: cc.ChorProgram) -> bool:
    return not project_failures(prog)


def epp(prog: cc.ChorProgram) -> sp.SPProgram:
    """Endpoint projection of a whole program.

    The network maps each used process to its main projection; each
    choreographic procedure becomes one behaviour procedure per participant,
    and projected calls reference the participant's own instance.

    Raises IllFormedError on ill-formed programs and UnprojectableError (with
    the full failure report) when any required projection is undefined.
    """
    cc.require_wf(prog)
    memo: Memo = {}
    names = cc.process_names(prog)
    failures = project_failures(prog, memo, names)
    if failures:
        raise UnprojectableError(failures)
    net: dict[cc.Pid, sp.Behaviour] = {}
    for p in sorted(names):
        body = _bproj(prog.procedures, prog.main, p, memo)
        # Without procedures no call can occur, and the copy would change nothing.
        net[p] = _with_instances(body, p) if prog.procedures else body
    procedures: dict[cc.ProcName, sp.Behaviour] = {}
    for name in sorted(prog.procedures):
        proc = prog.procedures[name]
        for p in proc.pids:
            body = _bproj(prog.procedures, proc.body, p, memo)
            procedures[instance_name(name, p)] = _with_instances(body, p)
    return sp.SPProgram(procedures, sp.Network(net), names)
