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
    """`merge`, raising _Undefined where it gives None.

    The run of `Send`, `Recv` and `Choose` prefixes the two behaviours share
    is walked with a loop down to the first pair that is no such prefix, and
    the merged run is built on the way back up.  A run therefore takes no
    stack frame per prefix, and only conditionals and offers recurse, as in
    `_bproj`."""
    run = []  # (constructor, head fields) of each shared prefix, outermost first
    # Behaviours are hash-consed, and merging one with itself gives it back.
    while b1 is not b2:
        kind = type(b1)
        if kind is not type(b2):
            raise _Undefined
        if kind is sp.Send:
            head = (b1.dst, b1.expr)
            if head != (b2.dst, b2.expr):
                raise _Undefined
        elif kind is sp.Recv:
            head = (b1.src, b1.var)
            if head != (b2.src, b2.var):
                raise _Undefined
        elif kind is sp.Choose:
            head = (b1.dst, b1.label)
            if head != (b2.dst, b2.label):
                raise _Undefined
        else:
            b1 = _merge_branching(b1, b2)
            break
        run.append((kind, head))
        b1, b2 = b1.cont, b2.cont
    while run:
        kind, head = run.pop()
        b1 = kind(*head, b1)
    return b1


def _merge_branching(b1: sp.Behaviour, b2: sp.Behaviour) -> sp.Behaviour:
    """The merge of two distinct behaviours of one type that is no prefix."""
    if isinstance(b1, sp.End):
        return b1
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
    constructor must match exactly, and continuations are merged in turn.
    """
    try:
        return _merge(b1, b2)
    except _Undefined:
        return None


Memo = dict  # (term, process) -> its projection, or the conditional blamed


def _bproj(
    defs: Mapping[cc.ProcName, cc.Procedure],
    c: cc.Choreography,
    r: cc.Pid,
    memo: Memo,
    instances: bool = False,
) -> sp.Behaviour:
    """Project c on r, raising _Undefined with the innermost conditional whose
    branch merge fails.  With `instances`, each call names r's instance of the
    procedure it calls.  `memo` belongs to one pass over fixed `defs` and
    `instances`; since terms are hash-consed its hits are exact.

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
            then_b = _bproj(defs, c.then_c, r, memo, instances)
            else_b = _bproj(defs, c.else_c, r, memo, instances)
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
            if proc is not None and r in proc.pids:
                out = sp.Call(instance_name(c.name, r) if instances else c.name)
            else:
                out = sp.End()
        elif isinstance(c, cc.RunningCall):
            if r in c.pending:
                out = sp.Call(instance_name(c.name, r) if instances else c.name)
            else:
                out = _bproj(defs, c.body, r, memo, instances)
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
    """The innermost conditional whose branch merge fails when projecting on r.

    A prefix projects to an action, or to nothing, before its continuation's
    projection, so it never fails and never changes which conditional is
    blamed.  The leading run of prefixes is therefore skipped, and only the
    term that ends it is projected: a long line costs one step per prefix,
    not a behaviour built per process."""
    while isinstance(c, cc.Prefix):
        c = c.cont
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


def project_failures(
    prog: cc.ChorProgram, names: frozenset | None = None
) -> list[ProjectionFailure]:
    """Every (term, process) pair at which EPP of the program is undefined;
    `names`, when given, are the program's `cc.process_names`.

    Each site is searched with `blame`, so a run of prefixes leading `main`
    or a body, which cannot fail, builds no behaviour."""
    memo: Memo = {}
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
    names = cc.require_wf(prog)
    memo: Memo = {}
    defs = prog.procedures
    failures: list[ProjectionFailure] = []

    def project(c: cc.Choreography, p: cc.Pid, site: str) -> Optional[sp.Behaviour]:
        try:
            return _bproj(defs, c, p, memo, True)
        except _Undefined as exc:
            failures.append(ProjectionFailure(p, exc.args[0], site))
            return None

    net = {p: project(prog.main, p, "main") for p in sorted(names)}
    procedures = {
        instance_name(name, p): project(defs[name].body, p, name)
        for name in sorted(defs)
        for p in defs[name].pids
    }
    if failures:
        raise UnprojectableError(failures)
    return sp.SPProgram(procedures, sp.Network(net), names)


def independent_groups(prog: cc.ChorProgram, compiled: sp.SPProgram) -> list[frozenset]:
    """The processes of a procedure-free program and of a network for it, in
    groups that never interact, ordered by their least process, for the EPP
    check to walk apart; [] when the program's processes form one group,
    when it has procedures, and when the network calls one or addresses a
    process the program lacks: the check then walks them all together.

    The groups are closed under the endpoints of each interaction, a
    conditional's deciding process with every process in its branches, and
    each network behaviour with the partners of its actions in any branch.
    The network is read for itself, so a projection that couples two groups
    of the choreography couples them here too.  The walk stops as soon as one
    group holds every process.
    """
    if prog.procedures or compiled.procedures:
        return []
    net = compiled.net._map
    names = compiled.processes if compiled.processes is not None else cc.process_names(prog)
    group = {p: {p} for p in names.union(net)}
    total = len(group)
    if total < 2:
        return []

    def join(p: cc.Pid, q: cc.Pid) -> bool:
        """Merge the groups of p and q; whether one holds every process."""
        gp, gq = group[p], group[q]
        if gp is not gq:
            if len(gp) < len(gq):
                gp, gq = gq, gp
            gp |= gq
            for x in gq:
                group[x] = gp
        return len(gp) == total

    # Runs are walked with a loop.  A conditional is entered once per
    # deciding process around it, and a branching behaviour once per
    # process, so branches shared down a tower are walked once.
    seen: set = set()
    todo: list = [(prog.main, None)]  # (term, decider of the conditional around it)
    while todo:
        c, decider = todo.pop()
        while type(c) is cc.Prefix:
            eta = c.action
            if join(eta.sender, eta.receiver) or (
                decider is not None and join(decider, eta.sender)
            ):
                return []
            c = c.cont
        if type(c) is cc.Cond and (c, decider) not in seen:
            seen.add((c, decider))
            if decider is not None and join(decider, c.pid):
                return []
            todo += ((c.then_c, c.pid), (c.else_c, c.pid))
    for p, b in net.items():
        seen = set()
        stack = [b]
        while stack:
            b = stack.pop()
            while True:
                kind = type(b)
                if kind is sp.Send or kind is sp.Choose:
                    partner = b.dst
                elif kind is sp.Recv:
                    partner = b.src
                elif kind is sp.Offer or kind is sp.Cond:
                    if b not in seen:
                        seen.add(b)
                        if kind is sp.Cond:
                            stack += (b.then_b, b.else_b)
                        elif b.src not in group or join(p, b.src):
                            return []
                        else:
                            stack += (b.left, b.right)
                    break
                elif kind is sp.Call:
                    return []  # a call may run anything
                else:
                    break  # the end, or a missing offer option
                # A partner outside the program is a faulty network's: no split.
                if partner not in group or join(p, partner):
                    return []
                b = b.cont
    distinct = {id(g): g for g in group.values()}.values()
    return sorted((frozenset(g) for g in distinct), key=min)


def restrict(c: cc.Choreography, group: frozenset) -> cc.Choreography:
    """The part of a procedure-free choreography that the processes of one of
    its `independent_groups` play: the interactions between them, and the
    conditionals they decide with both branches restricted.  The group is
    closed, so an interaction has both endpoints in it or neither, and a
    conditional decided outside it has no process of it in its branches and
    restricts to the end.  Terms are hash-consed, so restricting to every
    process gives `c` itself.

    Runs are walked with a loop and branches with an explicit stack, and each
    shared term is restricted once."""
    done: dict = {}  # term -> its restriction
    stack = [c]
    while stack:
        top = stack[-1]
        run = []  # the prefixes down to a restricted term or no prefix
        while type(top) is cc.Prefix and top not in done:
            run.append(top)
            top = top.cont
        out = done.get(top)
        if out is None:
            if type(top) is cc.Cond and top.pid in group:
                then_c, else_c = done.get(top.then_c), done.get(top.else_c)
                if then_c is None or else_c is None:
                    stack += [b for b in (top.then_c, top.else_c) if b not in done]
                    continue
                out = cc.Cond(top.pid, top.guard, then_c, else_c)
            else:
                out = cc.End()
            done[top] = out
        while run:
            top = run.pop()
            if top.action.sender in group:
                out = top if out is top.cont else cc.Prefix(top.action, out)
            done[top] = out
        stack.pop()
    return done[c]
