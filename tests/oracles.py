"""Reference implementations kept as test oracles for faster algorithms.

Each oracle is the straightforward version a checker used to be; the
differential tests assert the two agree byte for byte on `Report.to_dict()`.
"""

from __future__ import annotations

from chorkit import amendment, cc, projection, sp
from chorkit.verifier import (
    COUNTEREXAMPLE,
    DEFAULT_DEPTH,
    DEFAULT_STATE_BUDGET,
    EXHAUSTED,
    HOLDS,
    Report,
    SearchStats,
    Witness,
)


def epp_by_traces(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """EPP trace correspondence by listing every (trace, configuration) entry
    on both sides and comparing the two trace sets."""
    state = state if state is not None else cc.State()
    problems = cc.wf_violations(prog)
    if problems:
        raise cc.IllFormedError("; ".join(problems))
    compiled = projection.epp(prog)
    stats = SearchStats(max_depth=depth)
    try:
        chor_entries = cc.traces(
            prog.procedures, prog.main, state, depth, max_states=state_budget
        )
        net_entries = sp.traces(
            compiled.procedures, compiled.net, state, depth, max_states=state_budget
        )
    except cc.BudgetExceeded:
        return Report("epp-correspondence", EXHAUSTED, None, stats)
    stats.states_explored = len(chor_entries) + len(net_entries)
    chor_traces = {tl for tl, _, _ in chor_entries}
    net_traces = {tl for tl, _, _ in net_entries}
    key = lambda tl: tuple(cc.label_key(t) for t in tl)
    only_chor = sorted(chor_traces - net_traces, key=key)
    only_net = sorted(net_traces - chor_traces, key=key)
    if only_chor:
        tl = only_chor[0]
        _, term, st = next(e for e in chor_entries if e[0] == tl)
        return Report(
            "epp-correspondence",
            COUNTEREXAMPLE,
            Witness(tl, term, st, "choreography trace missing from the projection"),
            stats,
        )
    if only_net:
        tl = only_net[0]
        _, term, st = next(e for e in net_entries if e[0] == tl)
        return Report(
            "epp-correspondence",
            COUNTEREXAMPLE,
            Witness(tl, term, st, "projection trace missing from the choreography"),
            stats,
        )
    return Report("epp-correspondence", HOLDS, None, stats)


# ---------------------------------------------------------------------------
# Projection and amendment without the projection memo: every call projects
# its whole term again, and merging never short-cuts on identical behaviours.


def _merge(b1: sp.Behaviour, b2: sp.Behaviour) -> sp.Behaviour:
    if type(b1) is not type(b2):
        raise projection._Undefined
    if isinstance(b1, sp.End):
        return b1
    if isinstance(b1, sp.Send):
        if (b1.dst, b1.expr) != (b2.dst, b2.expr):
            raise projection._Undefined
        return sp.Send(b1.dst, b1.expr, _merge(b1.cont, b2.cont))
    if isinstance(b1, sp.Recv):
        if (b1.src, b1.var) != (b2.src, b2.var):
            raise projection._Undefined
        return sp.Recv(b1.src, b1.var, _merge(b1.cont, b2.cont))
    if isinstance(b1, sp.Choose):
        if (b1.dst, b1.label) != (b2.dst, b2.label):
            raise projection._Undefined
        return sp.Choose(b1.dst, b1.label, _merge(b1.cont, b2.cont))
    if isinstance(b1, sp.Cond):
        if b1.guard != b2.guard:
            raise projection._Undefined
        return sp.Cond(b1.guard, _merge(b1.then_b, b2.then_b), _merge(b1.else_b, b2.else_b))
    if isinstance(b1, sp.Call):
        if b1.name != b2.name:
            raise projection._Undefined
        return b1
    if b1.src != b2.src:
        raise projection._Undefined
    return sp.Offer(b1.src, _merge_option(b1.left, b2.left), _merge_option(b1.right, b2.right))


def _merge_option(o1, o2):
    if o1 is None:
        return o2
    if o2 is None:
        return o1
    return _merge(o1, o2)


def _bproj(defs, c: cc.Choreography, r: cc.Pid) -> sp.Behaviour:
    if isinstance(c, cc.Prefix):
        eta = c.action
        cont = _bproj(defs, c.cont, r)
        if isinstance(eta, cc.Com):
            if r == eta.sender:
                return sp.Send(eta.receiver, eta.expr, cont)
            if r == eta.receiver:
                return sp.Recv(eta.sender, eta.var, cont)
            return cont
        if r == eta.sender:
            return sp.Choose(eta.receiver, eta.label, cont)
        if r == eta.receiver:
            if eta.label is cc.Label.LEFT:
                return sp.Offer(eta.sender, cont, None)
            return sp.Offer(eta.sender, None, cont)
        return cont
    if isinstance(c, cc.Cond):
        if r == c.pid:
            return sp.Cond(c.guard, _bproj(defs, c.then_c, r), _bproj(defs, c.else_c, r))
        then_b, else_b = _bproj(defs, c.then_c, r), _bproj(defs, c.else_c, r)
        try:
            return _merge(then_b, else_b)
        except projection._Undefined:
            raise projection._Undefined(c) from None
    if isinstance(c, cc.Call):
        proc = defs.get(c.name)
        if proc is not None and r in proc.pids:
            return sp.Call(c.name)
        return sp.End()
    if isinstance(c, cc.RunningCall):
        if r in c.pending:
            return sp.Call(c.name)
        return _bproj(defs, c.body, r)
    return sp.End()


def _blame(defs, c: cc.Choreography, r: cc.Pid):
    try:
        _bproj(defs, c, r)
        return None
    except projection._Undefined as exc:
        return exc.args[0]


def project_failures(prog: cc.ChorProgram) -> list[projection.ProjectionFailure]:
    failures = []
    for p in sorted(cc.process_names(prog)):
        term = _blame(prog.procedures, prog.main, p)
        if term is not None:
            failures.append(projection.ProjectionFailure(p, term, "main"))
    for name in sorted(prog.procedures):
        proc = prog.procedures[name]
        for p in proc.pids:
            term = _blame(prog.procedures, proc.body, p)
            if term is not None:
                failures.append(projection.ProjectionFailure(p, term, name))
    return failures


def epp(prog: cc.ChorProgram) -> sp.SPProgram:
    problems = cc.wf_violations(prog)
    if problems:
        raise cc.IllFormedError("; ".join(problems))
    failures = project_failures(prog)
    if failures:
        raise projection.UnprojectableError(failures)
    net = {}
    for p in sorted(cc.process_names(prog)):
        net[p] = projection._with_instances(_bproj(prog.procedures, prog.main, p), p)
    procedures = {}
    for name in sorted(prog.procedures):
        proc = prog.procedures[name]
        for p in proc.pids:
            body = _bproj(prog.procedures, proc.body, p)
            procedures[projection.instance_name(name, p)] = projection._with_instances(body, p)
    return sp.SPProgram(procedures, sp.Network(net))


def _amend(defs, pids, c: cc.Choreography) -> cc.Choreography:
    if isinstance(c, cc.Prefix):
        return cc.Prefix(c.action, _amend(defs, pids, c.cont))
    if isinstance(c, cc.Cond):
        then_a = _amend(defs, pids, c.then_c)
        else_a = _amend(defs, pids, c.else_c)
        cond = cc.Cond(c.pid, c.guard, then_a, else_a)
        uninformed = [
            r for r in pids if r != c.pid and _blame(defs, cond, r) is not None
        ]
        return cc.Cond(
            c.pid,
            c.guard,
            amendment.add_selections(c.pid, cc.Label.LEFT, uninformed, then_a),
            amendment.add_selections(c.pid, cc.Label.RIGHT, uninformed, else_a),
        )
    if isinstance(c, cc.RunningCall):
        return cc.RunningCall(c.name, c.pending, _amend(defs, pids, c.body))
    return c


def amend_program(prog: cc.ChorProgram) -> cc.ChorProgram:
    problems = cc.wf_violations(prog)
    if problems:
        raise cc.IllFormedError("; ".join(problems))
    pids = amendment.amend_pids(prog)
    defs = {
        name: cc.Procedure(proc.pids, _amend(prog.procedures, pids, proc.body))
        for name, proc in prog.procedures.items()
    }
    return cc.ChorProgram(defs, _amend(prog.procedures, pids, prog.main))
