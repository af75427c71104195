"""Reference implementations kept as test oracles for faster algorithms.

Each oracle is the straightforward version a checker used to be; the
differential tests assert the two agree byte for byte on `Report.to_dict()`.
"""

from __future__ import annotations

from chorkit import cc, projection, sp
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
