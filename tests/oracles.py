"""Reference implementations kept as test oracles for faster algorithms.

Each oracle is the straightforward version a checker used to be; the
differential tests assert the two agree byte for byte on `Report.to_dict()`.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter

from chorkit import amendment, cc, explore, projection, sp, verifier
from chorkit.verifier import (
    COUNTEREXAMPLE,
    DEFAULT_DEPTH,
    DEFAULT_SEARCH_BOUND,
    DEFAULT_STATE_BUDGET,
    EXHAUSTED,
    HOLDS,
    Report,
    SearchStats,
    Witness,
)


# ---------------------------------------------------------------------------
# Bounded exploration, one loop per search, as each search used to be written


def label_processes(t: cc.TransitionLabel) -> frozenset:
    """`cc.label_processes` as a set built per call."""
    if isinstance(t, cc.TauEvent):
        return frozenset((t.pid,))
    return frozenset((t.sender, t.receiver))


class Budget:
    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise cc.BudgetExceeded(f"more than {self.limit} configurations explored")


class Space:
    """Memoized one-step relation over hashable configurations."""

    def __init__(self, step):
        self._step = step
        self._memo: dict = {}

    def enabled(self, cfg):
        if cfg not in self._memo:
            self._memo[cfg] = self._step(cfg)
        return self._memo[cfg]


def traces(enabled, defs, c, s, depth: int, max_states: int | None = None) -> list:
    """`cc.traces` or `sp.traces` (by `enabled`), without the well-formedness
    check: all (trace, term, store) entries within `depth` steps, breadth-first
    over canonically ordered transitions."""
    memo: dict = {}

    def step(c0, s0):
        key = (c0, s0)
        if key not in memo:
            memo[key] = enabled(defs, c0, s0)
        return memo[key]

    start = ((), c, s)
    out = [start]
    seen = {start}
    frontier = [start]
    for _ in range(depth):
        nxt = []
        for tl, c0, s0 in frontier:
            for t, c1, s1 in step(c0, s0):
                entry = (tl + (t,), c1, s1)
                if entry not in seen:
                    seen.add(entry)
                    if max_states is not None and len(seen) > max_states:
                        raise cc.BudgetExceeded(f"more than {max_states} trace entries")
                    out.append(entry)
                    nxt.append(entry)
        if not nxt:
            break
        frontier = nxt
    return out


def mkey_add(mk: tuple, t: cc.TransitionLabel) -> tuple:
    """A multiset of labels as the tuple of them in `cc.label_key` order."""
    out = list(mk)
    insort(out, t, key=cc.label_key)
    return tuple(out)


def reach(space, start, depth: int, budget) -> dict:
    """`verifier._reach` with label tuples for multisets: bounded reachability
    keyed by the multiset of fired labels, with the first trace to each
    (configuration, multiset) pair."""
    out: dict = {start: {(): ()}}
    frontier = [(start, (), ())]
    budget.charge()
    for _ in range(depth):
        nxt = []
        for cfg, mk, rep in frontier:
            for t, cfg2 in space.enabled(cfg):
                mk2 = mkey_add(mk, t)
                bucket = out.setdefault(cfg2, {})
                if mk2 not in bucket:
                    budget.charge()
                    rep2 = rep + (t,)
                    bucket[mk2] = rep2
                    nxt.append((cfg2, mk2, rep2))
        if not nxt:
            break
        frontier = nxt
    return out


def terminal_analysis(space, start, bound: int, budget):
    """`verifier._terminal_analysis`: reached configurations with a shortest
    trace to each, the dead ones, and whether the frontier emptied."""
    reached = {start: ()}
    dead = []
    closed = False
    budget.charge()
    if not space.enabled(start):
        dead.append(start)
    frontier = [start]
    for _ in range(bound):
        nxt = []
        for cfg in frontier:
            for t, cfg2 in space.enabled(cfg):
                if cfg2 not in reached:
                    budget.charge()
                    reached[cfg2] = reached[cfg] + (t,)
                    if not space.enabled(cfg2):
                        dead.append(cfg2)
                    nxt.append(cfg2)
        if not nxt:
            closed = True
            break
        frontier = nxt
    return reached, dead, closed


def _listed(budget: Budget, defs, c, s, depth: int) -> list:
    try:
        out = traces(cc._enabled, defs, c, s, depth, max_states=budget.limit - budget.used)
    except cc.BudgetExceeded:
        budget.used = budget.limit + 1
        raise
    budget.charge(len(out))
    return out


def deletes_to(base: tuple, expanded: tuple) -> bool:
    """True if deleting selection labels (only) from `expanded` yields `base`,
    preserving order."""
    reachable = {0}
    for t in expanded:
        nxt = set()
        for i in reachable:
            if i < len(base) and base[i] == t:
                nxt.add(i + 1)
            if cc.is_selection(t):
                nxt.add(i)
        reachable = nxt
        if not reachable:
            return False
    return len(base) in reachable


def intermediate_by_traces(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """The intermediate formulation by a fresh trace listing per extension,
    each charged to the budget in full."""
    state = state if state is not None else cc.State()
    cc.require_wf(prog)
    view = amendment.Amendment(prog)
    budget = Budget(state_budget)
    stats = SearchStats(max_depth=depth)
    allowance = (search_bound + 1) * (1 + view.max_insertions)
    try:
        reached = _listed(budget, prog.procedures, prog.main, state, depth)
        seen_cfgs = set()
        for prefix, c0, s0 in reached:
            if (c0, s0) in seen_cfgs:
                continue
            seen_cfgs.add((c0, s0))
            a0 = view.term(c0)
            first_steps = cc._enabled(prog.procedures, c0, s0)
            amended_firsts = cc._enabled(view.procedures, a0, s0)
            for t, c1, s1 in first_steps:
                starts = [
                    (ac1, as1)
                    for at, ac1, as1 in amended_firsts
                    if at == t and as1 == s1
                ]
                witness = Witness(
                    prefix + (t,),
                    c1,
                    s1,
                    "the amendment of the reached configuration cannot take "
                    "this step first",
                )
                if not starts:
                    stats.states_explored = budget.used
                    return Report(
                        "intermediate-formulation", COUNTEREXAMPLE, witness, stats
                    )
                orig_ext = _listed(budget, prog.procedures, c1, s1, search_bound)
                matched = False
                for a1, as1 in starts:
                    a_ext = _listed(
                        budget, view.procedures, a1, as1, search_bound + allowance
                    )
                    by_cfg: dict = {}
                    for atl, ac2, as2 in a_ext:
                        by_cfg.setdefault((ac2, as2), []).append(atl)
                    for tl, c2, s2 in orig_ext:
                        target = (view.term(c2), s2)
                        for atl in by_cfg.get(target, []):
                            if deletes_to(tuple(tl), tuple(atl)):
                                matched = True
                                break
                        if matched:
                            break
                    if matched:
                        break
                if not matched:
                    witness.note = (
                        "the amendment matches this step but cannot catch up "
                        "by inserting selections in order"
                    )
                    stats.states_explored = budget.used
                    return Report(
                        "intermediate-formulation", COUNTEREXAMPLE, witness, stats
                    )
    except cc.BudgetExceeded:
        stats.states_explored = budget.used
        return Report("intermediate-formulation", EXHAUSTED, None, stats)
    stats.states_explored = budget.used
    return Report("intermediate-formulation", HOLDS, None, stats)


def run_all(prog: cc.ChorProgram, state: cc.State, steps: int) -> str:
    """What `chorkit run --all` prints: every listed entry whose configuration
    is dead, in listing order."""
    entries = traces(cc._enabled, prog.procedures, prog.main, state, steps)
    memo: dict = {}

    def dead(c0, s0):
        key = (c0, s0)
        if key not in memo:
            memo[key] = not cc._enabled(prog.procedures, c0, s0)
        return memo[key]

    lines = []
    for tl, c0, s0 in entries:
        if not dead(c0, s0):
            continue
        pretty = ", ".join(cc.label_text(t) for t in tl) or "(empty)"
        bindings = ", ".join(f"{p}.{x} = {v}" for (p, x), v in s0.items())
        lines.append(f"run {len(lines) // 2 + 1}: {pretty}")
        lines.append(f"  final state: {bindings or '(all zero)'}")
    if not lines:
        lines.append(f"no run finishes within {steps} steps")
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# The amendment checkers, stepping every entered call body afresh and matching
# label tuples with Counters


def steps(defs, c: cc.Choreography, s: cc.State) -> list:
    """`cc._steps` as the delay rule reads: every transition of a continuation
    is built, those an enclosing term blocks are dropped afterwards, and no
    entered call body is remembered."""
    out = []
    if isinstance(c, cc.Prefix):
        eta = c.action
        if isinstance(eta, cc.Com):
            v = cc.eval_expr(eta.expr, s, eta.sender)
            out.append((cc.CommEvent(eta.sender, v, eta.receiver), c.cont,
                        s.set(eta.receiver, eta.var, v)))
        else:
            out.append((cc.SelectEvent(eta.sender, eta.receiver, eta.label), c.cont, s))
        blocked = frozenset((eta.sender, eta.receiver))
        for t, c2, s2 in steps(defs, c.cont, s):
            if blocked.isdisjoint(cc.label_processes(t)):
                out.append((t, cc.Prefix(eta, c2), s2))
    elif isinstance(c, cc.Cond):
        branch = c.then_c if cc.eval_bexpr(c.guard, s, c.pid) else c.else_c
        out.append((cc.TauEvent(c.pid), branch, s))
        thens = steps(defs, c.then_c, s)
        elses = steps(defs, c.else_c, s)
        for t, c1, s1 in thens:
            if c.pid in cc.label_processes(t):
                continue
            for t2, c2, s2 in elses:
                if t2 == t and s2 == s1:
                    out.append((t, cc.Cond(c.pid, c.guard, c1, c2), s1))
    elif isinstance(c, cc.Call):
        proc = defs[c.name]
        for p in proc.pids:
            rest = tuple(x for x in proc.pids if x != p)
            succ = proc.body if not rest else cc.RunningCall(c.name, rest, proc.body)
            out.append((cc.TauEvent(p), succ, s))
    elif isinstance(c, cc.RunningCall):
        for p in c.pending:
            rest = tuple(x for x in c.pending if x != p)
            succ = c.body if not rest else cc.RunningCall(c.name, rest, c.body)
            out.append((cc.TauEvent(p), succ, s))
        pending = frozenset(c.pending)
        for t, b2, s2 in steps(defs, c.body, s):
            if pending.isdisjoint(cc.label_processes(t)):
                out.append((t, cc.RunningCall(c.name, c.pending, b2), s2))
    return out


def transition_key(tr) -> tuple:
    """The order of one configuration's transitions: by label alone."""
    return cc.label_key(tr[0])


def successors(defs):
    """`cc.successors` over the memo-free `steps`, deduplicated and ordered
    by `transition_key`, after asserting what makes that order total: the
    labels of one configuration's transitions are pairwise distinct."""

    def step(cfg) -> tuple:
        c, s = cfg
        moves = set(steps(defs, c, s))
        labels = [t for t, _, _ in moves]
        assert len(set(labels)) == len(labels), cfg
        moves = sorted(moves, key=transition_key)
        return tuple((t, (c2, s2)) for t, c2, s2 in moves)

    return step


def network_steps(defs, n: sp.Network, s: cc.State) -> list:
    """`sp._enabled` written from the definitions: the processes in
    `support()` order, each looked up with `get`, a communication made with two
    `set`s, and the transitions ordered by label."""
    out = []
    for p in n.support():
        b = n.get(p)
        if isinstance(b, sp.Send):
            partner = n.get(b.dst)
            if isinstance(partner, sp.Recv) and partner.src == p:
                v = cc.eval_expr(b.expr, s, p)
                n2 = n.set(p, b.cont).set(b.dst, partner.cont)
                out.append((cc.CommEvent(p, v, b.dst), n2, s.set(b.dst, partner.var, v)))
        elif isinstance(b, sp.Choose):
            partner = n.get(b.dst)
            if isinstance(partner, sp.Offer) and partner.src == p:
                option = partner.left if b.label is cc.Label.LEFT else partner.right
                if option is not None:
                    n2 = n.set(p, b.cont).set(b.dst, option)
                    out.append((cc.SelectEvent(p, b.dst, b.label), n2, s))
        elif isinstance(b, sp.Cond):
            chosen = b.then_b if cc.eval_bexpr(b.guard, s, p) else b.else_b
            out.append((cc.TauEvent(p), n.set(p, chosen), s))
        elif isinstance(b, sp.Call):
            out.append((cc.TauEvent(p), n.set(p, defs[b.name]), s))
    return sorted(out, key=lambda tr: cc.label_key(tr[0]))


def network_hash(n: sp.Network) -> int:
    """The hash a network has by definition: that of its set of entries."""
    return hash(frozenset(n.items()))


def mkey(labels) -> tuple:
    return tuple(sorted(labels, key=cc.label_key))


def nonsel(mk: tuple) -> tuple:
    return tuple(t for t in mk if not cc.is_selection(t))


def is_selection_expansion(base, expanded) -> bool:
    """`amendment.is_selection_expansion` by Counter differences."""
    missing = Counter(base) - Counter(expanded)
    if missing:
        return False
    extra = Counter(expanded) - Counter(base)
    return all(cc.is_selection(t) for t in extra)


def failing(entries, fails) -> list:
    """The traces of the (multiset, trace) `entries` whose multiset `fails`,
    in order; a witness is the first of them."""
    return [rep for mk, rep in entries if fails(mk)]


class AmendedView(amendment.Amendment):
    """`amendment.Amendment` with no cache shared across terms: each distinct
    term is amended in one call of its own."""

    def term(self, c: cc.Choreography, inserted: list[int] | None = None) -> cc.Choreography:
        out = self._done.get(c)
        if out is None:
            out = amendment.amend(self.defs, self.pids, c, self.memo, None, inserted)
            self._done[c] = out
        return out


def naive_correspondence(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    state = state if state is not None else cc.State()
    cc.require_wf(prog)
    view = AmendedView(prog)
    budget = Budget(state_budget)
    stats = SearchStats(max_depth=depth)
    try:
        depth_a = depth + depth * (1 + view.max_insertions)
        stats.max_depth = max(stats.max_depth, depth_a)
        orig_space = Space(successors(prog.procedures))
        orig = reach(orig_space, (prog.main, state), depth, budget)
        amended_space = Space(successors(view.procedures))
        amended = reach(amended_space, (view.main, state), depth_a, budget)
        for cfg in orig:
            c1, s1 = cfg
            target = (view.term(c1), s1)
            candidates = amended.get(target, {})
            failed = failing(
                orig[cfg].items(),
                lambda mk: not any(nonsel(amk) == nonsel(mk) for amk in candidates),
            )
            if failed:
                stats.states_explored = budget.used
                return Report(
                    "naive-correspondence",
                    COUNTEREXAMPLE,
                    Witness(
                        failed[0],
                        c1,
                        s1,
                        "the amended program cannot reach the amendment of "
                        "this configuration with the same non-selection events",
                    ),
                    stats,
                )
    except cc.BudgetExceeded:
        stats.states_explored = budget.used
        return Report("naive-correspondence", EXHAUSTED, None, stats)
    stats.states_explored = budget.used
    return Report("naive-correspondence", HOLDS, None, stats)


def amend_complete(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    state = state if state is not None else cc.State()
    cc.require_wf(prog)
    view = AmendedView(prog)
    budget = Budget(state_budget)
    stats = SearchStats()
    try:
        orig_space = Space(successors(prog.procedures))
        amended_space = Space(successors(view.procedures))
        total = depth + search_bound
        depth_a = total + total * view.max_insertions
        stats.max_depth = depth_a
        orig = reach(orig_space, (prog.main, state), depth, budget)
        amended = reach(amended_space, (view.main, state), depth_a, budget)
        ext_cache: dict = {}
        for cfg in orig:
            if cfg not in ext_cache:
                ext_cache[cfg] = reach(orig_space, cfg, search_bound, budget)
            extensions = ext_cache[cfg]

            def unmatched(mk) -> bool:
                for cfg2 in extensions:
                    c2, s2 = cfg2
                    target = (view.term(c2), s2)
                    candidates = amended.get(target)
                    if not candidates:
                        continue
                    for emk in extensions[cfg2]:
                        full = mkey(mk + emk)
                        if any(is_selection_expansion(full, amk) for amk in candidates):
                            return False
                return True

            failed = failing(orig[cfg].items(), unmatched)
            if failed:
                stats.states_explored = budget.used
                return Report(
                    "amend-complete",
                    COUNTEREXAMPLE,
                    Witness(
                        failed[0],
                        cfg[0],
                        cfg[1],
                        "no extension of this run is matched by the amended "
                        "program up to extra selections and reordering",
                    ),
                    stats,
                )
    except cc.BudgetExceeded:
        stats.states_explored = budget.used
        return Report("amend-complete", EXHAUSTED, None, stats)
    stats.states_explored = budget.used
    return Report("amend-complete", HOLDS, None, stats)


def amend_sound(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    state = state if state is not None else cc.State()
    cc.require_wf(prog)
    view = AmendedView(prog)
    budget = Budget(state_budget)
    stats = SearchStats()
    try:
        orig_space = Space(successors(prog.procedures))
        amended_space = Space(successors(view.procedures))
        e_depth = search_bound + (depth + search_bound) * view.max_insertions
        stats.max_depth = depth + e_depth
        orig = reach(orig_space, (prog.main, state), depth + e_depth, budget)
        index: dict = {}
        for (c3, s3), buckets in orig.items():
            key = (view.term(c3), s3)
            index.setdefault(key, []).extend(buckets.keys())
        a_reach = reach(amended_space, (view.main, state), depth, budget)
        ext_cache: dict = {}
        for cfg in a_reach:
            if cfg not in ext_cache:
                ext_cache[cfg] = reach(amended_space, cfg, e_depth, budget)
            extensions = ext_cache[cfg]

            def unmatched(mk) -> bool:
                for cfg2 in extensions:
                    originals = index.get(cfg2)
                    if not originals:
                        continue
                    for emk in extensions[cfg2]:
                        full = mkey(mk + emk)
                        if any(is_selection_expansion(omk, full) for omk in originals):
                            return False
                return True

            failed = failing(a_reach[cfg].items(), unmatched)
            if failed:
                stats.states_explored = budget.used
                return Report(
                    "amend-sound",
                    COUNTEREXAMPLE,
                    Witness(
                        failed[0],
                        cfg[0],
                        cfg[1],
                        "no extension of this amended run lands on the "
                        "amendment of a configuration the original reaches",
                    ),
                    stats,
                )
    except cc.BudgetExceeded:
        stats.states_explored = budget.used
        return Report("amend-sound", EXHAUSTED, None, stats)
    stats.states_explored = budget.used
    return Report("amend-sound", HOLDS, None, stats)


# ---------------------------------------------------------------------------
# EPP trace correspondence


def epp_by_traces(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """EPP trace correspondence by listing every (trace, configuration) entry
    on both sides and comparing the two trace sets.  The witness is the
    shortest trace only one side has, the least of those in label order,
    with the first entry listed for it; a choreography-only trace wins."""
    state = state if state is not None else cc.State()
    problems = cc.wf_violations(prog)
    if problems:
        raise cc.IllFormedError("; ".join(problems))
    compiled = projection.epp(prog)
    stats = SearchStats(max_depth=depth)
    try:
        chor_entries = traces(
            cc._enabled, prog.procedures, prog.main, state, depth, state_budget
        )
        stats.states_explored = len(chor_entries)
        if not sp.network_wf(compiled.net):
            raise sp.IllFormedNetworkError("network contains a self-addressed action")
        net_entries = traces(
            sp._enabled, compiled.procedures, compiled.net, state, depth, state_budget
        )
    except cc.BudgetExceeded:
        # The listing that ran out stopped at the entry that passed the
        # budget; the start entry never counts against a budget of 0.
        stats.states_explored += max(state_budget, 1) + 1
        return Report("epp-correspondence", EXHAUSTED, None, stats)
    stats.states_explored += len(net_entries)
    chor_traces = {tl for tl, _, _ in chor_entries}
    net_traces = {tl for tl, _, _ in net_entries}
    key = lambda tl: (len(tl), tuple(cc.label_key(t) for t in tl))
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


def _filtered_sets(step, start, budget, mine) -> tuple:
    """One side's configurations, numbered on first sight, and the function
    from a tuple of their numbers to label -> the numbers it reaches by the
    labels `mine` keeps, in first-reached order.  A configuration is charged
    to `budget` when it is first stepped."""
    cfgs, moves = [start], {}

    def succ(numbers: tuple) -> dict:
        out: dict = {}
        for i in numbers:
            if i not in moves:
                budget.charge()
                moves[i] = []
                for t, cfg in step(cfgs[i]):
                    if mine(t):
                        if cfg not in cfgs:
                            cfgs.append(cfg)
                        moves[i].append((t, cfgs.index(cfg)))
            for t, j in moves[i]:
                if j not in out.setdefault(t, []):
                    out[t].append(j)
        return {t: tuple(js) for t, js in out.items()}

    return cfgs, succ


def _divergence_by_label_filter(
    chor_step, net_step, starts: tuple, depth: int, budget, group: frozenset | None
) -> Witness | None:
    """`verifier._first_divergence` on the whole configurations of both
    sides, from `starts`, following only the labels of `group`'s processes
    when it is given, with the trace to each product node kept whole.  Each
    product node is charged once, at the least depth the walk reaches it,
    before its sides are stepped."""

    def mine(t: cc.TransitionLabel) -> bool:
        # A label's processes are all in one group.
        return group is None or not group.isdisjoint(cc.label_processes(t))

    chor_cfgs, chor_succ = _filtered_sets(chor_step, starts[0], budget, mine)
    net_cfgs, net_succ = _filtered_sets(net_step, starts[1], budget, mine)
    seen = {((0,), (0,))}
    level = [((), (0,), (0,))]
    net_only = None
    for _ in range(depth):
        nxt = []
        for tl, cs, ns in level:
            budget.charge()
            c_succ, n_succ = chor_succ(cs), net_succ(ns)
            for t in sorted(c_succ.keys() | n_succ.keys(), key=cc.label_key):
                cs2, ns2 = c_succ.get(t, ()), n_succ.get(t, ())
                if not ns2:
                    cfg = chor_cfgs[cs2[0]]
                    return Witness(tl + (t,), cfg[0], cfg[1],
                                   "choreography trace missing from the projection")
                if not cs2:
                    if net_only is None:
                        cfg = net_cfgs[ns2[0]]
                        net_only = Witness(tl + (t,), cfg[0], cfg[1],
                                           "projection trace missing from the choreography")
                elif (cs2, ns2) not in seen:
                    seen.add((cs2, ns2))
                    nxt.append((tl + (t,), cs2, ns2))
        level = nxt
    return net_only


def epp_by_label_filter(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """The EPP check with each of the `projection.independent_groups` walked
    on the whole program: every group's walk steps whole configurations on
    both sides of its own, and drops the labels of the other groups.  With no
    split, one walk drops no label.  The witness is the least of the walks',
    a choreography-only one before any network-only one, then by length and
    label keys; its configuration is whole already."""
    compiled = projection.epp(prog)
    sp.require_wf(compiled.net)
    state = state if state is not None else cc.State()
    groups = projection.independent_groups(prog, compiled) or [None]
    budget = explore.Budget(state_budget)
    chor_step = cc.successors(prog.procedures)
    net_step = sp.successors(compiled.procedures)
    starts = ((prog.main, state), (compiled.net, state))

    def key(w: Witness) -> tuple:
        net_only = w.note == "projection trace missing from the choreography"
        return net_only, len(w.trace), [cc.label_key(t) for t in w.trace]

    def search() -> Witness | None:
        found = [_divergence_by_label_filter(chor_step, net_step, starts, depth, budget, group)
                 for group in groups]
        return min((w for w in found if w is not None), key=key, default=None)

    return verifier._checked("epp-correspondence", budget, depth, search)


def epp_whole_walk(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """The EPP check as one `verifier._first_divergence` walk of the whole
    product, with no split into independent groups."""
    compiled = projection.epp(prog)
    sp.require_wf(compiled.net)
    state = state if state is not None else cc.State()
    budget = explore.Budget(state_budget)
    chor = verifier._Subsets(cc.successors(prog.procedures), (prog.main, state), budget)
    net = verifier._Subsets(sp.successors(compiled.procedures), (compiled.net, state), budget)
    return verifier._checked("epp-correspondence", budget, depth,
                             lambda: verifier._first_divergence(chor, net, depth, budget))


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


def project_failures(
    prog: cc.ChorProgram, names: frozenset | None = None
) -> list[projection.ProjectionFailure]:
    """`projection.project_failures`, which lists the processes itself
    whatever `names` says."""
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


def _with_instances(b: sp.Behaviour, p: cc.Pid) -> sp.Behaviour:
    """Every call in `b` renamed to p's instance."""
    if isinstance(b, sp.Send):
        return sp.Send(b.dst, b.expr, _with_instances(b.cont, p))
    if isinstance(b, sp.Recv):
        return sp.Recv(b.src, b.var, _with_instances(b.cont, p))
    if isinstance(b, sp.Choose):
        return sp.Choose(b.dst, b.label, _with_instances(b.cont, p))
    if isinstance(b, sp.Offer):
        return sp.Offer(b.src, *(None if o is None else _with_instances(o, p)
                                 for o in (b.left, b.right)))
    if isinstance(b, sp.Cond):
        return sp.Cond(b.guard, _with_instances(b.then_b, p), _with_instances(b.else_b, p))
    if isinstance(b, sp.Call):
        return sp.Call(projection.instance_name(b.name, p))
    return b


def epp(prog: cc.ChorProgram) -> sp.SPProgram:
    problems = cc.wf_violations(prog)
    if problems:
        raise cc.IllFormedError("; ".join(problems))
    failures = project_failures(prog)
    if failures:
        raise projection.UnprojectableError(failures)
    net = {}
    for p in sorted(cc.process_names(prog)):
        net[p] = _with_instances(_bproj(prog.procedures, prog.main, p), p)
    procedures = {}
    for name in sorted(prog.procedures):
        proc = prog.procedures[name]
        for p in proc.pids:
            body = _bproj(prog.procedures, proc.body, p)
            procedures[projection.instance_name(name, p)] = _with_instances(body, p)
    return sp.SPProgram(procedures, sp.Network(net))


def _uninformed(defs, pids, c: cc.Cond, then_a, else_a) -> list:
    """The processes `_amend` gives a selection at the conditional `c`, whose
    branches amend to `then_a` and `else_a`: those but the decider that
    cannot project the conditional with the amended branches."""
    cond = cc.Cond(c.pid, c.guard, then_a, else_a)
    return [r for r in pids if r != c.pid and _blame(defs, cond, r) is not None]


def _amend(defs, pids, c: cc.Choreography) -> cc.Choreography:
    if isinstance(c, cc.Prefix):
        return cc.Prefix(c.action, _amend(defs, pids, c.cont))
    if isinstance(c, cc.Cond):
        then_a = _amend(defs, pids, c.then_c)
        else_a = _amend(defs, pids, c.else_c)
        uninformed = _uninformed(defs, pids, c, then_a, else_a)
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
    pids = sorted(cc.process_names(prog))
    defs = {
        name: cc.Procedure(proc.pids, _amend(prog.procedures, pids, proc.body))
        for name, proc in prog.procedures.items()
    }
    return cc.ChorProgram(defs, _amend(prog.procedures, pids, prog.main))


def max_insertions(prog: cc.ChorProgram) -> int:
    """The most selections `_amend` inserts at one conditional of the program,
    in `main` or a procedure body."""
    pids = sorted(cc.process_names(prog))

    def most(c: cc.Choreography) -> int:
        if isinstance(c, cc.Prefix):
            return most(c.cont)
        if isinstance(c, cc.Cond):
            then_a = _amend(prog.procedures, pids, c.then_c)
            else_a = _amend(prog.procedures, pids, c.else_c)
            here = len(_uninformed(prog.procedures, pids, c, then_a, else_a))
            return max(here, most(c.then_c), most(c.else_c))
        if isinstance(c, cc.RunningCall):
            return most(c.body)
        return 0

    return max(most(c) for c in (prog.main, *(p.body for p in prog.procedures.values())))


# ---------------------------------------------------------------------------
# Rendering with one recursive f-string per node, as `syntax` used to


def render_expr(e: cc.Expr) -> str:
    if isinstance(e, cc.Lit):
        return str(e.value)
    if isinstance(e, cc.Ref):
        return e.name
    return f"succ({render_expr(e.arg)})"


def render_bexpr(b: cc.BExpr) -> str:
    if isinstance(b, cc.BoolLit):
        return "true" if b.value else "false"
    op = "==" if isinstance(b, cc.Eq) else "<="
    return f"{render_expr(b.left)} {op} {render_expr(b.right)}"


def render_behaviour(b: sp.Behaviour) -> str:
    if isinstance(b, sp.End):
        return "end"
    if isinstance(b, sp.Send):
        return f"{b.dst}!{render_expr(b.expr)}; {render_behaviour(b.cont)}"
    if isinstance(b, sp.Recv):
        return f"{b.src}?{b.var}; {render_behaviour(b.cont)}"
    if isinstance(b, sp.Choose):
        return f"{b.dst}+{b.label.value}; {render_behaviour(b.cont)}"
    if isinstance(b, sp.Offer):
        slots = []
        if b.left is not None:
            slots.append(f"left: {render_behaviour(b.left)}")
        if b.right is not None:
            slots.append(f"right: {render_behaviour(b.right)}")
        return f"{b.src} & {{ {', '.join(slots)} }}"
    if isinstance(b, sp.Cond):
        return (
            f"if {render_bexpr(b.guard)} then {{ {render_behaviour(b.then_b)} }}"
            f" else {{ {render_behaviour(b.else_b)} }}"
        )
    if isinstance(b, sp.Call):
        return f"call {b.name}"
    raise TypeError(f"not a behaviour: {b!r}")
