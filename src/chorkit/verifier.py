"""Bounded state-space checkers for the amendment and projection correspondences.

Every check explores configurations up to an explicit depth and returns a
Report: the property held within the bound, a replayable counterexample was
found, or the exploration budget ran out before either.  Counterexamples carry
an actual firing sequence so they can be fed back through the semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from . import amendment, cc, explore, projection, sp
from .cc import FnTable  # callers import it from here too

HOLDS = "holds-within-bound"
COUNTEREXAMPLE = "counterexample"
EXHAUSTED = "resource-exhausted"

DEFAULT_DEPTH = 6
DEFAULT_SEARCH_BOUND = 6
DEFAULT_STATE_BUDGET = 10**6


@dataclass
class SearchStats:
    states_explored: int = 0
    max_depth: int = 0


@dataclass
class Witness:
    """A replayable finding: the trace and the configuration it reaches."""

    trace: tuple[cc.TransitionLabel, ...]
    term: object  # Choreography or Network
    state: cc.State
    note: str = ""


@dataclass
class Report:
    check: str
    verdict: str
    witness: Optional[Witness]
    stats: SearchStats

    @property
    def holds(self) -> bool:
        return self.verdict == HOLDS

    def to_dict(self) -> dict:
        """Machine-readable form: one record per check."""
        witness = None
        if self.witness is not None:
            witness = {
                "trace": [cc.label_text(t) for t in self.witness.trace],
                "term": repr(self.witness.term),
                "state": cc.state_text(self.witness.state),
                "note": self.witness.note,
            }
        return {
            "check": self.check,
            "verdict": self.verdict,
            "witness": witness,
            "stats": {
                "states_explored": self.stats.states_explored,
                "max_depth": self.stats.max_depth,
            },
        }

    def text(self) -> str:
        lines = [f"check: {self.check}", f"verdict: {self.verdict}"]
        if self.witness is not None:
            shown = ", ".join(cc.label_text(t) for t in self.witness.trace) or "(empty)"
            lines.append(f"witness trace: {shown}")
            lines.append(f"witness state: {cc.state_text(self.witness.state)}")
            if self.witness.note:
                lines.append(f"note: {self.witness.note}")
        lines.append(
            f"stats: {self.stats.states_explored} states explored, "
            f"max depth {self.stats.max_depth}"
        )
        return "\n".join(lines)


def _index(entries: Iterable, indexes: dict, key=None) -> None:
    """Add the multisets of search `entries`, (configuration, multiset, trace)
    triples, to `indexes`: {key(configuration): {non-selection part:
    {selection parts}}}, so that a selection-expansion match (`_matched`) is
    one lookup and a `sub_multiset` test of the selection parts."""
    for cfg, mk, _ in entries:
        k = cfg if key is None else key(cfg)
        rest, sels = amendment.split(mk)
        index = indexes.get(k)
        if index is None:
            indexes[k] = {rest: {sels}}
        else:
            found = index.get(rest)
            if found is None:
                index[rest] = {sels}
            else:
                found.add(sels)


def _reach(
    space: explore.Space,
    start: Hashable,
    depth: int,
    budget: explore.Budget,
    ranks: amendment.Ranks,
) -> dict[Hashable, dict[amendment.MultisetKey, tuple]]:
    """Bounded reachability keyed by the multiset of fired labels, in the
    ranks of `ranks`.

    Trace orderings that fire the same labels and land in the same
    configuration collapse into one entry; the stored representative is an
    actual firing sequence, so counterexamples stay replayable.
    """
    found, _, _ = explore.bfs(space, start, depth, budget, ranks.add)
    return found


def _checked(
    check: str,
    budget: explore.Budget,
    max_depth: int,
    search: Callable[[], Optional[Witness]],
) -> Report:
    """The report of a check whose `search` charges `budget` and returns the
    first counterexample it finds, or None.

    A witness is a counterexample, a search that runs out of budget is
    resource-exhausted, and anything else holds within the bound.
    `states_explored` is what the budget was charged, and `max_depth` is the
    bound the check declared before searching, whatever the verdict.
    """
    try:
        witness = search()
    except explore.BudgetExceeded:
        verdict, witness = EXHAUSTED, None
    else:
        verdict = HOLDS if witness is None else COUNTEREXAMPLE
    return Report(check, verdict, witness, SearchStats(budget.used, max_depth))


class _Sides:
    """What an amendment check compares: the program, once it is found
    well-formed, and its amendment, each with its one-step relation and start
    configuration, and the budget and label ranks all their searches share.

    When amendment leaves every procedure body as it was, both sides step
    through one memoised relation, `amended is orig`, so a configuration both
    reach is stepped once.  This is exact: `cc.successors(defs)` is a function
    of the definitions and the configuration alone, amendment keeps each
    procedure's pids and the very same body where it needs no selection, and
    the budget is charged per search entry, not per step, so no verdict,
    witness or count of states explored moves."""

    def __init__(self, prog: cc.ChorProgram, state: cc.State | None, state_budget: int):
        state = state if state is not None else cc.State()
        self.amendment = amendment.Amendment(prog)
        self.orig = explore.Space(cc.successors(prog.procedures))
        procs = self.amendment.procedures
        if all(procs[n].body is p.body for n, p in prog.procedures.items()):
            self.amended = self.orig
        else:
            self.amended = explore.Space(cc.successors(procs))
        self.orig_start = (prog.main, state)
        self.amended_start = (self.amendment.main, state)
        self.budget = explore.Budget(state_budget)
        self.ranks = amendment.Ranks()

    def amend_cfg(self, cfg: tuple) -> tuple:
        """`cfg` with its term amended."""
        c, s = cfg
        return self.amendment.term(c), s

    def reach(self, space: explore.Space, start: Hashable, depth: int) -> dict:
        return _reach(space, start, depth, self.budget, self.ranks)

    def search(self, space: explore.Space, start: Hashable) -> explore.Search:
        return explore.Search(space, start, self.budget, self.ranks.add)


def check_naive_correspondence(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """Check the too-strong claim that amendment preserves reachability exactly.

    For every configuration the program reaches, the amended program must
    reach the amendment of that very configuration by a trace with the same
    non-selection events.  Amendment introduces ordering constraints that can
    make this impossible, so a counterexample is the expected outcome on
    choreographies where a conditional can be resolved out of order.
    """
    sides = _Sides(prog, state, state_budget)
    depth_a = depth + depth * (1 + sides.amendment.max_insertions)

    def search() -> Optional[Witness]:
        orig = sides.reach(sides.orig, sides.orig_start, depth)
        amended = sides.reach(sides.amended, sides.amended_start, depth_a)
        indexes: dict = {}
        _index(((cfg, mk, t) for cfg, found in amended.items() for mk, t in found.items()),
               indexes)
        return _unmatched(
            sides, orig, sides.orig, 0, lambda k: None,
            lambda cfg: indexes.get(sides.amend_cfg(cfg)), lambda sels, other: True,
            "the amended program cannot reach the amendment of "
            "this configuration with the same non-selection events",
        )

    return _checked("naive-correspondence", sides.budget, depth_a, search)


def _matched(mk: amendment.MultisetKey, extensions: Iterable, index_of, fits) -> bool:
    """Whether `mk` followed by some extension is matched on the other side.

    `extensions` are (configuration, multiset, trace) entries of an extension
    search; `index_of` maps a configuration to the other side's `_index`
    there, or to nothing.  A match has the same non-selection part, and
    selections `sels` with `fits(sels, other)` for the other side's.
    """
    for cfg2, emk, _ in extensions:
        index = index_of(cfg2)
        if not index:
            continue
        rest, sels = amendment.split(tuple(sorted(mk + emk)) if emk else mk)
        others = index.get(rest)
        if others is not None and (sels in others or any(fits(sels, o) for o in others)):
            return True
    return False


def _unmatched(
    sides: _Sides, reached: dict, extend_in: explore.Space, bound: int,
    grow_other, index_of, fits, note: str,
) -> Optional[Witness]:
    """A witness for the first configuration of `reached`, in the order the
    search reached them, with (multiset, trace) entries that no extension in
    `extend_in` of at most `bound` steps gets matched (`_matched`): the first
    of them in the order they were found, with `note`.

    Matching only gains from deeper searches, so extensions are tried one
    level at a time, `grow_other(k)` growing the other side to what a level-k
    extension can match, and an entry is dropped once matched.  Most
    configurations are done at level 0, the empty extension, before an
    extension search starts; naive stops there, with `bound` 0.  At `bound`,
    where the other side must be grown in full, the entries left are tried
    against every extension, which is what one search to the bound would do.
    """
    grow_other(0)
    for cfg, entries in reached.items():
        empty = ((cfg, (), ()),)
        pending = [e for e in entries.items() if not _matched(e[0], empty, index_of, fits)]
        if pending and bound:
            extensions = sides.search(extend_in, cfg)
            for k in range(1, bound + 1):
                new = extensions.grow(k)
                grow_other(k)
                if k == bound:
                    new = extensions.order
                pending = [e for e in pending if not _matched(e[0], new, index_of, fits)]
                if not pending:
                    break
        if pending:
            return Witness(pending[0][1], *cfg, note)
    return None


def check_amend_complete(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """Every run of the program is simulated by its amendment, up to extra
    selections and reordering.

    For each trace tl reaching (C', s'), some extension tl' to (C'', s'')
    exists such that the amended program reaches (amend C'', s'') by a trace
    that is a permutation of tl ++ tl' plus extra selections.
    """
    sides = _Sides(prog, state, state_budget)
    insertions = sides.amendment.max_insertions
    total = depth + search_bound
    depth_a = total + total * insertions

    def search() -> Optional[Witness]:
        orig = sides.reach(sides.orig, sides.orig_start, depth)
        amended = explore.Search(
            sides.amended, sides.amended_start, sides.budget, sides.ranks.add, amendment.level
        )
        indexes: dict = {}

        def grow_amended(k: int) -> None:
            # A match fires the non-selection labels of a run and its level-k
            # extension, at most depth + k, and amendment gives each of them
            # at most max_insertions selections, as in depth_a.
            depth_k = min((depth + k) * (1 + insertions), depth_a)
            _index(amended.grow(depth_k, depth + k), indexes)

        return _unmatched(
            sides, orig, sides.orig, search_bound, grow_amended,
            lambda cfg2: indexes.get(sides.amend_cfg(cfg2)), amendment.sub_multiset,
            "no extension of this run is matched by the amended "
            "program up to extra selections and reordering",
        )

    return _checked("amend-complete", sides.budget, depth_a, search)


def check_amend_sound(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """Every run of the amendment can be completed to mirror a run of the
    original program, up to dropping the extra selections and reordering.

    For each amended trace tl reaching (A', s1), some extension tl' reaches
    the amendment of a configuration (C'', s'') that the original program
    reaches by a trace tl'' with tl ++ tl' a selection-expansion of tl''.
    """
    sides = _Sides(prog, state, state_budget)
    # The amended run of length <= depth is the premise; the extension that
    # discharges lingering selections is existential, so only it gets the
    # insertion allowance.
    e_depth = search_bound + (depth + search_bound) * sides.amendment.max_insertions

    def search() -> Optional[Witness]:
        orig = sides.search(sides.orig, sides.orig_start)
        indexes: dict = {}

        def grow_orig(k: int) -> None:
            # A match fires the non-selection labels of the amended run and its
            # level-k extension and only some of their selections, so it is
            # no longer than depth + k.
            _index(orig.grow(depth + k), indexes, sides.amend_cfg)

        a_reach = sides.reach(sides.amended, sides.amended_start, depth)
        return _unmatched(
            sides, a_reach, sides.amended, e_depth, grow_orig, indexes.get,
            lambda sels, other: amendment.sub_multiset(other, sels),
            "no extension of this amended run lands on the "
            "amendment of a configuration the original reaches",
        )

    return _checked("amend-sound", sides.budget, depth + e_depth, search)


def check_intermediate_formulation(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    search_bound: int = DEFAULT_SEARCH_BOUND,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """Check the rejected strengthening where the amendment must mirror each
    first step immediately.

    For every reachable configuration and every step t it can take, the
    amendment of that configuration must take t as its very first step and
    then catch up, inserting selections only, in order: one search over
    (original, amended, original steps taken) triples in which the original
    fires each amended label or, for a selection, may stay put, as a silent
    step (Milner, *Communication and Concurrency*, 1989).  Fails exactly when
    a step commutes past a conditional in the original but is blocked behind
    the inserted selections in the amendment.
    """
    sides = _Sides(prog, state, state_budget)
    orig, amended = sides.orig, sides.amended
    allowance = (search_bound + 1) * (1 + sides.amendment.max_insertions)

    def step(triple: tuple) -> tuple:
        o, a, k = triple
        moves = []
        for t, a2 in amended.enabled(a):
            if k < search_bound:
                moves += [(t, (o2, a2, k + 1)) for u, o2 in orig.enabled(o) if u == t]
            if cc.is_selection(t):
                moves.append((t, (o, a2, k)))
        return tuple(moves)

    triples = explore.Space(step)

    def catches_up(start: tuple) -> bool:
        # Grown a level at a time, to the first level with a caught-up triple.
        search = explore.Search(triples, start, sides.budget, explore.per_config)
        for level in range(search_bound + allowance + 1):
            if any(a == sides.amend_cfg(o) for (o, a, _), _, _ in search.grow(level)):
                return True
            if search.closed:
                return False
        return False

    def search() -> Optional[Witness]:
        found, _, _ = explore.bfs(orig, sides.orig_start, depth, sides.budget, explore.per_config)
        for cfg, prefixes in found.items():
            amended_firsts = amended.enabled(sides.amend_cfg(cfg))
            for t, (c1, s1) in orig.enabled(cfg):
                starts = [a1 for u, a1 in amended_firsts if u == t and a1[1] == s1]
                witness = Witness(prefixes[()] + (t,), c1, s1, "the amendment of the reached "
                                  "configuration cannot take this step first")
                if not starts:
                    return witness
                if not any(catches_up(((c1, s1), a1, 0)) for a1 in starts):
                    witness.note = ("the amendment matches this step but cannot catch up "
                                    "by inserting selections in order")
                    return witness
        return None

    return _checked("intermediate-formulation", sides.budget, depth, search)


class _Subsets:
    """The determinised one-step relation of one side.

    Configurations are numbered on first sight, and a set of configurations
    reached by the same trace is a tuple of their numbers in first-reached
    order, which is the order in which a breadth-first listing of traces
    meets them.  Each configuration is stepped once, straight through the
    step function, when the set of it alone is first asked for, and charged
    to `budget` then.  `step` gives moves in `cc.label_key` order, as
    `cc.successors` and `sp.successors` do.
    """

    def __init__(self, step: explore.Step, start: Hashable, budget: explore.Budget):
        self._step = step
        self._charge = budget.charge
        self.cfgs = [start]
        self._ids = {start: 0}
        self._succ: dict = {}

    def succ(self, cfgs: tuple) -> dict:
        """Label -> the set of configurations `cfgs` reaches by it, with
        labels in `cc.label_key` order."""
        out = self._succ.get(cfgs)
        if out is None:
            out = {}
            if len(cfgs) == 1:
                self._charge()
                for t, cfg in self._step(self.cfgs[cfgs[0]]):
                    j = self._ids.get(cfg)
                    if j is None:
                        j = self._ids[cfg] = len(self.cfgs)
                        self.cfgs.append(cfg)
                    js = out.get(t, ())
                    if j not in js:
                        out[t] = js + (j,)
            else:
                for i in cfgs:
                    for t, js in self.succ((i,)).items():
                        have = out.get(t, ())
                        out[t] = have + tuple(j for j in js if j not in have)
                out = dict(sorted(out.items(), key=lambda m: cc.label_key(m[0])))
            self._succ[cfgs] = out
        return out


_NET_ONLY = "projection trace missing from the choreography"


def _first_divergence(
    chor: _Subsets, net: _Subsets, depth: int, budget: explore.Budget
) -> Optional[Witness]:
    """The first label trace of at most `depth` labels that only one side
    has, shortest first and then in `cc.label_key` order, with the first
    configuration it reaches there; a choreography-only trace wins over any
    network-only one.

    Walks the product of configuration sets reached by the same trace
    breadth-first, which meets traces in that order, and expands each product
    node once, at the least depth it is reached, charging `budget` for it.
    The walk stops at the bound or at a level that reaches no new node.
    """

    def witness(path, cfg, note: str) -> Witness:
        trace = []
        while path is not None:
            t, path = path
            trace.append(t)
        return Witness(tuple(reversed(trace)), cfg[0], cfg[1], note)

    seen = {((0,), (0,))}
    level = [((0,), (0,), None)]  # (choreography set, network set, reversed trace)
    net_only = None
    for _ in range(depth):
        nxt = []
        for cs, ns, path in level:
            budget.charge()
            c_succ = chor.succ(cs)
            n_succ = net.succ(ns)
            if c_succ.keys() == n_succ.keys():  # the usual case, already in order
                labels = c_succ
            else:
                labels = sorted(c_succ.keys() | n_succ.keys(), key=cc.label_key)
            for t in labels:
                cs2, ns2 = c_succ.get(t, ()), n_succ.get(t, ())
                if not ns2:
                    return witness((t, path), chor.cfgs[cs2[0]],
                                   "choreography trace missing from the projection")
                if not cs2:
                    if net_only is None:
                        net_only = witness((t, path), net.cfgs[ns2[0]], _NET_ONLY)
                elif (cs2, ns2) not in seen:
                    seen.add((cs2, ns2))
                    nxt.append((cs2, ns2, (t, path)))
        if not nxt:
            break
        level = nxt
    return net_only


def check_epp_correspondence(
    prog: cc.ChorProgram,
    state: cc.State | None = None,
    depth: int = DEFAULT_DEPTH,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """The projected network produces exactly the label traces of the
    choreography, up to the bound.

    Bounded trace equality is checked on pairs of configuration sets reached
    by the same trace, so traces are never listed.  Each walk charges the
    budget once for each pair of sets it expands and once for each
    configuration either of its sides steps, and `states_explored` is what
    the budget was charged.

    Processes in different `projection.independent_groups` evolve
    independently on both sides.  Trace equivalence is preserved by parallel
    composition (Milner, *Communication and Concurrency*, 1989), so the check
    walks each group alone, to the bound, on the part of the choreography
    that `projection.restrict` keeps for it and the network cut down to its
    processes: the sum of the groups' spaces, not their product.  With no
    split, the whole program is the one part.

    The witness is exact: project a divergent trace onto the group of its
    last label, and the result is a divergence of the same kind that is no
    longer.  So the whole walk's witness, the least divergence, choreography-
    only before network-only and then by length and label keys, is the least
    of the groups'.  Its configuration is the first of the set the trace
    reaches on the diverging side of the whole program, replayed on fresh
    sides under an unlimited budget of their own, so a counterexample found
    is never reported as resource-exhausted.
    """
    compiled = projection.epp(prog)
    sp.require_wf(compiled.net)
    state = state if state is not None else cc.State()
    groups = projection.independent_groups(prog, compiled)  # [] or two or more
    parts = ((projection.restrict(prog.main, group),
              sp.Network({p: b for p, b in compiled.net.items() if p in group}))
             for group in groups) if groups else [(prog.main, compiled.net)]
    budget = explore.Budget(state_budget)
    chor_step, net_step = cc.successors(prog.procedures), sp.successors(compiled.procedures)

    def sides(main: cc.Choreography, net: sp.Network, budget: explore.Budget) -> tuple:
        return _Subsets(chor_step, (main, state), budget), _Subsets(net_step, (net, state), budget)

    def search() -> Optional[Witness]:
        found = [w for main, net in parts
                 if (w := _first_divergence(*sides(main, net, budget), depth, budget)) is not None]
        least = min(found, default=None, key=lambda w: (
            w.note == _NET_ONLY, len(w.trace), [cc.label_key(t) for t in w.trace]))
        if least is not None and groups:
            chor, net = sides(prog.main, compiled.net, explore.Budget())
            cs = ns = (0,)
            for t in least.trace:
                cs, ns = chor.succ(cs).get(t, ()), net.succ(ns).get(t, ())
            least.term, least.state = chor.cfgs[cs[0]] if cs else net.cfgs[ns[0]]
        return least

    return _checked("epp-correspondence", budget, depth, search)


def _terminal_analysis(
    space: explore.Space, start: Hashable, bound: int, budget: explore.Budget
):
    """Configurations reachable within `bound` steps, with a shortest trace to
    each, the ones that are dead (no transitions), and whether the search
    closed: its frontier emptied before the bound, so nothing else is
    reachable."""
    found, _, closed = explore.bfs(space, start, bound, budget, explore.per_config)
    reached = {cfg: traces[()] for cfg, traces in found.items()}
    return reached, [cfg for cfg in reached if not space.enabled(cfg)], closed


def _implements_verdict(
    table: FnTable,
    inputs: Sequence[cc.Pid],
    output: cc.Pid,
    bound: int,
    budget: explore.Budget,
    step: explore.Step,
    term0: object,
    is_done: Callable[[object], bool],
    processes: Optional[frozenset] = None,
) -> Optional[Witness]:
    """The first input of `table`, in order, on which the runs from `term0`
    fail it, as a witness; None when there is none within the bound.

    Raises ValueError unless there is one input process per argument of
    `table`, each named once, and, given `processes`, the inputs and the
    output are among them."""
    if len(inputs) != table.arity:
        raise ValueError(f"{len(inputs)} input processes for arity {table.arity}")
    for i, p in enumerate(inputs):
        if p in inputs[:i]:
            raise ValueError(f"input process {p} is named twice")
    for p in (*inputs, output):
        if processes is not None and p not in processes:
            raise ValueError(f"the program has no process {p}")
    space = explore.Space(step)
    for ins in sorted(table.entries):
        expected = table.entries[ins]
        s0 = cc.State({(p, "x"): v for p, v in zip(inputs, ins)})
        reached, dead, closed = _terminal_analysis(space, (term0, s0), bound, budget)
        if expected is not None and closed and not dead:
            return Witness(
                (),
                term0,
                s0,
                f"inputs {ins}: no run terminates ({len(reached)} reachable "
                f"configuration{'' if len(reached) == 1 else 's'}, none terminal)",
            )
        for cfg in dead:
            term, s_end = cfg
            done, got = is_done(term), s_end.get(output, "x")
            if expected is None and done:
                wrong = "terminated although the function is undefined here"
            elif expected is not None and not done:
                wrong = "stuck before completion"
            elif expected is not None and got != expected:
                wrong = f"{output}.x = {got}, expected {expected}"
            else:
                continue
            return Witness(reached[cfg], term, s_end, f"inputs {ins}: {wrong}")
    return None


def check_implements(
    prog: cc.ChorProgram,
    table: FnTable,
    inputs: Sequence[cc.Pid],
    output: cc.Pid,
    bound: int = 50,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """Does the program implement the table as a function?

    Inputs are placed in each input process's variable x; where the table is
    defined every run must end with the output process holding the result in
    x, and where it is undefined no run may complete within the bound.
    """
    names = cc.require_wf(prog)
    budget = explore.Budget(state_budget)
    return _checked("implements", budget, bound, lambda: _implements_verdict(
        table, inputs, output, bound, budget, cc.successors(prog.procedures), prog.main,
        lambda term: term == cc.End(), names,
    ))


def check_implements_network(
    program: sp.SPProgram,
    table: FnTable,
    inputs: Sequence[cc.Pid],
    output: cc.Pid,
    bound: int = 50,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> Report:
    """Network analogue of check_implements: done means every process ended.

    The input and output names are checked against `program.processes`; a
    network keeps no process that has ended, so without that set any name is
    taken as one of its processes."""
    sp.require_wf(program.net)
    budget = explore.Budget(state_budget)
    return _checked("implements-network", budget, bound, lambda: _implements_verdict(
        table, inputs, output, bound, budget, sp.successors(program.procedures),
        program.net, lambda term: not term.support(), program.processes,
    ))
