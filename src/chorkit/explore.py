"""Bounded breadth-first exploration of a labelled transition system.

Every bounded search in chorkit runs here: from one start configuration, over
a memoised one-step relation, for at most `depth` steps, charging a budget
once per entry found.  Searches differ only in which ways of reaching a
configuration they keep apart, and that is the tag: the trace itself, the
multiset of its labels, or nothing at all.  A search can be deepened a level
at a time and stopped as soon as its caller has seen enough.  This module
knows nothing of choreographies or networks; configurations are any hashable
values.
"""

from __future__ import annotations

from typing import Callable, Hashable

Step = Callable[[Hashable], tuple]  # configuration -> ((label, successor), ...)
Tag = Callable[[tuple, object], tuple]  # (tag, label) -> the successor's tag


class BudgetExceeded(RuntimeError):
    """A bounded exploration hit its configuration budget."""


class Budget:
    """Entries a check may still explore, shared by all of its searches."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: float = float("inf")):
        self.limit = limit
        self.used = 0

    def charge(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExceeded(f"more than {self.limit} configurations explored")


class Space:
    """A memoised one-step relation: `enabled(cfg)` is `step(cfg)`, the
    canonically ordered (label, successor) pairs of `cfg`, computed once."""

    __slots__ = ("step", "memo")

    def __init__(self, step: Step):
        self.step = step
        self.memo: dict = {}

    def enabled(self, cfg: Hashable) -> tuple:
        moves = self.memo.get(cfg)
        if moves is None:
            moves = self.memo[cfg] = self.step(cfg)
        return moves


def per_trace(tag: tuple, label) -> tuple:
    """Keep every trace apart: the tag is the trace."""
    return tag + (label,)


def per_config(tag: tuple, label) -> tuple:
    """Keep each configuration once, with the first (a shortest) trace to it."""
    return ()


class Search:
    """A breadth-first search from `start` that `grow` deepens on demand.

    The start entry has the empty tag and trace; a successor's tag is
    `tag(tag, label)`.  Each (configuration, tag) entry is kept once, with the
    first trace that reaches it, and charged to `budget` when found, the start
    included, so BudgetExceeded is raised at the first entry over the limit.
    Successors come in the order `space` gives them, so the search is
    deterministic, and growing it in steps finds what one call would.

    `found` maps each configuration to {tag: first trace to the entry},
    `order` lists every (configuration, tag, trace) in insertion order,
    `depth` is how many levels have been searched, and `closed` says the
    frontier emptied before that, so nothing else is reachable.
    """

    __slots__ = ("space", "budget", "tag", "found", "order", "depth", "closed", "_lo", "_shown")

    _by_level = False  # see WeakSearch

    def __init__(self, space: Space, start: Hashable, budget: Budget, tag: Tag):
        self.space = space
        self.budget = budget
        self.tag = tag
        self.found = {start: {(): ()}}
        self.order = [(start, (), ())]
        budget.charge()
        self.depth = 0
        self.closed = False
        self._lo = 0  # where the last level searched starts in `order`
        self._shown = 0  # entries `grow` has already returned

    def grow(self, depth: int) -> list:
        """Search to `depth` levels; the entries not returned before, the
        start among them on the first call."""
        if depth > self.depth:
            self._deepen(depth)
        new = self.order[self._shown:]
        self._shown = len(self.order)
        return new

    def _deepen(self, depth: int) -> None:
        found, order, tag, charge = self.found, self.order, self.tag, self.budget.charge
        by_level = self._by_level
        d, lo = self.depth, self._lo
        enabled = self.space.enabled
        if by_level:
            depth = max(depth, d)
            d, lo = self._next(0, depth), len(order)
        while d < depth and not self.closed:
            hi = len(order)
            if by_level:
                frontier, enabled = self._frontier(d, lo, hi)
            else:
                frontier = order[lo:hi]
            for cfg, g, trace in frontier:
                for t, cfg2 in enabled(cfg):
                    g2 = tag(g, t)
                    bucket = found.get(cfg2)
                    if bucket is None:
                        bucket = found[cfg2] = {}
                    if g2 not in bucket:
                        charge()
                        # A trace tag is the trace: one tuple for both keeps a
                        # listing's live objects, which the collector walks, down.
                        trace2 = g2 if tag is per_trace else trace + (t,)
                        bucket[g2] = trace2
                        order.append((cfg2, g2, trace2))
            d, lo = d + 1, hi
            if len(order) == hi:
                if by_level:
                    d = self._next(d, depth)
                else:
                    self.closed = True
        self.depth, self._lo = d, lo
        if by_level:
            self._settle(d, lo)


class WeakSearch(Search):
    """A `Search` that also grows by level: how many labels of a trace are
    loud, that is, not `silent`, as weak transitions count only visible steps.

    `level_of(tag)` is the number of loud labels on the traces of an entry
    with that tag, and `grow(depth, level)` keeps exactly the entries of a
    search to `depth` with at most `level` loud labels.  Searching one length
    at a time, an entry at `depth` waits for the depth to rise to take any
    move, and an entry at `level` waits for the level to rise to take its
    loud ones, so entries are not found in order of length, and the trace
    kept for one need not be the first a `Search` would keep.  `closed` says
    no entry is waiting, so nothing else is reachable.
    """

    __slots__ = ("level", "_level_of", "_moves", "_fresh", "_held")

    _by_level = True

    # Which moves an entry of the frontier takes; QUIET and LOUD index the
    # pair `_moves` keeps for each configuration whose moves it splits.
    QUIET, LOUD, ALL = 0, 1, 2

    def __init__(
        self, space: Space, start: Hashable, budget: Budget, tag: Tag,
        silent: Callable[[object], bool], level_of: Callable[[tuple], int],
    ):
        Search.__init__(self, space, start, budget, tag)
        self.level = 0
        self._level_of = level_of
        self._fresh = {0: self.order[:]}  # length -> entries that took no move
        self._held: dict = {}  # length -> entries whose loud moves wait
        enabled = space.enabled
        memo: dict = {}

        def moves(key: tuple) -> tuple:
            """The moves of a configuration of one kind, for a (configuration,
            kind) key."""
            cfg, kind = key
            if kind == WeakSearch.ALL:
                return enabled(cfg)
            split = memo.get(cfg)
            if split is None:
                ms = enabled(cfg)
                quiet = [m for m in ms if silent(m[0])]
                split = memo[cfg] = (quiet, [m for m in ms if not silent(m[0])] if quiet else ms)
            return split[kind]

        self._moves = moves

    def grow(self, depth: int, level: int) -> list:
        """Search to traces of at most `depth` labels, `level` of them loud;
        the entries not returned before.  Neither bound is ever lowered."""
        if level > self.level:
            self.level = level
            self._deepen(depth)
        return Search.grow(self, depth)

    def _next(self, d: int, depth: int) -> int:
        """The first length from `d` on with entries waiting, or `depth`."""
        if not (self._fresh or self._held):
            return depth
        return min([k for k in (*self._fresh, *self._held) if k >= d], default=depth)

    def _frontier(self, d: int, lo: int, hi: int) -> tuple:
        """The entries at length `d` with moves to take now, and the moves of
        an entry: every move of the entries that took none, `order[lo:hi]`
        and those waiting for the depth, and the loud moves of those waiting
        for the level, but that entries at the level wait for it to rise.
        Unless every entry takes every move, each configuration is keyed by
        the kind of moves it takes."""
        level, level_of = self.level, self._level_of
        waiting = self._held.pop(d, ()) if self._held else ()
        fresh = self.order[lo:hi]
        if d in self._fresh:
            fresh = self._fresh.pop(d) + fresh
        if d < level:  # no entry of length d has more loud labels than that
            if not waiting:
                return fresh, self.space.enabled
            return [((c, self.LOUD), g, tr) for c, g, tr in waiting] + [
                ((c, self.ALL), g, tr) for c, g, tr in fresh
            ], self._moves
        out, held = [], []
        for e in waiting:
            if level_of(e[1]) < level:
                out.append(((e[0], self.LOUD), e[1], e[2]))
            else:
                held.append(e)
        for e in fresh:
            if level_of(e[1]) < level:
                out.append(((e[0], self.ALL), e[1], e[2]))
            else:
                out.append(((e[0], self.QUIET), e[1], e[2]))
                held.append(e)
        if held:
            self._held[d] = held
        return out, self._moves

    def _settle(self, d: int, lo: int) -> None:
        """Keep the entries found at `d`, the depth reached, for later."""
        if lo < len(self.order):
            self._fresh.setdefault(d, []).extend(self.order[lo:])
        self.closed = not (self._fresh or self._held)


def bfs(
    space: Space, start: Hashable, depth: int, budget: Budget, tag: Tag
) -> tuple[dict, list, bool]:
    """Every (configuration, tag) entry within `depth` steps of `start`, as
    `(found, order, closed)` of one `Search` grown to `depth`."""
    search = Search(space, start, budget, tag)
    search._deepen(depth)  # `grow` would copy `order`, which listings make long
    return search.found, search.order, search.closed
