"""Bounded breadth-first exploration of a labelled transition system.

Every bounded search in chorkit runs here but the EPP check's: from one start
configuration, over a memoised one-step relation, for at most `depth` steps,
charging a budget once per entry found.  (`verifier._first_divergence` walks
pairs of configuration sets breadth-first in a loop of its own, and
`verifier._Subsets` steps configurations through the step functions, not a
`Space`.)  Searches differ only in which ways of reaching a configuration they
keep apart, and that is the tag: the trace itself, the multiset of its labels,
or nothing at all.  A search can be deepened a level at a time and stopped as
soon as its caller has seen enough, and it can count only some labels against
a second bound, as weak transitions do.  This module knows nothing of
choreographies or networks; configurations are any hashable values.
"""

from __future__ import annotations

from itertools import chain, islice
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

    def charge(self) -> None:
        self.used += 1
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

    Given `level_of`, the search is bounded by level too, as weak transitions
    count only visible steps: `level_of(tag)` is the level of the traces of an
    entry with that tag, say how many of their labels are loud, and one label
    adds at most one to it.  Entries are then not found in order of length, so
    tags must fix the length of their traces, as label multisets do: what is
    found within both bounds is what a full search keeps within them.

    `found` maps each configuration to {tag: first trace to the entry},
    `order` lists every (configuration, tag, trace) in insertion order,
    `depth` and `level` are the bounds searched to, and `closed` says no
    entry waits for them to rise, so nothing else is reachable.
    """

    __slots__ = ("space", "budget", "tag", "level_of", "found", "order", "depth", "level",
                 "closed", "_waiting", "_held", "_shown")

    def __init__(
        self, space: Space, start: Hashable, budget: Budget, tag: Tag,
        level_of: Callable[[tuple], int] | None = None,
    ):
        self.space = space
        self.budget = budget
        self.tag = tag
        self.level_of = level_of
        self.found = {start: {(): ()}}
        self.order = [(start, (), ())]
        budget.charge()
        self.depth = self.level = 0
        self.closed = False
        self._waiting = self.order[:]  # the entries with moves left to take
        # id of a waiting entry, which `order` keeps alive -> the loud moves it has left
        self._held: dict = {}
        self._shown = 0  # entries `grow` has already returned

    def grow(self, depth: int, level: int = 0) -> list:
        """Search to traces of at most `depth` labels and, given `level_of`,
        at most level `level`; the entries not returned before, the start
        among them on the first call.  Neither bound is ever lowered."""
        if depth > self.depth or level > self.level:
            self._search(max(depth, self.depth), max(level, self.level))
        new = self.order[self._shown:]
        self._shown = len(self.order)
        return new

    def _search(self, depth: int, level: int) -> None:
        """Take every move within the bounds, of the entries that waited and
        then of each entry found, in turn.  An entry at `depth` waits to take
        any move; one at `level` takes its quiet moves and waits, in `_held`,
        to take its loud ones."""
        self.depth, self.level = depth, level
        found, order, tag, charge = self.found, self.order, self.tag, self.budget.charge
        enabled, level_of, held = self.space.enabled, self.level_of, self._held
        waiting, self._waiting = self._waiting, []
        wait = self._waiting.append
        entries = chain(waiting, islice(order, len(order), None))
        for entry in entries:
            cfg, g, trace = entry
            if len(trace) >= depth:
                wait(entry)
                if level_of is None:  # entries come by length: the rest wait too
                    self._waiting += entries
                    break
                continue
            moves = held.pop(id(entry), None) if held else None
            if moves is None:
                moves = enabled(cfg)
            # Only an entry at the level has moves that would pass it.
            loud = [] if level_of is not None and level_of(g) >= level else None
            for t, cfg2 in moves:
                g2 = tag(g, t)
                if loud is not None and level_of(g2) > level:
                    loud.append((t, cfg2))
                    continue
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
            if loud:
                held[id(entry)] = loud
                wait(entry)
        self.closed = not self._waiting


def bfs(
    space: Space, start: Hashable, depth: int, budget: Budget, tag: Tag
) -> tuple[dict, list, bool]:
    """Every (configuration, tag) entry within `depth` steps of `start`, as
    `(found, order, closed)` of one `Search` grown to `depth`."""
    search = Search(space, start, budget, tag)
    search._search(depth, 0)  # `grow` would copy `order`, which listings make long
    return search.found, search.order, search.closed
