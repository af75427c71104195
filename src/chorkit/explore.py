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
        enabled = self.space.enabled
        while self.depth < depth and not self.closed:
            lo, hi = self._lo, len(order)
            for cfg, g, trace in order[lo:hi]:
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
            self._lo = hi
            self.depth += 1
            self.closed = len(order) == hi


def bfs(
    space: Space, start: Hashable, depth: int, budget: Budget, tag: Tag
) -> tuple[dict, list, bool]:
    """Every (configuration, tag) entry within `depth` steps of `start`, as
    `(found, order, closed)` of one `Search` grown to `depth`."""
    search = Search(space, start, budget, tag)
    search._deepen(depth)  # `grow` would copy `order`, which listings make long
    return search.found, search.order, search.closed
