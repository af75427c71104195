"""Core choreographies: the global protocol language and its transition system.

Terms describe a multi-party protocol from a bird's-eye view.  A configuration
(procedure definitions, choreography, store) evolves through labelled
transitions.  Causally independent actions may fire ahead of syntactically
earlier ones (the delay rules), which gives choreographies genuine concurrency.
"""

from __future__ import annotations

import sys
from dataclasses import FrozenInstanceError, dataclass
from enum import Enum
from functools import cache
from types import CodeType, FunctionType
from typing import AbstractSet, Mapping, Optional, Union

from . import explore
from .explore import BudgetExceeded  # callers catch it as cc.BudgetExceeded

Pid = str
VarName = str
ProcName = str


class Label(Enum):
    """Selection labels; exactly two exist."""

    LEFT = "left"
    RIGHT = "right"

    # Members are singletons, so the identity hash, which runs in C, will do;
    # `Enum` hashes the member's name in Python, on every node holding one.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Label.{self.name}"


# ---------------------------------------------------------------------------
# Hash-consed nodes


class _Node:
    """Base of every hash-consed class; see `_node`."""

    __slots__ = ()

    # The messages of a frozen dataclass.  Constructors write slots through
    # their descriptors.
    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        # The dataclass repr, without its guard against cycles, which
        # hash-consed terms cannot form.  Nodes printed this way are expanded
        # off a stack, which holds them and the text still to write, so a
        # deep term needs no recursion.
        out = []
        todo: list = [self]
        push, node_repr = todo.append, _Node.__repr__
        while todo:
            node = todo.pop()
            if type(node) is str:
                out.append(node)
                continue
            out.append(type(node).__qualname__ + "(")
            push(")")
            names = node.__match_args__
            for i in range(len(names) - 1, -1, -1):
                v = getattr(node, names[i])
                push(v if type(v).__repr__ is node_repr else repr(v))
                push(f", {names[i]}=" if i else f"{names[i]}=")
        return "".join(out)


# The intern table of every hash-consed class: (class, *field values) to the
# node.  The table holds its nodes, so an entry stays until `_sweep` finds that
# nothing else does.
_TABLE: dict = {}
_SWEEP_MIN = 256
_SWEEP_GROWTH = 1.125
# The table size past which a constructor sweeps: `_SWEEP_GROWTH` times the
# entries the last sweep left, and at least `_SWEEP_MIN`.
_sweep_at = [_SWEEP_MIN]


def _sweep() -> None:
    """Drop the entries whose node nothing outside the table holds, newest
    first.

    Such a node has two references while it is tested: the table's and the
    argument's.  Dropping its entry frees the node, and its key once the next
    key is popped; both hold the node's children, which are interned before
    their parents and so are tested later.  So one pass frees a whole dropped
    term.  Keys and nodes are popped off their lists as they are visited, so
    the lists do not keep them alive, and a node is not looked up.
    """
    table = _TABLE
    keys, nodes = list(table), list(table.values())
    pop_key, pop_node, refcount = keys.pop, nodes.pop, sys.getrefcount
    while keys:
        key = pop_key()
        if refcount(pop_node()) == 2:
            del table[key]
    _sweep_at[0] = max(_SWEEP_MIN, int(len(table) * _SWEEP_GROWTH))


# The constructor of a class with fields _f0, _f1, ...; `_node` renames its
# parameters to the field names, so keyword calls such as
# `dataclasses.replace` work.
_NODE_TEMPLATE = """
def __new__(cls, {params}):
    args = (cls, {params})
    node = get(args)
    if node is not None:
        return node
    node = new(cls)
{assign}    table[args] = node
    if len(table) > sweep_at[0]:
        sweep()
    return node
"""


@cache
def _constructor(arity: int, keyed: bool) -> CodeType:
    """The code of `_NODE_TEMPLATE` for `arity` fields, which also stores
    `key` of the field values when `keyed`; compiled once per shape."""
    params = "".join(f"_f{i}, " for i in range(arity))
    assign = "".join(f"    set{i}(node, _f{i})\n" for i in range(arity))
    if keyed:
        assign += f"    set_key(node, key({params}))\n"
    env: dict = {}
    exec(_NODE_TEMPLATE.format(params=params, assign=assign), env)
    return env["__new__"].__code__


def _node(cls=None, *, key=None):
    """Hash-cons a class of immutable terms (Filliâtre & Conchon, "Type-safe
    modular hash-consing", ML Workshop 2006).

    The class becomes a frozen, slotted dataclass whose constructor looks the
    class and its field values up in `_TABLE`, shared by every class, and
    returns the node found there.  Structurally equal nodes are therefore the
    same object, and `==` and `hash` are the identity defaults.  The table
    holds its nodes: `_sweep` drops those that nothing else holds once the
    table outgrows the size the last sweep left by `_SWEEP_GROWTH`, so a
    dropped node is found again, as the same object, until then.

    `dataclass` is asked only for the field metadata (`fields`, `replace`,
    `__match_args__`): the constructor is `_constructor`'s code bound to the
    table and the class's slots, and `_Node` gives the repr and makes
    instances frozen.

    Given `key`, a node also has a `_key` slot, which its constructor fills
    with `key` called with the field values; labels are ordered by it.
    """
    if cls is None:
        return lambda c: _node(c, key=key)
    names = tuple(cls.__dict__.get("__annotations__", {}))
    ns = dict(cls.__dict__)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    ns["__slots__"] = names + (("_key",) if key is not None else ()) + ("__weakref__",)
    qualname = cls.__qualname__
    cls = type(cls)(cls.__name__, (_Node,), ns)
    cls.__qualname__ = qualname
    cls = dataclass(eq=False, init=False, repr=False)(cls)

    env = {
        "get": _TABLE.get,
        "table": _TABLE,
        "new": object.__new__,
        "sweep_at": _sweep_at,
        "sweep": _sweep,
        "key": key,
    }
    if key is not None:
        env["set_key"] = cls.__dict__["_key"].__set__
    # Fields are written through their slot descriptors, under the frozen
    # __setattr__.
    for i, n in enumerate(names):
        env[f"set{i}"] = cls.__dict__[n].__set__
    code = _constructor(len(names), key is not None)
    renamed = {f"_f{i}": n for i, n in enumerate(names)}
    code = code.replace(co_varnames=tuple(renamed.get(v, v) for v in code.co_varnames))
    cls.__new__ = FunctionType(code, env)
    return cls


# ---------------------------------------------------------------------------
# Expressions


@_node
class Lit:
    """Natural number literal."""

    value: int


@_node
class Ref:
    """Read of a local variable; unset variables read 0."""

    name: VarName


@_node
class Succ:
    """Successor of a sub-expression."""

    arg: "Expr"


Expr = Union[Lit, Ref, Succ]


@_node
class BoolLit:
    """A constant guard."""

    value: bool


@_node
class Eq:
    """Guard: the two expressions evaluate to the same natural."""

    left: Expr
    right: Expr


@_node
class Le:
    """Guard: the left expression evaluates to at most the right one."""

    left: Expr
    right: Expr


BExpr = Union[BoolLit, Eq, Le]


# ---------------------------------------------------------------------------
# Interactions and choreographies


@_node
class Com:
    """Value communication: sender evaluates expr, receiver stores it in var."""

    sender: Pid
    expr: Expr
    receiver: Pid
    var: VarName


@_node
class Sel:
    """Selection: sender tells receiver which branch of a choice was taken."""

    sender: Pid
    receiver: Pid
    label: Label


Eta = Union[Com, Sel]


@_node
class End:
    """The terminated choreography."""


@_node
class Prefix:
    """An interaction followed by a continuation."""

    action: Eta
    cont: "Choreography"


@_node
class Cond:
    """pid evaluates guard locally and the protocol branches on the outcome."""

    pid: Pid
    guard: BExpr
    then_c: "Choreography"
    else_c: "Choreography"


@_node
class Call:
    """Invocation of a named procedure."""

    name: ProcName


@_node
class RunningCall:
    """A procedure call some participants have already entered.

    Runtime-only term: `pending` lists the processes that still have to enter;
    entered processes may already run the body as long as they do not touch a
    pending one.
    """

    name: ProcName
    pending: tuple[Pid, ...]
    body: "Choreography"


Choreography = Union[Prefix, Cond, Call, RunningCall, End]


@dataclass(frozen=True)
class Procedure:
    """A procedure definition: the processes it involves and its body."""

    pids: tuple[Pid, ...]
    body: Choreography


@dataclass
class ChorProgram:
    """A finite set of procedure definitions plus the running choreography."""

    procedures: dict[ProcName, Procedure]
    main: Choreography


@dataclass
class FnTable:
    """A finite, desk-scale function table: input tuples to result or None."""

    arity: int
    entries: dict[tuple[int, ...], Optional[int]]

    def __post_init__(self) -> None:
        for key in self.entries:
            if len(key) != self.arity:
                raise ValueError(f"entry {key} does not match arity {self.arity}")


# ---------------------------------------------------------------------------
# Stores


class State:
    """Store mapping (process, variable) pairs to naturals; absent entries read 0.

    Kept canonical: zero entries are never stored, so extensional equality
    coincides with equality of the underlying maps.  The hash is the XOR of
    the entries' hashes, so `set` updates it in constant time; the sorted
    items are built on first use.
    """

    __slots__ = ("_entries", "_items", "_hash")

    def __init__(self, entries: Mapping[tuple[Pid, VarName], int] | None = None):
        self._entries = {k: v for k, v in (entries or {}).items() if v != 0}
        self._items = None
        h = 0
        for entry in self._entries.items():
            h ^= hash(entry)
        self._hash = h

    def get(self, p: Pid, x: VarName) -> int:
        return self._entries.get((p, x), 0)

    def set(self, p: Pid, x: VarName, v: int) -> "State":
        key = (p, x)
        old = self._entries.get(key, 0)
        if old == v:
            return self
        out = dict(self._entries)
        h = self._hash
        if old:
            h ^= hash((key, old))
        if v == 0:
            del out[key]
        else:
            out[key] = v
            h ^= hash((key, v))
        fresh = State.__new__(State)
        fresh._entries, fresh._items, fresh._hash = out, None, h
        return fresh

    def items(self) -> tuple[tuple[tuple[Pid, VarName], int], ...]:
        items = self._items
        if items is None:
            items = self._items = tuple(sorted(self._entries.items()))
        return items

    def __eq__(self, other: object) -> bool:
        return isinstance(other, State) and self._entries == other._entries

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"State({dict(self.items())!r})"


# `str` refuses integers past the interpreter's conversion limit (4,300 digits
# by default).  A run passes it by taking successors of a long literal, so
# naturals are written out a thousand digits at a time.
_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def nat_text(n: int) -> str:
    """The decimal digits of a natural of any size."""
    if n < _CHUNK:
        return str(n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))


def state_text(s: State) -> str:
    """Render a store in the initial-state file format, one binding per line."""
    lines = [f"{p}.{x} = {nat_text(v)}" for (p, x), v in s.items()]
    return "\n".join(lines) if lines else "(all zero)"


# ---------------------------------------------------------------------------
# Transition labels


# Labels are keyed when made, in the order `label_key` documents.


@_node(key=lambda sender, value, receiver: (0, sender, receiver, value))
class CommEvent:
    """A value travelled over the network."""

    sender: Pid
    value: int
    receiver: Pid

    def __repr__(self) -> str:
        # The dataclass repr, for a value of any size too: a run can take
        # successors of a literal past the digits `repr` of an int allows.
        return (
            f"CommEvent(sender={self.sender!r}, value={nat_text(self.value)}, "
            f"receiver={self.receiver!r})"
        )


@_node(key=lambda sender, receiver, label: (1, sender, receiver, label.value))
class SelectEvent:
    """A selection label travelled over the network."""

    sender: Pid
    receiver: Pid
    label: Label


@_node(key=lambda pid: (2, pid))
class TauEvent:
    """An internal action of a single process (guard evaluation, call entry)."""

    pid: Pid


TransitionLabel = Union[CommEvent, SelectEvent, TauEvent]


def label_processes(t: TransitionLabel) -> tuple[Pid, ...]:
    if isinstance(t, TauEvent):
        return (t.pid,)
    return (t.sender, t.receiver)


def label_key(t: TransitionLabel) -> tuple:
    """Stable encoding used to order labels deterministically: kind, then the
    processes, then the value or label.  Stored on the label."""
    return t._key


def label_text(t: TransitionLabel) -> str:
    if isinstance(t, CommEvent):
        return f"{t.sender} -> {t.receiver} : {nat_text(t.value)}"
    if isinstance(t, SelectEvent):
        return f"{t.sender} -> {t.receiver} [{t.label.value}]"
    return f"tau {t.pid}"


def is_selection(t: TransitionLabel) -> bool:
    return isinstance(t, SelectEvent)


# ---------------------------------------------------------------------------
# Evaluation


def eval_expr(e: Expr, s: State, p: Pid) -> int:
    """Evaluate an expression at process p.  Total and deterministic.  A
    tower of `succ` is counted with a loop, so it may be any height."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Ref):
        return s.get(p, e.name)
    height = 0
    while isinstance(e, Succ):
        e, height = e.arg, height + 1
    if not height:
        raise TypeError(f"not an expression: {e!r}")
    return eval_expr(e, s, p) + height


def eval_bexpr(b: BExpr, s: State, p: Pid) -> bool:
    """Evaluate a boolean expression at process p.  Total and deterministic."""
    if isinstance(b, BoolLit):
        return b.value
    if isinstance(b, Eq):
        return eval_expr(b.left, s, p) == eval_expr(b.right, s, p)
    if isinstance(b, Le):
        return eval_expr(b.left, s, p) <= eval_expr(b.right, s, p)
    raise TypeError(f"not a boolean expression: {b!r}")


# ---------------------------------------------------------------------------
# Well-formedness


def _walk(c: Choreography) -> tuple[bool, set[Pid], set[ProcName]]:
    """Whether `c` is well-formed (no self-communication, pending lists free
    of duplicates), the processes occurring in it and the procedures it
    calls, in one walk with an explicit stack.  Each conditional of a
    hash-consed term is entered once, however many paths lead to it."""
    wf = True
    procs: set[Pid] = set()
    add = procs.add
    calls: set[ProcName] = set()
    entered: set[Cond] = set()
    stack: list[Choreography] = []  # branches still to visit
    while True:
        while isinstance(c, Prefix):
            eta = c.action
            if eta.sender == eta.receiver:
                wf = False
            add(eta.sender)
            add(eta.receiver)
            c = c.cont
        if isinstance(c, Cond) and c not in entered:
            entered.add(c)
            add(c.pid)
            stack.append(c.else_c)
            c = c.then_c
        elif isinstance(c, RunningCall):
            if len(set(c.pending)) != len(c.pending):
                wf = False
            procs.update(c.pending)
            calls.add(c.name)
            c = c.body
        else:
            if isinstance(c, Call):
                calls.add(c.name)
            if not stack:
                return wf, procs, calls
            c = stack.pop()


def wf_violations(prog: ChorProgram, names: set[Pid] | None = None) -> list[str]:
    """All reasons why a program is ill-formed, empty when it is fine.  Given
    `names`, the walk also adds the program's `process_names` to it.

    A procedure body may only use processes declared for it, where "use"
    includes the declared processes of any procedure the body invokes; this
    makes the declaration cover everything the body can engage at runtime.
    """
    out: list[str] = []
    defs = prog.procedures
    main_wf, main_procs, main_calls = _walk(prog.main)
    if names is not None:
        names.update(main_procs, *(proc.pids for proc in defs.values()))
    if not main_wf:
        out.append("the main choreography is not well-formed")
    walks = {name: _walk(defs[name].body) for name in sorted(defs)}
    sites = [("main", main_calls)]  # each with the procedures it calls
    for name, (body_wf, _, calls) in walks.items():
        pids = defs[name].pids
        sites.append((f"procedure {name}", calls))
        if not pids:
            out.append(f"procedure {name} declares no processes")
        if len(set(pids)) != len(pids):
            out.append(f"procedure {name} declares a process twice")
        if not body_wf:
            out.append(f"the body of procedure {name} is not well-formed")
    for site, calls in sites:
        for called in sorted(calls):
            if called not in defs:
                out.append(f"{site} calls undefined procedure {called}")
    for name, (_, used, calls) in walks.items():
        for called in defs.keys() & calls:
            used.update(defs[called].pids)
        extra = used.difference(defs[name].pids)
        if extra:
            out.append(
                f"the body of procedure {name} uses undeclared processes: "
                + ", ".join(sorted(extra))
            )
    return out


def process_names(prog: ChorProgram) -> frozenset[Pid]:
    """Every process a program can involve: those of the main choreography plus
    the declared processes of all procedures."""
    out = _walk(prog.main)[1]
    for proc in prog.procedures.values():
        out.update(proc.pids)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Semantics


Transition = tuple[TransitionLabel, Choreography, State]
TraceEntry = tuple[tuple[TransitionLabel, ...], Choreography, State]


class IllFormedError(ValueError):
    """An operation was handed a program that fails well-formedness."""


def _transition_key(tr: Transition) -> tuple:
    # The labels of one configuration's transitions are pairwise distinct, so
    # the label alone orders them: a prefix blocks its own processes for
    # every step below it, a conditional keeps only the steps that both
    # branches take, and an entered call's body steps only away from its
    # pending processes.
    return tr[0]._key


def require_wf(prog: ChorProgram) -> frozenset[Pid]:
    """Raise IllFormedError, naming every violation, unless `prog` is
    well-formed; its `process_names` otherwise, from the same walk."""
    names: set[Pid] = set()
    problems = wf_violations(prog, names)
    if problems:
        raise IllFormedError("; ".join(problems))
    return frozenset(names)


_NOBODY: frozenset[Pid] = frozenset()


def _enabled(
    defs: Mapping[ProcName, Procedure], c: Choreography, s: State
) -> tuple[Transition, ...]:
    table = defs if isinstance(defs, _Entered) else _Entered(defs)
    return tuple(sorted(_steps(table, c, s, _NOBODY), key=_transition_key))


def _steps(
    defs: _Entered, c: Choreography, s: State, blocked: AbstractSet[Pid]
) -> list[Transition]:
    """The transitions of (defs, c, s) that involve none of the `blocked`
    processes, which enclosing terms hold, unordered: only the outermost call
    needs them ordered.  An entered call's body is stepped unblocked, once
    per store, and kept in `defs.bodies`; those lists are shared, so no
    caller may change them.

    A run of prefixes is walked with a loop until its continuation is idle
    or is no prefix, and the residual prefixes are rebuilt on the way out, so
    a long run needs no stack frame per prefix."""
    fired: list = []  # per prefix walked: its action and its own transition
    if isinstance(c, Prefix):
        blocked = set(blocked)
        while isinstance(c, Prefix):
            eta = c.action
            own = None
            if eta.sender not in blocked and eta.receiver not in blocked:
                if isinstance(eta, Com):
                    v = eval_expr(eta.expr, s, eta.sender)
                    own = (CommEvent(eta.sender, v, eta.receiver), c.cont, s.set(eta.receiver, eta.var, v))
                else:
                    own = (SelectEvent(eta.sender, eta.receiver, eta.label), c.cont, s)
            fired.append((eta, own))
            blocked.add(eta.sender)
            blocked.add(eta.receiver)
            c = c.cont
            if _idle(defs, c, blocked):
                c = None  # nothing below can fire
    out: list[Transition] = []
    if isinstance(c, Cond):
        if c.pid not in blocked:
            branch = c.then_c if eval_bexpr(c.guard, s, c.pid) else c.else_c
            out.append((TauEvent(c.pid), branch, s))
        # Both branches must take the very same step for it to commute past
        # the conditional; the successors are recombined under the guard.
        blocked = blocked.union((c.pid,))
        if not (_idle(defs, c.then_c, blocked) or _idle(defs, c.else_c, blocked)):
            elses = _steps(defs, c.else_c, s, blocked)
            for t, c1, s1 in _steps(defs, c.then_c, s, blocked):
                for t2, c2, s2 in elses:
                    if t2 == t and s2 == s1:
                        out.append((t, Cond(c.pid, c.guard, c1, c2), s1))
    elif isinstance(c, Call):
        proc = defs[c.name]
        for p in proc.pids:
            if p not in blocked:
                rest = tuple(x for x in proc.pids if x != p)
                succ = proc.body if not rest else RunningCall(c.name, rest, proc.body)
                out.append((TauEvent(p), succ, s))
    elif isinstance(c, RunningCall):
        for p in c.pending:
            if p not in blocked:
                rest = tuple(x for x in c.pending if x != p)
                succ = c.body if not rest else RunningCall(c.name, rest, c.body)
                out.append((TauEvent(p), succ, s))
        blocked = blocked.union(c.pending)
        if not _idle(defs, c.body, blocked):
            key = (c.body, s)
            inner = defs.bodies.get(key)
            if inner is None:
                inner = defs.bodies[key] = _steps(defs, c.body, s, _NOBODY)
            for t, b2, s2 in inner:
                if blocked.isdisjoint(label_processes(t)):
                    out.append((t, RunningCall(c.name, c.pending, b2), s2))
    for eta, own in reversed(fired):
        for i, (t, c2, s2) in enumerate(out):
            out[i] = (t, Prefix(eta, c2), s2)
        if own is not None:
            out.append(own)
    return out


# Terms that involve more processes are kept as involving anyone: a line in
# which each interaction brings in a new process would otherwise keep a set
# per prefix, quadratic in its length.
_MAX_KEPT_PROCESSES = 64


def _idle(table: _Entered, c: Choreography, blocked: AbstractSet[Pid]) -> bool:
    """Whether every process that can act in `c` is `blocked`.  The processes
    of terms are kept in `table.processes`, None where a call may involve
    anyone or there are more than _MAX_KEPT_PROCESSES, and worked out
    bottom-up with an explicit stack.  Each new set is also kept as a key of
    its own, so equal sets are shared."""
    memo = table.processes
    if c not in memo:
        # The stack itself marks a child not worked out yet.
        stack = [c]
        while stack:
            top = stack[-1]
            if isinstance(top, Prefix):
                procs = memo.get(top.cont, stack)
                if procs is stack:
                    stack.append(top.cont)
                    continue
                own = (top.action.sender, top.action.receiver)
            elif isinstance(top, Cond):
                procs, other = memo.get(top.then_c, stack), memo.get(top.else_c, stack)
                if procs is stack or other is stack:
                    stack += [k for k, v in ((top.then_c, procs), (top.else_c, other)) if v is stack]
                    continue
                if other is None:
                    procs = None
                own = (top.pid, *(other or ()))
            else:
                procs, own = (_NOBODY if isinstance(top, End) else None), ()
            if procs is not None and not procs.issuperset(own):
                procs = procs.union(own)
                if len(procs) > _MAX_KEPT_PROCESSES:
                    procs = None
                else:
                    procs = memo.setdefault(procs, procs)
            memo[top] = procs
            stack.pop()
    procs = memo[c]
    return procs is not None and procs <= blocked


def enabled(
    defs: Mapping[ProcName, Procedure], c: Choreography, s: State
) -> tuple[Transition, ...]:
    """All single-step transitions of (defs, c, s), canonically ordered.

    Raises IllFormedError when (defs, c) is not a well-formed program.
    """
    require_wf(ChorProgram(dict(defs), c))
    return _enabled(defs, c, s)


class _Entered(dict):
    """Procedure definitions that remember the transitions of entered call
    bodies, per (body, store), and the processes of terms, for `_steps` to
    reuse.  A configuration with nested entered calls then costs its own
    transitions, not its nesting depth."""

    __slots__ = ("bodies", "processes")

    def __init__(self, defs: Mapping[ProcName, Procedure]):
        super().__init__(defs)
        self.bodies: dict = {}
        self.processes: dict = {}


def successors(defs: Mapping[ProcName, Procedure]) -> explore.Step:
    """The one-step relation of `defs` over (choreography, store)
    configurations, in the form `explore.Space` takes.  The bodies of entered
    calls are stepped once per store for the life of the relation."""
    table = _Entered(defs)

    def step(cfg: tuple[Choreography, State]) -> tuple:
        c, s = cfg
        return tuple((t, (c2, s2)) for t, c2, s2 in _enabled(table, c, s))

    return step


def traces(
    defs: Mapping[ProcName, Procedure], c: Choreography, s: State, depth: int
) -> list[TraceEntry]:
    """All (trace, configuration) pairs reachable in at most `depth` steps.

    Includes the empty trace.  Deterministic: breadth-first over canonically
    ordered transitions.
    """
    require_wf(ChorProgram(dict(defs), c))
    space = explore.Space(successors(defs))
    _, order, _ = explore.bfs(space, (c, s), depth, explore.Budget(), explore.per_trace)
    return [(tl, c1, s1) for (c1, s1), _, tl in order]
