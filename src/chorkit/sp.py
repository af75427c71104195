"""Stateful process networks: the local language compilation targets.

Each participant runs a behaviour; a network maps process names to behaviours
and steps when two processes perform matching send/receive or select/offer
actions, or when one process resolves a local conditional or unfolds a call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Union

from . import explore
from .cc import (
    BExpr,
    CommEvent,
    Expr,
    Label,
    Pid,
    ProcName,
    SelectEvent,
    State,
    TauEvent,
    TransitionLabel,
    VarName,
    _node,
    eval_bexpr,
    eval_expr,
    label_key,
)


@_node
class End:
    """The terminated behaviour."""


@_node
class Send:
    """Evaluate expr locally and send the result to dst."""

    dst: Pid
    expr: Expr
    cont: "Behaviour"


@_node
class Recv:
    """Receive a value from src into var."""

    src: Pid
    var: VarName
    cont: "Behaviour"


@_node
class Choose:
    """Send the selection label to dst."""

    dst: Pid
    label: Label
    cont: "Behaviour"


@_node
class Offer:
    """Wait for a selection label from src; either option may be missing."""

    src: Pid
    left: Optional["Behaviour"]
    right: Optional["Behaviour"]


@_node
class Cond:
    """Branch on a locally evaluated guard."""

    guard: BExpr
    then_b: "Behaviour"
    else_b: "Behaviour"


@_node
class Call:
    """Invocation of a named behaviour procedure."""

    name: ProcName


Behaviour = Union[End, Send, Recv, Choose, Offer, Cond, Call]


class Network:
    """Finite map from process names to behaviours; absent entries are End.

    Canonical: terminated entries are never stored, so extensional equality
    coincides with equality of the underlying maps.  The hash is computed
    once, when the network is made.
    """

    __slots__ = ("_map", "_hash")

    def __init__(self, mapping: Mapping[Pid, Behaviour] | None = None):
        self._seal({p: b for p, b in (mapping or {}).items() if not isinstance(b, End)})

    def _seal(self, mapping: dict[Pid, Behaviour]) -> None:
        self._map = mapping
        self._hash = hash(frozenset(mapping.items()))

    def get(self, p: Pid) -> Behaviour:
        return self._map.get(p, End())

    def set(self, p: Pid, b: Behaviour) -> "Network":
        return self._put(((p, b),))

    def _put(self, pairs: tuple[tuple[Pid, Behaviour], ...]) -> "Network":
        """A copy with each (process, behaviour) pair written in, in order."""
        out = dict(self._map)
        for p, b in pairs:
            if isinstance(b, End):
                out.pop(p, None)
            else:
                out[p] = b
        fresh = Network.__new__(Network)
        fresh._seal(out)
        return fresh

    def support(self) -> tuple[Pid, ...]:
        """Processes with a non-terminated behaviour, in canonical order."""
        return tuple(sorted(self._map))

    def items(self) -> tuple[tuple[Pid, Behaviour], ...]:
        return tuple(sorted(self._map.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Network) and self._map == other._map

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Network({dict(sorted(self._map.items()))!r})"


@dataclass
class SPProgram:
    """A finite set of behaviour procedures plus the running network.

    `processes`, when known, names every process of the program: the network
    drops a process once it has ended.  Endpoint projection records the
    choreography's; it takes no part in comparisons or the repr."""

    procedures: dict[ProcName, Behaviour]
    net: Network
    processes: Optional[frozenset[Pid]] = field(default=None, compare=False, repr=False)


def _self_addressed(p: Pid, b: Behaviour) -> bool:
    """Whether `b` addresses an action to `p` itself.  Shared subterms of a
    hash-consed behaviour are visited once, and an explicit stack takes the
    place of recursion; a missing offer option is a `None` that matches no
    case."""
    seen: set[Optional[Behaviour]] = set()
    stack: list[Optional[Behaviour]] = [b]
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        if isinstance(b, (Send, Choose)):
            if b.dst == p:
                return True
            stack.append(b.cont)
        elif isinstance(b, Recv):
            if b.src == p:
                return True
            stack.append(b.cont)
        elif isinstance(b, Offer):
            if b.src == p:
                return True
            stack += (b.left, b.right)
        elif isinstance(b, Cond):
            stack += (b.then_b, b.else_b)
    return False


def network_wf(n: Network) -> bool:
    """No behaviour may address a communication to its own process."""
    return not any(_self_addressed(p, b) for p, b in n.items())


class IllFormedNetworkError(ValueError):
    """An operation was handed a network that fails well-formedness."""


def require_wf(n: Network) -> None:
    """Raise IllFormedNetworkError unless `network_wf(n)`."""
    if not network_wf(n):
        raise IllFormedNetworkError("network contains a self-addressed action")


class UndefinedProcedureError(RuntimeError):
    """A running behaviour invoked a procedure that has no definition."""


Transition = tuple[TransitionLabel, Network, State]
TraceEntry = tuple[tuple[TransitionLabel, ...], Network, State]


def _transition_key(tr: Transition) -> tuple:
    # Each process contributes at most one transition, and its label names
    # that process, so the label alone orders them.
    return label_key(tr[0])


def _enabled(
    defs: Mapping[ProcName, Behaviour], n: Network, s: State
) -> tuple[Transition, ...]:
    net = n._map
    out: list[Transition] = []
    for p, b in net.items():
        if isinstance(b, Send):
            partner = net.get(b.dst)
            if isinstance(partner, Recv) and partner.src == p:
                v = eval_expr(b.expr, s, p)
                n2 = n._put(((p, b.cont), (b.dst, partner.cont)))
                out.append((CommEvent(p, v, b.dst), n2, s.set(b.dst, partner.var, v)))
        elif isinstance(b, Choose):
            partner = net.get(b.dst)
            if isinstance(partner, Offer) and partner.src == p:
                option = partner.left if b.label is Label.LEFT else partner.right
                if option is not None:
                    n2 = n._put(((p, b.cont), (b.dst, option)))
                    out.append((SelectEvent(p, b.dst, b.label), n2, s))
        elif isinstance(b, Cond):
            chosen = b.then_b if eval_bexpr(b.guard, s, p) else b.else_b
            out.append((TauEvent(p), n.set(p, chosen), s))
        elif isinstance(b, Call):
            if b.name not in defs:
                raise UndefinedProcedureError(f"procedure {b.name} is not defined")
            out.append((TauEvent(p), n.set(p, defs[b.name]), s))
    return tuple(sorted(out, key=_transition_key))


def enabled(
    defs: Mapping[ProcName, Behaviour], n: Network, s: State
) -> tuple[Transition, ...]:
    """All single-step transitions of (defs, n, s), canonically ordered."""
    require_wf(n)
    return _enabled(defs, n, s)


def successors(defs: Mapping[ProcName, Behaviour]) -> explore.Step:
    """The one-step relation of `defs` over (network, store) configurations,
    in the form `explore.Space` takes."""

    def step(cfg: tuple[Network, State]) -> tuple:
        n, s = cfg
        return tuple((t, (n2, s2)) for t, n2, s2 in _enabled(defs, n, s))

    return step


def traces(
    defs: Mapping[ProcName, Behaviour], n: Network, s: State, depth: int
) -> list[TraceEntry]:
    """All (trace, configuration) pairs reachable in at most `depth` steps."""
    require_wf(n)
    space = explore.Space(successors(defs))
    _, order, _ = explore.bfs(space, (n, s), depth, explore.Budget(), explore.per_trace)
    return [(tl, n1, s1) for (n1, s1), _, tl in order]
