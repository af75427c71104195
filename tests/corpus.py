"""Shared example programs and a deterministic random-program generator.

The named programs are the hand-written protocols the whole suite revolves
around; builders return fresh ASTs so tests can mutate-free share them.
"""

from __future__ import annotations

import random

from chorkit import cc
from chorkit.cc import (
    BoolLit,
    Call,
    ChorProgram,
    Com,
    Cond,
    End,
    Eq,
    Le,
    Lit,
    Prefix,
    Procedure,
    Ref,
    Sel,
    Succ,
    Label,
)


def purchase_unsafe() -> ChorProgram:
    """Buyer sends an offer; seller answers only in the accepting branch, so
    the buyer cannot tell which branch was taken: unprojectable."""
    main = Prefix(
        Com("buyer", Ref("offer"), "seller", "x"),
        Cond(
            "seller",
            Le(Ref("x"), Lit(2)),
            Prefix(Com("seller", Ref("product"), "buyer", "y"), End()),
            End(),
        ),
    )
    return ChorProgram({}, main)


def purchase_safe() -> ChorProgram:
    """The purchase protocol with the selections that make it projectable."""
    main = Prefix(
        Com("buyer", Ref("offer"), "seller", "x"),
        Cond(
            "seller",
            Le(Ref("x"), Lit(2)),
            Prefix(
                Sel("seller", "buyer", Label.LEFT),
                Prefix(Com("seller", Ref("product"), "buyer", "y"), End()),
            ),
            Prefix(Sel("seller", "buyer", Label.RIGHT), End()),
        ),
    )
    return ChorProgram({}, main)


def parallel_orders() -> ChorProgram:
    """Two causally independent orders to two different providers."""
    main = Prefix(
        Com("o1", Ref("order"), "p1", "x"),
        Prefix(Com("o2", Ref("order"), "p2", "y"), End()),
    )
    return ChorProgram({}, main)


def delayed_choice() -> ChorProgram:
    """A conditional that can resolve before the communication ahead of it."""
    main = Prefix(
        Com("p", Ref("e"), "q", "x"),
        Cond(
            "r",
            Eq(Ref("flag"), Lit(0)),
            Prefix(Com("r", Ref("e2"), "p", "y"), End()),
            End(),
        ),
    )
    return ChorProgram({}, main)


def proxy_choice() -> ChorProgram:
    """q relays a value to r either way; only q needs to learn p's choice."""
    main = Cond(
        "p",
        Eq(Ref("flag"), Lit(0)),
        Prefix(
            Com("p", Ref("e"), "q", "x"),
            Prefix(Com("q", Ref("e2"), "r", "y"), End()),
        ),
        Prefix(Com("q", Ref("e3"), "r", "y"), End()),
    )
    return ChorProgram({}, main)


def blocked_selection() -> ChorProgram:
    """Both branches start with the same q-to-r step, so it can run before the
    conditional; any selection inserted ahead of it blocks that reordering."""
    main = Cond(
        "p",
        Eq(Ref("flag"), Lit(0)),
        Prefix(
            Com("q", Ref("e"), "r", "x"),
            Prefix(Com("q", Ref("e"), "p", "x"), End()),
        ),
        Prefix(Com("q", Ref("e"), "r", "x"), End()),
    )
    return ChorProgram({}, main)


def successor_fn() -> ChorProgram:
    """Implements n -> n + 1 from p's x into q's x."""
    return ChorProgram({}, Prefix(Com("p", Succ(Ref("x")), "q", "x"), End()))


def equality_fn() -> ChorProgram:
    """Implements (n1, n2) -> 1 if n1 == n2 else 0, inputs at p and q,
    output at r."""
    main = Prefix(
        Com("q", Ref("x"), "p", "y"),
        Cond(
            "p",
            Eq(Ref("x"), Ref("y")),
            Prefix(Com("p", Succ(Ref("z")), "r", "x"), End()),
            Prefix(Com("q", Lit(0), "r", "x"), End()),
        ),
    )
    return ChorProgram({}, main)


def endless_loop() -> ChorProgram:
    """A procedure that calls itself forever; never reaches the end."""
    return ChorProgram({"Loop": Procedure(("p",), Call("Loop"))}, Call("Loop"))


def procedure_demo() -> ChorProgram:
    """A two-party handshake factored into a procedure."""
    body = Prefix(Com("p", Ref("ping"), "q", "x"), End())
    return ChorProgram({"Ping": Procedure(("p", "q"), body)}, Call("Ping"))


def named_corpus() -> list[tuple[str, ChorProgram]]:
    return [
        ("purchase_unsafe", purchase_unsafe()),
        ("purchase_safe", purchase_safe()),
        ("parallel_orders", parallel_orders()),
        ("delayed_choice", delayed_choice()),
        ("proxy_choice", proxy_choice()),
        ("blocked_selection", blocked_selection()),
        ("successor_fn", successor_fn()),
        ("equality_fn", equality_fn()),
        ("endless_loop", endless_loop()),
        ("procedure_demo", procedure_demo()),
    ]


# ---------------------------------------------------------------------------
# Random well-formed programs


_PIDS = ("p", "q", "r")
_VARS = ("x", "y")


def _random_expr(rng: random.Random) -> cc.Expr:
    roll = rng.random()
    if roll < 0.4:
        return Lit(rng.randrange(3))
    if roll < 0.8:
        return Ref(rng.choice(_VARS))
    return Succ(Ref(rng.choice(_VARS)))


def _random_guard(rng: random.Random) -> cc.BExpr:
    roll = rng.random()
    if roll < 0.2:
        return BoolLit(rng.random() < 0.5)
    if roll < 0.6:
        return Eq(_random_expr(rng), _random_expr(rng))
    return Le(_random_expr(rng), _random_expr(rng))


def _random_chor(
    rng: random.Random,
    budget: int,
    pids: tuple[str, ...],
    callables: tuple[str, ...],
) -> cc.Choreography:
    if budget <= 1 or len(pids) < 2:
        if callables and rng.random() < 0.3:
            return Call(rng.choice(callables))
        return End()
    roll = rng.random()
    if roll < 0.35:
        sender, receiver = rng.sample(pids, 2)
        var = rng.choice(_VARS)
        return Prefix(
            Com(sender, _random_expr(rng), receiver, var),
            _random_chor(rng, budget - 1, pids, callables),
        )
    if roll < 0.5:
        sender, receiver = rng.sample(pids, 2)
        label = rng.choice((Label.LEFT, Label.RIGHT))
        return Prefix(
            Sel(sender, receiver, label),
            _random_chor(rng, budget - 1, pids, callables),
        )
    if roll < 0.8:
        pid = rng.choice(pids)
        left_budget = rng.randint(1, max(1, budget - 2))
        return Cond(
            pid,
            _random_guard(rng),
            _random_chor(rng, left_budget, pids, callables),
            _random_chor(rng, budget - 1 - left_budget, pids, callables),
        )
    if callables and roll < 0.9:
        return Call(rng.choice(callables))
    return End()


def _random_program(rng: random.Random) -> ChorProgram:
    budget = 8
    n_defs = rng.choice((0, 0, 1, 1, 2))
    procedures: dict[str, Procedure] = {}
    names: list[str] = []
    for name in ("X", "Y")[:n_defs]:
        # A body may call only procedures whose processes it also declares.
        k = rng.randint(2, 3)
        declared = tuple(sorted(rng.sample(_PIDS, k)))
        nested = tuple(
            n for n in names if set(procedures[n].pids) <= set(declared)
        )
        if rng.random() < 0.5:
            nested = nested + (name,)
        body_budget = rng.randint(1, 3)
        body = _random_chor(rng, body_budget, declared, nested)
        procedures[name] = Procedure(declared, body)
        names.append(name)
        budget -= body_budget
    main = _random_chor(rng, max(2, budget), _PIDS, tuple(names))
    return ChorProgram(procedures, main)


def random_programs(seed: int, count: int) -> list[ChorProgram]:
    """Deterministic stream of well-formed programs for property testing."""
    rng = random.Random(seed)
    out: list[ChorProgram] = []
    while len(out) < count:
        prog = _random_program(rng)
        if not cc.wf_violations(prog):
            out.append(prog)
    return out
