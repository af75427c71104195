"""Seeded inputs for the benchmark, independent of the package and its tests.

Programs are plain tuples, emitted as surface syntax in exactly the layout of
`chorkit.syntax.render_program`, so the package only ever sees source text:

    ("com", sender, expr, receiver, var, cont)    ("sel", sender, receiver, label, cont)
    ("if", pid, guard, then, else)                ("call", name)        END
    expr:  ("lit", n) | ("ref", var) | ("succ", expr)
    guard: ("bool", b) | ("eq", e1, e2) | ("le", e1, e2)

A program is (definitions, main) with definitions a tuple of
(name, pids, body) sorted by name.  Emission and process collection use
explicit stacks, so inputs deeper than Python's recursion limit are fine here;
the random generator and the projectability oracle recurse and are only used
on small programs.
"""

from __future__ import annotations

import random

ACCEPTANCE_SEED = 20260808
END = ("end",)

# ---------------------------------------------------------------------------
# Emission


def _expr(e) -> str:
    if e[0] == "lit":
        return str(e[1])
    if e[0] == "ref":
        return e[1]
    return f"succ({_expr(e[1])})"


def _guard(g) -> str:
    if g[0] == "bool":
        return "true" if g[1] else "false"
    op = "==" if g[0] == "eq" else "<="
    return f"{_expr(g[1])} {op} {_expr(g[2])}"


def _chor(c, indent: int) -> str:
    out: list[str] = []
    stack: list = [(c, indent)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, ind = item
        pad = "  " * ind
        kind = node[0]
        if kind == "end":
            out.append(f"{pad}end")
        elif kind == "call":
            out.append(f"{pad}call {node[1]}")
        elif kind == "com":
            _, s, e, r, var, cont = node
            out.append(f"{pad}{s}.{_expr(e)} -> {r}.{var};\n")
            stack.append((cont, ind))
        elif kind == "sel":
            _, s, r, label, cont = node
            out.append(f"{pad}{s} -> {r}[{label}];\n")
            stack.append((cont, ind))
        else:
            _, pid, guard, then_c, else_c = node
            out.append(f"{pad}if {pid}.{_guard(guard)} then {{\n")
            stack.extend(
                (f"\n{pad}}}", (else_c, ind + 1), f"\n{pad}}} else {{\n", (then_c, ind + 1))
            )
    return "".join(out)


def emit(prog) -> str:
    """Source text of a program, laid out as `syntax.render_program` lays it out."""
    defs, main = prog
    parts = [f"def {name}({', '.join(pids)}) =\n{_chor(body, 1)}" for name, pids, body in defs]
    parts.append(f"main =\n{_chor(main, 1)}")
    return "\n\n".join(parts) + "\n"


def main_processes(prog) -> frozenset[str]:
    """Processes occurring syntactically in the main choreography."""
    out: set[str] = set()
    stack = [prog[1]]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind in ("com", "sel"):
            out.update((node[1], node[3] if kind == "com" else node[2]))
            stack.append(node[-1])
        elif kind == "if":
            out.add(node[1])
            stack.extend((node[3], node[4]))
    return frozenset(out)


def processes(prog) -> frozenset[str]:
    """Every process a program can involve: main's plus all declared ones."""
    out = set(main_processes(prog))
    for _, pids, _ in prog[0]:
        out.update(pids)
    return frozenset(out)


def strip_selections(text: str) -> str:
    """Source text with every selection line removed (amendment adds only those)."""
    kept = [
        line
        for line in text.splitlines()
        if not (line.endswith("[left];") or line.endswith("[right];"))
    ]
    return "\n".join(kept)


# ---------------------------------------------------------------------------
# Projectability oracle: an independent reading of the paper's merge and
# behaviour projection, so the benchmark's expected `check` exit codes never
# come from the code under test.


class _Unprojectable(Exception):
    pass


def _merge(b1, b2):
    if b1[0] != b2[0]:
        raise _Unprojectable
    kind = b1[0]
    if kind == "end":
        return b1
    if kind in ("send", "recv", "choose"):
        if b1[1:3] != b2[1:3]:
            raise _Unprojectable
        return (kind, b1[1], b1[2], _merge(b1[3], b2[3]))
    if kind == "cond":
        if b1[1] != b2[1]:
            raise _Unprojectable
        return ("cond", b1[1], _merge(b1[2], b2[2]), _merge(b1[3], b2[3]))
    if kind == "call":
        if b1[1] != b2[1]:
            raise _Unprojectable
        return b1
    if b1[1] != b2[1]:  # offer
        raise _Unprojectable
    slots = []
    for o1, o2 in ((b1[2], b2[2]), (b1[3], b2[3])):
        slots.append(o2 if o1 is None else o1 if o2 is None else _merge(o1, o2))
    return ("offer", b1[1], *slots)


def _project(decls: dict, c, r):
    kind = c[0]
    if kind == "com":
        _, s, e, rcv, var, cont = c
        rest = _project(decls, cont, r)
        if r == s:
            return ("send", rcv, e, rest)
        if r == rcv:
            return ("recv", s, var, rest)
        return rest
    if kind == "sel":
        _, s, rcv, label, cont = c
        rest = _project(decls, cont, r)
        if r == s:
            return ("choose", rcv, label, rest)
        if r == rcv:
            return ("offer", s, rest, None) if label == "left" else ("offer", s, None, rest)
        return rest
    if kind == "if":
        then_b = _project(decls, c[3], r)
        else_b = _project(decls, c[4], r)
        if r == c[1]:
            return ("cond", c[2], then_b, else_b)
        return _merge(then_b, else_b)
    if kind == "call":
        return ("call", c[1]) if r in decls.get(c[1], ()) else END
    return END


def projectable(prog) -> bool:
    """Is endpoint projection defined for the whole program?"""
    defs, main = prog
    decls = {name: pids for name, pids, _ in defs}
    sites = [(main, sorted(processes(prog)))] + [(body, pids) for _, pids, body in defs]
    try:
        for term, pids in sites:
            for r in pids:
                _project(decls, term, r)
    except _Unprojectable:
        return False
    return True


# ---------------------------------------------------------------------------
# Random programs, drawn exactly as the test suite's generator draws them


_VARS = ("x", "y")


def _random_expr(rng: random.Random):
    roll = rng.random()
    if roll < 0.4:
        return ("lit", rng.randrange(3))
    if roll < 0.8:
        return ("ref", rng.choice(_VARS))
    return ("succ", ("ref", rng.choice(_VARS)))


def _random_guard(rng: random.Random):
    roll = rng.random()
    if roll < 0.2:
        return ("bool", rng.random() < 0.5)
    if roll < 0.6:
        return ("eq", _random_expr(rng), _random_expr(rng))
    return ("le", _random_expr(rng), _random_expr(rng))


def _random_chor(rng: random.Random, budget: int, pids: tuple, callables: tuple):
    if budget <= 1 or len(pids) < 2:
        if callables and rng.random() < 0.3:
            return ("call", rng.choice(callables))
        return END
    roll = rng.random()
    if roll < 0.35:
        sender, receiver = rng.sample(pids, 2)
        var = rng.choice(_VARS)
        expr = _random_expr(rng)
        return ("com", sender, expr, receiver, var, _random_chor(rng, budget - 1, pids, callables))
    if roll < 0.5:
        sender, receiver = rng.sample(pids, 2)
        label = rng.choice(("left", "right"))
        return ("sel", sender, receiver, label, _random_chor(rng, budget - 1, pids, callables))
    if roll < 0.8:
        pid = rng.choice(pids)
        left_budget = rng.randint(1, max(1, budget - 2))
        guard = _random_guard(rng)
        then_c = _random_chor(rng, left_budget, pids, callables)
        return ("if", pid, guard, then_c, _random_chor(rng, budget - 1 - left_budget, pids, callables))
    if callables and roll < 0.9:
        return ("call", rng.choice(callables))
    return END


def _random_program(rng: random.Random, pids: tuple, budget: int, body_max: int):
    n_defs = rng.choice((0, 0, 1, 1, 2))
    defs = []
    declared_of: dict = {}
    for name in ("X", "Y")[:n_defs]:
        # A body may call only procedures whose processes it also declares.
        k = rng.randint(2, 3)
        declared = tuple(sorted(rng.sample(pids, k)))
        nested = tuple(n for n in declared_of if set(declared_of[n]) <= set(declared))
        if rng.random() < 0.5:
            nested = nested + (name,)
        body_budget = rng.randint(1, body_max)
        defs.append((name, declared, _random_chor(rng, body_budget, declared, nested)))
        declared_of[name] = declared
        budget -= body_budget
    main = _random_chor(rng, max(2, budget), pids, tuple(declared_of))
    return tuple(defs), main


def random_programs(seed: int, count: int, pids=("p", "q", "r"), budget=8, body_max=3):
    """`count` programs from one seeded stream.

    With the default shape this is the test suite's
    `corpus.random_programs(seed, count)`: its programs are well-formed by
    construction, so no draw is ever rejected.  Renaming `pids` monotonically
    renames the programs and changes nothing else.
    """
    rng = random.Random(seed)
    return [_random_program(rng, tuple(pids), budget, body_max) for _ in range(count)]


def names(seed: int, count: int, default: tuple = ()) -> tuple[str, ...]:
    """`count` distinct one-letter process names in sorted order, drawn from
    the seed; `default` for the acceptance seed."""
    if seed == ACCEPTANCE_SEED and default:
        return default
    return tuple(sorted(random.Random(seed).sample("abcdefghijklmnopqrstuvwz", count)))


# ---------------------------------------------------------------------------
# The named corpus of the paper's examples


def _com(s, e, r, var, cont=END):
    return ("com", s, e, r, var, cont)


def _ref(v):
    return ("ref", v)


def _lit(n):
    return ("lit", n)


def named_corpus() -> list:
    """The hand-written example protocols, in the test suite's order."""
    flag0 = ("eq", _ref("flag"), _lit(0))
    return [
        ("purchase_unsafe", ((), _com("buyer", _ref("offer"), "seller", "x", (
            "if", "seller", ("le", _ref("x"), _lit(2)),
            _com("seller", _ref("product"), "buyer", "y"), END)))),
        ("purchase_safe", ((), _com("buyer", _ref("offer"), "seller", "x", (
            "if", "seller", ("le", _ref("x"), _lit(2)),
            ("sel", "seller", "buyer", "left", _com("seller", _ref("product"), "buyer", "y")),
            ("sel", "seller", "buyer", "right", END))))),
        ("parallel_orders", ((), _com("o1", _ref("order"), "p1", "x",
                                      _com("o2", _ref("order"), "p2", "y")))),
        ("delayed_choice", ((), _com("p", _ref("e"), "q", "x", (
            "if", "r", flag0, _com("r", _ref("e2"), "p", "y"), END)))),
        ("proxy_choice", ((), (
            "if", "p", flag0,
            _com("p", _ref("e"), "q", "x", _com("q", _ref("e2"), "r", "y")),
            _com("q", _ref("e3"), "r", "y")))),
        ("blocked_selection", ((), (
            "if", "p", flag0,
            _com("q", _ref("e"), "r", "x", _com("q", _ref("e"), "p", "x")),
            _com("q", _ref("e"), "r", "x")))),
        ("successor_fn", ((), _com("p", ("succ", _ref("x")), "q", "x"))),
        ("equality_fn", ((), _com("q", _ref("x"), "p", "y", (
            "if", "p", ("eq", _ref("x"), _ref("y")),
            _com("p", ("succ", _ref("z")), "r", "x"),
            _com("q", _lit(0), "r", "x"))))),
        ("endless_loop", ((("Loop", ("p",), ("call", "Loop")),), ("call", "Loop"))),
        ("procedure_demo", ((("Ping", ("p", "q"), _com("p", _ref("ping"), "q", "x")),),
                            ("call", "Ping"))),
    ]


def corpus(seed: int) -> list:
    """The named corpus plus 50 random programs: at the acceptance seed exactly
    the acceptance corpus, at any other seed the same programs with their
    three processes renamed."""
    pids = names(seed, 3, ("p", "q", "r"))
    randoms = random_programs(ACCEPTANCE_SEED, 50, pids)
    return named_corpus() + [(f"random_{i:02d}", prog) for i, prog in enumerate(randoms)]


# ---------------------------------------------------------------------------
# Shaped inputs


def pairs(k: int, pids: tuple, rng: random.Random):
    """k independent pairs, each exchanging three messages in sequence."""
    c = END
    for j in reversed(range(k)):
        a, b = pids[2 * j], pids[2 * j + 1]
        for s, r, var in reversed(((a, b, "x"), (b, a, "y"), (a, b, "z"))):
            c = _com(s, _lit(rng.randrange(10)), r, var, c)
    return (), c


def line(n: int, pids: tuple, rng: random.Random):
    """n interactions passed round a ring of processes."""
    c = END
    for i in reversed(range(n)):
        c = _com(pids[i % len(pids)], _lit(rng.randrange(10)), pids[(i + 1) % len(pids)], "x", c)
    return (), c


def chain(d: int, pids: tuple, rng: random.Random):
    """d nested conditionals over three processes; the third process of each
    level acts differently in the two branches, so every level needs amending."""
    c = END
    for i in reversed(range(d)):
        a, b, o = pids[i % 3], pids[(i + 1) % 3], pids[(i + 2) % 3]
        c = _com(b, _lit(rng.randrange(10)), a, "x", (
            "if", a, ("le", _ref("x"), _lit(i)),
            _com(a, _lit(rng.randrange(10)), o, "y", c),
            _com(o, _lit(rng.randrange(10)), b, "y")))
    return (), c
