"""The one-step relations against references written from the definitions.

`cc._enabled` passes the processes blocked by enclosing terms down and never
enters a continuation in which all of them are blocked; `oracles.steps` builds
every transition and filters afterwards.  `sp._enabled` reads a network's map
directly and copies it once per communication; `oracles.network_steps` goes
through `support()`, `get` and two `set`s.
"""

from __future__ import annotations

import sys

from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from chorkit import amendment, cc, projection, sp, verifier
from chorkit.cc import (
    ChorProgram,
    Com,
    CommEvent,
    Cond,
    End,
    Lit,
    Prefix,
    Procedure,
    RunningCall,
    State,
)
from test_interning import ACCEPTANCE_SEED, PIDS, behaviours, chors, etas, guards, names, pendings

# ---------------------------------------------------------------------------
# Choreographies

stores = st.dictionaries(
    st.tuples(names, st.sampled_from("xy")), st.integers(0, 3), max_size=4
).map(State)
# Conditionals and entered calls under prefixes, where blocked processes are
# passed down to them.
nested = st.one_of(
    chors,
    st.builds(Prefix, etas, st.builds(Cond, names, guards, chors, chors)),
    st.builds(Prefix, etas, st.builds(RunningCall, st.sampled_from("XY"), pendings, chors)),
    st.builds(Prefix, etas, st.builds(Prefix, etas, st.builds(Cond, names, guards, chors, chors))),
)
definitions = st.fixed_dictionaries(
    {"X": st.builds(Procedure, pendings, chors), "Y": st.builds(Procedure, pendings, chors)}
)


@settings(max_examples=400, deadline=None)
@given(definitions, nested, stores)
def test_steps_match_the_memo_free_oracle_on_generated_terms(defs, c, s):
    """The first step through a plain mapping, and three steps of one
    relation, whose memos then hold the terms of earlier configurations."""
    want = oracles.successors(defs)
    assert tuple((t, (c2, s2)) for t, c2, s2 in cc._enabled(defs, c, s)) == want((c, s))
    step = cc.successors(defs)
    frontier = [(c, s)]
    for _ in range(3):
        nxt = []
        for cfg in frontier:
            moves = step(cfg)
            assert moves == want(cfg), cfg
            # Transitions are ordered by label alone, which is total only
            # because one configuration's labels are pairwise distinct.
            labels = [t for t, _ in moves]
            assert len(set(labels)) == len(labels), cfg
            nxt += [cfg2 for _, cfg2 in moves]
        frontier = nxt[:20]


def _ring(n: int, pids: tuple) -> cc.Choreography:
    """n interactions passed round a ring of processes, built from terms."""
    c = End()
    for i in reversed(range(n)):
        c = Prefix(Com(pids[i % len(pids)], Lit(i % 10), pids[(i + 1) % len(pids)], "x"), c)
    return c


def test_a_5000_interaction_ring_steps_under_the_default_recursion_limit():
    assert sys.getrecursionlimit() <= 1000
    c = _ring(5000, PIDS)
    [(label, c2, s2)] = cc._enabled({}, c, State())
    assert (label, c2, s2) == (CommEvent("p", 0, "q"), c.cont, State())
    assert cc.successors({})((c2, s2)) == ((CommEvent("q", 1, "r"), (c2.cont, State({("r", "x"): 1}))),)


def test_a_5000_interaction_line_steps_under_the_default_recursion_limit():
    """Each interaction brings in a new process, so no continuation is idle
    and the walk goes down every prefix.  The processes of only the last
    suffixes are kept: a set per suffix would hold 12.5 million entries."""
    assert sys.getrecursionlimit() <= 1000
    c = End()
    for i in reversed(range(5000)):
        c = Prefix(Com(f"p{i}", Lit(1), f"p{i + 1}", "x"), c)
    table = cc._Entered({})
    assert cc._enabled(table, c, State()) == ((CommEvent("p0", 1, "p1"), c.cont, State({("p1", "x"): 1})),)
    kept = {id(procs): len(procs) for procs in table.processes.values() if procs is not None}
    assert sum(kept.values()) < 10_000


# ---------------------------------------------------------------------------
# Stores


keys = st.tuples(names, st.sampled_from("xyz"))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(keys, st.integers(0, 3)), st.permutations(range(9)), keys, st.integers(1, 3))
def test_equal_stores_hash_alike_however_they_are_built(entries, order, key, v):
    """Built at once, by `set`s in any order (at most 9 keys exist), and with
    a value set to 0, or to another value, and back."""
    store = State(entries)
    pairs = list(entries.items())
    by_sets = State()
    for i in order:
        if i < len(pairs):
            by_sets = by_sets.set(*pairs[i][0], pairs[i][1])
    built = [State(dict(reversed(pairs))), by_sets, store.set(*key, v).set(*key, store.get(*key))]
    built += [store.set(p, x, 0).set(p, x, w) for (p, x), w in pairs]
    want = tuple(sorted((k, w) for k, w in pairs if w))
    for other in built:
        assert other == store and hash(other) == hash(store) and other.items() == want
    rest = {k: w for k, w in pairs if k != key}
    cleared = store.set(*key, 0)
    assert cleared == State(rest) and hash(cleared) == hash(State(rest))
    assert cleared.items() == tuple((k, w) for k, w in want if k != key)


# ---------------------------------------------------------------------------
# Networks


def _pairs(k: int) -> ChorProgram:
    """k independent pairs, each exchanging three messages in sequence."""
    c = End()
    for j in reversed(range(k)):
        a, b = f"a{j}", f"b{j}"
        for i, (snd, rcv, var) in reversed(list(enumerate(((a, b, "x"), (b, a, "y"), (a, b, "z"))))):
            c = Prefix(Com(snd, Lit(i + j), rcv, var), c)
    return ChorProgram({}, c)


def _same_steps(defs, n: sp.Network, s: State) -> None:
    got, want = sp._enabled(defs, n, s), oracles.network_steps(defs, n, s)
    assert [t for t, _, _ in got] == [t for t, _, _ in want]
    for (_, n2, s2), (_, m2, r2) in zip(got, want):
        assert (n2.items(), s2) == (m2.items(), r2)
        assert hash(n2) == oracles.network_hash(m2)


def test_network_steps_match_the_oracle_where_the_epp_check_goes(monkeypatch):
    stepped = []
    enabled = sp._enabled

    def recording(defs, n, s):
        stepped.append((defs, n, s))
        return enabled(defs, n, s)

    monkeypatch.setattr(sp, "_enabled", recording)
    checks = [(_pairs(k), depth) for k in range(1, 5) for depth in (4, 9)]
    checks.append((ChorProgram({}, _ring(100, ("a", "b", "c", "d"))), 6))
    for _, prog in corpus.named_corpus() + [
        (f"random_{i:02d}", p) for i, p in enumerate(corpus.random_programs(ACCEPTANCE_SEED, 50))
    ]:
        if projection.projectable_program(prog):
            checks.append((prog, 5))
        checks.append((amendment.amend_program(prog), 5))
    # The whole product walk, which steps every configuration the check can
    # reach: the check itself walks independent processes apart.
    for prog, depth in checks:
        assert oracles.epp_whole_walk(prog, State(), depth).verdict == verifier.HOLDS
    monkeypatch.undo()
    assert len(stepped) > 600
    for defs, n, s in stepped:
        _same_steps(defs, n, s)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(names, behaviours, max_size=3), names, behaviours)
def test_equal_networks_hash_alike_however_they_are_built(entries, p, b):
    net = sp.Network(entries)
    built = [
        sp.Network(dict(reversed(list(entries.items())))),
        sp.Network(dict(net.items())),
        net.set(p, b).set(p, sp.End()) if p not in entries else net,
        net.set(p, b).set(p, net.get(p)),
    ]
    grown = sp.Network()
    for q, c in entries.items():
        grown = grown.set(q, c)
        built.append(net.set(q, sp.End()).set(q, c))
    built.append(grown)
    for other in built:
        assert other == net and hash(other) == hash(net) == oracles.network_hash(net)
    removed = net.set(p, sp.End())
    assert sp.Network({**entries, p: sp.End()}) == removed
    assert hash(removed) == oracles.network_hash(removed)
    assert hash(net.set(p, b)) == oracles.network_hash(net.set(p, b))
