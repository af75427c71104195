"""Hash-consed terms: sharing, unchanged repr, and an intern table that holds
its nodes and whose sweeps free dropped terms whole, and only those.

Also checks that the projection memo leaves the CLI's output unchanged: the
memo-free projection and amendment in `oracles` must print the same.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from test_cli import _run_on_samples, _sample_commands
from chorkit import amendment, cc, projection, sp, syntax, verifier
from chorkit.cc import (
    BoolLit,
    Call,
    ChorProgram,
    Com,
    Cond,
    End,
    Eq,
    Label,
    Le,
    Lit,
    Prefix,
    Ref,
    RunningCall,
    Sel,
    State,
    Succ,
)
from chorkit.cli import main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
ACCEPTANCE_SEED = 20260808
PIDS = ("p", "q", "r")


def _corpus() -> list[tuple[str, ChorProgram]]:
    return corpus.named_corpus() + [
        (f"random_{i:02d}", prog)
        for i, prog in enumerate(corpus.random_programs(ACCEPTANCE_SEED, 50))
    ]


def _rebuild(x):
    """A structurally equal copy built bottom-up through the constructors."""
    if isinstance(x, cc._Node):
        return type(x)(*(_rebuild(getattr(x, f.name)) for f in dataclasses.fields(x)))
    return x


def _subterms(x, out: list) -> list:
    if isinstance(x, cc._Node):
        out.append(x)
        for f in dataclasses.fields(x):
            _subterms(getattr(x, f.name), out)
    return out


def _dataclass_repr(x) -> str:
    """The repr a plain dataclass of the same fields prints."""
    if isinstance(x, cc._Node):
        fields = ", ".join(
            f"{f.name}={_dataclass_repr(getattr(x, f.name))}" for f in dataclasses.fields(x)
        )
        return f"{type(x).__qualname__}({fields})"
    return repr(x)


# ---------------------------------------------------------------------------
# Generated terms

names = st.sampled_from(PIDS)
exprs = st.recursive(
    st.one_of(st.builds(Lit, st.integers(0, 120)), st.builds(Ref, st.sampled_from("xy"))),
    lambda inner: st.builds(Succ, inner),
    max_leaves=3,
)
guards = st.one_of(
    st.builds(BoolLit, st.booleans()), st.builds(Eq, exprs, exprs), st.builds(Le, exprs, exprs)
)
etas = st.one_of(
    st.builds(Com, names, exprs, names, st.sampled_from("xy")),
    st.builds(Sel, names, names, st.sampled_from(Label)),
)
pendings = st.lists(names, min_size=1, max_size=3, unique=True).map(tuple)
chors = st.recursive(
    st.one_of(st.just(End()), st.builds(Call, st.sampled_from("XY"))),
    lambda inner: st.one_of(
        st.builds(Prefix, etas, inner),
        st.builds(Cond, names, guards, inner, inner),
        st.builds(RunningCall, st.sampled_from("XY"), pendings, inner),
    ),
    max_leaves=8,
)
behaviours = st.recursive(
    st.one_of(st.just(sp.End()), st.builds(sp.Call, st.sampled_from("XY"))),
    lambda inner: st.one_of(
        st.builds(sp.Send, names, exprs, inner),
        st.builds(sp.Recv, names, st.sampled_from("xy"), inner),
        st.builds(sp.Choose, names, st.sampled_from(Label), inner),
        st.builds(sp.Offer, names, st.none() | inner, st.none() | inner),
        st.builds(sp.Cond, guards, inner, inner),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(chors, behaviours))
def test_equal_constructions_are_the_same_object(term):
    assert _rebuild(term) is term
    for sub in _subterms(term, []):
        assert dataclasses.replace(sub) is sub
        assert _rebuild(sub) == sub and hash(_rebuild(sub)) == hash(sub)


# Pairs of terms of one language: `cc.End()` and `sp.End()` print alike.
terms = st.one_of(chors, exprs, guards)
pairs = st.one_of(st.tuples(terms, terms), st.tuples(behaviours, behaviours))


@settings(max_examples=500, deadline=None)
@given(pairs)
def test_repr_is_the_dataclass_repr(pair):
    a, b = pair
    assert repr(a) == _dataclass_repr(a)
    assert (repr(a) == repr(b)) == (a is b)


def test_replace_with_a_new_field_value_shares_too():
    term = Prefix(Com("p", Lit(1), "q", "x"), End())
    other = dataclasses.replace(term, cont=Call("X"))
    assert other is Prefix(Com("p", Lit(1), "q", "x"), Call("X"))
    assert dataclasses.replace(other, cont=End()) is term


def test_repr_golden_strings():
    assert repr(Prefix(Com("p", Lit(10), "q", "x"), End())) == (
        "Prefix(action=Com(sender='p', expr=Lit(value=10), receiver='q', var='x'), cont=End())"
    )
    assert repr(RunningCall("X", ("p",), End())) == (
        "RunningCall(name='X', pending=('p',), body=End())"
    )
    assert repr(sp.Offer("p", None, sp.End())) == "Offer(src='p', left=None, right=End())"
    assert repr(cc.SelectEvent("p", "q", Label.LEFT)) == (
        "SelectEvent(sender='p', receiver='q', label=Label.LEFT)"
    )


def test_nodes_are_frozen():
    term = Lit(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        term.value = 2


# One node of every hash-consed class.
EVERY_NODE = [
    Lit(1), Ref("x"), Succ(Ref("x")), BoolLit(True), Eq(Lit(0), Lit(1)), Le(Lit(0), Ref("x")),
    Com("p", Lit(1), "q", "x"), Sel("p", "q", Label.LEFT), End(),
    Prefix(Sel("p", "q", Label.LEFT), End()), Cond("p", BoolLit(True), End(), Call("X")),
    Call("X"), RunningCall("X", ("p",), End()),
    cc.CommEvent("p", 1, "q"), cc.SelectEvent("p", "q", Label.RIGHT), cc.TauEvent("p"),
    sp.End(), sp.Send("q", Lit(1), sp.End()), sp.Recv("p", "x", sp.End()),
    sp.Choose("q", Label.LEFT, sp.End()), sp.Offer("p", sp.End(), None),
    sp.Cond(BoolLit(False), sp.End(), sp.Call("X")), sp.Call("X"),
]


def test_every_node_class_keeps_the_dataclass_contract():
    assert {type(n) for n in EVERY_NODE} == set(cc._Node.__subclasses__())
    assert len(EVERY_NODE) == len(cc._Node.__subclasses__())
    for node in EVERY_NODE:
        cls = type(node)
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert dataclasses.is_dataclass(cls) and names == cls.__match_args__, cls
        assert dataclasses.replace(node) is node
        for name in names:
            assert dataclasses.replace(node, **{name: getattr(node, name)}) is node
        for name in names + ("_key", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"assign to field '{name}'"):
                setattr(node, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"delete field '{name}'"):
                delattr(node, name)
        # Its own docstring, not the one dataclass makes from the signature.
        assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls


def test_sp_enabled_labels_are_unique_on_corpus_networks():
    for name, prog in _corpus():
        compiled = projection.epp(amendment.amend_program(prog))
        frontier = [(compiled.net, State())]
        seen = set(frontier)
        for _ in range(4):
            nxt = []
            for net, s in frontier:
                steps = sp._enabled(compiled.procedures, net, s)
                keys = [cc.label_key(t) for t, _, _ in steps]
                assert len(set(keys)) == len(keys), name
                assert keys == sorted(keys), name
                for _, net2, s2 in steps:
                    if (net2, s2) not in seen:
                        seen.add((net2, s2))
                        nxt.append((net2, s2))
            frontier = nxt


def test_state_caches_items_and_hash():
    s = State({("q", "x"): 2, ("p", "y"): 1, ("p", "z"): 0})
    assert s.items() == ((("p", "y"), 1), (("q", "x"), 2))
    t = State().set("q", "x", 2).set("p", "y", 1)
    assert s == t and hash(s) == hash(t) and s.items() == t.items()
    assert s.set("p", "y", 0).items() == ((("q", "x"), 2),)
    assert repr(s) == "State({('p', 'y'): 1, ('q', 'x'): 2})"


# ---------------------------------------------------------------------------
# The projection memo against memo-free projection and amendment


def test_amendment_and_projection_match_the_memo_free_oracles():
    for name, prog in _corpus():
        assert projection.project_failures(prog) == oracles.project_failures(prog), name
        amended = amendment.amend_program(prog)
        want = oracles.amend_program(prog)
        assert amended == want, name
        assert syntax.render_program(amended) == syntax.render_program(want), name
        got, ref = projection.epp(amended), oracles.epp(amended)
        assert (got.net, got.procedures) == (ref.net, ref.procedures), name


def test_a_memoised_failure_fails_again():
    main = corpus.purchase_unsafe().main
    memo: dict = {}
    blamed = projection.blame({}, main, "buyer", memo)
    assert isinstance(blamed, Cond)
    assert projection.blame({}, main, "buyer", memo) is blamed
    assert not projection.projectable({}, main, "buyer", memo)
    assert not projection.projectable({}, blamed, "buyer", memo)
    assert projection.projectable({}, main, "seller", memo)


def _chain(d: int) -> ChorProgram:
    """d nested conditionals; the third process of each level acts differently
    in the two branches, so every level needs amending."""
    c = End()
    for i in reversed(range(d)):
        a, b, o = PIDS[i % 3], PIDS[(i + 1) % 3], PIDS[(i + 2) % 3]
        c = Prefix(
            Com(b, Lit(i % 10), a, "x"),
            Cond(
                a,
                Le(Ref("x"), Lit(i)),
                Prefix(Com(a, Lit((i + 3) % 10), o, "y"), c),
                Prefix(Com(o, Lit((i + 7) % 10), b, "y"), End()),
            ),
        )
    return ChorProgram({}, c)


def _line(n: int) -> ChorProgram:
    """n interactions passed round a ring of four processes."""
    ring = ("a", "b", "c", "d")
    c = End()
    for i in reversed(range(n)):
        c = Prefix(Com(ring[i % 4], Lit(i % 10), ring[(i + 1) % 4], "x"), c)
    return ChorProgram({}, c)


def _sources(tmp_path: Path) -> list[Path]:
    out = sorted(SAMPLES.glob("*.chor"))
    for name, prog in [(f"chain{d}", _chain(d)) for d in (3, 25, 60)] + [
        (f"line{n}", _line(n)) for n in (10, 200)
    ]:
        path = tmp_path / f"{name}.chor"
        path.write_text(syntax.render_program(prog), encoding="utf-8")
        out.append(path)
    return out


def _run(capsys, argv: list[str]) -> tuple:
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_output_matches_the_memo_free_oracles(tmp_path, capsys, monkeypatch):
    sources = _sources(tmp_path)
    assert len(sources) == 10 + 5
    commands = []
    for src in sources:
        amended = tmp_path / f"{src.stem}.amended.chor"
        commands += [
            ["check", str(src)],
            ["amend", str(src)],
            ["amend", str(src), "-o", str(amended)],
            ["project", str(src)],
            ["project", str(amended)],
            ["check", str(amended)],
        ]
    got = [_run(capsys, argv) for argv in commands]
    for path in tmp_path.glob("*.amended.chor"):
        path.unlink()
    monkeypatch.setattr(projection, "project_failures", oracles.project_failures)
    monkeypatch.setattr(projection, "epp", oracles.epp)
    monkeypatch.setattr(amendment, "amend_program", oracles.amend_program)
    want = [_run(capsys, argv) for argv in commands]
    for argv, g, w in zip(commands, got, want):
        assert g == w, argv
    assert any(code == 1 and "cannot project for" in err for code, _, err in got)


def test_line400_epp_at_depth_2_holds(tmp_path, capsys):
    # Ordering transitions by repr of the whole continuation used to recurse
    # 400 terms deep and crash with a RecursionError.
    path = tmp_path / "line400.chor"
    path.write_text(syntax.render_program(_line(400)), encoding="utf-8")
    code, out, err = _run(capsys, ["verify", "epp", str(path), "--depth", "2"])
    assert code == 0, err
    assert "verdict: holds-within-bound" in out


# ---------------------------------------------------------------------------
# The intern table


def _nodes(term) -> list:
    """The distinct nodes of a term, walked with an explicit stack."""
    seen: dict = {}
    stack = [term]
    while stack:
        x = stack.pop()
        if isinstance(x, cc._Node) and id(x) not in seen:
            seen[id(x)] = x
            stack.extend(getattr(x, n) for n in x.__match_args__)
    return list(seen.values())


def _dead_entries() -> int:
    """The entries whose node only the table holds.  In this loop such a node
    has three references: the table's, the loop variable's and the
    argument's."""
    return sum(sys.getrefcount(node) == 3 for node in cc._TABLE.values())


def _assert_children_come_first() -> None:
    """Every node a key holds has its own entry earlier in the table."""
    where = {key: i for i, key in enumerate(cc._TABLE)}
    for key, i in where.items():
        for child in key[1:]:
            if isinstance(child, cc._Node):
                own = (type(child), *(getattr(child, n) for n in child.__match_args__))
                assert where[own] < i, key


def test_one_sweep_frees_dropped_deep_terms():
    cc._sweep()
    before = len(cc._TABLE)
    line, chain = _line(5000), _chain(200)
    # Projection and amendment build behaviours over the terms' expressions
    # and selections over their interactions, so the dead terms span classes.
    network = projection.epp(line).net
    amended = amendment.amend_program(chain).main
    assert isinstance(network.get("a"), sp.Send) and amended is not chain.main
    built = len(cc._TABLE)
    roots = [weakref.ref(t) for t in (line.main, chain.main, amended, network.get("a"))]
    del line, chain, network, amended
    # The table holds the dropped terms until the next sweep.
    assert None not in [r() for r in roots]
    cc._sweep()
    assert [r() for r in roots] == [None] * 4
    # A sweep that held the keys it visited would leave their children's
    # entries behind, held by the table alone.
    assert _dead_entries() == 0
    assert len(cc._TABLE) <= before < built - 10_000


def test_the_table_stays_bounded_over_many_dropped_programs():
    kept = Prefix(Com("p", Lit(424242), "q", "kept"), End())
    cc._sweep()
    before = len(cc._TABLE)
    rng = random.Random(ACCEPTANCE_SEED)
    largest = peak = sweeps = 0
    size = before
    for _ in range(1000):
        prog = corpus._random_program(rng)
        largest = max(largest, sum(len(_nodes(c)) for c in (prog.main, *(
            proc.body for proc in prog.procedures.values()))))
        sweeps += len(cc._TABLE) < size
        size = len(cc._TABLE)
        peak = max(peak, size)
    # A sweep runs while the last program and the one being built are both
    # alive at most.
    assert sweeps >= 10
    assert peak <= max(cc._SWEEP_MIN, cc._SWEEP_GROWTH * (before + 2 * largest))
    assert Prefix(Com("p", Lit(424242), "q", "kept"), End()) is kept
    assert Com("p", Lit(424242), "q", "kept") is kept.action
    _assert_children_come_first()


def test_a_dropped_node_is_found_again_until_a_sweep():
    cc._sweep()  # leaves room for the nodes below without another sweep
    action = Com("p", Lit(515151), "q", "again")
    key = (Prefix, action, End())
    dropped = weakref.ref(Prefix(action, End()))  # only the table holds it
    assert cc._TABLE[key] is dropped() is Prefix(action, End())
    cc._sweep()
    assert dropped() is None and key not in cc._TABLE
    newer = Lit(616161)
    again = Prefix(action, End())
    order = list(cc._TABLE)
    # The new entry goes in last, after `newer`'s and its children's.
    assert order.index((Lit, newer.value)) < order.index(key) == len(order) - 1
    assert cc._TABLE[key] is again
    _assert_children_come_first()


def _by_local(node):
    return node


def _by_list(node):
    return [node]


def _by_field(node):
    # A node built outside the table, so that only its slot holds `node`.
    parent = object.__new__(Prefix)
    Prefix.__dict__["action"].__set__(parent, node)
    Prefix.__dict__["cont"].__set__(parent, End())
    return parent


def _by_key(node):
    # A live entry whose node's slot no longer holds `node`: only the entry's
    # key does.  The slot is put back after the sweep.
    parent = Prefix(node, End())
    Prefix.__dict__["action"].__delete__(parent)
    return parent


@pytest.mark.parametrize("hold", [_by_local, _by_list, _by_field, _by_key])
def test_a_node_held_outside_the_table_survives_a_sweep(hold):
    name = hold.__name__
    node = Com("p", Lit(717171), "q", name)
    holder = hold(node)
    alive = weakref.ref(node)
    del node
    cc._sweep()
    assert alive() is not None
    assert Com("p", Lit(717171), "q", name) is alive()
    if hold is _by_key:
        Prefix.__dict__["action"].__set__(holder, alive())
        assert Prefix(alive(), End()) is holder


def test_a_node_held_only_by_a_weak_reference_is_freed():
    alive = weakref.ref(Com("p", Lit(818181), "q", "weak"))
    assert alive() is not None
    cc._sweep()
    assert alive() is None


def _outcomes(progs) -> list:
    """What amendment, projection and the three checks make of each program,
    as text and dicts, which hold no node."""
    out = []
    for prog in progs:
        amended = amendment.amend_program(prog)
        out.append(syntax.render_program(amended))
        out.append(repr(sorted(projection.epp(amended).net.items())))
        out.append(verifier.check_amend_complete(prog, State(), 4).to_dict())
        out.append(verifier.check_amend_sound(prog, State(), 4).to_dict())
        out.append(verifier.check_epp_correspondence(amended, State(), 4).to_dict())
    return out


def test_outcomes_do_not_change_when_every_new_node_sweeps(monkeypatch):
    progs = [
        syntax.parse_source((SAMPLES / f"{name}.chor").read_text(encoding="utf-8")).to_program()
        for name in ("delayed_choice", "blocked_selection", "purchase_safe", "procedure_demo")
    ]
    plain = _outcomes(progs)
    # Every constructor that adds an entry then sweeps the table.
    monkeypatch.setattr(cc, "_SWEEP_GROWTH", 1.0)
    monkeypatch.setattr(cc, "_SWEEP_MIN", 0)
    cc._sweep()
    dropped = weakref.ref(Com("p", Lit(919191), "q", "swept"))
    assert _outcomes(progs) == plain
    assert dropped() is None  # a new node swept the table


def test_cli_outputs_do_not_depend_on_node_addresses(capsys):
    commands = _sample_commands()
    first = [_run_on_samples(command, capsys) for command in commands]
    # The sweep frees the nodes of the first run, so the second run builds its
    # terms anew, at other addresses, and sets of nodes iterate in another
    # order.
    big = projection.epp(_line(3000))
    del big
    cc._sweep()
    second = [_run_on_samples(command, capsys) for command in commands]
    for command, a, b in zip(commands, first, second):
        assert a == b, command
