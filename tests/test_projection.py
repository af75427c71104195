"""Merging, behaviour projection, projectability, and whole-program EPP."""

from __future__ import annotations

import random

import pytest

import corpus
from chorkit import cc, projection, sp
from chorkit.cc import ChorProgram, Cond as CCond, End as CEnd, Label, Le, Lit, Ref
from chorkit.projection import (
    UnprojectableError,
    bproj,
    epp,
    merge,
    projectable,
)
from chorkit.sp import Choose, Cond, End, Network, Offer, Recv, Send


# ---------------------------------------------------------------------------
# Merge


def test_merge_end_with_end():
    assert merge(End(), End()) == End()


def test_merge_combines_disjoint_offers():
    left_only = Offer("p", Send("q", Ref("e"), End()), None)
    right_only = Offer("p", None, End())
    assert merge(left_only, right_only) == Offer(
        "p", Send("q", Ref("e"), End()), End()
    )


def test_merge_end_with_selection_is_undefined():
    assert merge(End(), Choose("p", Label.LEFT, End())) is None


def test_merge_offer_table_closure():
    some1 = Send("q", Ref("a"), End())
    some2 = Send("q", Ref("a"), End())
    other = Recv("q", "x", End())
    cases = {
        (None, None, None, None): Offer("p", None, None),
        (some1, None, None, None): Offer("p", some1, None),
        (some1, None, None, other): Offer("p", some1, other),
        (some1, None, some2, None): Offer("p", some1, None),
        (some1, other, some2, None): Offer("p", some1, other),
        (some1, other, some2, other): Offer("p", some1, other),
        (None, some1, None, some2): Offer("p", None, some1),
        (None, None, some1, other): Offer("p", some1, other),
    }
    for (l1, r1, l2, r2), expected in cases.items():
        assert merge(Offer("p", l1, r1), Offer("p", l2, r2)) == expected


def test_merge_requires_matching_offer_partner():
    assert merge(Offer("p", End(), None), Offer("q", End(), None)) is None


def test_merge_recurses_homomorphically():
    b1 = Send("q", Ref("e"), Offer("r", End(), None))
    b2 = Send("q", Ref("e"), Offer("r", None, End()))
    assert merge(b1, b2) == Send("q", Ref("e"), Offer("r", End(), End()))
    # differing payload expressions do not merge
    assert merge(Send("q", Ref("e"), End()), Send("q", Ref("f"), End())) is None


def test_merge_conditionals_need_equal_guards():
    guard = Le(Ref("x"), Lit(1))
    a = Cond(guard, End(), End())
    b = Cond(guard, End(), End())
    assert merge(a, b) == Cond(guard, End(), End())
    assert merge(a, Cond(Le(Ref("x"), Lit(2)), End(), End())) is None


def _random_behaviour(rng: random.Random, depth: int) -> sp.Behaviour:
    if depth <= 0:
        return rng.choice((End(), sp.Call("X")))
    roll = rng.random()
    nxt = lambda: _random_behaviour(rng, depth - 1)
    if roll < 0.2:
        return Send(rng.choice("pqr"), Ref(rng.choice("xy")), nxt())
    if roll < 0.4:
        return Recv(rng.choice("pqr"), rng.choice("xy"), nxt())
    if roll < 0.55:
        return Choose(rng.choice("pqr"), rng.choice((Label.LEFT, Label.RIGHT)), nxt())
    if roll < 0.75:
        pick = lambda: nxt() if rng.random() < 0.7 else None
        return Offer(rng.choice("pqr"), pick(), pick())
    if roll < 0.9:
        return Cond(Le(Ref("x"), Lit(rng.randrange(2))), nxt(), nxt())
    return End()


def test_merge_is_idempotent_on_random_behaviours():
    rng = random.Random(5)
    for _ in range(300):
        b = _random_behaviour(rng, 3)
        assert merge(b, b) == b


def test_merge_is_commutative_on_random_behaviours():
    rng = random.Random(6)
    for _ in range(300):
        b1 = _random_behaviour(rng, 3)
        b2 = _random_behaviour(rng, 3)
        assert merge(b1, b2) == merge(b2, b1)


# ---------------------------------------------------------------------------
# Behaviour projection


def test_unsafe_purchase_does_not_project_on_buyer():
    prog = corpus.purchase_unsafe()
    assert bproj({}, prog.main, "buyer") is None


def test_safe_purchase_projection_on_buyer():
    prog = corpus.purchase_safe()
    expected = Send(
        "seller", Ref("offer"), Offer("seller", Recv("seller", "y", End()), End())
    )
    assert bproj({}, prog.main, "buyer") == expected


def test_safe_purchase_projection_on_seller():
    prog = corpus.purchase_safe()
    expected = Recv(
        "buyer",
        "x",
        Cond(
            Le(Ref("x"), Lit(2)),
            Choose("buyer", Label.LEFT, Send("buyer", Ref("product"), End())),
            Choose("buyer", Label.RIGHT, End()),
        ),
    )
    assert bproj({}, prog.main, "seller") == expected


def test_projection_of_end():
    assert bproj({}, CEnd(), "anyone") == End()


def test_projection_of_uninvolved_process_skips():
    prog = corpus.parallel_orders()
    assert bproj({}, prog.main, "o1") == Send("p1", Ref("order"), End())
    assert bproj({}, prog.main, "bystander") == End()


def test_projection_of_calls_depends_on_declared_processes():
    prog = corpus.procedure_demo()
    assert bproj(prog.procedures, prog.main, "p") == sp.Call("Ping")
    assert bproj(prog.procedures, prog.main, "r") == End()


def test_projection_of_entered_call():
    body = cc.Prefix(cc.Com("p", Ref("ping"), "q", "x"), CEnd())
    running = cc.RunningCall("Ping", ("q",), body)
    defs = {"Ping": cc.Procedure(("p", "q"), body)}
    assert bproj(defs, running, "q") == sp.Call("Ping")
    assert bproj(defs, running, "p") == Send("q", Ref("ping"), End())


def test_projectable_decisions():
    unsafe = corpus.purchase_unsafe()
    safe = corpus.purchase_safe()
    assert not projectable({}, unsafe.main, "buyer")
    assert projectable({}, unsafe.main, "seller")
    assert projectable({}, safe.main, "buyer")
    assert projectable({}, CEnd(), "p")


def test_projectable_all():
    def projectable_all(c, pids):
        memo: projection.Memo = {}
        return all(projectable({}, c, p, memo) for p in pids)

    safe = corpus.purchase_safe()
    unsafe = corpus.purchase_unsafe()
    assert projectable_all(safe.main, ["buyer", "seller"])
    assert projectable_all(unsafe.main, ["seller"])
    assert not projectable_all(unsafe.main, ["seller", "buyer"])
    assert projectable_all(unsafe.main, [])


# ---------------------------------------------------------------------------
# EPP


def test_epp_of_safe_purchase_is_the_expected_network():
    compiled = epp(corpus.purchase_safe())
    assert compiled.procedures == {}
    assert compiled.net == Network(
        {
            "buyer": Send(
                "seller",
                Ref("offer"),
                Offer("seller", Recv("seller", "y", End()), End()),
            ),
            "seller": Recv(
                "buyer",
                "x",
                Cond(
                    Le(Ref("x"), Lit(2)),
                    Choose("buyer", Label.LEFT, Send("buyer", Ref("product"), End())),
                    Choose("buyer", Label.RIGHT, End()),
                ),
            ),
        }
    )


def test_epp_of_end_is_empty():
    compiled = epp(ChorProgram({}, CEnd()))
    assert compiled.net == Network()
    assert compiled.procedures == {}


def test_epp_of_unsafe_purchase_blames_the_conditional_at_buyer():
    prog = corpus.purchase_unsafe()
    with pytest.raises(UnprojectableError) as exc:
        epp(prog)
    failures = exc.value.failures
    assert len(failures) == 1
    failure = failures[0]
    assert failure.process == "buyer"
    assert failure.site == "main"
    assert isinstance(failure.term, CCond)
    assert failure.term == prog.main.cont  # the conditional under the first comm


def test_epp_names_one_procedure_instance_per_participant():
    compiled = epp(corpus.procedure_demo())
    assert set(compiled.procedures) == {"Ping@p", "Ping@q"}
    assert compiled.procedures["Ping@p"] == Send("q", Ref("ping"), End())
    assert compiled.procedures["Ping@q"] == Recv("p", "x", End())
    assert compiled.net.get("p") == sp.Call("Ping@p")
    assert compiled.net.get("q") == sp.Call("Ping@q")


def test_epp_requires_well_formed_programs():
    with pytest.raises(cc.IllFormedError):
        epp(ChorProgram({}, cc.Call("X")))


def test_epp_is_deterministic():
    prog = corpus.purchase_safe()
    assert epp(prog) == epp(prog)
    for _ in range(3):
        first = epp(corpus.procedure_demo())
        second = epp(corpus.procedure_demo())
        assert first.net == second.net and first.procedures == second.procedures


def test_projection_never_diverges_on_corpus():
    for _, prog in corpus.named_corpus():
        for p in sorted(cc.process_names(prog)):
            bproj(prog.procedures, prog.main, p)  # must return, None is fine
    for prog in corpus.random_programs(13, 25):
        for p in sorted(cc.process_names(prog)):
            bproj(prog.procedures, prog.main, p)
