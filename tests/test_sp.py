"""Process networks: construction, well-formedness, and the semantics."""

from __future__ import annotations

import random

import pytest

import corpus
from chorkit import cc, sp
from chorkit.cc import CommEvent, Label, Le, Lit, Ref, SelectEvent, State, TauEvent
from chorkit.sp import Choose, Cond, End, Network, Offer, Recv, Send


def purchase_network() -> Network:
    """The two-process implementation of the safe purchase protocol."""
    buyer = Send("seller", Ref("offer"), Offer("seller", Recv("seller", "y", End()), End()))
    seller = Recv(
        "buyer",
        "x",
        Cond(
            Le(Ref("x"), Lit(2)),
            Choose("buyer", Label.LEFT, Send("buyer", Ref("product"), End())),
            Choose("buyer", Label.RIGHT, End()),
        ),
    )
    return Network({"buyer": buyer, "seller": seller})


def test_singleton_of_end_is_empty():
    assert Network({"p": End()}) == Network()
    assert Network({"p": End()}).support() == ()


def test_singleton_read_back():
    b = Send("q", Ref("e"), End())
    assert Network({"p": b}).get("p") == b


def test_singleton_other_processes_default_to_end():
    assert Network({"p": Send("q", Ref("e"), End())}).get("q") == End()


# Networks compose by writing the entries of one into the other.


def test_compose_is_left_biased():
    b1 = Send("q", Ref("e"), End())
    b2 = Recv("q", "x", End())
    assert Network({"p": b2}).set("p", b1).get("p") == b1


def test_compose_left_identity():
    n = purchase_network()
    assert Network(dict(n.items())) == n
    assert hash(Network(dict(n.items()))) == hash(n)


def test_compose_disjoint_domains():
    b1 = Send("q", Ref("e"), End())
    b2 = Recv("p", "x", End())
    n = Network({"p": b1}).set("q", b2)
    assert n.get("q") == b2 and n.get("p") == b1
    assert n == Network({"q": b2, "p": b1})


def test_remove_drops_one_process():
    b = Send("q", Ref("e"), End())
    assert Network({"p": b}).set("p", End()) == Network()
    assert Network().set("p", End()) == Network()
    n = Network({"p": b, "q": Recv("p", "x", End())})
    assert n.set("p", End()).get("q") == Recv("p", "x", End())
    assert n.set("p", End()).support() == ("q",)


def test_network_wf_accepts_purchase_network():
    assert sp.network_wf(purchase_network())


def test_network_wf_rejects_self_addressed_send():
    assert not sp.network_wf(Network({"p": Send("p", Ref("e"), End())}))


def test_network_wf_accepts_empty():
    assert sp.network_wf(Network())


def test_network_canonical_round_trip():
    n = purchase_network()
    assert Network(dict(n.items())) == n
    assert n.set("buyer", End()).support() == ("seller",)


# ---------------------------------------------------------------------------
# Semantics


def test_purchase_network_has_exactly_one_first_step():
    s = State({("buyer", "offer"): 2})
    steps = sp.enabled({}, purchase_network(), s)
    assert len(steps) == 1
    t, n2, s2 = steps[0]
    assert t == CommEvent("buyer", 2, "seller")
    assert s2.get("seller", "x") == 2
    assert isinstance(n2.get("seller"), Cond)
    fresh = sp.enabled({}, purchase_network(), State())
    assert [t for t, _, _ in fresh] == [CommEvent("buyer", 0, "seller")]


def test_left_selection_steps_into_left_option():
    n = Network(
        {
            "p": Choose("q", Label.LEFT, End()),
            "q": Offer("p", End(), None),
        }
    )
    steps = sp.enabled({}, n, State())
    assert steps == ((SelectEvent("p", "q", Label.LEFT), Network(), State()),)


def test_missing_branch_blocks_selection():
    n = Network(
        {
            "p": Choose("q", Label.RIGHT, End()),
            "q": Offer("p", End(), None),
        }
    )
    assert sp.enabled({}, n, State()) == ()


def test_conditional_resolves_locally():
    n = Network({"p": Cond(Le(Lit(1), Lit(0)), End(), Send("q", Ref("e"), End()))})
    steps = sp.enabled({}, n, State())
    assert len(steps) == 1
    t, n2, _ = steps[0]
    assert t == TauEvent("p")
    assert n2.get("p") == Send("q", Ref("e"), End())


def test_call_unfolds_from_the_procedure_set():
    defs = {"X": Send("q", Ref("e"), End())}
    steps = sp.enabled(defs, Network({"p": sp.Call("X")}), State())
    assert steps == ((TauEvent("p"), Network({"p": defs["X"]}), State()),)


def test_undefined_procedure_is_an_execution_error():
    with pytest.raises(sp.UndefinedProcedureError):
        sp.enabled({}, Network({"p": sp.Call("X")}), State())


def test_enabled_rejects_ill_formed_networks():
    with pytest.raises(sp.IllFormedNetworkError):
        sp.enabled({}, Network({"p": Send("p", Ref("e"), End())}), State())


def test_purchase_network_accepting_run_prefix():
    s = State({("buyer", "offer"): 2})
    entries = sp.traces({}, purchase_network(), s, 3)
    prefix = (
        CommEvent("buyer", 2, "seller"),
        TauEvent("seller"),
        SelectEvent("seller", "buyer", Label.LEFT),
    )
    assert prefix in {tl for tl, _, _ in entries}


def test_traces_of_empty_network():
    assert sp.traces({}, Network(), State(), 4) == [((), Network(), State())]


def test_traces_depth_zero():
    n = purchase_network()
    assert sp.traces({}, n, State(), 0) == [((), n, State())]


# ---------------------------------------------------------------------------
# Properties


def test_steps_never_grow_the_support():
    for _, prog in corpus.named_corpus():
        from chorkit import projection

        if not projection.projectable_program(prog):
            continue
        compiled = projection.epp(prog)
        for _, n, s in sp.traces(compiled.procedures, compiled.net, State(), 4):
            before = set(n.support())
            for _, n2, _ in sp._enabled(compiled.procedures, n, s):
                assert set(n2.support()) <= before


def test_label_determinism_on_projected_corpus():
    from chorkit import projection

    for _, prog in corpus.named_corpus():
        if not projection.projectable_program(prog):
            continue
        compiled = projection.epp(prog)
        for _, n, s in sp.traces(compiled.procedures, compiled.net, State(), 4):
            by_label: dict = {}
            for t, n2, s2 in sp._enabled(compiled.procedures, n, s):
                if t in by_label:
                    assert by_label[t] == (n2, s2)
                by_label[t] = (n2, s2)


def test_random_offer_pairs_block_exactly_the_missing_label():
    rng = random.Random(11)
    for _ in range(200):
        has_left = rng.random() < 0.5
        has_right = rng.random() < 0.5
        label = rng.choice((Label.LEFT, Label.RIGHT))
        offer = Offer(
            "p",
            End() if has_left else None,
            Recv("p", "x", End()) if has_right else None,
        )
        n = Network({"p": Choose("q", label, End()), "q": offer})
        steps = sp.enabled({}, n, State())
        available = has_left if label is Label.LEFT else has_right
        if available:
            assert [t for t, _, _ in steps] == [SelectEvent("p", "q", label)]
        else:
            assert steps == ()
