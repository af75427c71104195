"""Self-tests of the benchmark's inputs, hooks and declaration.

    python3 -m pytest bench/test_bench.py -q

Run from the root of a checkout; they import the package from `src/` and the
test suite's corpus from `tests/`.
"""

from __future__ import annotations

import json
import random
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import corpus  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
from chorkit import amendment, cc, projection, syntax, verifier  # noqa: E402


def test_default_seed_reproduces_the_acceptance_corpus():
    expected = [
        syntax.render_program(prog)
        for prog in corpus.random_programs(gen.ACCEPTANCE_SEED, 50)
    ]
    drawn = [gen.emit(prog) for _, prog in gen.corpus(gen.ACCEPTANCE_SEED)[10:]]
    assert drawn == expected
    named = [(name, syntax.render_program(prog)) for name, prog in corpus.named_corpus()]
    assert [(name, gen.emit(prog)) for name, prog in gen.named_corpus()] == named


def _rename(node, mapping):
    if isinstance(node, tuple):
        return tuple(_rename(part, mapping) for part in node)
    return mapping.get(node, node) if isinstance(node, str) else node


def test_other_seeds_only_rename_processes():
    base = gen.corpus(gen.ACCEPTANCE_SEED)
    for seed in (1, 2, 3):
        mapping = dict(zip(("p", "q", "r"), gen.names(seed, 3)))
        renamed = gen.corpus(seed)
        assert renamed[:10] == base[:10]
        assert renamed[10:] == [(name, _rename(prog, mapping)) for name, prog in base[10:]]


def test_oracle_agrees_with_projection_on_generated_programs():
    progs = gen.random_programs(7, 60, gen.names(7, 6), 24, 6)
    progs += [prog for _, prog in gen.corpus(gen.ACCEPTANCE_SEED)]
    for prog in progs:
        parsed = syntax.parse_source(gen.emit(prog)).to_program()
        assert gen.projectable(prog) == projection.projectable_program(parsed)


def test_deep_inputs_emit_without_recursion():
    rng = random.Random(0)
    text = gen.emit(gen.line(5000, ("a", "b", "c", "d"), rng))
    assert text.count("->") == 5000
    chain = gen.emit(gen.chain(300, ("a", "b", "c"), rng))
    assert chain.count("if ") == 300 and not gen.projectable(gen.chain(3, ("a", "b", "c"), rng))


def test_strip_selections_recovers_the_input_of_amendment():
    for _, prog in gen.corpus(gen.ACCEPTANCE_SEED):
        text = gen.emit(prog)
        amended = syntax.render_program(
            amendment.amend_program(syntax.parse_source(text).to_program())
        )
        assert gen.strip_selections(amended) == gen.strip_selections(text)


def test_tracer_reports_missing_hooks_as_zero_and_times_outermost_calls():
    calls = []

    def _enabled(n):
        calls.append(n)
        return () if n == 0 else (n,) + fake_cc._enabled(n - 1)

    fake_cc = types.SimpleNamespace(_enabled=_enabled)
    tracer = tracing.Tracer()
    tracer.install({"cc": fake_cc})
    try:
        assert fake_cc._enabled(3) == (3, 2, 1)
    finally:
        tracer.uninstall()
    assert fake_cc._enabled is _enabled
    metrics = tracer.metrics()
    assert metrics["cc.enabled_calls"]["value"] == 1
    assert metrics["cc.transitions"]["value"] == 3
    assert metrics["cc.enabled_s"]["value"] > 0
    assert metrics["verifier.reach_s"]["value"] == 0
    assert metrics["verifier.memo_hit_ratio"]["value"] == 0
    assert "verifier.reach_s" in tracer.missing()
    assert "cc.enabled_s" not in tracer.missing()
    assert len(calls) == 4


def test_tracer_hooks_every_binding_in_the_package():
    from chorkit import cli, sp

    modules = dict(amendment=amendment, cc=cc, cli=cli, projection=projection, sp=sp,
                   syntax=syntax, verifier=verifier)
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert amendment.projectable is not projection.projectable
    finally:
        tracer.uninstall()
    assert amendment.projectable is projection.projectable
    assert tracer.installed == set(tracing.SPANS) | set(tracing.COUNTERS)


def test_declaration_matches_the_metrics():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    reported = {name: unit for name, (unit, _, _) in tracing.METRICS.items()}
    reported.update({"trace.wall_s": "s", "trace.overhead_s": "s"})
    assert per_layer == reported
    moves = json.loads((HERE / "baseline.json").read_text())["moves"]
    assert set(moves) == set(per_layer)
