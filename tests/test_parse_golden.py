"""Parse outcomes pinned on mutated sources, and a parse/render round trip.

`parse_golden.json` holds what `syntax.parse_source` gave on every case
`_cases()` builds, recorded with the character-at-a-time scanner that the
regular-expression scanner replaced: the (line, col, message) of each
diagnostic, or a digest of the rendered unit when the source parsed.  The
cases are seeded one-character deletions, insertions and substitutions of
every sample and corpus source, sources cut short and ended by a comment with
no newline after it (the end of input is placed where that comment starts),
and the sources with tabs, carriage returns, form feeds and other whitespace
put in.  Characters that are digits but not decimal digits, such as '²', are
left out: the old scanner crashed on them (see test_cli.py).

Regenerate only when a change of parse output is intended:

    PYTHONPATH=src python tests/test_parse_golden.py > tests/parse_golden.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from chorkit import cc, syntax

HERE = Path(__file__).resolve().parent
SAMPLES = HERE.parent / "samples"
GOLDEN = HERE / "parse_golden.json"

# What mutations insert: token characters, whitespace of every kind the
# scanner treats alike, comment starts, non-ASCII letters and decimal digits,
# and characters no token starts with.
ALPHABET = (
    "aqzX_059.;[]{}(),=-<>#\n \t\r\x0c\x0b\x1f\x85\xa0\u2028"
    "é٣½!?@$"
)
WHITESPACE = ("\t", "\r", "\x0c", "\x0b", "\xa0", "\u2028")
PER_KIND = 25


def _sources() -> list[tuple[str, str]]:
    named = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(SAMPLES.glob("*.chor"))]
    named += [(name, syntax.render_program(prog)) for name, prog in corpus.named_corpus()]
    return named


def _cases() -> list[tuple[str, str]]:
    cases = []
    for name, text in _sources():
        rng = random.Random(name)
        cases.append((name, text))
        for k in range(PER_KIND):
            i = rng.randrange(len(text))
            cases.append((f"{name}/delete{k}", text[:i] + text[i + 1:]))
            i = rng.randrange(len(text) + 1)
            cases.append((f"{name}/insert{k}", text[:i] + rng.choice(ALPHABET) + text[i:]))
            i = rng.randrange(len(text))
            cases.append((f"{name}/substitute{k}", text[:i] + rng.choice(ALPHABET) + text[i + 1:]))
        for k in range(5):
            i = rng.randrange(len(text))
            cases.append((f"{name}/cut{k}", text[:i] + rng.choice(("#", " # tail", "\t#x#"))))
        cases.append((f"{name}/comment", text.rstrip("\n") + "  # done"))
        for ws in WHITESPACE:
            spaced = text.replace("  ", ws + " ").replace("\n", ws + "\n")
            cases.append((f"{name}/ws{ord(ws):x}", spaced))
            i = rng.randrange(len(spaced))
            cases.append((f"{name}/ws{ord(ws):x}/delete", spaced[:i] + spaced[i + 1:]))
            cases.append((f"{name}/ws{ord(ws):x}/cut", spaced[: len(spaced) // 2]))
        crlf = text.replace("\n", "\r\n")
        cases.append((f"{name}/crlf", crlf))
        cases.append((f"{name}/crlf/cut", crlf[: len(crlf) * 2 // 3]))
    return cases


def _outcome(text: str) -> list:
    try:
        unit = syntax.parse_source(text)
    except syntax.ParseError as exc:
        return [[d.severity, d.line, d.col, d.message] for d in exc.diagnostics]
    return ["ok", hashlib.sha256(syntax.render_unit(unit).encode()).hexdigest()[:16]]


def test_parse_outcomes_match_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    cases = _cases()
    assert [name for name, _ in cases] == list(golden)
    for name, text in cases:
        assert _outcome(text) == golden[name], name


def test_the_golden_covers_errors_of_every_kind():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    messages = {outcome[0][3].split(" ")[0] for outcome in golden.values() if outcome[0] != "ok"}
    assert {"expected", "unexpected", "unknown"} <= messages
    assert sum(outcome[0] == "ok" for outcome in golden.values()) > 100


# ---------------------------------------------------------------------------
# Round trip on generated programs

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZéλ_"
_names = st.tuples(
    st.sampled_from(_LETTERS), st.text(_LETTERS + "0123456789٣", max_size=4)
).map("".join).filter(lambda name: name not in syntax.KEYWORDS)
_pids = st.sampled_from(["p", "q", "r", "s_1", "été"]) | _names
_exprs = st.recursive(
    st.integers(0, 10**12).map(cc.Lit) | _names.map(cc.Ref),
    lambda inner: inner.map(cc.Succ),
    max_leaves=3,
)
_guards = (
    st.booleans().map(cc.BoolLit)
    | st.builds(cc.Eq, _exprs, _exprs)
    | st.builds(cc.Le, _exprs, _exprs)
)
_etas = st.builds(cc.Com, _pids, _exprs, _pids, _names) | st.builds(
    cc.Sel, _pids, _pids, st.sampled_from([cc.Label.LEFT, cc.Label.RIGHT])
)


def _chors(procedure_names: list[str]):
    leaves = st.just(cc.End())
    if procedure_names:
        leaves |= st.sampled_from(procedure_names).map(cc.Call)
    return st.recursive(
        leaves,
        lambda inner: st.builds(cc.Prefix, _etas, inner)
        | st.builds(cc.Cond, _pids, _guards, inner, inner),
        max_leaves=12,
    )


@st.composite
def _programs(draw) -> cc.ChorProgram:
    names = draw(st.lists(_names, max_size=3, unique=True))
    chors = _chors(names)
    procedures = {
        name: cc.Procedure(tuple(draw(st.lists(_pids, min_size=1, max_size=3))), draw(chors))
        for name in names
    }
    return cc.ChorProgram(procedures, draw(chors))


@settings(max_examples=60, deadline=None)
@given(_programs())
def test_parsing_a_rendered_program_gives_it_back(prog):
    assert syntax.parse_source(syntax.render_program(prog)).to_program() == prog


if __name__ == "__main__":
    golden = {name: _outcome(text) for name, text in _cases()}
    json.dump(golden, sys.stdout, indent=0, ensure_ascii=True)
    sys.stdout.write("\n")
