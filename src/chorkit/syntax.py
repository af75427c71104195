"""Surface syntax: parsing and rendering of choreography sources.

Grammar:

    program := def* "main" "=" chor
    def     := "def" NAME "(" pid ("," pid)* ")" "=" chor
    chor    := eta ";" chor
             | "if" pid "." bexpr "then" "{" chor "}" "else" "{" chor "}"
             | "call" NAME
             | "end"
    eta     := pid "." expr "->" pid "." var
             | pid "->" pid "[" ("left" | "right") "]"
    expr    := NAT | var | "succ" "(" expr ")"
    bexpr   := "true" | "false" | expr "==" expr | expr "<=" expr

NAT is a run of decimal digits (what `int` reads: '٣' is one, '²' is not).
NAME, pid and var are names: a letter or '_', then letters, digits and '_';
the words of the grammar are reserved.  Tokens may be separated by any
whitespace, and '#' starts a comment that runs to the end of the line.
Parsing is a loop, so a source may nest to any depth.  Behaviours and
`succ` towers render in loops too; `render_chor` recurses once per prefix.

Entered procedure calls are runtime-only and have no surface form.  Initial
state files hold lines "p.x = 3", of names p and x, each pair once; table
files hold lines "n1,n2 -> n" or "n1,n2 -> undef", each input once.  Blank
lines and '#' comments are allowed in both.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass

from . import cc, sp

KEYWORDS = set("def main if then else call end succ true false left right".split())


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" or "warning"
    line: int
    col: int
    message: str

    def text(self) -> str:
        return f"{self.severity}: line {self.line} col {self.col}: {self.message}"


class ParseError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.text() for d in diagnostics))


@dataclass(frozen=True)
class Definition:
    name: cc.ProcName
    pids: tuple[cc.Pid, ...]
    body: cc.Choreography


@dataclass(frozen=True)
class SourceUnit:
    definitions: tuple[Definition, ...]
    main: cc.Choreography

    def to_program(self) -> cc.ChorProgram:
        procedures = {d.name: cc.Procedure(d.pids, d.body) for d in self.definitions}
        return cc.ChorProgram(procedures, self.main)


# The kinds of token: a natural, a name, a symbol, or a character no token
# starts with.  `_TOKEN` finds one after any whitespace and comments, or the
# empty token at the end of the input; only `_error` uses it, to locate a token.
_KINDS = r"\d+|\w+|->|==|<=|[.;\[\]{}(),=]|."
_TOKEN = re.compile(rf"\s*(?:#[^\n]*\s*)*({_KINDS}|)")
_PIECES = re.compile(_KINDS)
_COMMENT = re.compile(r"#[^\n]*")
_SYMBOLS = frozenset(("->", "==", "<=", *".;[]{}(),="))
_LABELS = {"left": cc.Label.LEFT, "right": cc.Label.RIGHT}


def _scan(text: str) -> tuple[list[str], set[str]]:
    """The tokens of `text`, the empty token last, and the set of those that
    are identifiers (names that are not keywords).

    A token is just its text; its first character tells its kind, and
    `_error` locates one only when a diagnostic needs that.  No token holds
    whitespace or a comment, so the text, comments blanked, is cut at
    whitespace and each distinct chunk split into tokens once."""
    chunks = (_COMMENT.sub(" ", text) if "#" in text else text).split()
    pieces = {chunk: _PIECES.findall(chunk) for chunk in set(chunks)}
    tokens: list[str] = []
    for chunk in chunks:
        tokens += pieces[chunk]
    tokens.append("")
    names: set[str] = set()
    first_bad = len(tokens)
    for tok in set(itertools.chain.from_iterable(pieces.values())):
        head = tok[0]
        if head.isalpha() or head == "_":
            names.add(tok)
        elif not (tok in _SYMBOLS or head.isdecimal()):
            # A character no token starts with, or a run of word characters
            # opened by a numeric character that is not a decimal digit,
            # such as '²' or '½'.
            first_bad = min(first_bad, tokens.index(tok))
    if first_bad < len(tokens):
        raise _error(text, first_bad, f"unexpected character {tokens[first_bad][0]!r}")
    return tokens, names - KEYWORDS


def _error(text: str, index: int, message: str) -> ParseError:
    """A ParseError at token `index` of `text`.  The end of the input is put
    where a comment ending the last line starts: a comment's characters are
    never counted in a column."""
    match = next(itertools.islice(_TOKEN.finditer(text), index, None))
    if match.group(1):
        offset = match.start(1)
    else:
        comment = text.find("#", text.rfind("\n") + 1)
        offset = comment if comment >= 0 else len(text)
    line = text.count("\n", 0, offset) + 1
    col = offset - text.rfind("\n", 0, offset)
    return ParseError([Diagnostic("error", line, col, message)])


def parse_source(text: str) -> SourceUnit:
    """Parse a choreography source file; raises ParseError with located
    diagnostics on failure.  Nothing recurses: `chor` builds each run of
    prefixes bottom-up once the term ending it is read, with a stack of the
    open conditionals, and `expr` counts `succ(`.  A position is a token
    index, never past the empty token at the end.  Tokens are tested inline;
    `expect` tests them again to find the error."""
    tokens, names = _scan(text)
    atoms: dict[str, cc.Expr] = {}  # each name and natural read, as a term

    def expect(pos: int, *wanted: str) -> int:
        """The index after the tokens `wanted`, each a symbol, a keyword or (with
        a space) a kind of name; raises the error at the first one missing."""
        for want in wanted:
            tok = tokens[pos]
            if " " in want:
                if tok not in names:
                    raise _error(text, pos, f"expected {want}, found {tok!r}")
            elif tok != want:
                raise _error(text, pos, f"expected {want!r}, found {tok!r}")
            pos += 1
        return pos

    def expr(pos: int) -> tuple[cc.Expr, int]:
        depth = 0
        while tokens[pos] == "succ":
            pos = expect(pos + 1, "(")
            depth += 1
        tok = tokens[pos]
        e = atoms.get(tok)
        if e is None:
            if tok in names:
                e = cc.Ref(tok)
            elif tok[:1].isdecimal():
                if (value := _natural(tok)) is None:
                    raise _error(text, pos, _too_long(tok))
                e = cc.Lit(value)
            else:
                expect(pos, "variable name")
            atoms[tok] = e
        pos += 1
        while depth:
            pos = expect(pos, ")")
            e = cc.Succ(e)
            depth -= 1
        return e, pos

    def chor(pos: int) -> tuple[cc.Choreography, int]:
        Com, Prefix = cc.Com, cc.Prefix
        run: list[cc.Eta] = []
        # Per open conditional: the run before it, its pid, guard and then-branch.
        opened: list[tuple[list[cc.Eta], str, cc.BExpr, cc.Choreography | None]] = []
        while True:
            sender = tokens[pos]
            if sender in names:
                tok = tokens[pos + 1]
                if tok == ".":
                    e = atoms.get(tokens[pos + 2])
                    e, pos = (e, pos + 3) if e is not None else expr(pos + 2)
                    if not (tokens[pos] == "->" and tokens[pos + 1] in names
                            and tokens[pos + 2] == "." and tokens[pos + 3] in names
                            and tokens[pos + 4] == ";"):
                        expect(pos, "->", "process name", ".", "variable name", ";")
                    run.append(Com(sender, e, tokens[pos + 1], tokens[pos + 3]))
                    pos += 5
                elif tok == "->":
                    label = _LABELS.get(tokens[expect(pos + 2, "process name", "[")])
                    if label is None:
                        raise _error(text, pos + 4, f"unknown label {tokens[pos + 4]!r}")
                    run.append(cc.Sel(sender, tokens[pos + 2], label))
                    pos = expect(pos + 5, "]", ";")
                else:
                    message = f"expected '.' or '->' after process name, found {tok!r}"
                    raise _error(text, pos + 1, message)
                continue
            if sender == "if":
                pid = tokens[pos + 1]
                if pid not in names or tokens[pos + 2] != ".":
                    expect(pos + 1, "process name", ".")
                tok = tokens[pos + 3]
                if tok in ("true", "false"):
                    guard: cc.BExpr = cc.BoolLit(tok == "true")
                    pos += 4
                else:
                    left, pos = expr(pos + 3)
                    tok = tokens[pos]
                    if tok not in ("==", "<="):
                        raise _error(text, pos, f"expected '==' or '<=', found {tok!r}")
                    right, pos = expr(pos + 1)
                    guard = (cc.Eq if tok == "==" else cc.Le)(left, right)
                if tokens[pos] != "then" or tokens[pos + 1] != "{":
                    expect(pos, "then", "{")
                opened.append((run, pid, guard, None))
                run = []
                pos += 2
                continue
            if sender == "end":
                c: cc.Choreography = cc.End()
                pos += 1
            elif sender == "call":
                pos = expect(pos + 1, "procedure name")
                c = cc.Call(tokens[pos - 1])
            else:
                expect(pos, "process name")
            while True:
                for eta in reversed(run):
                    c = Prefix(eta, c)
                if not opened:
                    return c, pos
                if tokens[pos] != "}":
                    expect(pos, "}")
                run, pid, guard, then_c = opened.pop()
                if then_c is None:
                    if tokens[pos + 1] != "else" or tokens[pos + 2] != "{":
                        expect(pos + 1, "else", "{")
                    opened.append((run, pid, guard, c))
                    run = []
                    pos += 3
                    break
                c = cc.Cond(pid, guard, then_c, c)
                pos += 1

    definitions: dict[str, Definition] = {}
    pos = 0
    while tokens[pos] == "def":
        name = tokens[expect(pos + 1, "procedure name") - 1]
        if name in definitions:
            raise _error(text, pos, f"duplicate definition of {name}")
        pos = expect(pos + 2, "(", "process name")
        pids = [tokens[pos - 1]]
        while tokens[pos] == ",":
            pos = expect(pos + 1, "process name")
            pids.append(tokens[pos - 1])
        body, pos = chor(expect(pos, ")", "="))
        definitions[name] = Definition(name, tuple(pids), body)
    main, pos = chor(expect(pos, "main", "="))
    if tokens[pos]:
        raise _error(text, pos, f"unexpected trailing input {tokens[pos]!r}")
    return SourceUnit(tuple(definitions.values()), main)


def _natural(digits: str) -> int | None:
    """The natural `digits` spells, or None past Python's limit on integer
    string conversion."""
    try:
        return int(digits)
    except ValueError:
        return None


def _too_long(digits: str) -> str:
    return f"natural too long: {len(digits)} digits, the limit is {sys.get_int_max_str_digits()}"


_WORD = re.compile(r"\w+")


def _is_name(text: str) -> bool:
    """Whether `text` is a name: word characters led by a letter or '_', no keyword."""
    return bool(_WORD.fullmatch(text)) and not text[0].isnumeric() and text not in KEYWORDS


def parse_state_text(text: str) -> cc.State:
    entries: dict[tuple[cc.Pid, cc.VarName], int] = {}
    lines: dict[tuple[cc.Pid, cc.VarName], int] = {}  # where each is bound first
    diagnostics: list[Diagnostic] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        target, _, value = line.partition("=")
        p, _, x = target.partition(".")
        p, x, value = p.strip(), x.strip(), value.strip()
        if not (p and x and value.isdecimal()):
            diagnostics.append(
                Diagnostic("error", lineno, 1, f"expected 'p.x = n', found {raw.strip()!r}")
            )
        elif bad := [n for n in (p, x) if not _is_name(n)]:
            diagnostics.append(Diagnostic("error", lineno, 1, f"not a name: {bad[0]!r}"))
        elif (n := _natural(value)) is None:
            diagnostics.append(Diagnostic("error", lineno, raw.find(value) + 1, _too_long(value)))
        elif (first := lines.setdefault((p, x), lineno)) != lineno:
            message = f"{p}.{x} bound twice, first on line {first}"
            diagnostics.append(Diagnostic("error", lineno, 1, message))
        else:
            entries[(p, x)] = n
    if diagnostics:
        raise ParseError(diagnostics)
    return cc.State(entries)


def parse_table_text(text: str) -> cc.FnTable:
    entries: dict[tuple[int, ...], int | None] = {}
    lines: dict[tuple[int, ...], int] = {}  # where each input is given first
    diagnostics: list[Diagnostic] = []
    arity: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, sep, rhs = line.partition("->")
        rhs = rhs.strip()
        parts = [p.strip() for p in lhs.split(",")]
        if not sep or not all(p.isdecimal() for p in parts) or not parts:
            diagnostics.append(
                Diagnostic("error", lineno, 1, f"expected 'n1,n2 -> n', found {raw.strip()!r}")
            )
            continue
        long = [p for p in (*parts, rhs) if p.isdecimal() and _natural(p) is None]
        if long:
            diagnostics.append(Diagnostic("error", lineno, raw.find(long[0]) + 1, _too_long(long[0])))
            continue
        key = tuple(int(p) for p in parts)
        if arity is None:
            arity = len(key)
        elif len(key) != arity:
            diagnostics.append(
                Diagnostic("error", lineno, 1, f"expected {arity} inputs, found {len(key)}")
            )
            continue
        if (first := lines.setdefault(key, lineno)) != lineno:
            message = f"input {','.join(parts)} given twice, first on line {first}"
            diagnostics.append(Diagnostic("error", lineno, 1, message))
            continue
        if rhs == "undef":
            entries[key] = None
        elif rhs.isdecimal():
            entries[key] = int(rhs)
        else:
            diagnostics.append(
                Diagnostic("error", lineno, 1, f"expected a natural or 'undef', found {rhs!r}")
            )
    if arity is None:
        diagnostics.append(Diagnostic("error", 1, 1, "empty table"))
    if diagnostics:
        raise ParseError(diagnostics)
    return cc.FnTable(arity, entries)


# ---------------------------------------------------------------------------
# Rendering


def render_expr(e: cc.Expr) -> str:
    if isinstance(e, cc.Lit):
        return str(e.value)
    if isinstance(e, cc.Ref):
        return e.name
    height = 0  # a tower of `succ` is counted with a loop
    while isinstance(e, cc.Succ):
        e, height = e.arg, height + 1
    if not height:
        raise TypeError(f"not an expression: {e!r}")
    return "succ(" * height + render_expr(e) + ")" * height


def render_bexpr(b: cc.BExpr) -> str:
    if isinstance(b, cc.BoolLit):
        return "true" if b.value else "false"
    op = "==" if isinstance(b, cc.Eq) else "<="
    return f"{render_expr(b.left)} {op} {render_expr(b.right)}"


def render_eta(eta: cc.Eta) -> str:
    if isinstance(eta, cc.Com):
        return f"{eta.sender}.{render_expr(eta.expr)} -> {eta.receiver}.{eta.var}"
    return f"{eta.sender} -> {eta.receiver}[{eta.label.value}]"


def render_chor(c: cc.Choreography, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(c, cc.End):
        return f"{pad}end"
    if isinstance(c, cc.Call):
        return f"{pad}call {c.name}"
    if isinstance(c, cc.Prefix):
        return f"{pad}{render_eta(c.action)};\n{render_chor(c.cont, indent)}"
    if isinstance(c, cc.Cond):
        return (
            f"{pad}if {c.pid}.{render_bexpr(c.guard)} then {{\n"
            f"{render_chor(c.then_c, indent + 1)}\n"
            f"{pad}}} else {{\n"
            f"{render_chor(c.else_c, indent + 1)}\n"
            f"{pad}}}"
        )
    if isinstance(c, cc.RunningCall):
        # Runtime-only term; shown for traces, not parseable.
        pending = ", ".join(c.pending)
        return f"{pad}rtcall {c.name} awaiting [{pending}] {{\n{render_chor(c.body, indent + 1)}\n{pad}}}"
    raise TypeError(f"not a choreography: {c!r}")


def render_unit(unit: SourceUnit) -> str:
    parts = []
    for d in unit.definitions:
        parts.append(f"def {d.name}({', '.join(d.pids)}) =\n{render_chor(d.body, 1)}")
    parts.append(f"main =\n{render_chor(unit.main, 1)}")
    return "\n\n".join(parts) + "\n"


def render_program(prog: cc.ChorProgram) -> str:
    definitions = tuple(
        Definition(name, prog.procedures[name].pids, prog.procedures[name].body)
        for name in sorted(prog.procedures)
    )
    return render_unit(SourceUnit(definitions, prog.main))


def render_behaviour(b: sp.Behaviour) -> str:
    """A behaviour in surface syntax.  One loop pops an explicit stack of
    behaviours still to render and literal text still to write, and appends
    to one list joined once, so a behaviour of any length or depth takes no
    stack frame and no copy of its text per action."""
    out: list[str] = []
    stack: list = [b]
    while stack:
        b = stack.pop()
        kind = type(b)
        if kind is str:
            out.append(b)
        elif kind is sp.Send:
            out.append(f"{b.dst}!{render_expr(b.expr)}; ")
            stack.append(b.cont)
        elif kind is sp.Recv:
            out.append(f"{b.src}?{b.var}; ")
            stack.append(b.cont)
        elif kind is sp.Choose:
            out.append(f"{b.dst}+{b.label.value}; ")
            stack.append(b.cont)
        elif kind is sp.End:
            out.append("end")
        elif kind is sp.Call:
            out.append(f"call {b.name}")
        elif kind is sp.Offer:
            out.append(f"{b.src} & {{ ")
            stack.append(" }")
            if b.right is not None:
                stack += (b.right, "right: " if b.left is None else ", right: ")
            if b.left is not None:
                stack += (b.left, "left: ")
        elif kind is sp.Cond:
            out.append(f"if {render_bexpr(b.guard)} then {{ ")
            stack += (" }", b.else_b, " } else { ", b.then_b)
        else:
            raise TypeError(f"not a behaviour: {b!r}")
    return "".join(out)


def render_network(n: sp.Network) -> str:
    lines = [f"{p}[ {render_behaviour(b)} ]" for p, b in n.items()]
    return "\n".join(lines) if lines else "(all processes ended)"


def render_sp_program(program: sp.SPProgram) -> str:
    parts = [
        f"def {name} = {render_behaviour(body)}"
        for name, body in sorted(program.procedures.items())
    ]
    parts.append(render_network(program.net))
    return "\n".join(parts)
