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

Entered procedure calls are runtime-only and have no surface form.  Initial
state files hold lines "p.x = 3"; table files hold lines "n1,n2 -> n" or
"n1,n2 -> undef".  Blank lines and '#' comments are allowed in both.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cc, sp

KEYWORDS = {
    "def",
    "main",
    "if",
    "then",
    "else",
    "call",
    "end",
    "succ",
    "true",
    "false",
    "left",
    "right",
}


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


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "nat", "sym", "eof"
    text: str
    line: int
    col: int


_TWO_CHAR = ("->", "==", "<=")
_ONE_CHAR = ".;[]{}(),="


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("nat", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        pair = text[i : i + 2]
        if pair in _TWO_CHAR:
            tokens.append(_Token("sym", pair, line, start_col))
            col += 2
            i += 2
            continue
        if ch in _ONE_CHAR:
            tokens.append(_Token("sym", ch, line, start_col))
            col += 1
            i += 1
            continue
        raise ParseError(
            [Diagnostic("error", line, start_col, f"unexpected character {ch!r}")]
        )
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _fail(self, message: str) -> None:
        tok = self._peek()
        raise ParseError([Diagnostic("error", tok.line, tok.col, message)])

    def _expect_sym(self, text: str) -> _Token:
        tok = self._peek()
        if tok.kind != "sym" or tok.text != text:
            self._fail(f"expected {text!r}, found {tok.text!r}")
        return self._advance()

    def _at_keyword(self, word: str) -> bool:
        tok = self._peek()
        return tok.kind == "name" and tok.text == word

    def _expect_keyword(self, word: str) -> _Token:
        if not self._at_keyword(word):
            self._fail(f"expected {word!r}, found {self._peek().text!r}")
        return self._advance()

    def _identifier(self, what: str) -> str:
        tok = self._peek()
        if tok.kind != "name" or tok.text in KEYWORDS:
            self._fail(f"expected {what}, found {tok.text!r}")
        return self._advance().text

    def parse_unit(self) -> SourceUnit:
        definitions: list[Definition] = []
        names: set[str] = set()
        while self._at_keyword("def"):
            tok = self._peek()
            self._advance()
            name = self._identifier("procedure name")
            if name in names:
                raise ParseError(
                    [Diagnostic("error", tok.line, tok.col, f"duplicate definition of {name}")]
                )
            names.add(name)
            self._expect_sym("(")
            pids = [self._identifier("process name")]
            while self._peek().text == ",":
                self._advance()
                pids.append(self._identifier("process name"))
            self._expect_sym(")")
            self._expect_sym("=")
            body = self.parse_chor()
            definitions.append(Definition(name, tuple(pids), body))
        self._expect_keyword("main")
        self._expect_sym("=")
        main = self.parse_chor()
        tok = self._peek()
        if tok.kind != "eof":
            self._fail(f"unexpected trailing input {tok.text!r}")
        return SourceUnit(tuple(definitions), main)

    def parse_chor(self) -> cc.Choreography:
        if self._at_keyword("end"):
            self._advance()
            return cc.End()
        if self._at_keyword("call"):
            self._advance()
            return cc.Call(self._identifier("procedure name"))
        if self._at_keyword("if"):
            self._advance()
            pid = self._identifier("process name")
            self._expect_sym(".")
            guard = self.parse_bexpr()
            self._expect_keyword("then")
            self._expect_sym("{")
            then_c = self.parse_chor()
            self._expect_sym("}")
            self._expect_keyword("else")
            self._expect_sym("{")
            else_c = self.parse_chor()
            self._expect_sym("}")
            return cc.Cond(pid, guard, then_c, else_c)
        eta = self.parse_eta()
        self._expect_sym(";")
        return cc.Prefix(eta, self.parse_chor())

    def parse_eta(self) -> cc.Eta:
        sender = self._identifier("process name")
        tok = self._peek()
        if tok.text == ".":
            self._advance()
            expr = self.parse_expr()
            self._expect_sym("->")
            receiver = self._identifier("process name")
            self._expect_sym(".")
            var = self._identifier("variable name")
            return cc.Com(sender, expr, receiver, var)
        if tok.text == "->":
            self._advance()
            receiver = self._identifier("process name")
            self._expect_sym("[")
            label_tok = self._peek()
            if self._at_keyword("left"):
                label = cc.Label.LEFT
            elif self._at_keyword("right"):
                label = cc.Label.RIGHT
            else:
                raise ParseError(
                    [
                        Diagnostic(
                            "error",
                            label_tok.line,
                            label_tok.col,
                            f"unknown label {label_tok.text!r}",
                        )
                    ]
                )
            self._advance()
            self._expect_sym("]")
            return cc.Sel(sender, receiver, label)
        self._fail(f"expected '.' or '->' after process name, found {tok.text!r}")
        raise AssertionError("unreachable")

    def parse_expr(self) -> cc.Expr:
        tok = self._peek()
        if tok.kind == "nat":
            self._advance()
            return cc.Lit(int(tok.text))
        if self._at_keyword("succ"):
            self._advance()
            self._expect_sym("(")
            inner = self.parse_expr()
            self._expect_sym(")")
            return cc.Succ(inner)
        return cc.Ref(self._identifier("variable name"))

    def parse_bexpr(self) -> cc.BExpr:
        if self._at_keyword("true"):
            self._advance()
            return cc.BoolLit(True)
        if self._at_keyword("false"):
            self._advance()
            return cc.BoolLit(False)
        left = self.parse_expr()
        tok = self._peek()
        if tok.text == "==":
            self._advance()
            return cc.Eq(left, self.parse_expr())
        if tok.text == "<=":
            self._advance()
            return cc.Le(left, self.parse_expr())
        self._fail(f"expected '==' or '<=', found {tok.text!r}")
        raise AssertionError("unreachable")


def parse_source(text: str) -> SourceUnit:
    """Parse a choreography source file; raises ParseError with located
    diagnostics on failure."""
    return _Parser(_tokenize(text)).parse_unit()


def parse_state_text(text: str) -> cc.State:
    entries: dict[tuple[cc.Pid, cc.VarName], int] = {}
    diagnostics: list[Diagnostic] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        ok = False
        if "=" in line:
            target, _, value = line.partition("=")
            if "." in target:
                p, _, x = target.strip().partition(".")
                p, x = p.strip(), x.strip()
                value = value.strip()
                if p and x and value.isdigit():
                    entries[(p, x)] = int(value)
                    ok = True
        if not ok:
            diagnostics.append(
                Diagnostic("error", lineno, 1, f"expected 'p.x = n', found {raw.strip()!r}")
            )
    if diagnostics:
        raise ParseError(diagnostics)
    return cc.State(entries)


def parse_table_text(text: str) -> cc.FnTable:
    entries: dict[tuple[int, ...], int | None] = {}
    diagnostics: list[Diagnostic] = []
    arity: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, sep, rhs = line.partition("->")
        rhs = rhs.strip()
        parts = [p.strip() for p in lhs.split(",")]
        if not sep or not all(p.isdigit() for p in parts) or not parts:
            diagnostics.append(
                Diagnostic("error", lineno, 1, f"expected 'n1,n2 -> n', found {raw.strip()!r}")
            )
            continue
        key = tuple(int(p) for p in parts)
        if arity is None:
            arity = len(key)
        elif len(key) != arity:
            diagnostics.append(
                Diagnostic("error", lineno, 1, f"expected {arity} inputs, found {len(key)}")
            )
            continue
        if rhs == "undef":
            entries[key] = None
        elif rhs.isdigit():
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
    return f"succ({render_expr(e.arg)})"


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
    if isinstance(b, sp.End):
        return "end"
    if isinstance(b, sp.Send):
        return f"{b.dst}!{render_expr(b.expr)}; {render_behaviour(b.cont)}"
    if isinstance(b, sp.Recv):
        return f"{b.src}?{b.var}; {render_behaviour(b.cont)}"
    if isinstance(b, sp.Choose):
        return f"{b.dst}+{b.label.value}; {render_behaviour(b.cont)}"
    if isinstance(b, sp.Offer):
        slots = []
        if b.left is not None:
            slots.append(f"left: {render_behaviour(b.left)}")
        if b.right is not None:
            slots.append(f"right: {render_behaviour(b.right)}")
        return f"{b.src} & {{ {', '.join(slots)} }}"
    if isinstance(b, sp.Cond):
        return (
            f"if {render_bexpr(b.guard)} then {{ {render_behaviour(b.then_b)} }}"
            f" else {{ {render_behaviour(b.else_b)} }}"
        )
    if isinstance(b, sp.Call):
        return f"call {b.name}"
    raise TypeError(f"not a behaviour: {b!r}")


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


def render(obj) -> str:
    """Render a choreography, behaviour, or network."""
    if isinstance(obj, sp.Network):
        return render_network(obj)
    if isinstance(
        obj, (sp.End, sp.Send, sp.Recv, sp.Choose, sp.Offer, sp.Cond, sp.Call)
    ):
        return render_behaviour(obj)
    return render_chor(obj)
