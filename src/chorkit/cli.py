"""Command-line driver: check, project, amend, run, verify, implements.

Exit codes: 0 when the command succeeds (or a property holds), 1 when a check
fails (unprojectable input, counterexample, exhausted search), 2 on usage or
parse errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import amendment, cc, explore, projection, syntax

# `verifier`, `json` and `random` are imported by the commands that use them,
# so `check`, `project` and `amend` start without loading the checkers.

OK = 0
FAIL = 1
USAGE = 2


def _bound(text: str) -> int:
    """A depth, bound or step count: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


# verify's kinds, each with the `verifier` check it runs on the program, the
# state and the options named.
VERIFY = {
    "naive": ("check_naive_correspondence", ("depth",)),
    "amend-complete": ("check_amend_complete", ("depth", "bound")),
    "amend-sound": ("check_amend_sound", ("depth", "bound")),
    "intermediate": ("check_intermediate_formulation", ("depth", "bound")),
    "epp": ("check_epp_correspondence", ("depth",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls,
    so no caller may change it."""
    parser = argparse.ArgumentParser(
        prog="chorkit", description="Choreographic programming toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="well-formedness and projectability")
    p_check.add_argument("file")

    p_project = sub.add_parser("project", help="compile to a process network")
    p_project.add_argument("file")
    p_project.add_argument("--process", help="only show this process's behaviour")

    p_amend = sub.add_parser("amend", help="repair an unprojectable choreography")
    p_amend.add_argument("file")
    p_amend.add_argument("-o", "--output", help="write the amended source here")

    p_run = sub.add_parser("run", help="execute a choreography")
    p_run.add_argument("file")
    p_run.add_argument("--state", help="initial state file")
    mode = p_run.add_mutually_exclusive_group(required=True)
    mode.add_argument("--all", action="store_true", help="enumerate all runs")
    mode.add_argument("--seed", type=int, help="one random run with this seed")
    p_run.add_argument("--steps", type=_bound, default=25)

    p_verify = sub.add_parser("verify", help="bounded correspondence checks")
    p_verify.add_argument("kind", choices=list(VERIFY))
    p_verify.add_argument("file")
    p_verify.add_argument("--state", help="initial state file")
    # Defaults to verifier.DEFAULT_DEPTH and DEFAULT_SEARCH_BOUND, read when
    # the command runs.
    p_verify.add_argument("--depth", type=_bound)
    p_verify.add_argument("--bound", type=_bound)
    p_verify.add_argument("--json", action="store_true", help="machine-readable report")

    p_impl = sub.add_parser("implements", help="check a program against a function table")
    p_impl.add_argument("file")
    p_impl.add_argument("--table", required=True)
    p_impl.add_argument("--inputs", required=True, help="comma-separated input processes")
    p_impl.add_argument("--output", required=True, help="output process")
    p_impl.add_argument("--bound", type=_bound, default=50)
    p_impl.add_argument("--json", action="store_true", help="machine-readable report")

    return parser


def _read(path: str, parse):
    """`parse` of the file's text, or None once it says why the file cannot be
    read or parsed."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
    except syntax.ParseError as exc:
        for d in exc.diagnostics:
            print(f"{path}: {d.text()}", file=sys.stderr)
    return None


def _program(text: str) -> cc.ChorProgram:
    return syntax.parse_source(text).to_program()


def _state(path: str | None) -> cc.State | None:
    return cc.State() if path is None else _read(path, syntax.parse_state_text)


def _print_report(report, as_json: bool) -> int:
    """Print a `verifier.Report` as text or JSON; its exit code."""
    if as_json:
        import json

        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.text())
    return OK if report.holds else FAIL


def _one_line(term: cc.Choreography, limit: int = 72) -> str:
    """`syntax.render_chor(term)` on one line, cut to `limit` characters.

    Only the words the cut keeps are rendered, walking `term` with an
    explicit stack, so a deep term needs no recursion.
    """
    words: list[str] = []
    size = -1
    stack: list = [term]
    while stack and size <= limit:
        top = stack.pop()
        if isinstance(top, str):
            piece = top
        elif isinstance(top, cc.Prefix):
            piece = syntax.render_eta(top.action) + ";"
            stack.append(top.cont)
        elif isinstance(top, cc.Cond):
            piece = f"if {top.pid}.{syntax.render_bexpr(top.guard)} then {{"
            stack += ["}", top.else_c, "} else {", top.then_c]
        else:  # end or a call
            piece = syntax.render_chor(top)
        for word in piece.split():
            words.append(word)
            size += len(word) + 1
    text = " ".join(words)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _print_failures(failures: list[projection.ProjectionFailure]) -> None:
    for f in failures:
        print(
            f"cannot project for {f.process} (in {f.site}): {_one_line(f.term)}",
            file=sys.stderr,
        )


def _inline_state(s: cc.State) -> str:
    return cc.state_text(s).replace("\n", ", ")


def _cmd_check(args, prog: cc.ChorProgram) -> int:
    failures = projection.project_failures(prog, cc.require_wf(prog))
    if failures:
        _print_failures(failures)
        return FAIL
    print("ok: well-formed and projectable")
    return OK


def _cmd_project(args, prog: cc.ChorProgram) -> int:
    compiled = projection.epp(prog)
    if args.process is not None:
        if args.process not in compiled.processes:
            print(f"error: {args.file} has no process {args.process}", file=sys.stderr)
            return USAGE
        print(syntax.render_behaviour(compiled.net.get(args.process)))
    else:
        print(syntax.render_sp_program(compiled))
    return OK


def _cmd_amend(args, prog: cc.ChorProgram) -> int:
    repaired = amendment.amend_program(prog)
    text = syntax.render_program(repaired)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return USAGE
    else:
        print(text, end="")
    return OK


def _cmd_run(args, prog: cc.ChorProgram) -> int:
    state = _state(args.state)
    if state is None:
        return USAGE
    cc.require_wf(prog)
    if args.all:
        space = explore.Space(cc.successors(prog.procedures))
        _, order, _ = explore.bfs(
            space, (prog.main, state), args.steps, explore.Budget(), explore.per_trace
        )
        shown = 0
        for cfg, _, tl in order:
            if space.enabled(cfg):
                continue
            shown += 1
            pretty = ", ".join(cc.label_text(t) for t in tl) or "(empty)"
            print(f"run {shown}: {pretty}")
            print(f"  final state: {_inline_state(cfg[1])}")
        if shown == 0:
            print(f"no run finishes within {args.steps} steps")
    else:
        import random

        rng = random.Random(args.seed)
        step = cc.successors(prog.procedures)
        cfg = (prog.main, state)
        for _ in range(args.steps):
            options = step(cfg)
            if not options:
                break
            t, cfg = options[rng.randrange(len(options))]
            print(cc.label_text(t))
        print(f"final state: {_inline_state(cfg[1])}")
    return OK


def _cmd_verify(args, prog: cc.ChorProgram) -> int:
    state = _state(args.state)
    if state is None:
        return USAGE
    from . import verifier

    if args.depth is None:
        args.depth = verifier.DEFAULT_DEPTH
    if args.bound is None:
        args.bound = verifier.DEFAULT_SEARCH_BOUND
    check, options = VERIFY[args.kind]
    report = getattr(verifier, check)(prog, state, *(getattr(args, o) for o in options))
    return _print_report(report, args.json)


def _cmd_implements(args, prog: cc.ChorProgram) -> int:
    table = _read(args.table, syntax.parse_table_text)
    if table is None:
        return USAGE
    inputs = [p for p in args.inputs.split(",") if p]
    from . import verifier

    try:
        report = verifier.check_implements(prog, table, inputs, args.output, args.bound)
    except cc.IllFormedError:
        raise  # reported by `main`, as for every command
    except ValueError as exc:  # processes that do not fit the table or the program
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    return _print_report(report, args.json)


HANDLERS = {
    "check": _cmd_check,
    "project": _cmd_project,
    "amend": _cmd_amend,
    "run": _cmd_run,
    "verify": _cmd_verify,
    "implements": _cmd_implements,
}


def _dispatch(args) -> int:
    """Run the command on the program its file holds, once it is read."""
    try:
        prog = _read(args.file, _program)
        return USAGE if prog is None else HANDLERS[args.command](args, prog)
    except cc.IllFormedError as exc:
        print(f"not well-formed: {exc}", file=sys.stderr)
        return FAIL
    except projection.UnprojectableError as exc:
        _print_failures(exc.failures)
        return FAIL


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    # Projection and amendment recurse over nested conditionals, and
    # `syntax.render_chor`, which `amend` prints with, over prefixes, so an
    # input nested deeply enough runs out of stack; it gets one line, not a
    # traceback.  Parsing, expressions and behaviours are walked in loops.
    try:
        return _dispatch(args)
    except RecursionError:
        print(f"error: {args.file}: nested too deeply to process", file=sys.stderr)
    except MemoryError:
        print(f"error: {args.file}: too large to process", file=sys.stderr)
    return USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
