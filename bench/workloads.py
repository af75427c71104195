"""The three workloads: seeded inputs, one op per checker or CLI call, and the
answer each op must give.

Expected answers come from the paper and from construction, never from the
code under test: amendment correspondence holds, the naive and intermediate
formulations have counterexamples, EPP preserves traces, amendment output is
projectable and differs from its input only by selections.  Ops marked
`known_defect` hit a defect the roadmap records; they still count as failed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

HOLDS = "holds-within-bound"
COUNTEREXAMPLE = "counterexample"


@dataclass
class Op:
    id: str
    call: Callable[[], object]
    expected: str
    # result -> (outcome shown in the op row, states explored or None, correct?)
    judge: Callable[[object], tuple]
    known_defect: bool = False
    group: str = ""


def _verdict(expected: str):
    def judge(report):
        return report.verdict, report.stats.states_explored, report.verdict == expected

    return judge


def _check_op(op_id, module, check: str, expected, *args, known_defect=False) -> Op:
    """An op calling `module.check(*args)`, looked up at call time so that a
    traced pass goes through the hooks."""
    return Op(op_id, lambda: getattr(module, check)(*args), expected, _verdict(expected),
              known_defect)


class Workload:
    def __init__(self, name: str, ops: list[Op], workdir: Path | None = None):
        self.name = name
        self.ops = ops
        self.workdir = workdir

    def reset(self) -> None:
        """Undo what a pass leaves behind, so each pass starts alike."""
        if self.workdir is not None:
            for path in self.workdir.glob("*.amended.chor"):
                path.unlink()

    def groups(self):
        """(group, ops) in workload order: ops of one group depend on each
        other's files, so a sweep runs all of them or none."""
        out: dict[str, list[Op]] = {}
        for op in self.ops:
            out.setdefault(op.group or op.id, []).append(op)
        return out.items()

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _parse(pkg, text: str):
    return pkg.syntax.parse_source(text).to_program()


def sources(name: str, seed: int) -> list[str]:
    """Source texts of a workload, as its ops see them."""
    if name == "verify_corpus":
        return [gen.emit(prog) for _, prog in gen.corpus(seed)]
    if name == "epp_interleave":
        return [text for _, text, _ in _epp_shapes(seed)] + sources("verify_corpus", seed)
    return [gen.emit(prog) for _, prog in _compile_inputs(seed)]


# ---------------------------------------------------------------------------
# verify_corpus


def _tables(pkg) -> dict:
    parse = pkg.syntax.parse_table_text
    return {
        "successor_fn": parse("\n".join(f"{n} -> {n + 1}" for n in range(4))),
        "equality_fn": parse(
            "\n".join(f"{a},{b} -> {int(a == b)}" for a in range(4) for b in range(4))
        ),
        "endless_loop": parse("0 -> undef\n1 -> undef"),
        # Defined on every input, but the loop never ends: the paper's answer
        # is a counterexample.
        "endless_loop/defined": parse("0 -> 1\n1 -> 2"),
    }


def _selections(pkg, prog) -> int:
    text = pkg.syntax.render_program(prog)
    return text.count("[left];") + text.count("[right];")


def verify_corpus(pkg, seed: int) -> Workload:
    verifier, state = pkg.verifier, pkg.cc.State
    texts = {name: gen.emit(prog) for name, prog in gen.corpus(seed)}
    progs = {name: _parse(pkg, text) for name, text in texts.items()}
    ops = []
    for name, prog in progs.items():
        for check, label in (
            ("check_amend_complete", "amend-complete"),
            ("check_amend_sound", "amend-sound"),
        ):
            ops.append(_check_op(f"{label}/{name}", verifier, check, HOLDS, prog, state(), 6, 6))
    ops.append(_check_op("naive/delayed_choice", verifier, "check_naive_correspondence",
                         COUNTEREXAMPLE, progs["delayed_choice"], state(), 2))
    ops.append(_check_op("intermediate/blocked_selection",
                         verifier, "check_intermediate_formulation", COUNTEREXAMPLE,
                         progs["blocked_selection"], state(), 2, 4))
    tables = _tables(pkg)
    for name, ins, out, bound in (
        ("successor_fn", ["p"], "q", 8),
        ("equality_fn", ["p", "q"], "r", 8),
        ("endless_loop", ["p"], "p", 50),
        ("endless_loop/defined", ["p"], "p", 50),
    ):
        prog = progs[name.split("/")[0]]
        table = tables[name]
        amended = pkg.amendment.amend_program(prog)
        network = pkg.projection.epp(amended)
        extra = _selections(pkg, amended) - _selections(pkg, prog)
        defined = name == "endless_loop/defined"
        expected = COUNTEREXAMPLE if defined else HOLDS
        ops.append(_check_op(f"implements/{name}", verifier, "check_implements", expected,
                             prog, table, ins, out, bound, known_defect=defined))
        if name != "endless_loop":
            ops.append(_check_op(f"implements-amended/{name}", verifier, "check_implements",
                                 expected, amended, table, ins, out, bound + extra,
                                 known_defect=defined))
        ops.append(_check_op(f"implements-network/{name}", verifier,
                             "check_implements_network",
                             expected, network, table, ins, out, bound + extra,
                             known_defect=defined))
    return Workload("verify_corpus", ops)


# ---------------------------------------------------------------------------
# epp_interleave


def _epp_shapes(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for k in range(1, 5):
        pids = gen.names(seed + k, 2 * k)
        for depth in range(4, 10):
            out.append((f"pairs{k}/depth{depth}", gen.emit(gen.pairs(k, pids, rng)), depth))
    ring = gen.names(seed, 4)
    for n, depth in ((100, 6), (200, 6), (400, 2)):
        out.append((f"line{n}/depth{depth}", gen.emit(gen.line(n, ring, rng)), depth))
    return out


def epp_interleave(pkg, seed: int) -> Workload:
    check = (pkg.verifier, "check_epp_correspondence")
    ops = []
    for op_id, text, depth in _epp_shapes(seed):
        ops.append(_check_op(f"epp/{op_id}", *check, HOLDS, _parse(pkg, text),
                             pkg.cc.State(), depth, known_defect=op_id == "line400/depth2"))
    for name, prog in gen.corpus(seed):
        parsed = _parse(pkg, gen.emit(prog))
        if gen.projectable(prog):
            ops.append(_check_op(f"epp/{name}", *check, HOLDS, parsed, pkg.cc.State(), 5))
        amended = pkg.amendment.amend_program(parsed)
        ops.append(_check_op(f"epp/{name}/amended", *check, HOLDS, amended, pkg.cc.State(), 5))
    return Workload("epp_interleave", ops)


# ---------------------------------------------------------------------------
# compile_deep

RANDOM_INPUTS = 24


def _compile_inputs(seed: int) -> list:
    """One draw of larger random programs, renamed by the seed as the corpus
    is: fresh draws per seed moved op_s_p50 by 17% between seeds."""
    rng = random.Random(seed)
    six = gen.names(seed, 6, ("p", "q", "r", "s", "t", "u"))
    randoms = gen.random_programs(gen.ACCEPTANCE_SEED, RANDOM_INPUTS, six, 24, 6)
    out = [(f"random_{i:02d}", prog) for i, prog in enumerate(randoms)]
    trio, ring = gen.names(seed + 1, 3), gen.names(seed + 2, 4)
    out += [(f"chain{d}", gen.chain(d, trio, rng)) for d in (25, 50, 100, 200)]
    out += [(f"line{n}", gen.line(n, ring, rng)) for n in (200, 400, 800, 1200)]
    return out


# Inputs on which the roadmap records a RecursionError: the chain's amendment,
# and parsing the 1200-interaction line.  Later ops on their amended file fail
# with them.
_DEFECTS = {"chain200": ("amend", "project", "check-amended"),
            "line1200": ("check", "amend", "project", "check-amended")}


def _cli(pkg, argv: list[str]):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = pkg.cli.main(argv)
        return code, out.getvalue()

    return call


def _exit(code, want: int, ok: bool = True) -> tuple:
    return f"exit {code}", None, code == want and ok


def compile_deep(pkg, out: Path, seed: int) -> Workload:
    workdir = out / f"compile-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ops = []
    ok_line = "ok: well-formed and projectable\n"
    for name, prog in _compile_inputs(seed):
        text = gen.emit(prog)
        src, amended = workdir / f"{name}.chor", workdir / f"{name}.amended.chor"
        src.write_text(text, encoding="utf-8")
        safe = name.startswith("line") or (name.startswith("random") and gen.projectable(prog))
        shown = gen.main_processes(prog)
        everyone = gen.processes(prog)
        defects = _DEFECTS.get(name, ())

        def judge_check(res, want=0 if safe else 1):
            code, out = res
            return _exit(code, want, code != 0 or out == ok_line)

        def judge_amend(res, text=text, amended=amended, safe=safe):
            code, _ = res
            if not amended.exists():
                return _exit(code, 0, False)
            got = amended.read_text(encoding="utf-8")
            same = got == text if safe else gen.strip_selections(got) == gen.strip_selections(text)
            return _exit(code, 0, same)

        def judge_project(res, shown=shown, everyone=everyone):
            code, out = res
            printed = {line.split("[", 1)[0] for line in out.splitlines() if line.endswith(" ]")}
            return _exit(code, 0, shown <= printed <= everyone)

        def judge_recheck(res):
            code, out = res
            return _exit(code, 0, out == ok_line)

        for step, argv, expected, judge in (
            ("check", ["check", str(src)], f"exit {0 if safe else 1}", judge_check),
            ("amend", ["amend", str(src), "-o", str(amended)], "exit 0, selections only", judge_amend),
            ("project", ["project", str(amended)], "exit 0, network", judge_project),
            ("check-amended", ["check", str(amended)], "exit 0, projectable", judge_recheck),
        ):
            ops.append(Op(f"{step}/{name}", _cli(pkg, argv), expected, judge, step in defects,
                          group=name))
    return Workload("compile_deep", ops, workdir)


def build(name: str, pkg, out: Path, seed: int) -> Workload:
    """The workload's ops; files it writes go under `out`."""
    if name == "verify_corpus":
        return verify_corpus(pkg, seed)
    if name == "epp_interleave":
        return epp_interleave(pkg, seed)
    return compile_deep(pkg, out, seed)


NAMES = ("verify_corpus", "epp_interleave", "compile_deep")
