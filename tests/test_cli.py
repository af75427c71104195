"""Command-line driver: exit codes, output, and file handling."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import corpus
from chorkit import cc, syntax
from chorkit.cli import _one_line, main

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def _sample(name: str) -> str:
    return str(SAMPLES / name)


def test_check_unprojectable_names_process_and_term(capsys):
    code = main(["check", _sample("purchase_unsafe.chor")])
    err = capsys.readouterr().err
    assert code == 1
    assert "buyer" in err and "if" in err


def test_check_projectable_succeeds(capsys):
    code = main(["check", _sample("purchase_safe.chor")])
    out = capsys.readouterr().out
    assert code == 0
    assert "ok" in out


def test_check_reports_well_formedness_errors(tmp_path, capsys):
    src = tmp_path / "bad.chor"
    src.write_text("main = p.e -> p.x; end\n", encoding="utf-8")
    code = main(["check", str(src)])
    err = capsys.readouterr().err
    assert code == 1
    assert "well-formed" in err


def test_parse_errors_exit_with_usage_code(tmp_path, capsys):
    src = tmp_path / "broken.chor"
    src.write_text("main = p.e ->\n", encoding="utf-8")
    code = main(["check", str(src)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


def test_digits_that_are_not_decimal_are_unexpected_characters(tmp_path, capsys):
    # str.isdigit accepts '²', int() does not; a decimal digit such as '٣'
    # is a natural.
    src = tmp_path / "digits.chor"
    for text in ("main = p.² -> q.x; end\n", "main = p.1² -> q.x; end\n", "main = p.²x -> q.x; end\n"):
        src.write_text(text, encoding="utf-8")
        col = text.index("²") + 1
        for command in ("check", "amend", "project"):
            code = main([command, str(src)])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), (text, command)
            assert captured.err == f"{src}: error: line 1 col {col}: unexpected character '²'\n"
    src.write_text("main = p.٣ -> q.x; end\n", encoding="utf-8")
    assert main(["amend", str(src)]) == 0
    assert capsys.readouterr().out == "main =\n  p.3 -> q.x;\n  end\n"


def test_amend_prints_the_safe_purchase(capsys):
    code = main(["amend", _sample("purchase_unsafe.chor")])
    out = capsys.readouterr().out
    assert code == 0
    assert syntax.parse_source(out).to_program() == corpus.purchase_safe()


def test_amend_writes_output_file(tmp_path, capsys):
    target = tmp_path / "out.chor"
    code = main(["amend", _sample("purchase_unsafe.chor"), "-o", str(target)])
    capsys.readouterr()
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert syntax.parse_source(text).to_program() == corpus.purchase_safe()


def test_amend_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "out.chor"
    code = main(["amend", _sample("purchase_unsafe.chor"), "-o", str(target)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


def test_project_prints_the_network(capsys):
    code = main(["project", _sample("purchase_safe.chor")])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("buyer[")
    assert lines[1].startswith("seller[")


def test_project_single_process(capsys):
    code = main(["project", _sample("purchase_safe.chor"), "--process", "buyer"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "seller!offer; seller & { left: seller?y; end, right: end }"


def test_project_of_an_unknown_process_is_a_usage_error(tmp_path, capsys):
    src = _sample("purchase_safe.chor")
    code = main(["project", src, "--process", "buyr"])
    assert (code, tuple(capsys.readouterr())) == (2, ("", f"error: {src} has no process buyr\n"))
    # A process that only a procedure declares is one of the program's.
    path = tmp_path / "proc.chor"
    path.write_text("def X(p, q, r) = p.e -> q.x; end\nmain = a.e -> b.x; end\n")
    assert cc.process_names(syntax.parse_source(path.read_text()).to_program()) >= {"r"}
    code = main(["project", str(path), "--process", "r"])
    assert (code, tuple(capsys.readouterr())) == (0, ("end\n", ""))


def test_project_unprojectable_fails(capsys):
    code = main(["project", _sample("purchase_unsafe.chor")])
    err = capsys.readouterr().err
    assert code == 1
    assert "buyer" in err


def test_run_all_enumerates_both_orders(capsys):
    code = main(["run", _sample("parallel_orders.chor"), "--all", "--steps", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "run 1:" in out and "run 2:" in out and "run 3:" not in out


def test_run_with_seed_is_deterministic(capsys):
    main(["run", _sample("purchase_safe.chor"), "--state", _sample("offer.state"), "--seed", "3"])
    first = capsys.readouterr().out
    main(["run", _sample("purchase_safe.chor"), "--state", _sample("offer.state"), "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second
    assert "final state" in first


def test_a_seeded_run_steps_through_one_relation(monkeypatch, capsys):
    # The run keeps the transitions of entered call bodies for all its
    # steps, in the one table of procedures its step function builds.
    built = []

    class Counted(cc._Entered):
        __slots__ = ()

        def __init__(self, defs):
            built.append(defs)
            super().__init__(defs)

    monkeypatch.setattr(cc, "_Entered", Counted)
    assert main(["run", _sample("endless_loop.chor"), "--seed", "1", "--steps", "40"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 41
    assert len(built) == 1


def test_verify_naive_finds_counterexample(capsys):
    code = main(["verify", "naive", _sample("delayed_choice.chor"), "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample" in out
    assert "tau r" in out


def test_verify_amend_complete_holds(capsys):
    code = main(
        ["verify", "amend-complete", _sample("delayed_choice.chor"), "--depth", "2", "--bound", "4"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "holds-within-bound" in out


def test_verify_intermediate_on_blocked_selection(capsys):
    code = main(["verify", "intermediate", _sample("blocked_selection.chor"), "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample" in out


def test_verify_epp_on_safe_purchase(capsys):
    code = main(["verify", "epp", _sample("purchase_safe.chor"), "--depth", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "holds-within-bound" in out


def test_verify_json_report(capsys):
    code = main(["verify", "naive", _sample("delayed_choice.chor"), "--depth", "2", "--json"])
    out = capsys.readouterr().out
    assert code == 1
    record = json.loads(out)
    assert record["verdict"] == "counterexample"
    assert record["witness"]["trace"] == ["tau r"]


def test_implements_successor(capsys):
    code = main(
        [
            "implements",
            _sample("successor_fn.chor"),
            "--table",
            _sample("successor_fn.table"),
            "--inputs",
            "p",
            "--output",
            "q",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "holds-within-bound" in out


def test_implements_loop_table(capsys):
    code = main(
        [
            "implements",
            _sample("endless_loop.chor"),
            "--table",
            _sample("endless_loop.table"),
            "--inputs",
            "p",
            "--output",
            "p",
            "--bound",
            "50",
        ]
    )
    assert code == 0
    assert "holds-within-bound" in capsys.readouterr().out


def test_implements_defined_table_on_a_loop_fails(tmp_path, capsys):
    table = tmp_path / "defined.table"
    table.write_text("0 -> 1\n1 -> 2\n", encoding="utf-8")
    code = main(
        [
            "implements",
            _sample("endless_loop.chor"),
            "--table",
            str(table),
            "--inputs",
            "p",
            "--output",
            "p",
            "--bound",
            "50",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample" in out and "no run terminates" in out


def test_implements_wrong_table_fails(tmp_path, capsys):
    table = tmp_path / "bad.table"
    table.write_text("0 -> 9\n", encoding="utf-8")
    code = main(
        [
            "implements",
            _sample("successor_fn.chor"),
            "--table",
            str(table),
            "--inputs",
            "p",
            "--output",
            "q",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "counterexample" in out


def test_implements_rejects_processes_it_cannot_use(capsys):
    # An unknown process used to give a made-up counterexample, and an input
    # named twice lost its first value.
    cases = [
        ("successor_fn", "zz", "q", "the program has no process zz"),
        ("successor_fn", "p", "zz", "the program has no process zz"),
        ("equality_fn", "p,zz", "r", "the program has no process zz"),
        ("equality_fn", "p,p", "r", "input process p is named twice"),
    ]
    for name, inputs, output, message in cases:
        code = main(["implements", _sample(f"{name}.chor"), "--table", _sample(f"{name}.table"),
                     "--inputs", inputs, "--output", output])
        assert (code, tuple(capsys.readouterr())) == (2, ("", f"error: {message}\n")), inputs


def test_exit_code_contract_over_all_samples(capsys):
    expected = {
        "purchase_unsafe.chor": 1,
        "purchase_safe.chor": 0,
        "parallel_orders.chor": 0,
        "delayed_choice.chor": 1,
        "proxy_choice.chor": 1,
        "blocked_selection.chor": 1,
        "successor_fn.chor": 0,
        "equality_fn.chor": 1,
        "endless_loop.chor": 0,
        "procedure_demo.chor": 0,
    }
    for name, want in sorted(expected.items()):
        code = main(["check", _sample(name)])
        capsys.readouterr()
        assert code == want, name


def test_missing_file_is_a_usage_error(capsys):
    code = main(["check", "does-not-exist.chor"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read" in err


def _deep_line(n: int) -> str:
    """`main` as a line of n interactions between two processes."""
    steps = "".join(f"  {'pq'[i % 2]}.{i % 10} -> {'qp'[i % 2]}.x;\n" for i in range(n))
    return f"main =\n{steps}  end\n"


def _deep_chain(d: int) -> str:
    """`main` as d nested conditionals over three processes, each of whose
    branches the process that does not decide tells apart, so every level
    needs amending."""
    lines = ["main ="]
    for i in range(d):
        a, b, o = "pqr"[i % 3], "pqr"[(i + 1) % 3], "pqr"[(i + 2) % 3]
        lines += [f"{b}.1 -> {a}.x;", f"if {a}.x <= {i} then {{", f"{a}.2 -> {o}.y;"]
    lines.append("end")
    for i in reversed(range(d)):
        a, b, o = "pqr"[i % 3], "pqr"[(i + 1) % 3], "pqr"[(i + 2) % 3]
        lines += ["} else {", f"{o}.3 -> {b}.y;", "end", "}"]
    return "\n".join(lines) + "\n"


def test_check_of_a_1200_interaction_line_succeeds(tmp_path, capsys):
    # Parsing is a loop, so `check`, which renders nothing, gets through.
    src = tmp_path / "deep.chor"
    src.write_text(_deep_line(1200), encoding="utf-8")
    code = main(["check", str(src)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, "ok: well-formed and projectable\n", "")


def test_verify_epp_of_a_3000_interaction_line_ending_in_a_call_succeeds(tmp_path, capsys):
    # The network of a program with procedures names each process's
    # instances with a loop, so no action of the line takes a stack frame.
    head, _ = _deep_line(3000).rsplit("end", 1)
    src = tmp_path / "deep.chor"
    src.write_text(f"def X(p, q) = p.1 -> q.y; end\n{head}call X\n", encoding="utf-8")
    code = main(["verify", "epp", str(src)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (
        "check: epp-correspondence\nverdict: holds-within-bound\n"
        "stats: 18 states explored, max depth 6\n"
    )


def _blamed_line(n: int) -> str:
    """A conditional that q and r cannot tell apart: n interactions between
    them in one branch, none in the other."""
    steps = " ".join(f"q.{i} -> r.x;" for i in range(n))
    return f"main = if p.x == 0 then {{ {steps} end }} else {{ end }}\n"


@pytest.mark.parametrize("n", [300, 1200])
@pytest.mark.parametrize("command", [["check"], ["project"], ["verify", "epp"]])
def test_a_deep_blamed_term_is_named_on_one_cut_line(tmp_path, capsys, command, n):
    # Only the words that the cut keeps are rendered, so the blamed term's
    # depth does not matter.
    src = tmp_path / "deep.chor"
    src.write_text(_blamed_line(n), encoding="utf-8")
    code = main([*command, str(src)])
    captured = capsys.readouterr()
    term = "if p.x == 0 then { q.0 -> r.x; q.1 -> r.x; q.2 -> r.x; q.3 -> r.x; q...."
    assert (code, captured.out) == (1, "")
    assert captured.err == "".join(f"cannot project for {p} (in main): {term}\n" for p in "qr")


def test_a_term_on_one_line_is_its_whole_rendering_cut():
    programs = [prog for _, prog in corpus.named_corpus()]
    programs += corpus.random_programs(20260808, 50)
    for prog in programs:
        for term in (prog.main, *(proc.body for proc in prog.procedures.values())):
            whole = " ".join(syntax.render_chor(term).split())
            for limit in (10, 40, 72, 1000):
                want = whole if len(whole) <= limit else whole[: limit - 3] + "..."
                assert _one_line(term, limit) == want


@pytest.mark.parametrize("text,command", [
    pytest.param(_deep_line(1200), "amend", id="line1200-amend"),
    pytest.param(_deep_chain(200), "amend", id="chain200-amend"),
])
def test_inputs_too_deep_to_process_are_one_line_usage_errors(tmp_path, capsys, text, command):
    # Rendering the amendment recurses once per prefix and per nesting level,
    # past the default recursion limit.
    src = tmp_path / "deep.chor"
    src.write_text(text, encoding="utf-8")
    code = main([command, str(src)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {src}: nested too deeply to process\n"


def _file_kinds(tmp_path, program: bytes, state: bytes, table: bytes) -> list:
    """(path, argv) for a program, a state file and a table file with the
    given contents; the other files a command needs are good samples."""
    kinds = []
    for name, data in (("prog.chor", program), ("start.state", state), ("fn.table", table)):
        path = tmp_path / name
        path.write_bytes(data)
        kinds.append(str(path))
    prog, state, table = kinds
    return [
        (prog, ["check", prog]),
        (state, ["run", _sample("purchase_safe.chor"), "--all", "--state", state]),
        (table, ["implements", _sample("successor_fn.chor"), "--table", table,
                 "--inputs", "p", "--output", "q"]),
    ]


def test_files_that_are_not_utf8_cannot_be_read(tmp_path, capsys):
    kinds = _file_kinds(tmp_path, b"main = p.\xff -> q.x; end\n", b"p.x = \xff\n", b"0 -> \xff\n")
    for path, argv in kinds:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
        assert captured.err.count("\n") == 1, argv


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="no limit on integer string conversion")
def test_naturals_longer_than_int_converts_are_diagnostics(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    long = "7" * (limit + 700)
    kinds = _file_kinds(
        tmp_path,
        f"main = p.{long} -> q.x; end\n".encode(),
        f"p.x = 1\np.y = {long}\n".encode(),
        f"0 -> 1\n1 -> {long}\n".encode(),
    )
    positions = [(1, 10), (2, 7), (2, 6)]
    for (path, argv), (line, col) in zip(kinds, positions):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err == (
            f"{path}: error: line {line} col {col}: natural too long: "
            f"{len(long)} digits, the limit is {limit}\n"
        )
    # A natural at the limit is still read.
    (tmp_path / "prog.chor").write_text(f"main = p.{'7' * limit} -> q.x; end\n")
    assert main(["check", str(tmp_path / "prog.chor")]) == 0
    capsys.readouterr()


def test_repeated_inputs_and_bindings_and_bad_names_are_usage_errors(tmp_path, capsys):
    # Without the diagnostic the last row would win, and `implements` would
    # check against 5 and exit 1.
    kinds = _file_kinds(tmp_path, b"main = end\n", b"p q.x = 1\np.x = 1\np.x = 7\n", b"0 -> 1\n0 -> 5\n")
    errors = [
        "line 1 col 1: not a name: 'p q'\n{path}: error: line 3 col 1: p.x bound twice, first on line 2",
        "line 2 col 1: input 0 given twice, first on line 1",
    ]
    for (path, argv), error in zip(kinds[1:], errors):
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err == f"{path}: error: {error.format(path=path)}\n"


def test_computed_naturals_past_the_conversion_limit_are_printed(tmp_path, capsys):
    # The literal is read; its successor has 4,301 digits, past the default
    # limit of `str` on integers.
    nines, value = "9" * 4300, "1" + "0" * 4300
    src = tmp_path / "big.chor"
    src.write_text(f"main = p.succ({nines}) -> q.x; end\n", encoding="utf-8")
    assert main(["run", str(src), "--all"]) == 0
    assert capsys.readouterr().out == f"run 1: p -> q : {value}\n  final state: q.x = {value}\n"
    assert main(["run", str(src), "--seed", "1"]) == 0
    assert capsys.readouterr().out == f"p -> q : {value}\nfinal state: q.x = {value}\n"
    # A witness whose trace and state carry the value, as text and as JSON.
    delayed = (SAMPLES / "delayed_choice.chor").read_text(encoding="utf-8")
    src.write_text(delayed.replace("main =", f"main = p.succ({nines}) -> r.z;"), encoding="utf-8")
    assert main(["verify", "naive", str(src)]) == 1
    out = capsys.readouterr().out
    assert f"witness trace: p -> r : {value}, tau r\n" in out
    assert f"witness state: r.z = {value}\n" in out
    assert main(["verify", "naive", str(src), "--json"]) == 1
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["trace"] == [f"p -> r : {value}", "tau r"]
    assert witness["state"] == f"r.z = {value}"


def test_numeric_characters_that_are_not_decimal_digits_are_rejected_in_data_files(
    tmp_path, capsys
):
    # str.isdigit accepts '²', which int() cannot read.
    for path, argv in _file_kinds(tmp_path, b"main = end\n", "p.x = ²\n".encode(),
                                  "0 -> ²\n".encode())[1:]:
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        assert captured.err.startswith(f"{path}: error: line 1 col 1: expected "), captured.err


def test_output_is_stable_across_runs(capsys):
    main(["verify", "amend-sound", _sample("proxy_choice.chor"), "--depth", "3"])
    first = capsys.readouterr().out
    main(["verify", "amend-sound", _sample("proxy_choice.chor"), "--depth", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_negative_bounds_are_usage_errors(capsys):
    impl = ["implements", _sample("endless_loop.chor"), "--table",
            _sample("endless_loop.table"), "--inputs", "a", "--output", "b"]
    verify = ["verify", "amend-sound", _sample("delayed_choice.chor")]
    run = ["run", _sample("parallel_orders.chor"), "--all"]
    for argv, option in (
        (impl + ["--bound", "-1"], "--bound"),
        (verify + ["--depth", "-2"], "--depth"),
        (verify + ["--bound", "-2"], "--bound"),
        (run + ["--steps", "-1"], "--steps"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument {option}: must be at least 0, got {argv[-1]}"
        ), argv


def test_bounds_of_zero_are_accepted_and_non_integers_rejected(capsys):
    verify = ["verify", "naive", _sample("delayed_choice.chor")]
    assert main(verify + ["--depth", "0"]) == 0
    assert "max depth 0" in capsys.readouterr().out
    assert main(["run", _sample("parallel_orders.chor"), "--all", "--steps", "0"]) == 0
    assert capsys.readouterr().out == "no run finishes within 0 steps\n"
    assert main(verify + ["--depth", "two"]) == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: argument --depth: invalid int value: 'two'"
    )


def test_both_run_modes_reject_ill_formed_programs_alike(tmp_path, capsys):
    cases = {
        "undefined.chor": (
            "main = call Foo\n",
            "not well-formed: main calls undefined procedure Foo\n",
        ),
        "self.chor": (
            "main = p.e -> p.x; end\n",
            "not well-formed: the main choreography is not well-formed\n",
        ),
        "undeclared.chor": (
            "def X(p) = p.e -> q.x; end\nmain = call X\n",
            "not well-formed: the body of procedure X uses undeclared processes: q\n",
        ),
        # Two violations, on one line in every command.
        "two.chor": (
            "main = p.e -> p.x; call Foo\n",
            "not well-formed: the main choreography is not well-formed; "
            "main calls undefined procedure Foo\n",
        ),
    }
    table = tmp_path / "succ.table"
    table.write_text("0 -> 1\n", encoding="utf-8")
    for name, (text, message) in cases.items():
        src = str(tmp_path / name)
        (tmp_path / name).write_text(text, encoding="utf-8")
        # Every command that reads a program, the two run modes of `run` and
        # every kind of `verify` among them.
        commands = [["check", src], ["project", src], ["amend", src]]
        commands += [["run", src, "--all"], ["run", src, "--seed", "1"]]
        commands += [["verify", kind, src] for kind in ("naive", "amend-complete",
                                                        "amend-sound", "intermediate", "epp")]
        commands.append(["implements", src, "--table", str(table), "--inputs", "p",
                         "--output", "q"])
        for command in commands:
            code = main(command)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (1, "", message), (name, command)
    # A well-formed program with inputs that do not fit the table stays a
    # usage error.
    code = main(["implements", _sample("successor_fn.chor"), "--table", str(table),
                 "--inputs", "p,q", "--output", "q"])
    assert (code, capsys.readouterr().err) == (2, "error: 2 input processes for arity 1\n")


def _sample_commands() -> list[list[str]]:
    """Every command on every sample, file names relative to samples/."""
    commands = []
    for path in sorted(SAMPLES.glob("*.chor")):
        name = path.name
        commands += [["check", name], ["project", name], ["amend", name]]
        commands += [["run", name, "--all"], ["run", name, "--seed", "1"]]
        for kind in ("naive", "amend-complete", "amend-sound", "intermediate", "epp"):
            commands += [["verify", kind, name], ["verify", kind, name, "--json"]]
    for kind in ("naive", "epp"):
        commands.append(["verify", kind, "purchase_safe.chor", "--state", "offer.state"])
    commands.append(["run", "purchase_unsafe.chor", "--all", "--state", "offer.state"])
    for name, inputs, output in (
        ("successor_fn", "p", "q"), ("equality_fn", "p,q", "r"), ("endless_loop", "p", "p"),
    ):
        impl = ["implements", f"{name}.chor", "--table", f"{name}.table",
                "--inputs", inputs, "--output", output]
        commands += [impl, impl + ["--json"]]
    return commands


def _run_on_samples(command: list[str], capsys) -> dict:
    argv = [_sample(a) if a.endswith((".chor", ".state", ".table")) else a for a in command]
    code = main(argv)
    captured = capsys.readouterr()
    return {"code": code, "out": captured.out, "err": captured.err}


def test_cli_is_unchanged_on_every_sample(capsys):
    # cli_samples.json holds each command's exit code, stdout and stderr as
    # they were before the checks shared `verifier._checked` for their reports
    # and the CLI one file reader.
    golden = json.loads((Path(__file__).parent / "cli_samples.json").read_text(encoding="utf-8"))
    commands = _sample_commands()
    assert sorted(golden) == sorted(" ".join(c) for c in commands)
    for command in commands:
        assert _run_on_samples(command, capsys) == golden[" ".join(command)], command
