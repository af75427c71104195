"""What a fresh interpreter loads: `import chorkit.cli` leaves the checkers
and `json` to the commands that use them, and the package still offers every
submodule as an attribute.

In-process tests have imported every module before they run, so these start
a new interpreter each."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fresh(code: str) -> list[str]:
    """The lines `code` prints in a new interpreter that imports chorkit
    from src/."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_the_command_line_loads_the_checkers_only_for_the_commands_that_run_them():
    lines = _fresh(
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import chorkit.cli\n"
        "loaded = set(sys.modules) - before\n"
        "print(sorted(m for m in ('chorkit.verifier', 'json') if m in loaded))\n"
        "print(sorted(m for m in loaded if m.startswith('chorkit.')))\n"
        "for argv in (['verify', 'epp', 'samples/purchase_safe.chor', '--json'],\n"
        "             ['implements', 'samples/successor_fn.chor', '--table',\n"
        "              'samples/successor_fn.table', '--inputs', 'p', '--output', 'q']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        code = chorkit.cli.main(argv)\n"
        "    print(argv[0], code, out.getvalue().splitlines()[:2])\n"
    )
    assert lines == [
        "[]",
        "['chorkit.amendment', 'chorkit.cc', 'chorkit.cli', 'chorkit.explore', "
        "'chorkit.projection', 'chorkit.sp', 'chorkit.syntax']",
        "verify 0 ['{', '  \"check\": \"epp-correspondence\",']",
        "implements 0 ['check: implements', 'verdict: holds-within-bound']",
    ]


def test_the_package_loads_each_submodule_on_first_use():
    lines = _fresh(
        "import sys\n"
        "import chorkit\n"
        "print(sorted(m for m in sys.modules if m.startswith('chorkit.')))\n"
        "print(chorkit.verifier is sys.modules['chorkit.verifier'])\n"
        "from chorkit import syntax\n"
        "print(syntax is sys.modules['chorkit.syntax'])\n"
        "print(all(getattr(chorkit, m).__name__ == 'chorkit.' + m for m in chorkit.__all__))\n"
        "try:\n"
        "    chorkit.nothing\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert lines == [
        "[]",
        "True",
        "True",
        "True",
        "module 'chorkit' has no attribute 'nothing'",
    ]
