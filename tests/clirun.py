"""One in-process ``curvekit`` run for the tests: exit code, stdout and stderr.

``cli.main`` ends every call with ``SystemExit(exit code)``, as a process
would.  That is the only exception caught here: any other one is a program
fault and reaches the test that ran the command.
"""

import contextlib
import io
from typing import NamedTuple

from curvekit import cli


class Run(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> Run:
    """Run one ``curvekit`` command line through ``cli.main``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cli.main(argv, prog_name="curvekit")
    except SystemExit as exc:
        return Run(exc.code, out.getvalue(), err.getvalue())
    raise AssertionError(f"cli.main returned without an exit code: {argv}")
