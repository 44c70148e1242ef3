"""CLI transcript: every argv case in ``cli_transcript.json``, byte for byte.

Each case runs ``curvekit.cli.main`` in process, in a fresh directory that
holds the curve files of ``FILES``, and must reproduce the recorded exit
code, the exact stdout and the exact files it writes there.  stderr is
checked by shape only: empty, one ``error:`` line, or the usage error of
a refused command line; never a traceback.  Help pages are pinned by exit
code alone (their ``stdout`` is ``null``).

The expectations were recorded from the implementation once.  After a
deliberate change of output, rewrite them with

    PYTHONPATH=src python tests/test_cli_transcript.py

and review the diff of ``cli_transcript.json`` case by case.
"""

import json
import os
import pathlib
import sys

import pytest
from clirun import run_cli

TABLE = pathlib.Path(__file__).with_name("cli_transcript.json")

FILES = {
    "flat.csv": b"tenor_years,rate\n1,0.05\n2,0.05\n3,0.05\n",
    "bump.csv": b"tenor_years,rate\n1,0.051\n2,0.05\n3,0.05\n",
    "invalid.csv": b"tenor_years,rate\n1,0.05\n2,0.9\n3,0.05\n",
    "swap5.csv": b"tenor_years,rate\n1,0.02\n2,0.025\n3,0.03\n4,0.032\n5,0.033\n",
    "malformed.csv": b"tenor_years,rate\n1,0.05\n2,oops\n",
    "offgrid.csv": b"tenor_years,rate\n1,0.05\n2.5,0.05\n",
    "latin1.csv": b"tenor_years,rate\n1,0.02\xff\n",
    "discount.csv": b"tenor_years,rate\n1,0.9\n2,0.95\n3,0.0\n",
    "kink.json": b'{"curve_type": "zero", "points": [{"t": 1, "r": 0.02},'
    b' {"t": 2, "r": 0.025}, {"t": 3, "r": 0.04}], "label": "kinked"}',
    "zero5.json": b'{"curve_type": "zero", "points": [{"t": 0.5, "r": 0.01}, {"t": 1, "r": 0.02},'
    b' {"t": 2, "r": 0.021}, {"t": 3, "r": 0.03}, {"t": 4, "r": 0.031}]}',
    "discount.json": b'{"curve_type": "discount", "points": [{"t": 1, "r": 0.97},'
    b' {"t": 2, "r": 0.94}, {"t": 3, "r": 0.9}]}',
}
HELP = "help"  # stderr shape of a help page, which pins nothing but the exit code


def run_case(argv: list[str], root: pathlib.Path) -> tuple[int, str, str, dict[str, str]]:
    """Exit code, stdout, stderr and the files written of one in-process run."""
    for name, data in FILES.items():
        (root / name).write_bytes(data)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        code, out, err = run_cli(argv)
    finally:
        os.chdir(cwd)
    written = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(root.iterdir())
        if p.is_file() and p.name not in FILES
    }
    return code, out, err, written


def stderr_shape(err: str) -> str:
    if "Traceback" in err:
        return "traceback"
    if not err:
        return "empty"
    lines = err.splitlines()
    if len(lines) == 1 and lines[0].startswith("error: "):
        return "error"
    # A refused command line: "<prog>: error: <reason>", most often after a usage line.
    if ": error: " in lines[-1]:
        return "usage"
    return "other"


def load_cases() -> list[dict]:
    return json.loads(TABLE.read_text(encoding="utf-8"))


CASES = load_cases()


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) or "<none>" for c in CASES])
def test_transcript(case, tmp_path):
    code, out, err, written = run_case(case["argv"], tmp_path)
    assert code == case["code"]
    assert "Traceback" not in err
    if case["stderr"] == HELP:
        return
    assert out == case["stdout"]
    assert written == case["written"]
    assert stderr_shape(err) == case["stderr"], err


def test_table_covers_every_command_and_exit_code():
    commands = {c["argv"][0] for c in CASES if c["argv"]}
    assert {"bootstrap", "par", "forwards", "validate", "scan", "butterfly", "pnl", "verify"} <= commands
    assert {c["code"] for c in CASES} == {0, 1, 2}
    assert {c["stderr"] for c in CASES} == {"empty", "error", "usage", HELP}


def record(root: pathlib.Path) -> int:
    """Rewrite every case's expectations from the current implementation."""
    cases = []
    for i, case in enumerate(load_cases()):
        case_root = root / str(i)
        case_root.mkdir()
        code, out, err, written = run_case(case["argv"], case_root)
        shape = HELP if case["stderr"] == HELP else stderr_shape(err)
        if shape in ("traceback", "other"):
            raise SystemExit(f"{case['argv']}: unexpected stderr {err!r}")
        cases.append(
            {
                "argv": case["argv"],
                "code": code,
                "stdout": None if shape == HELP else out,
                "written": None if shape == HELP else written,
                "stderr": shape,
            }
        )
    text = json.dumps(cases, indent=1, ensure_ascii=False)
    TABLE.write_text(text + "\n", encoding="utf-8")
    return len(cases)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        count = record(pathlib.Path(scratch))
    print(f"wrote {count} cases to {TABLE}", file=sys.stderr)
