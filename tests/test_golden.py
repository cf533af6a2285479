"""Golden outputs for the CLI commands documented in README.md.

Each ``divisorlab ...`` line of the README's CLI block runs through
``cli.main`` in a scratch directory; its stdout must match the file in
``tests/golden/`` byte for byte.  Two documented exceptions: the constants
report drops its ``timestamp`` key, and ``sieve`` is checked by the sha256
of the table file it writes.

Re-record after an intended output change with ``python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from divisorlab.cli import CACHE_ENV, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
_TIMESTAMP = re.compile(r',\n *"timestamp": "[^"]*"')


def readme_commands() -> list[list[str]]:
    """argv lists of the ``divisorlab`` lines in the README's CLI block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("divisorlab ")]


def golden_name(index: int, argv: list[str]) -> str:
    return f"{index:02d}-{build_parser().parse_args(argv).command}.txt"


def golden_text(argv: list[str]) -> str:
    """Run one command in the current directory; return what its golden
    file holds: stdout, minus the constants timestamp, plus the sha256 of
    a written sieve table."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    text = out.getvalue()
    args = build_parser().parse_args(argv)
    if args.command == "sieve":
        digest = hashlib.sha256(Path(args.output).read_bytes()).hexdigest()
        text += f"sha256 {digest}\n"
    if args.command == "constants":
        text = _TIMESTAMP.sub("", text)
    return text


COMMANDS = readme_commands()


def test_readme_lists_every_command():
    names = [golden_name(i, argv) for i, argv in enumerate(COMMANDS, 1)]
    assert len(names) == 9
    assert sorted(names) == sorted(p.name for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("index,argv", list(enumerate(COMMANDS, 1)),
                         ids=[golden_name(i, a) for i, a in enumerate(COMMANDS, 1)])
def test_readme_command_output_is_golden(index, argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(CACHE_ENV, raising=False)
    want = (GOLDEN / golden_name(index, argv)).read_bytes()
    assert golden_text(argv).encode("utf-8") == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    os.environ.pop(CACHE_ENV, None)
    for i, argv in enumerate(COMMANDS, 1):
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            (GOLDEN / golden_name(i, argv)).write_bytes(
                golden_text(argv).encode("utf-8"))
            os.chdir(ROOT)
        print("recorded", golden_name(i, argv), file=sys.stderr)
