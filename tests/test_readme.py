"""README's shell examples under "## CLI" and "## Library errors", run as
written and compared with the ``# ...`` line under each: the whole stdout,
in which a ``...`` of the line stands for any text, or ``exit N, stderr:
LINE``, the exit code and the one stderr line (``last stderr line`` for a
traceback)."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import char1

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(char1.__file__).resolve().parents[1])
# the README's commands as shell functions running this interpreter on this source
PRELUDE = 'char1() { "$PY" -m char1.cli "$@"; }\npython() { "$PY" "$@"; }\n'


def examples(section: str) -> list[tuple[str, str]]:
    """(command, expected line) for each example of the sh blocks of a
    section: the lines up to a ``# `` line, which gives the expected one."""
    text = README.read_text(encoding="utf-8")
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    out = []
    for block in re.findall(r"```sh\n(.*?)```", body, re.S):
        cmd = []
        for line in block.splitlines():
            if line.startswith("# "):
                out.append(("\n".join(cmd), line[2:]))
                cmd = []
            elif line.strip():
                cmd.append(line)
    return out


EXAMPLES = examples("CLI") + examples("Library errors")
IDS = [f"{i}-{m[1] if m else 'python'}"
       for i, (cmd, _) in enumerate(EXAMPLES) for m in [re.search(r"char1 ([\w-]+( --\w+)?)", cmd)]]


def test_both_sections_have_examples():
    assert len(examples("CLI")) >= 6 and examples("Library errors")


@pytest.mark.parametrize("cmd, expected", EXAMPLES, ids=IDS)
def test_readme_example(cmd, expected):
    env = {**os.environ, "PYTHONPATH": SRC, "PY": sys.executable}
    env.pop("CHAR1_SEED", None)
    run = subprocess.run(["sh", "-c", PRELUDE + cmd], capture_output=True, text=True, env=env,
                         timeout=120)
    failure = re.fullmatch(r"exit (\d+), (last )?stderr(?: line)?: (.*)", expected)
    if failure:
        lines = run.stderr.splitlines()
        assert run.returncode == int(failure[1])
        assert (lines[-1:] if failure[2] else lines) == [failure[3]]
    else:
        assert run.returncode == 0, run.stderr
        assert re.fullmatch(".*".join(map(re.escape, expected.split("..."))), run.stdout.strip())
