"""``evosym find`` at two rungs of the scale ladder answers exactly as
recorded in ``tests/data``: the exit code and the text output, byte for
byte.  Their linear systems hold entries far larger than the benchmark's
(pools of 837 and 596 columns, the second with t-degree 2), so the
elimination meets coefficient growth the small matrices never show.

To record a file again after an intended change of output::

    PYTHONPATH=src python tests/test_scale_rungs.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from evosym import cli

DATA = Path(__file__).resolve().parent / "data"
RUNGS = {
    "find_mkdv_o7w9_t1x1.txt": (
        "find", "--equation", "u3+u^2*u1", "--order", "7", "--weight", "9",
        "--t-degree", "1", "--x-degree", "1", "--base-weight", "1"),
    "find_kdv_o7w9_t2x1.txt": (
        "find", "--equation", "u3+6*u*u1", "--order", "7", "--weight", "9",
        "--t-degree", "2", "--x-degree", "1"),
}


def _answer(argv) -> str:
    """The exit code and the output of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(argv), out=out)
    return f"exit {code}\n{out.getvalue()}" + "".join(
        f"stderr: {line}\n" for line in err.getvalue().splitlines())


@pytest.mark.parametrize("golden", sorted(RUNGS))
def test_scale_rung_answers_as_recorded(golden):
    assert _answer(RUNGS[golden]) == (DATA / golden).read_text(
        encoding="utf-8")


if __name__ == "__main__":
    for name, argv in RUNGS.items():
        (DATA / name).write_text(_answer(argv), encoding="utf-8")
        sys.stdout.write(f"wrote {name}\n")
