"""Golden CLI corpus: fixed invocations replayed in-process, with stdout, the
`--out` file and the exit code compared byte for byte against recorded
sha256 digests. On exit code 0, stderr (skip notes, sweep notes) is compared
too; error messages are free to change wording.

Input files live inside the corpus, so a change to the graph families does
not change what is replayed. An argv token `@name` stands for the file
`name` in a scratch directory (`@out` is where `--out` writes).

After an intended output change, re-record the digests with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from swindex.cli import main

CORPUS = Path(__file__).with_name("golden_cli.json")
DATA = json.loads(CORPUS.read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def replay(case: dict, workdir: Path) -> dict:
    """Run one case and return its digests in the corpus's shape."""
    for name, text in DATA["files"].items():
        (workdir / name).write_text(text)
    out_file = workdir / "out"
    out_file.unlink(missing_ok=True)
    argv = [str(workdir / tok[1:]) if tok.startswith("@") else tok for tok in case["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    got = {"exit": code, "stdout": _sha(stdout.getvalue())}
    if code == 0:
        got["stderr"] = _sha(stderr.getvalue())
    if "@out" in case["argv"]:
        got["out"] = _sha(out_file.read_text()) if out_file.exists() else None
    return got


@pytest.mark.parametrize("case", DATA["cases"], ids=[c["id"] for c in DATA["cases"]])
def test_golden_cli(case, tmp_path):
    expected = {key: case[key] for key in ("exit", "stdout", "stderr", "out") if key in case}
    assert replay(case, tmp_path) == expected


def _write() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for case in DATA["cases"]:
            for key in ("stderr", "out"):
                case.pop(key, None)
            case.update(replay(case, Path(tmp)))
    CORPUS.write_text(json.dumps(DATA, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_cli.py --write")
    _write()
