"""Golden CLI corpus: fixed invocations replayed in-process, with stdout, the
`--out` file and the exit code compared byte for byte against recorded
sha256 digests. On exit code 0, stderr (skip notes, sweep notes) is compared
too; error messages are free to change wording.

Input files live inside the corpus, so a change to the graph families does
not change what is replayed. An argv token `@name` stands for the file
`name` in a scratch directory (`@out` is where `--out` writes).

Needs only the standard library, so any supported Python can replay it:

    PYTHONPATH=src python tests/golden.py --check   # list mismatches, exit 1 on any
    PYTHONPATH=src python tests/golden.py --write   # re-record after an intended change
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from swindex.cli import main

CORPUS = Path(__file__).with_name("golden_cli.json")
DATA = json.loads(CORPUS.read_text())
KEYS = ("exit", "stdout", "stderr", "out")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expected(case: dict) -> dict:
    """The recorded digests of one case."""
    return {key: case[key] for key in KEYS if key in case}


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


def check() -> list[str]:
    """Replay every case; the ids of those that differ from the corpus."""
    with tempfile.TemporaryDirectory() as tmp:
        return [case["id"] for case in DATA["cases"] if replay(case, Path(tmp)) != expected(case)]


def write() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for case in DATA["cases"]:
            for key in ("stderr", "out"):
                case.pop(key, None)
            case.update(replay(case, Path(tmp)))
    CORPUS.write_text(json.dumps(DATA, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        write()
    elif sys.argv[1:] == ["--check"]:
        bad = check()
        print(f"{len(DATA['cases']) - len(bad)}/{len(DATA['cases'])} cases match "
              f"(Python {sys.version.split()[0]})")
        for case_id in bad:
            print(f"MISMATCH {case_id}")
        sys.exit(1 if bad else 0)
    else:
        sys.exit("usage: golden.py --check | --write")
