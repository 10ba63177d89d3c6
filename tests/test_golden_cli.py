"""The golden CLI corpus (see `golden.py`), one test per recorded case.

After an intended output change, re-record the digests with

    PYTHONPATH=src python tests/golden.py --write
"""

import pytest

from golden import DATA, expected, replay


@pytest.mark.parametrize("case", DATA["cases"], ids=[c["id"] for c in DATA["cases"]])
def test_golden_cli(case, tmp_path):
    assert replay(case, tmp_path) == expected(case)
