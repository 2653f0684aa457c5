"""Replay fixed CLI configurations and compare the SHA-256 of each report
with the digest recorded in tests/golden/reports.json.

The digests pin the exact report bytes, so a refactor proves it changed no
output in one check.  They are never re-recorded to make a refactor pass;
only a change that alters a report on purpose may refresh them, and it
must say why.
"""

import hashlib
import json
from pathlib import Path

import pytest

from splitmodel.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "reports.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("config", sorted(GOLDEN))
def test_report_digest(config, capsys):
    code = main(config.split())
    out, _ = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[config]
