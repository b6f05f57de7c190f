"""Byte identity of the shipped reports: each config in scripts/configs/
run at its own seed writes a report with the pinned SHA-256.  A change
that means to alter a report's bytes declares it in CHANGES.md and
updates the digest here."""

import hashlib
import json
import pathlib

import pytest

from majcert.formats import canonical_json
from majcert.suites import run_suite

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "configs"

#: config file stem -> SHA-256 of its report, as ``majcert run`` writes it
DIGESTS = {
    "dims": "0c7b3a07fcf48206be5e39cc9e7546991b505eda83fbaf516d20e24aa143e9bd",
    "equivalence": "346c8bd65feec9e353ae252a5bb9f89da75e17dd953c76f8368fd46601ba0030",
    "l1winnow": "9da284aa8368cd44df1ba8041e7e50ba256e3fc9c5ad23692defe8eb9d6e57cc",
    "l2counter": "7d854f3ee0ddc4eed311a834b0fd5ccaf46054d2a2e1db917b41d49d296579bc",
    "majcert": "7c0c5375c3e802b175f2d37b74b5ec879bafd25242780e8cc6b11cc27f80c627",
    "majcert_robust": "665f0b6daf5b1568cd6dd2e7b40892d9a36d13a0ff62a7aa3a0526f64da2c524",
    "occam": "73c9614463e87b7e1b59f5051a26f3518205b83debaca859d5988565d2ab3b6a",
    "quantum-protocol": "de0ef7cd30b8601d6e862eca6f8b45ea0343a6b0092dcaca7bfa0285cbd6febf",
    "realmajcert": "3f6eef89ed7adbf0a203360327edf7070779a3f96ee88ea29d23c29b33743126",
    "winnow": "e2d7ffb19fe929a9b55529ac9874a16af122ebee59d8811261a2b8a4a8060558",
}


def test_every_shipped_config_has_a_digest():
    assert sorted(path.stem for path in CONFIG_DIR.glob("*.json")) == sorted(DIGESTS)


@pytest.mark.parametrize("stem", sorted(DIGESTS))
def test_shipped_report_bytes_are_pinned(stem):
    config = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    text = canonical_json(run_suite(config))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[stem]
