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
    "dims": "710852903b470d05430ee4274b8a67ed605f977b30ffa8bc89b44c2b3c05c2e1",
    "equivalence": "346c8bd65feec9e353ae252a5bb9f89da75e17dd953c76f8368fd46601ba0030",
    "l1winnow": "10138a888bcdfe638a288db790e4ef53ea95f2ed62afe9157b27c7e796c5bc90",
    "l2counter": "7d854f3ee0ddc4eed311a834b0fd5ccaf46054d2a2e1db917b41d49d296579bc",
    "majcert": "7c0c5375c3e802b175f2d37b74b5ec879bafd25242780e8cc6b11cc27f80c627",
    "majcert_robust": "665f0b6daf5b1568cd6dd2e7b40892d9a36d13a0ff62a7aa3a0526f64da2c524",
    "occam": "88ec4de0795f93ae64bf3c2ff4b56eadf96a3735c54c20a54f4e50ece04aee5c",
    "quantum-protocol": "fbea49232a3fe068fd444388ea55019411ae0b15954a0128942c179a87ac786e",
    "realmajcert": "a2e48fa3760de81804f65ffc79337e0301859aa4623a059f096126df8963bbba",
    "winnow": "6e425f899d0aaff3ca8644906f2f8efe50126ee9e9821dac0e496e797f8a68fa",
}


def test_every_shipped_config_has_a_digest():
    assert sorted(path.stem for path in CONFIG_DIR.glob("*.json")) == sorted(DIGESTS)


@pytest.mark.parametrize("stem", sorted(DIGESTS))
def test_shipped_report_bytes_are_pinned(stem):
    config = json.loads((CONFIG_DIR / f"{stem}.json").read_text())
    text = canonical_json(run_suite(config))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[stem]
