import re

import pytest
from cryptography.hazmat.primitives.asymmetric import ed25519
from hypothesis import settings

from .util import pair

# Tier-1 is deterministic: every @given test draws the same examples on each
# run and machine, and no saved example database adds others.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

CRITERIA = {
    1: "anchoring cost linear in groups and members",
    2: "credential vote cost constant, acl vote cost increasing",
    3: "storage overhead ordering (acl vs credential, weighted vs n-of-m)",
    4: "off-chain aggregation cheaper and groups-independent",
    5: "time-limit surcharge is one event plus one storage write",
    6: "early termination equals full-tally resolution",
    7: "state-machine invariants under randomized sequences",
    8: "governance rules evolve through their own process",
    9: "event log replays to a byte-identical snapshot",
}


@pytest.fixture
def issuer():
    return pair("issuer")


@pytest.fixture
def alice():
    return pair("alice")


@pytest.fixture
def bob():
    return pair("bob")


@pytest.fixture
def carol():
    return pair("carol")


@pytest.fixture
def ed25519_calls(monkeypatch) -> list[bytes]:
    """The public key of each real Ed25519 verification made while the test
    runs: ``crypto.verify`` parses the key once per verification."""
    calls: list[bytes] = []
    from_public_bytes = ed25519.Ed25519PublicKey.from_public_bytes

    def counting(data):
        calls.append(data)
        return from_public_bytes(data)

    monkeypatch.setattr(ed25519.Ed25519PublicKey, "from_public_bytes", counting)
    return calls


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, str] = {}
    for report in terminalreporter.stats.get("passed", []):
        match = re.search(r"test_criterion_(\d+)", report.nodeid)
        if match and report.when == "call":
            outcomes.setdefault(int(match.group(1)), "PASS")
    for status in ("failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            match = re.search(r"test_criterion_(\d+)", getattr(report, "nodeid", ""))
            if match:
                outcomes[int(match.group(1))] = "FAIL"
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(outcomes):
        title = CRITERIA.get(number, "")
        terminalreporter.write_line(f"criterion {number} ({title}): {outcomes[number]}")
