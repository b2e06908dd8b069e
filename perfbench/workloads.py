"""Seeded input generators for the benchmark workloads.

Every generator returns an :class:`Episode`: the full list of registry
transactions for one fresh ``Registry``, each with the outcome the
generator expects (``"ok"`` or a ``GovernanceError.code``), plus the final
proposal statuses and document versions it expects. All signing happens
here, so it is paid in set-up and never inside a timed transaction.

The seed only chooses key material and the order in which a fixed set of
voters casts its votes. Which ACL positions vote, how many decisions are
tallied and how large each event payload is are fixed by the workload's
shape, so the metered cost units of an episode are the same for every seed.
The decisive vote of an early-terminating tally is always cast last.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from didgov import crypto
from didgov.coord import DecisionBatch
from didgov.model import (
    AclConfig,
    AuthzKind,
    ChangeSet,
    CoordKind,
    Did,
    EditRightLevel,
    ExecutionMode,
    GovernanceGroup,
    NOfMConfig,
    TokenConfig,
    TurnoutConfig,
    VcConfig,
    Verdict,
    WeightedConfig,
)
from didgov.registry import build_decision

OK = "ok"
TIME_LIMIT = 5


@dataclass
class Step:
    """One registry transaction and the outcome the generator expects."""

    method: str
    args: tuple
    expect: str = OK
    # decide_batch only: batch indices expected in ``BatchResult.skipped``
    skipped: Optional[tuple[int, ...]] = None


@dataclass
class Episode:
    steps: list[Step] = field(default_factory=list)
    statuses: dict[int, str] = field(default_factory=dict)  # proposal id -> final status
    versions: dict[str, int] = field(default_factory=dict)  # did -> final document version


@dataclass
class _Doc:
    did: str
    authz: AuthzKind
    execution: ExecutionMode
    members: list[crypto.KeyPair]
    vcs: list[crypto.VerifiableCredential]  # one per member, VC documents only
    version: int = 1


class _Generator:
    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.episode = Episode()
        self.next_pid = 1
        self.clock = 0
        self.issuer = self.keypair()
        self.rogue_issuer = self.keypair()  # never trusted by any group

    def keypair(self) -> crypto.KeyPair:
        return crypto.generate_keypair(self.rng.randbytes(32))

    def step(self, method: str, *args, expect: str = OK, skipped=None) -> None:
        self.episode.steps.append(Step(method, args, expect, skipped))

    def anchor(self, doc: _Doc, groups: tuple[GovernanceGroup, ...]) -> None:
        keys = [self.rng.randbytes(32)]
        self.step("anchor", doc.did, keys, {"service": "https://example.org/" + self.rng.randbytes(8).hex()}, groups)
        self.episode.versions[doc.did] = 1

    def change_set(self) -> ChangeSet:
        return ChangeSet(new_attributes={"service": "https://example.org/" + self.rng.randbytes(8).hex()})

    # -- credentials ----------------------------------------------------------

    def token(self, issuer: Optional[crypto.KeyPair] = None) -> crypto.TokenPresentation:
        token = crypto.issue_token(issuer or self.issuer, self.rng.randbytes(crypto.NONCE_LEN))
        return crypto.TokenPresentation(token=token)

    def credential(self, doc: _Doc, member: int, pid: int):
        if doc.authz is AuthzKind.ACL:
            return None
        if doc.authz is AuthzKind.TOKEN:
            return self.token()
        return crypto.present_vc(doc.vcs[member], doc.members[member], doc.did, pid)

    def decision(self, doc: _Doc, member: int, pid: int, verdict: Verdict):
        return build_decision(
            doc.members[member], Did(doc.did), pid, doc.version, verdict, self.credential(doc, member, pid)
        )

    # -- transactions ---------------------------------------------------------

    def propose(self, doc: _Doc, group_id: int, proposer: crypto.KeyPair, credential) -> int:
        pid = self.next_pid
        self.next_pid += 1
        self.step("propose", doc.did, group_id, self.change_set(), proposer.public_key, credential)
        self.episode.statuses[pid] = "active"
        return pid

    def cast(self, doc: _Doc, pid: int, ballots, rejected, last=None) -> None:
        """Submit ``ballots`` (member, verdict) in seeded order, with the
        ``rejected`` (decision, code) entries mixed in, and ``last`` after
        everything: one transaction each on-chain, one batch off-chain."""
        entries = [(self.decision(doc, m, pid, v), OK) for m, v in ballots]
        self.rng.shuffle(entries)
        for item in rejected:
            entries.insert(self.rng.randrange(len(entries) + 1), item)
        if last is not None:
            entries.append((self.decision(doc, last, pid, Verdict.APPROVE), OK))
        if doc.execution is ExecutionMode.ON_CHAIN:
            for decision, code in entries:
                self.step("decide", decision, expect=code)
            return
        skipped = tuple(i for i, (_, code) in enumerate(entries) if code != OK)
        batch = DecisionBatch(proposal_id=pid, decisions=tuple(d for d, _ in entries))
        self.step("decide_batch", batch, skipped=skipped)

    def approve(self, doc: _Doc, pid: int) -> None:
        doc.version += 1
        self.episode.versions[doc.did] = doc.version
        self.episode.statuses[pid] = "approved"

    def advance(self, to: int) -> None:
        self.clock = to
        self.step("advance_clock", to)


# --- small-mixed -------------------------------------------------------------

_AUTHZ = (AuthzKind.ACL, AuthzKind.TOKEN, AuthzKind.VC)
_COORD = (CoordKind.NOFM, CoordKind.TURNOUT_SENSITIVE, CoordKind.WEIGHTED)
_EXECUTION = (ExecutionMode.ON_CHAIN, ExecutionMode.OFF_CHAIN)


def small_mixed(seed: int, docs: int) -> Episode:
    """``docs`` documents with 3-7 member groups, cycling through every
    authorization kind, coordination kind and execution mode; every other
    block of 18 documents has a deadline. Per document: anchor, a refused
    propose, a proposal voted to approval with refused decisions mixed in,
    then depending on the index a privilege override, an expiry with a late
    vote, or a terminal off-chain batch holding one wrong-length signature."""
    gen = _Generator(seed)
    pool = [gen.keypair() for _ in range(48)]
    for i in range(docs):
        authz = _AUTHZ[i % 3]
        coord = _COORD[(i // 3) % 3]
        execution = _EXECUTION[(i // 9) % 2]
        time_limit = TIME_LIMIT if (i // 18) % 2 else None
        size = 3 + i % 5
        override = i % 7 == 3
        defect = execution is ExecutionMode.OFF_CHAIN and time_limit is None and not override and i % 5 == 2
        _mixed_document(gen, pool, authz, coord, execution, time_limit, size, override, defect)
    return gen.episode


def _mixed_document(gen, pool, authz, coord, execution, time_limit, size, override, defect) -> None:
    members = gen.rng.sample(pool, size)
    # effective vote weight per member position: tokens carry no weight
    weights = [1 + j % 3 for j in range(size)] if authz is not AuthzKind.TOKEN else [1] * size
    vcs = []
    if authz is AuthzKind.VC:
        vcs = [
            crypto.issue_vc(gen.issuer, m.public_key, {"role": "voter", "weight": str(w)})
            for m, w in zip(members, weights)
        ]
    doc = _Doc(gen.rng.randbytes(32).hex(), authz, execution, members, vcs)
    rejector = 1
    if coord is CoordKind.NOFM:
        coord_config = NOfMConfig(n=size - 1, m=size)
    elif coord is CoordKind.TURNOUT_SENSITIVE:
        coord_config = TurnoutConfig(quorum=2, ratio=Fraction(1, 2))
    else:
        threshold = sum(w for j, w in enumerate(weights) if j != rejector)
        coord_config = WeightedConfig(threshold=threshold)
    if authz is AuthzKind.ACL:
        authz_config = AclConfig(
            members=tuple(m.public_key for m in members),
            weights=tuple(weights) if coord is CoordKind.WEIGHTED else None,
        )
    elif authz is AuthzKind.TOKEN:
        authz_config = TokenConfig(trusted_issuers=(gen.issuer.public_key,))
    else:
        authz_config = VcConfig(trusted_issuers=(gen.issuer.public_key,), required_claims={"role": "voter"})
    groups = [GovernanceGroup(0, EditRightLevel.DOCUMENT, authz_config, coord_config, execution, time_limit)]
    admin = None
    if override:
        admin = gen.keypair()
        groups.append(
            GovernanceGroup(1, EditRightLevel.SELF_GOVERNANCE, AclConfig(members=(admin.public_key,)), NOfMConfig(1, 1))
        )
    gen.anchor(doc, tuple(groups))

    # a refused propose: outsider on an ACL, untrusted issuer otherwise
    outsider = gen.keypair()
    if authz is AuthzKind.ACL:
        gen.step("propose", doc.did, 0, gen.change_set(), outsider.public_key, None, expect="unauthorized")
    elif authz is AuthzKind.TOKEN:
        gen.step("propose", doc.did, 0, gen.change_set(), outsider.public_key, gen.token(gen.rogue_issuer),
                 expect="untrusted-issuer")
    else:
        rogue_vc = crypto.issue_vc(gen.rogue_issuer, outsider.public_key, {"role": "voter"})
        gen.step("propose", doc.did, 0, gen.change_set(), outsider.public_key,
                 crypto.present_vc(rogue_vc, outsider, doc.did, 0), expect="untrusted-issuer")

    propose_credential = gen.credential(doc, 0, 0)
    pid = gen.propose(doc, 0, members[0], propose_credential)

    if override:
        if execution is ExecutionMode.ON_CHAIN:
            gen.cast(doc, pid, [(0, Verdict.APPROVE)], [])
        override_pid = gen.propose(doc, 1, admin, None)
        gen.episode.statuses[pid] = "overridden"
        gen.step("decide", gen.decision(doc, 0, pid, Verdict.APPROVE), expect="no-active-proposal")
        admin_doc = dataclasses.replace(
            doc, members=[admin], authz=AuthzKind.ACL, execution=ExecutionMode.ON_CHAIN, vcs=[]
        )
        gen.cast(admin_doc, override_pid, [], [], last=0)
        gen.approve(doc, override_pid)
        if time_limit is not None:
            gen.advance(gen.clock + time_limit)  # fires P1's stale queue entry
        return

    # refused decisions mixed into the vote: a well-formed signature over
    # another verdict, plus one refusal particular to the authorization kind
    bad = gen.decision(doc, 2, pid, Verdict.REJECT)
    rejected = [(dataclasses.replace(bad, verdict=Verdict.APPROVE), "unauthorized")]
    if authz is AuthzKind.ACL:
        rejected.append((build_decision(outsider, Did(doc.did), pid, doc.version, Verdict.APPROVE), "unauthorized"))
    elif authz is AuthzKind.TOKEN:
        stranger = gen.keypair()
        replay = build_decision(stranger, Did(doc.did), pid, doc.version, Verdict.APPROVE, propose_credential)
        rejected.append((replay, "replayed-nonce"))
        rogue = build_decision(stranger, Did(doc.did), pid, doc.version, Verdict.APPROVE, gen.token(gen.rogue_issuer))
        rejected.append((rogue, "untrusted-issuer"))
    else:
        rogue = build_decision(outsider, Did(doc.did), pid, doc.version, Verdict.APPROVE,
                               crypto.present_vc(rogue_vc, outsider, doc.did, pid))
        rejected.append((rogue, "untrusted-issuer"))

    voters = list(range(size))
    if coord is CoordKind.TURNOUT_SENSITIVE:
        voters = voters[:-1]  # the last member stays away; turnout never ends early
    last = None
    if execution is ExecutionMode.ON_CHAIN and coord is not CoordKind.TURNOUT_SENSITIVE:
        last = voters.pop()  # the decisive approval
    ballots = [(j, Verdict.REJECT if j == rejector else Verdict.APPROVE) for j in voters]
    gen.cast(doc, pid, ballots, rejected, last=last)

    if last is None:  # turnout, or any off-chain tally: resolved by expiry or by hand
        if time_limit is not None:
            gen.advance(gen.clock + time_limit)
            late = gen.decision(doc, size - 1, pid, Verdict.APPROVE)
            if execution is ExecutionMode.ON_CHAIN:
                gen.step("decide", late, expect="no-active-proposal")
            else:
                gen.step("decide_batch", DecisionBatch(pid, (late,)), expect="no-active-proposal")
        else:
            gen.step("resolve_manual", pid)
    elif time_limit is not None:
        gen.advance(gen.clock + time_limit)  # stale entry: resolved decisively already
    gen.approve(doc, pid)

    if defect:
        # terminal proposal: nothing after it depends on how this batch ends
        pid2 = gen.propose(doc, 0, members[0], gen.credential(doc, 0, 0))
        entries = [gen.decision(doc, j, pid2, Verdict.APPROVE) for j in range(size)]
        gen.rng.shuffle(entries)
        # last, so that how many entries the engine checks before it reaches
        # the broken one does not depend on the seed
        entries.append(dataclasses.replace(entries[0], signature=entries[0].signature[:-1]))
        gen.step("decide_batch", DecisionBatch(pid2, tuple(entries)), skipped=(size,))


# --- large-acl ---------------------------------------------------------------

def large_acl(seed: int, members: int, rounds: int) -> Episode:
    """Two documents governed by one ACL group of ``members`` keys each, one
    on-chain and one off-chain, ``rounds`` proposals apiece. Every member
    votes once in seeded order (one in a hundred rejects), the decisive
    on-chain approval last; one decision in fifty comes from a non-member
    and one in a hundred repeats an earlier voter."""
    gen = _Generator(seed)
    rejectors = set(range(0, members, 100))
    repeaters = range(members // 20, members, 100)
    n = members - len(rejectors)
    docs = []
    for execution in (ExecutionMode.ON_CHAIN, ExecutionMode.OFF_CHAIN):
        keys = [gen.keypair() for _ in range(members)]
        doc = _Doc(gen.rng.randbytes(32).hex(), AuthzKind.ACL, execution, keys, [])
        config = AclConfig(members=tuple(k.public_key for k in keys))
        gen.anchor(doc, (GovernanceGroup(0, EditRightLevel.DOCUMENT, config, NOfMConfig(n, members), execution),))
        docs.append(doc)
    outsiders = [gen.keypair() for _ in range(max(1, members // 50))]
    for _ in range(rounds):
        for doc in docs:
            pid = gen.propose(doc, 0, doc.members[0], None)
            order = list(range(members))
            gen.rng.shuffle(order)
            last = None
            if doc.execution is ExecutionMode.ON_CHAIN:
                last = next(j for j in reversed(order) if j not in rejectors and j not in repeaters)
                order.remove(last)
            entries = [
                (gen.decision(doc, j, pid, Verdict.REJECT if j in rejectors else Verdict.APPROVE), OK)
                for j in order
            ]
            for outsider in outsiders:
                decision = build_decision(outsider, Did(doc.did), pid, doc.version, Verdict.APPROVE)
                entries.insert(gen.rng.randrange(len(entries) + 1), (decision, "unauthorized"))
            # repeated voters are fixed ACL positions: a skipped batch entry
            # still pays for its membership scan
            for j in repeaters:
                at = next(k for k, (d, _) in enumerate(entries) if d.controller_key == doc.members[j].public_key)
                later = gen.rng.randrange(at + 1, len(entries) + 1)
                entries.insert(later, (entries[at][0], "duplicate-decision"))
            if last is not None:
                entries.append((gen.decision(doc, last, pid, Verdict.APPROVE), OK))
                for decision, code in entries:
                    gen.step("decide", decision, expect=code)
            else:
                skipped = tuple(k for k, (_, code) in enumerate(entries) if code != OK)
                gen.step("decide_batch", DecisionBatch(pid, tuple(d for d, _ in entries)), skipped=skipped)
                gen.step("resolve_manual", pid)
            gen.approve(doc, pid)
    return gen.episode
