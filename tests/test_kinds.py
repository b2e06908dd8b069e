"""Each governance kind is one config class.

Every authorization kind, coordination kind and execution mode runs the
whole lifecycle and replays byte for byte; and no engine module dispatches
on a config's class or branches on a kind itself, so the classes in
``didgov.model`` stay the one place a kind is defined.
"""

import ast
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from didgov import crypto, model, registry as registry_mod
from didgov.coord import DecisionBatch
from didgov.model import (
    AclConfig,
    AuthzKind,
    ChangeSet,
    CoordKind,
    EditRightLevel,
    ExecutionMode,
    GovernanceGroup,
    NOfMConfig,
    ProposalStatus,
    TokenConfig,
    TurnoutConfig,
    VcConfig,
    Verdict,
    WeightedConfig,
)
from didgov.registry import Registry, build_decision

from .util import pair

SRC = Path(__file__).parent.parent / "src" / "didgov"
CONFIG_CLASSES = {"AclConfig", "TokenConfig", "VcConfig", "NOfMConfig", "TurnoutConfig", "WeightedConfig"}
KIND_ENUMS = {"AuthzKind", "CoordKind"}
# bench.py builds its sweep inputs from the kinds a command line names
KIND_BRANCHES_ALLOWED = {("bench.py", name) for name in ("_authz_config", "_coord_config", "_credential")}

MEMBERS = [pair(f"kind-member-{i}") for i in range(3)]
ISSUER = pair("kind-issuer")
DID = "c0ffee"
VERDICTS = (Verdict.APPROVE, Verdict.REJECT, Verdict.APPROVE)


def _authz_config(kind: AuthzKind):
    if kind is AuthzKind.ACL:
        return AclConfig(members=tuple(m.public_key for m in MEMBERS), weights=(2, 1, 1))
    if kind is AuthzKind.TOKEN:
        return TokenConfig(trusted_issuers=(ISSUER.public_key,))
    return VcConfig(trusted_issuers=(ISSUER.public_key,), required_claims={"role": "voter"})


def _coord_config(kind: CoordKind):
    if kind is CoordKind.NOFM:
        return NOfMConfig(n=2, m=3)
    if kind is CoordKind.TURNOUT_SENSITIVE:
        return TurnoutConfig(quorum=2, ratio=Fraction(2, 3))
    return WeightedConfig(threshold=3)


def _credential(kind: AuthzKind, index: int, proposal_id: int):
    """Member ``index``'s credential for ``proposal_id`` (0 to propose)."""
    if kind is AuthzKind.ACL:
        return None
    if kind is AuthzKind.TOKEN:
        nonce = f"{proposal_id}-{index}".encode().ljust(crypto.NONCE_LEN, b"\x00")
        return crypto.TokenPresentation(token=crypto.issue_token(ISSUER, nonce))
    claims = {"role": "voter", "weight": "2"} if index == 0 else {"role": "voter"}
    vc = crypto.issue_vc(ISSUER, MEMBERS[index].public_key, claims)
    return crypto.present_vc(vc, MEMBERS[index], DID, proposal_id)


@pytest.mark.parametrize(
    "authz, coord, execution",
    list(itertools.product(AuthzKind, CoordKind, ExecutionMode)),
    ids=lambda kind: kind.value,
)
def test_every_kind_combination_runs_the_lifecycle_and_replays(authz, coord, execution):
    group = GovernanceGroup(
        0, EditRightLevel.DOCUMENT, _authz_config(authz), _coord_config(coord), execution, time_limit=10
    )
    assert model.group_from_json(model.group_to_json(group)) == group
    registry = Registry()
    registry.anchor(DID, [MEMBERS[0].public_key], {}, (group,))
    change = ChangeSet(new_attributes={"k": "v"})
    pid = registry.propose(DID, 0, change, MEMBERS[0].public_key, _credential(authz, 0, 0))
    decisions = [
        build_decision(member, DID, pid, 1, verdict, _credential(authz, index, pid))
        for index, (member, verdict) in enumerate(zip(MEMBERS, VERDICTS))
    ]
    if execution is ExecutionMode.ON_CHAIN:
        for decision in decisions:
            if registry.state.proposals[pid].status is ProposalStatus.ACTIVE:
                registry.decide(decision)
    else:
        result = registry.decide_batch(DecisionBatch(pid, tuple(decisions)))
        assert result.tallied == (0, 1, 2)
    if registry.state.proposals[pid].status is ProposalStatus.ACTIVE:
        registry.resolve_manual(pid)
    assert registry.state.proposals[pid].status in (ProposalStatus.APPROVED, ProposalStatus.REJECTED)
    text = registry_mod.event_log_to_jsonl(registry.state.event_log)
    replayed = registry_mod.replay_events(registry_mod.event_log_from_jsonl(text))
    assert registry_mod.snapshot_json(replayed) == registry.snapshot_json()


def _kind_dispatch(tree: ast.Module, module: str) -> list[str]:
    """Each place in ``tree`` that dispatches on a config class with
    ``isinstance``, or compares a value with an ``AuthzKind`` or
    ``CoordKind`` member outside the allowed functions; ``module`` is the
    file name."""
    found = []

    def names(node):
        return {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and names(node.args[1]) & CONFIG_CLASSES
        ):
            found.append(f"{module}:{node.lineno} isinstance on {sorted(names(node.args[1]) & CONFIG_CLASSES)}")
        if (
            isinstance(node, ast.Compare)
            and names(node) & KIND_ENUMS
            and (module, function) not in KIND_BRANCHES_ALLOWED
        ):
            found.append(f"{module}:{node.lineno} branches on a kind in {function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_engine_module_dispatches_on_a_governance_kind():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _kind_dispatch(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == []


@pytest.mark.parametrize(
    "source",
    [
        "isinstance(config, AclConfig)",
        "isinstance(config, (NOfMConfig, WeightedConfig))",
        "isinstance(config, model.TurnoutConfig)",
        "kind is AuthzKind.ACL",
        "kind == model.CoordKind.WEIGHTED",
    ],
)
def test_the_dispatch_guard_finds_a_branch_on_a_kind(source):
    assert len(_kind_dispatch(ast.parse(source), "registry.py")) == 1
