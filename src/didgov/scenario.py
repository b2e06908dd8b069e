"""Declarative scenario execution.

A scenario is a JSON file with three sections:

- ``seed_keys``: name → 32-byte seed (hex). Every name becomes a key pair;
  actions refer to keys by name and the runner signs payloads itself.
- ``credentials``: bearer tokens and verifiable credentials to issue up
  front, referenced by name from actions.
- ``actions``: executed strictly in order against one fresh registry.

Artifacts written on success: ``events.jsonl`` (audit log), ``costs.csv``
(per-transaction metering), ``final_state.json`` (state snapshot, the
replay comparison target).
"""

from __future__ import annotations

import json
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Optional

from . import crypto, model, registry as registry_mod
from .coord import DecisionBatch
from .crypto import BearerToken, KeyPair, TokenPresentation, VerifiableCredential
from .errors import GovernanceError
from .model import ChangeSet, Did, EditRightLevel, Verdict
from .registry import Registry, build_decision

_HEX = set("0123456789abcdef")


class ScenarioParseError(Exception):
    """Scenario file is malformed (bad JSON, schema, or reference)."""

    def __init__(self, message: str, line: Optional[int] = None, column: Optional[int] = None):
        super().__init__(message)
        self.line = line
        self.column = column


class ScenarioAssertionError(Exception):
    """An assert_state action observed something else."""

    def __init__(self, action_index: int, check: str, expected, actual):
        super().__init__(
            f"action {action_index}: expected {check}={expected!r}, observed {actual!r}"
        )
        self.action_index = action_index
        self.check = check
        self.expected = expected
        self.actual = actual


class ScenarioEngineError(Exception):
    """The engine rejected an action; carries the action index and code."""

    def __init__(self, action_index: int, cause: GovernanceError):
        super().__init__(f"action {action_index}: {cause.code}: {cause}")
        self.action_index = action_index
        self.cause = cause
        self.code = cause.code


@dataclass
class Scenario:
    name: str
    keys: dict[str, KeyPair]
    tokens: dict[str, BearerToken]
    vcs: dict[str, tuple[VerifiableCredential, KeyPair]]
    actions: list[dict]


@dataclass
class ScenarioRun:
    name: str
    registry: Registry
    out_dir: Optional[Path]
    warnings: list[str] = field(default_factory=list)


@contextmanager
def _decoding(context: str) -> Iterator[None]:
    """Report what malformed scenario data makes decoding raise, a model
    decoder's refusal included, as a ``ScenarioParseError`` naming
    ``context``. It wraps decoding only, never a registry call, so an engine
    refusal or fault still surfaces as itself."""
    try:
        yield
    except GovernanceError as exc:
        raise ScenarioParseError(f"{context}: {exc.code}: {exc}") from exc
    except (LookupError, ValueError, TypeError, AttributeError) as exc:
        raise ScenarioParseError(f"{context}: {type(exc).__name__}: {exc}") from exc


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioParseError(f"{context}: missing required field {key!r}")
    return mapping[key]


def _require_int(mapping: dict, key: str, context: str) -> int:
    value = _require(mapping, key, context)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioParseError(f"{context}: field {key!r} must be an integer, not {value!r}")
    return value


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path.name}: not UTF-8 text (byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"{path.name}: invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno
        ) from exc
    except RecursionError as exc:
        raise ScenarioParseError(f"{path.name}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError(f"{path.name}: top level must be an object")
    name = data.get("name", path.stem)
    keys: dict[str, KeyPair] = {}
    with _decoding("seed_keys"):
        for key_name, seed_hex in data.get("seed_keys", {}).items():
            try:
                seed = bytes.fromhex(seed_hex)
            except ValueError:
                raise ScenarioParseError(f"seed_keys[{key_name!r}]: not hex") from None
            if len(seed) != 32:
                raise ScenarioParseError(f"seed_keys[{key_name!r}]: seed must be 32 bytes")
            keys[key_name] = crypto.generate_keypair(seed)
    tokens: dict[str, BearerToken] = {}
    vcs: dict[str, tuple[VerifiableCredential, KeyPair]] = {}
    with _decoding("credentials"):
        for decl in data.get("credentials", ()):
            decl_name = _require(decl, "name", "credential")
            issuer_name = _require(decl, "issuer", f"credential {decl_name!r}")
            if issuer_name not in keys:
                raise ScenarioParseError(f"credential {decl_name!r}: undeclared issuer {issuer_name!r}")
            issuer = keys[issuer_name]
            kind = _require(decl, "kind", f"credential {decl_name!r}")
            if kind == "token":
                try:
                    nonce = bytes.fromhex(_require(decl, "nonce", f"credential {decl_name!r}"))
                except ValueError:
                    raise ScenarioParseError(f"credential {decl_name!r}: nonce is not hex") from None
                if len(nonce) != crypto.NONCE_LEN:
                    raise ScenarioParseError(
                        f"credential {decl_name!r}: nonce must be {crypto.NONCE_LEN} bytes"
                    )
                tokens[decl_name] = crypto.issue_token(issuer, nonce)
            elif kind == "vc":
                holder_name = _require(decl, "holder", f"credential {decl_name!r}")
                if holder_name not in keys:
                    raise ScenarioParseError(
                        f"credential {decl_name!r}: undeclared holder {holder_name!r}"
                    )
                holder = keys[holder_name]
                claims = decl.get("claims", {})
                vcs[decl_name] = (crypto.issue_vc(issuer, holder.public_key, claims), holder)
            else:
                raise ScenarioParseError(f"credential {decl_name!r}: unknown kind {kind!r}")
    actions = data.get("actions", [])
    if not isinstance(actions, list):
        raise ScenarioParseError("actions must be a list")
    return Scenario(name=name, keys=keys, tokens=tokens, vcs=vcs, actions=actions)


class _Runner:
    def __init__(self, scenario: Scenario, registry: Registry):
        self.scenario = scenario
        self.registry = registry
        self.warnings: list[str] = []

    # -- reference resolution -------------------------------------------------

    def _key_hex(self, ref: str, context: str) -> str:
        if ref in self.scenario.keys:
            return self.scenario.keys[ref].public_key.hex()
        if len(ref) == 64 and set(ref) <= _HEX:
            return ref
        raise ScenarioParseError(f"{context}: {ref!r} is neither a declared key nor 64-char hex")

    def _did(self, ref: str, context: str) -> str:
        if ref in self.scenario.keys:
            return self.scenario.keys[ref].public_key.hex()
        if ref and set(ref) <= _HEX:
            return ref
        raise ScenarioParseError(f"{context}: {ref!r} is not a did (hex or declared key)")

    def _signer(self, ref: str, context: str) -> KeyPair:
        if ref not in self.scenario.keys:
            raise ScenarioParseError(f"{context}: {ref!r} must be a declared key (it signs)")
        return self.scenario.keys[ref]

    def _resolve_group_json(self, data: dict, context: str) -> dict:
        out = dict(data)
        config = dict(data.get("authz_config", {}))
        for list_field in ("members", "trusted_issuers"):
            if list_field in config:
                config[list_field] = [
                    self._key_hex(ref, f"{context}.{list_field}") for ref in config[list_field]
                ]
        out["authz_config"] = config
        return out

    def _resolve_change_set(self, data: dict, context: str) -> ChangeSet:
        resolved = dict(data)
        if resolved.get("new_public_keys") is not None:
            resolved["new_public_keys"] = [
                self._key_hex(ref, f"{context}.new_public_keys")
                for ref in resolved["new_public_keys"]
            ]
        ops = []
        for op in resolved.get("group_ops", ()):
            op = dict(op)
            if "group" in op:
                op["group"] = self._resolve_group_json(op["group"], f"{context}.group_ops")
            ops.append(op)
        resolved["group_ops"] = ops
        return model.change_set_from_json(resolved)

    def _presentation(self, name: Optional[str], did: str, proposal_id: int, context: str):
        if name is None:
            return None
        if name in self.scenario.tokens:
            return TokenPresentation(token=self.scenario.tokens[name])
        if name in self.scenario.vcs:
            vc, holder = self.scenario.vcs[name]
            return crypto.present_vc(vc, holder, did, proposal_id)
        raise ScenarioParseError(f"{context}: undeclared credential {name!r}")

    # -- actions --------------------------------------------------------------
    # Each _do_<action> decodes its action and returns the registry call it
    # makes (None for a check), so only decoding runs under _decoding.

    def execute(self) -> None:
        for index, action in enumerate(self.scenario.actions):
            if not isinstance(action, dict):
                raise ScenarioParseError(f"action {index}: must be an object")
            kind = _require(action, "action", f"action {index}")
            handler = getattr(self, f"_do_{kind}", None)
            if handler is None:
                raise ScenarioParseError(f"action {index}: unknown action {kind!r}")
            context = f"action {index} ({kind})"
            try:
                with _decoding(context):
                    submit = handler(index, action, context)
                if submit is not None:
                    submit()
            except GovernanceError as exc:
                raise ScenarioEngineError(index, exc) from exc

    def _do_anchor(self, index: int, action: dict, context: str) -> Callable[[], object]:
        did = self._did(_require(action, "did", context), context)
        public_keys = [
            bytes.fromhex(self._key_hex(ref, context)) for ref in action.get("public_keys", ())
        ]
        groups = tuple(
            model.group_from_json(self._resolve_group_json(g, context))
            for g in _require(action, "groups", context)
        )
        if all(g.edit_right is EditRightLevel.DOCUMENT for g in groups):
            self.warnings.append(
                f"{did}: every group is Document-level; the governance rules of this "
                "document can never change"
            )
        attributes = model.text_map(action.get("attributes", {}), "attributes")
        return partial(self.registry.anchor, did, public_keys, attributes, groups)

    def _do_propose(self, index: int, action: dict, context: str) -> Callable[[], object]:
        did = self._did(_require(action, "did", context), context)
        proposer = self._signer(_require(action, "proposer", context), context)
        change_set = self._resolve_change_set(_require(action, "change_set", context), context)
        credential = self._presentation(action.get("credential"), did, 0, context)
        group_id = _require_int(action, "group_id", context)
        return partial(self.registry.propose, did, group_id, change_set, proposer.public_key, credential)

    def _build_decision(self, entry: dict, proposal_id: int, context: str):
        controller = self._signer(_require(entry, "controller", context), context)
        verdict = Verdict(_require(entry, "verdict", context))
        proposal = self.registry.state.proposals.get(proposal_id)
        if proposal is None:
            # let the registry produce its usual error on submission
            did, base_version = Did("0" * 64), 1
        else:
            did, base_version = proposal.did, proposal.base_version
        credential = self._presentation(entry.get("credential"), str(did), proposal_id, context)
        return build_decision(controller, did, proposal_id, base_version, verdict, credential)

    def _do_decide(self, index: int, action: dict, context: str) -> Callable[[], object]:
        proposal_id = _require_int(action, "proposal_id", context)
        return partial(self.registry.decide, self._build_decision(action, proposal_id, context))

    def _do_decide_batch(self, index: int, action: dict, context: str) -> Callable[[], object]:
        proposal_id = _require_int(action, "proposal_id", context)
        decisions = tuple(
            self._build_decision(entry, proposal_id, context)
            for entry in _require(action, "decisions", context)
        )
        return partial(self.registry.decide_batch, DecisionBatch(proposal_id=proposal_id, decisions=decisions))

    def _do_advance_time(self, index: int, action: dict, context: str) -> Callable[[], object]:
        return partial(self.registry.advance_clock, _require_int(action, "to", context))

    def _do_resolve_manual(self, index: int, action: dict, context: str) -> Callable[[], object]:
        return partial(self.registry.resolve_manual, _require_int(action, "proposal_id", context))

    def _do_assert_state(self, index: int, action: dict, context: str) -> None:
        state = self.registry.state
        doc = None
        if "did" in action:
            doc = state.documents.get(Did(self._did(action["did"], context)))
        if "version" in action:
            actual = doc.version if doc is not None else None
            self._check(index, "version", action["version"], actual)
        if "public_keys" in action:
            expected = [self._key_hex(ref, context) for ref in action["public_keys"]]
            actual = [k.hex() for k in doc.public_keys] if doc is not None else None
            self._check(index, "public_keys", expected, actual)
        if "attributes" in action:
            actual = dict(doc.attributes) if doc is not None else None
            self._check(index, "attributes", action["attributes"], actual)
        if "active_proposal" in action:
            if doc is None:
                raise ScenarioParseError(f"{context}: active_proposal check needs a did")
            active = state.active_proposals.get(doc.did)
            actual = active.proposal_id if active is not None else None
            self._check(index, "active_proposal", action["active_proposal"], actual)
        if "status" in action:
            proposal = state.proposals.get(_require_int(action, "proposal_id", context))
            actual = proposal.status.value if proposal is not None else None
            self._check(index, "status", action["status"], actual)
        if "clock" in action:
            self._check(index, "clock", action["clock"], state.clock.now)

    def _check(self, index: int, check: str, expected, actual) -> None:
        if expected != actual:
            raise ScenarioAssertionError(index, check, expected, actual)


def run_scenario(path, out_dir=None, echo_warnings: bool = True) -> ScenarioRun:
    """Execute one scenario file; write artifacts on success."""
    scenario = load_scenario(path)
    registry = Registry()
    runner = _Runner(scenario, registry)
    runner.execute()
    target = Path(out_dir) if out_dir is not None else Path(path).parent / f"{Path(path).stem}-out"
    target.mkdir(parents=True, exist_ok=True)
    (target / "events.jsonl").write_text(
        registry_mod.event_log_to_jsonl(registry.state.event_log), encoding="utf-8"
    )
    from .bench import reports_to_csv  # local import: bench pulls in no scenario code

    (target / "costs.csv").write_text(reports_to_csv(registry.reports), encoding="utf-8")
    (target / "final_state.json").write_text(registry.snapshot_json(), encoding="utf-8")
    if echo_warnings:
        for warning in runner.warnings:
            print(f"warning: {warning}", file=sys.stderr)
    return ScenarioRun(name=scenario.name, registry=registry, out_dir=target, warnings=runner.warnings)
