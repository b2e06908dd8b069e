from fractions import Fraction

import pytest

from didgov import model
from didgov.errors import InvalidChangeSet, InvalidGroupConfig, UnknownGroup
from didgov.model import (
    AclConfig,
    AddGroup,
    ChangeSet,
    Did,
    DidDocument,
    EditRightLevel,
    ExecutionMode,
    GovernanceEvent,
    EventKind,
    NOfMConfig,
    ProposalStatus,
    RemoveGroup,
    ReplaceGroup,
    TokenConfig,
    TurnoutConfig,
    UpdateProposal,
    VcConfig,
    Verdict,
    WeightedConfig,
    apply_change_set,
)

from .util import acl_group, pair


def test_did_accepts_lowercase_hex_only():
    assert Did("00ff32") == "00ff32"
    for bad in ("", "XYZ", "00FF", "g0"):
        with pytest.raises(ValueError):
            Did(bad)


def test_edit_right_total_order():
    assert (
        EditRightLevel.ALL
        > EditRightLevel.DELEGATES_CREATION
        > EditRightLevel.SELF_GOVERNANCE
        > EditRightLevel.DOCUMENT
    )


def test_edit_right_json_names_round_trip():
    for level in EditRightLevel:
        assert EditRightLevel.from_json_name(level.json_name()) is level


class TestConfigs:
    def test_acl_requires_members(self):
        with pytest.raises(InvalidGroupConfig):
            AclConfig(members=())

    def test_acl_rejects_duplicate_members(self):
        key = pair("a").public_key
        with pytest.raises(InvalidGroupConfig):
            AclConfig(members=(key, key))

    def test_acl_weights_must_parallel_members(self):
        members = (pair("a").public_key, pair("b").public_key)
        with pytest.raises(InvalidGroupConfig):
            AclConfig(members=members, weights=(1,))
        with pytest.raises(InvalidGroupConfig):
            AclConfig(members=members, weights=(1, 0))
        assert AclConfig(members=members, weights=(2, 1)).weights == (2, 1)

    def test_issuer_lists_must_be_non_empty(self):
        with pytest.raises(InvalidGroupConfig):
            TokenConfig(trusted_issuers=())
        with pytest.raises(InvalidGroupConfig):
            VcConfig(trusted_issuers=())

    def test_nofm_bounds(self):
        with pytest.raises(InvalidGroupConfig):
            NOfMConfig(n=0, m=1)
        with pytest.raises(InvalidGroupConfig):
            NOfMConfig(n=3, m=2)
        assert NOfMConfig(n=2, m=2).m == 2

    def test_turnout_ratio_bounds(self):
        with pytest.raises(InvalidGroupConfig):
            TurnoutConfig(quorum=1, ratio=Fraction(0))
        with pytest.raises(InvalidGroupConfig):
            TurnoutConfig(quorum=1, ratio=Fraction(3, 2))
        with pytest.raises(InvalidGroupConfig):
            TurnoutConfig(quorum=0, ratio=Fraction(1, 2))
        assert TurnoutConfig(quorum=1, ratio=Fraction(1)).ratio == 1

    def test_weighted_threshold_positive(self):
        with pytest.raises(InvalidGroupConfig):
            WeightedConfig(threshold=0)


def test_group_kinds_derived_from_config_types():
    group = acl_group([pair("a")])
    assert group.authz_kind is model.AuthzKind.ACL
    assert group.coord_kind is model.CoordKind.NOFM


def test_group_rejects_negative_id_and_zero_time_limit():
    with pytest.raises(InvalidGroupConfig):
        acl_group([pair("a")], group_id=-1)
    with pytest.raises(InvalidGroupConfig):
        acl_group([pair("a")], time_limit=0)


class TestDocument:
    def test_requires_at_least_one_group(self):
        with pytest.raises(InvalidGroupConfig):
            DidDocument(did=Did("aa"), version=1, public_keys=(), attributes={}, groups=())

    def test_rejects_duplicate_group_ids(self):
        groups = (acl_group([pair("a")], group_id=1), acl_group([pair("b")], group_id=1))
        with pytest.raises(InvalidGroupConfig):
            DidDocument(did=Did("aa"), version=1, public_keys=(), attributes={}, groups=groups)

    def test_at_most_one_all_group(self):
        groups = (
            acl_group([pair("a")], group_id=0, edit_right=EditRightLevel.ALL),
            acl_group([pair("b")], group_id=1, edit_right=EditRightLevel.ALL),
        )
        with pytest.raises(InvalidGroupConfig):
            DidDocument(did=Did("aa"), version=1, public_keys=(), attributes={}, groups=groups)

    def test_group_lookup(self):
        doc = DidDocument(
            did=Did("aa"),
            version=1,
            public_keys=(),
            attributes={},
            groups=(acl_group([pair("a")], group_id=3),),
        )
        assert doc.group(3).group_id == 3
        assert doc.has_group(3) and not doc.has_group(4)
        with pytest.raises(UnknownGroup):
            doc.group(4)


class TestChangeSet:
    def test_must_change_something(self):
        with pytest.raises(InvalidChangeSet):
            ChangeSet()

    def test_empty_tuple_differs_from_none(self):
        # clearing the key set is a change; "leave unchanged" is None
        cleared = ChangeSet(new_public_keys=())
        assert cleared.new_public_keys == ()
        assert cleared.touches_content

    def test_replace_group_id_must_match(self):
        with pytest.raises(InvalidChangeSet):
            ReplaceGroup(group_id=1, group=acl_group([pair("a")], group_id=2))


def _doc(groups):
    return DidDocument(
        did=Did("aa"), version=1, public_keys=(pair("k").public_key,), attributes={"x": "1"}, groups=groups
    )


class TestApplyChangeSet:
    def test_content_replacement_bumps_version(self):
        doc = _doc((acl_group([pair("a")]),))
        new_key = pair("new").public_key
        updated = apply_change_set(doc, ChangeSet(new_public_keys=(new_key,)))
        assert updated.version == 2
        assert updated.public_keys == (new_key,)
        assert updated.attributes == {"x": "1"}  # untouched
        assert doc.version == 1  # original untouched

    def test_add_replace_remove(self):
        doc = _doc((acl_group([pair("a")], group_id=0),))
        added = apply_change_set(
            doc, ChangeSet(group_ops=(AddGroup(group=acl_group([pair("b")], group_id=1)),))
        )
        assert added.has_group(1)
        replaced = apply_change_set(
            added,
            ChangeSet(group_ops=(ReplaceGroup(group_id=0, group=acl_group([pair("c")], group_id=0)),)),
        )
        assert replaced.group(0).authz_config.members == (pair("c").public_key,)
        removed = apply_change_set(replaced, ChangeSet(group_ops=(RemoveGroup(group_id=1),)))
        assert not removed.has_group(1)
        assert removed.version == 4

    def test_add_duplicate_id_rejected(self):
        doc = _doc((acl_group([pair("a")], group_id=0),))
        with pytest.raises(InvalidChangeSet):
            apply_change_set(
                doc, ChangeSet(group_ops=(AddGroup(group=acl_group([pair("b")], group_id=0)),))
            )

    def test_replace_or_remove_missing_group_rejected(self):
        doc = _doc((acl_group([pair("a")], group_id=0),))
        with pytest.raises(UnknownGroup):
            apply_change_set(doc, ChangeSet(group_ops=(RemoveGroup(group_id=9),)))
        with pytest.raises(UnknownGroup):
            apply_change_set(
                doc,
                ChangeSet(group_ops=(ReplaceGroup(group_id=9, group=acl_group([pair("b")], group_id=9)),)),
            )

    def test_cannot_remove_last_group(self):
        doc = _doc((acl_group([pair("a")], group_id=0),))
        with pytest.raises(InvalidChangeSet):
            apply_change_set(doc, ChangeSet(group_ops=(RemoveGroup(group_id=0),)))

    def test_ops_apply_in_listed_order(self):
        doc = _doc((acl_group([pair("a")], group_id=0),))
        change = ChangeSet(
            group_ops=(
                AddGroup(group=acl_group([pair("b")], group_id=1)),
                RemoveGroup(group_id=0),
            )
        )
        updated = apply_change_set(doc, change)
        assert [g.group_id for g in updated.groups] == [1]


def test_ratio_text_round_trip():
    for ratio in (Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        assert model.ratio_from_text(model.ratio_to_text(ratio)) == ratio
    with pytest.raises(Exception):
        model.ratio_from_text("0.5")


# --- canonical and JSON round trips ------------------------------------------

def _sample_groups():
    issuer = pair("issuer")
    return [
        acl_group([pair("a"), pair("b")], group_id=0, weights=(2, 1), coord=WeightedConfig(threshold=2)),
        acl_group([pair("a")], group_id=1, coord=TurnoutConfig(quorum=2, ratio=Fraction(2, 3))),
        model.GovernanceGroup(
            group_id=2,
            edit_right=EditRightLevel.DELEGATES_CREATION,
            authz_config=TokenConfig(trusted_issuers=(issuer.public_key,)),
            coord_config=NOfMConfig(n=1, m=2),
            execution=ExecutionMode.OFF_CHAIN,
            time_limit=7,
        ),
        model.GovernanceGroup(
            group_id=3,
            edit_right=EditRightLevel.ALL,
            authz_config=VcConfig(
                trusted_issuers=(issuer.public_key,), required_claims={"role": "voter"}
            ),
            coord_config=NOfMConfig(n=1, m=1),
        ),
    ]


@pytest.mark.parametrize("group_index", range(4))
def test_group_round_trips(group_index):
    group = _sample_groups()[group_index]
    assert model.group_from_json(model.group_to_json(group)) == group


def test_document_round_trips():
    doc = DidDocument(
        did=Did("abc123"),
        version=3,
        public_keys=(pair("k").public_key,),
        attributes={"service": "x", "endpoint": "y"},
        groups=tuple(_sample_groups()),
    )
    assert model.document_from_json(model.document_to_json(doc)) == doc


def test_change_set_round_trips():
    change = ChangeSet(
        new_public_keys=(pair("new").public_key,),
        new_attributes={"a": "1"},
        group_ops=(
            AddGroup(group=acl_group([pair("b")], group_id=5)),
            ReplaceGroup(group_id=0, group=acl_group([pair("c")], group_id=0)),
            RemoveGroup(group_id=1),
        ),
    )
    assert model.change_set_from_json(model.change_set_to_json(change)) == change
    cleared = ChangeSet(new_public_keys=())
    assert model.change_set_from_json(model.change_set_to_json(cleared)) == cleared


def test_proposal_round_trips():
    proposal = UpdateProposal(
        proposal_id=4,
        did=Did("abc123"),
        base_version=2,
        originating_group=1,
        change_set=ChangeSet(new_attributes={"k": "v"}),
        created_at=9,
        deadline=15,
        status=ProposalStatus.OVERRIDDEN,
    )
    assert model.proposal_from_json(model.proposal_to_json(proposal)) == proposal


def test_decision_round_trips():
    from didgov import crypto
    from didgov.registry import build_decision

    token = crypto.issue_token(pair("issuer"), b"n" * 16)
    decision = build_decision(
        pair("a"), Did("abc123"), 2, 1, Verdict.REJECT, crypto.TokenPresentation(token=token)
    )
    assert model.decision_from_json(model.decision_to_json(decision)) == decision


def test_event_round_trips():
    event = GovernanceEvent(
        sequence=7, tick=3, kind=EventKind.RESOLVED, payload={"proposal_id": "2", "verdict": "approve"}
    )
    assert model.event_from_json(model.event_to_json(event)) == event
    assert event.payload_bytes() == len("proposal_id2verdictapprove")
