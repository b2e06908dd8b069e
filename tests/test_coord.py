import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from didgov import coord
from didgov.authz import AuthzOutcome
from didgov.coord import DecisionBatch, Tally
from didgov.errors import (
    AlreadyFinalized,
    DuplicateBatch,
    DuplicateDecision,
    EncodingError,
    TallyFinalized,
    TallyFull,
    Unauthorized,
)
from didgov.metering import CostMeter
from didgov.model import (
    ChangeSet,
    Decision,
    Did,
    NOfMConfig,
    TurnoutConfig,
    UpdateProposal,
    Verdict,
    WeightedConfig,
)

from .util import acl_group, oracle_early_stop, oracle_verdict, pair

GRANT = AuthzOutcome(granted=True)


def _key(tag: str) -> bytes:
    return pair(tag).public_key


def _decision(tag: str, verdict: Verdict, proposal_id: int = 1) -> Decision:
    # coord never checks signatures; the registry does that before calling in
    return Decision(
        proposal_id=proposal_id,
        controller_key=pair(tag).public_key,
        verdict=verdict,
        signature=b"\x00" * 64,
    )


def _proposal() -> UpdateProposal:
    return UpdateProposal(
        proposal_id=1,
        did=Did("aa"),
        base_version=1,
        originating_group=0,
        change_set=ChangeSet(new_attributes={"k": "v"}),
        created_at=0,
    )


class TestInitProcess:
    def test_plain_group_gets_tally_only(self):
        meter = CostMeter()
        tally = coord.init_process(acl_group([pair("a")]), _proposal(), meter)
        assert tally.proposal_id == 1 and not tally.accepted
        assert meter.report("propose").count("storage_write_new") == 1  # tally record

    def test_time_limit_schedules_deadline(self):
        # the deadline itself is derived when the registry schedules it
        meter = CostMeter()
        coord.init_process(acl_group([pair("a")], time_limit=10), _proposal(), meter)
        assert meter.report("propose").count("storage_write_new") == 2  # tally record + deadline settings


class TestNOfM:
    config = NOfMConfig(n=2, m=3)

    def test_early_approve_at_n(self):
        tally = Tally(proposal_id=1)
        assert coord.submit_decision(self.config, tally, _key("a"), Verdict.APPROVE, 1) is None
        assert (
            coord.submit_decision(self.config, tally, _key("b"), Verdict.APPROVE, 1)
            is Verdict.APPROVE
        )

    def test_early_reject_when_approval_impossible(self):
        # m=3, n=2: two rejections leave at most one approval
        tally = Tally(proposal_id=1)
        assert coord.submit_decision(self.config, tally, _key("a"), Verdict.REJECT, 1) is None
        assert (
            coord.submit_decision(self.config, tally, _key("b"), Verdict.REJECT, 1)
            is Verdict.REJECT
        )

    def test_duplicate_controller_rejected_without_append(self):
        tally = Tally(proposal_id=1)
        coord.submit_decision(self.config, tally, _key("a"), Verdict.REJECT, 1)
        with pytest.raises(DuplicateDecision):
            coord.submit_decision(self.config, tally, _key("a"), Verdict.APPROVE, 1)
        assert len(tally.accepted) == 1

    def test_tally_cap_via_batch(self):
        # live submissions always terminate at or before the m-th decision,
        # so the cap is only observable through a batch
        config = NOfMConfig(n=3, m=3)
        tally = Tally(proposal_id=1)
        ballots = [
            (_key(t), v)
            for t, v in (
                ("a", Verdict.REJECT),
                ("b", Verdict.APPROVE),
                ("c", Verdict.REJECT),
                ("d", Verdict.APPROVE),
            )
        ]
        result = coord.submit_batch(config, tally, ballots, [GRANT] * 4)
        assert result.tallied == (0, 1, 2)
        assert result.skipped == ((3, "tally-full"),)

    def test_full_tally_raises_on_live_submission(self):
        config = NOfMConfig(n=3, m=3)
        tally = Tally(proposal_id=1)
        for t, v in (("a", Verdict.REJECT), ("b", Verdict.APPROVE), ("c", Verdict.REJECT)):
            coord.append_entry(config, tally, (pair(t).public_key, v, 1))
        with pytest.raises(TallyFull):
            coord.submit_decision(config, tally, _key("d"), Verdict.APPROVE, 1)


class TestWeighted:
    config = WeightedConfig(threshold=5)

    def test_early_approve_at_threshold(self):
        tally = Tally(proposal_id=1)
        assert coord.submit_decision(self.config, tally, _key("a"), Verdict.APPROVE, 3) is None
        assert (
            coord.submit_decision(self.config, tally, _key("b"), Verdict.APPROVE, 2)
            is Verdict.APPROVE
        )

    def test_rejections_never_terminate_early(self):
        tally = Tally(proposal_id=1)
        for tag in "abcdefg":
            assert (
                coord.submit_decision(self.config, tally, _key(tag), Verdict.REJECT, 1) is None
            )

    def test_reject_weight_does_not_count(self):
        tally = Tally(proposal_id=1)
        assert coord.submit_decision(self.config, tally, _key("a"), Verdict.REJECT, 100) is None
        assert tally.approve_weight == 0


class TestTurnoutSensitive:
    config = TurnoutConfig(quorum=3, ratio=Fraction(2, 3))

    def test_never_terminates_early(self):
        tally = Tally(proposal_id=1)
        for tag in "abcdefgh":
            assert (
                coord.submit_decision(self.config, tally, _key(tag), Verdict.APPROVE, 1)
                is None
            )

    def test_quorum_not_met_rejects(self):
        tally = Tally(proposal_id=1)
        coord.submit_decision(self.config, tally, _key("a"), Verdict.APPROVE, 1)
        coord.submit_decision(self.config, tally, _key("b"), Verdict.APPROVE, 1)
        assert coord.resolve(self.config, tally) is Verdict.REJECT

    def test_threshold_scales_with_turnout(self):
        # 4 submitted, ratio 2/3 -> ceil(8/3) = 3 approvals needed
        tally = Tally(proposal_id=1)
        for tag, verdict in (
            ("a", Verdict.APPROVE),
            ("b", Verdict.APPROVE),
            ("c", Verdict.APPROVE),
            ("d", Verdict.REJECT),
        ):
            coord.submit_decision(self.config, tally, _key(tag), verdict, 1)
        assert coord.resolve(self.config, tally) is Verdict.APPROVE

    def test_exact_fraction_no_float_drift(self):
        # 1/3 of 3 is exactly 1: one approval suffices at quorum
        config = TurnoutConfig(quorum=3, ratio=Fraction(1, 3))
        tally = Tally(proposal_id=1)
        for tag, verdict in (
            ("a", Verdict.APPROVE),
            ("b", Verdict.REJECT),
            ("c", Verdict.REJECT),
        ):
            coord.submit_decision(config, tally, _key(tag), verdict, 1)
        assert coord.resolve(config, tally) is Verdict.APPROVE


class TestBatch:
    config = TurnoutConfig(quorum=2, ratio=Fraction(1, 2))

    def _ballots(self, entries):
        return [(_key(t), v) for t, v in entries]

    def test_mismatched_proposal_id_rejected_at_construction(self):
        with pytest.raises(EncodingError):
            DecisionBatch(proposal_id=2, decisions=(_decision("a", Verdict.APPROVE, proposal_id=1),))

    def test_second_batch_rejected(self):
        tally = Tally(proposal_id=1)
        ballots = self._ballots([("a", Verdict.APPROVE), ("b", Verdict.APPROVE)])
        coord.submit_batch(self.config, tally, ballots, [GRANT] * 2)
        with pytest.raises(DuplicateBatch):
            coord.submit_batch(
                self.config, tally, self._ballots([("c", Verdict.APPROVE)]), [GRANT]
            )

    def test_invalid_entries_skipped_not_fatal(self):
        tally = Tally(proposal_id=1)
        ballots = self._ballots(
            [("a", Verdict.APPROVE), ("a", Verdict.REJECT), ("b", Verdict.APPROVE), ("z", Verdict.APPROVE)]
        )
        outcomes = [GRANT, GRANT, GRANT, AuthzOutcome(granted=False, refusal=(Unauthorized, "not a member"))]
        result = coord.submit_batch(self.config, tally, ballots, outcomes)
        assert result.tallied == (0, 2)
        assert result.skipped == ((1, "duplicate-decision"), (3, "unauthorized"))
        assert len(tally.accepted) == 2

    def test_nonce_held_from_its_first_presentation(self):
        # an entry reserves its token nonce before the append, so a later
        # entry presenting it is a replay even when that append refused
        tally = Tally(proposal_id=1)
        ballots = self._ballots([("a", Verdict.APPROVE), ("a", Verdict.REJECT), ("b", Verdict.APPROVE)])
        first, second = (AuthzOutcome(granted=True, consume_nonce=(b"i", nonce)) for nonce in (b"n", b"m"))
        result = coord.submit_batch(self.config, tally, ballots, [first, second, second])
        assert result.tallied == (0,)
        assert result.skipped == ((1, "duplicate-decision"), (2, "replayed-nonce"))

    def test_batch_never_resolves(self):
        # even a decisive aggregate leaves resolution to a separate step
        config = NOfMConfig(n=1, m=5)
        tally = Tally(proposal_id=1)
        ballots = self._ballots([("a", Verdict.APPROVE), ("b", Verdict.APPROVE)])
        result = coord.submit_batch(config, tally, ballots, [GRANT] * 2)
        assert result.tallied == (0, 1)
        assert not tally.finalized


class TestResolveAndFreeze:
    def test_resolve_finalizes(self):
        tally = Tally(proposal_id=1)
        config = NOfMConfig(n=1, m=3)
        coord.submit_decision(config, tally, _key("a"), Verdict.REJECT, 1)
        assert coord.resolve(config, tally) is Verdict.REJECT
        assert tally.finalized
        with pytest.raises(AlreadyFinalized):
            coord.resolve(config, tally)
        with pytest.raises(TallyFinalized):
            coord.submit_decision(config, tally, _key("b"), Verdict.APPROVE, 1)

    def test_expiry_resolves_on_partial_tally(self):
        config = NOfMConfig(n=2, m=5)
        tally = Tally(proposal_id=1)
        coord.submit_decision(config, tally, _key("a"), Verdict.APPROVE, 1)
        assert coord.resolve(config, tally) is Verdict.REJECT

    def test_freeze_takes_no_verdict(self):
        tally = Tally(proposal_id=1)
        coord.freeze(tally)
        assert tally.finalized
        with pytest.raises(AlreadyFinalized):
            coord.freeze(tally)

    def test_turnout_resolution_costs_most(self):
        def resolve_cost(config):
            tally = Tally(proposal_id=1)
            for tag in "abcd":
                coord.submit_decision(config, tally, _key(tag), Verdict.REJECT, 1)
            meter = CostMeter()
            coord.resolve(config, tally, meter)
            return meter.report("resolve").total

        turnout = resolve_cost(TurnoutConfig(quorum=5, ratio=Fraction(1, 2)))
        nofm = resolve_cost(NOfMConfig(n=5, m=9))
        weighted = resolve_cost(WeightedConfig(threshold=50))
        assert turnout > nofm == weighted


# --- oracle equivalence (shared machinery with the acceptance gate) ----------

def run_sequence(config, entries):
    """Submit entries until early termination; return (stop, final_verdict).

    ``stop`` is (index, verdict) when a submission was decisive, else None.
    ``final_verdict`` comes from manually resolving whatever was tallied.
    """
    tally = Tally(proposal_id=1)
    stop = None
    for index, (verdict, weight) in enumerate(entries):
        early = coord.submit_decision(config, tally, _key(f"seq-{index}"), Verdict(verdict), weight)
        if early is not None:
            stop = (index, early.value)
            break
    if stop is not None:
        verdict = coord.resolve(config, tally)
        return stop, verdict.value
    return None, coord.resolve(config, tally).value


def exhaustive_configs(length):
    configs = [NOfMConfig(n=n, m=m) for m in range(max(1, length), length + 2) for n in range(1, m + 1)]
    configs += [WeightedConfig(threshold=t) for t in (1, 2, 3, 5)]
    configs += [
        TurnoutConfig(quorum=q, ratio=r)
        for q in (1, 2, 3)
        for r in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1))
    ]
    return configs


def check_sequence(config, entries):
    counted = entries
    if isinstance(config, NOfMConfig):
        counted = entries[: config.m]
    stop, final = run_sequence(config, counted)
    expected_stop = oracle_early_stop(config, counted)
    if expected_stop is None:
        assert stop is None
        assert final == oracle_verdict(config, counted)
    else:
        assert stop == expected_stop
        prefix = counted[: expected_stop[0] + 1]
        # the early verdict must match what the full formula says, both on
        # the decided prefix and on the whole (counted) sequence
        assert final == oracle_verdict(config, prefix) == expected_stop[1]
        assert oracle_verdict(config, counted) == expected_stop[1]


def test_exhaustive_small_sequences_match_oracle():
    for length in (1, 2, 3):
        for mask in range(2 ** length):
            entries = [
                ("approve" if (mask >> i) & 1 else "reject", 1) for i in range(length)
            ]
            for config in exhaustive_configs(length):
                check_sequence(config, entries)


def test_random_sequences_match_oracle():
    rng = random.Random(0xC0DE)
    for _ in range(10_000):
        length = rng.randint(1, 8)
        entries = [
            (rng.choice(("approve", "reject")), rng.randint(1, 4)) for _ in range(length)
        ]
        kind = rng.randrange(3)
        if kind == 0:
            m = rng.randint(1, 8)
            config = NOfMConfig(n=rng.randint(1, m), m=m)
        elif kind == 1:
            config = WeightedConfig(threshold=rng.randint(1, 12))
        else:
            config = TurnoutConfig(
                quorum=rng.randint(1, 8), ratio=Fraction(rng.randint(1, 4), 4)
            )
        check_sequence(config, entries)


# --- running tally state against a rescan of ``accepted`` ---------------------
# The reference functions below are the scans the tally used before it kept
# a controller set and running counters.

def _scan_has_decided(accepted, key):
    return any(k == key for k, _, _ in accepted)


def _scan_early_outcome(config, accepted):
    approvals = sum(1 for _, verdict, _ in accepted if verdict is Verdict.APPROVE)
    rejections = sum(1 for _, verdict, _ in accepted if verdict is Verdict.REJECT)
    approve_weight = sum(w for _, verdict, w in accepted if verdict is Verdict.APPROVE)
    if isinstance(config, NOfMConfig):
        if approvals >= config.n:
            return Verdict.APPROVE
        if rejections > config.m - config.n:
            return Verdict.REJECT
        return None
    if isinstance(config, WeightedConfig):
        return Verdict.APPROVE if approve_weight >= config.threshold else None
    return None


@st.composite
def _coord_configs(draw):
    kind = draw(st.sampled_from(("nofm", "weighted", "turnout")))
    if kind == "nofm":
        m = draw(st.integers(1, 8))
        return NOfMConfig(n=draw(st.integers(1, m)), m=m)
    if kind == "weighted":
        return WeightedConfig(threshold=draw(st.integers(1, 12)))
    return TurnoutConfig(quorum=draw(st.integers(1, 8)), ratio=Fraction(draw(st.integers(1, 4)), 4))


_KEYS = [pair(f"eq-{i}").public_key for i in range(6)]
_ENTRIES = st.tuples(
    st.sampled_from(_KEYS), st.sampled_from((Verdict.APPROVE, Verdict.REJECT)), st.integers(1, 4)
)


@settings(max_examples=300, deadline=None)
@given(config=_coord_configs(), entries=st.lists(_ENTRIES, max_size=12))
def test_running_tally_matches_rescan(config, entries):
    tally = Tally(proposal_id=1)
    for entry in entries:
        try:
            coord.append_entry(config, tally, entry)
        except (DuplicateDecision, TallyFull):
            pass  # refused: the tally must be as it was
        accepted = tally.accepted
        assert tally.decided == {key for key, _, _ in accepted}
        assert tally.approvals == sum(1 for _, v, _ in accepted if v is Verdict.APPROVE)
        assert tally.rejections == sum(1 for _, v, _ in accepted if v is Verdict.REJECT)
        assert tally.approve_weight == sum(w for _, v, w in accepted if v is Verdict.APPROVE)
        for key in _KEYS:
            assert (key in tally.decided) == _scan_has_decided(accepted, key)
        assert config.early_outcome(tally) == _scan_early_outcome(config, accepted)
