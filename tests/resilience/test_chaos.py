"""ChaosPolicy: spec parsing and deterministic fault scheduling."""

import pytest

from repro.resilience import ChaosPolicy, ChaosInjectedError, ReproError


class TestParse:
    def test_full_spec(self):
        policy = ChaosPolicy.parse(
            "seed=7,kill=0.2,error=0.1,delay=0.3,delay_s=0.5,match=seed3"
        )
        assert policy == ChaosPolicy(
            seed=7, kill=0.2, error=0.1, delay=0.3, delay_s=0.5, match="seed3"
        )

    def test_raise_is_an_alias_for_error(self):
        assert ChaosPolicy.parse("raise=0.5").error == 0.5

    def test_whitespace_and_empty_parts_tolerated(self):
        policy = ChaosPolicy.parse(" seed = 3 , kill = 0.1 ,, ")
        assert policy.seed == 3 and policy.kill == 0.1

    def test_unknown_key_rejected(self):
        with pytest.raises(ReproError, match="unknown"):
            ChaosPolicy.parse("frobnicate=1")

    def test_bad_value_rejected(self):
        with pytest.raises(ReproError, match="bad"):
            ChaosPolicy.parse("kill=often")

    def test_missing_equals_rejected(self):
        with pytest.raises(ReproError, match="key=value"):
            ChaosPolicy.parse("kill")

    def test_from_env_unset_is_none(self):
        assert ChaosPolicy.from_env({}) is None
        assert ChaosPolicy.from_env({"REPRO_CHAOS": "  "}) is None

    def test_from_env_parses(self):
        policy = ChaosPolicy.from_env({"REPRO_CHAOS": "seed=1,kill=0.9"})
        assert policy == ChaosPolicy(seed=1, kill=0.9)


class TestEnabled:
    def test_default_policy_is_disabled(self):
        assert not ChaosPolicy().enabled

    def test_any_probability_enables(self):
        assert ChaosPolicy(kill=0.1).enabled
        assert ChaosPolicy(error=0.1).enabled
        assert ChaosPolicy(delay=0.1).enabled


class TestDecide:
    def test_pure_function_of_seed_key_attempt(self):
        policy = ChaosPolicy(seed=5, kill=0.3, error=0.3, delay=0.3)
        for key in ("a#seed0", "a#seed1", "b#seed0"):
            for attempt in range(4):
                assert policy.decide(key, attempt) == policy.decide(
                    key, attempt
                )

    def test_attempt_rerolls_the_decision(self):
        # The retry loop increments the attempt, which must re-roll the
        # dice: a fault that fires forever on retry would defeat retry.
        policy = ChaosPolicy(seed=0, kill=0.5)
        decisions = {policy.decide("item", attempt) for attempt in range(32)}
        assert decisions == {"kill", None}

    def test_seed_decorrelates_schedules(self):
        keys = [f"k{i}" for i in range(64)]
        a = [ChaosPolicy(seed=1, kill=0.5).decide(k, 0) for k in keys]
        b = [ChaosPolicy(seed=2, kill=0.5).decide(k, 0) for k in keys]
        assert a != b

    def test_match_filters_keys(self):
        policy = ChaosPolicy(seed=0, kill=1.0, match="seed3")
        assert policy.decide("sweep#seed3", 0) == "kill"
        assert policy.decide("sweep#seed4", 0) is None

    def test_fault_order_kill_error_delay(self):
        assert ChaosPolicy(kill=1.0, error=1.0, delay=1.0).decide("x", 0) == "kill"
        assert ChaosPolicy(error=1.0, delay=1.0).decide("x", 0) == "error"
        assert ChaosPolicy(delay=1.0).decide("x", 0) == "delay"

    def test_probabilities_roughly_respected(self):
        policy = ChaosPolicy(seed=9, kill=0.25)
        kills = sum(
            1 for i in range(400) if policy.decide(f"k{i}", 0) == "kill"
        )
        assert 60 <= kills <= 140  # 0.25 * 400 = 100 expected


class TestInject:
    def test_no_fault_is_a_no_op(self):
        ChaosPolicy().inject("key", 0)

    def test_error_raises_chaos_injected(self):
        with pytest.raises(ChaosInjectedError):
            ChaosPolicy(error=1.0).inject("key", 0)

    def test_kill_without_allow_kill_becomes_exception(self):
        # In-parent (serial) execution must never os._exit the
        # orchestrating process; the kill converts to an exception.
        with pytest.raises(ChaosInjectedError, match="kill"):
            ChaosPolicy(kill=1.0).inject("key", 0, allow_kill=False)

    def test_delay_sleeps_then_returns(self):
        ChaosPolicy(delay=1.0, delay_s=0.0).inject("key", 0)
