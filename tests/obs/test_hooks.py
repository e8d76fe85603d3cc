"""Hook quarantine: a broken profiling callback never crashes the run."""

import pytest

from repro import obs
from repro.experiments.runner import Scenario, run_scenario
from repro.obs.hooks import emit_round, emit_run_end


def _boom(*args):
    raise RuntimeError("hook exploded")


@pytest.fixture()
def log_records():
    records = []
    obs.log_hub.add_sink(records.append)
    yield records
    obs.log_hub.remove_sink(records.append)


def _quarantine_records(records):
    return [r for r in records if r["event"] == "hook.quarantined"]


class TestQuarantine:
    def test_raising_hook_warned_once_and_removed(self, log_records):
        seen = []
        obs.on_round(_boom)
        obs.on_round(seen.append)
        emit_round("first")
        complaints = _quarantine_records(log_records)
        assert len(complaints) == 1
        assert "hook exploded" in complaints[0]["msg"]
        assert complaints[0]["level"] == "warning"
        # The offender is gone; later rounds dispatch warning-free and
        # the healthy hook keeps firing.
        emit_round("second")
        assert len(_quarantine_records(log_records)) == 1
        assert seen == ["first", "second"]

    def test_quarantine_covers_every_hook_point(self, log_records):
        seen = []
        obs.on_round(_boom)
        obs.on_run_end(_boom)
        obs.on_run_end(seen.append)
        emit_round("event")
        assert len(_quarantine_records(log_records)) == 1
        # Already-quarantined at the other point too: no second warning,
        # and the healthy run-end hook still fires.
        emit_run_end({})
        assert len(_quarantine_records(log_records)) == 1
        assert seen == [{}]

    def test_base_exceptions_still_propagate(self):
        def interrupt(event):
            raise KeyboardInterrupt

        obs.on_round(interrupt)
        with pytest.raises(KeyboardInterrupt):
            emit_round("event")

    def test_broken_hook_does_not_break_a_simulation(self, log_records):
        scenario = Scenario(
            workload="asymmetric",
            n=6,
            f=1,
            scheduler="round-robin",
            crashes="after-move",
            movement="rigid",
            max_rounds=2_000,
        )
        obs.enable()
        seen = []
        obs.on_round(_boom)
        obs.on_round(lambda event: seen.append(event.round_index))
        result = run_scenario(scenario, 3)
        complaints = _quarantine_records(log_records)
        assert len(complaints) == 1
        assert "hook exploded" in complaints[0]["msg"]
        assert result.rounds > 0
        # Every round after the quarantine still reached the good hook.
        assert len(seen) == result.rounds
