"""Tests for failure injection."""

import pytest

from repro.simnet import FailureInjector, Network


class TestFailureInjector:
    def test_crash_at_takes_effect_at_time(self):
        net = Network()
        node = net.node("victim")
        injector = FailureInjector(net)
        injector.crash_at("victim", at=2.0)
        net.run(until=1.0)
        assert node.alive
        net.run(until=3.0)
        assert not node.alive

    def test_crash_for_recovers(self):
        net = Network()
        node = net.node("victim")
        injector = FailureInjector(net)
        injector.crash_for("victim", at=1.0, duration=2.0)
        net.run(until=2.0)
        assert not node.alive
        net.run(until=4.0)
        assert node.alive

    def test_fault_in_past_rejected(self):
        net = Network()
        net.node("victim")
        net.clock.advance_to(5.0)
        injector = FailureInjector(net)
        with pytest.raises(ValueError):
            injector.crash_at("victim", at=1.0)

    def test_random_crash_process_is_seeded(self):
        def schedule_count(seed):
            net = Network()
            for index in range(3):
                net.node(f"n{index}")
            injector = FailureInjector(net, seed=seed)
            return injector.random_crash_process(
                ["n0", "n1", "n2"], horizon=100.0, mtbf=10.0, mttr=2.0
            )

        assert schedule_count(3) == schedule_count(3)
        assert schedule_count(3) > 0

    def test_fault_log_records_events(self):
        net = Network()
        net.node("victim")
        injector = FailureInjector(net)
        injector.crash_for("victim", at=1.0, duration=1.0)
        net.run(until=5.0)
        kinds = [event.kind for event in injector.log]
        assert kinds == ["crash", "recover"]
