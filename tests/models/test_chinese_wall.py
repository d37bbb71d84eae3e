"""Tests for the Brewer–Nash Chinese Wall model."""

import pytest

from repro.models import ChineseWallEngine, ChineseWallError
from repro.xacml import Decision, RequestContext


class TestChineseWall:
    @pytest.fixture
    def wall(self):
        engine = ChineseWallEngine()
        engine.register_dataset("bank-a", "banking")
        engine.register_dataset("bank-b", "banking")
        engine.register_dataset("oil-x", "petroleum")
        engine.register_dataset("market-report", ChineseWallEngine.SANITISED)
        return engine

    def test_first_access_free_choice(self, wall):
        assert wall.permitted("analyst", "bank-a")
        assert wall.permitted("analyst", "bank-b")

    def test_commitment_blocks_competitor(self, wall):
        wall.record_access("analyst", "bank-a", at=1.0)
        assert wall.permitted("analyst", "bank-a")
        assert not wall.permitted("analyst", "bank-b")

    def test_other_conflict_class_unaffected(self, wall):
        wall.record_access("analyst", "bank-a", at=1.0)
        assert wall.permitted("analyst", "oil-x")

    def test_sanitised_always_allowed(self, wall):
        wall.record_access("analyst", "bank-a", at=1.0)
        assert wall.permitted("analyst", "market-report")
        wall.record_access("analyst", "market-report", at=2.0)
        assert wall.permitted("analyst", "bank-a")

    def test_walls_are_per_subject(self, wall):
        wall.record_access("analyst", "bank-a", at=1.0)
        assert wall.permitted("other-analyst", "bank-b")

    def test_check_and_record_atomicity(self, wall):
        assert wall.check_and_record("u", "bank-a", at=1.0)
        assert not wall.check_and_record("u", "bank-b", at=2.0)
        assert wall.vetoes == 1

    def test_unknown_dataset(self, wall):
        with pytest.raises(ChineseWallError):
            wall.permitted("u", "mystery")

    def test_reset_subject(self, wall):
        wall.record_access("u", "bank-a", at=1.0)
        wall.reset_subject("u")
        assert wall.permitted("u", "bank-b")

    def test_obligation_handler_integration(self, wall):
        from repro.xacml import Obligation

        handler = wall.obligation_handler(clock=lambda: 5.0)
        obligation = Obligation("urn:repro:obligation:chinese-wall", Decision.PERMIT)
        request_a = RequestContext.simple("u", "bank-a", "read")
        request_b = RequestContext.simple("u", "bank-b", "read")
        assert handler(obligation, request_a) is True
        assert handler(obligation, request_b) is False
