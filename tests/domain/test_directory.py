"""The VO-wide resource directory and its gateway resolver."""

import pytest

from repro.domain import ResourceDirectory
from repro.xacml import RequestContext


class TestResourceDirectory:
    def test_register_and_resolve(self):
        directory = ResourceDirectory()
        directory.register("res.a", "alpha")
        directory.register("res.b", "beta")
        assert directory.domain_of("res.a") == "alpha"
        assert directory.domain_of("res.missing") is None
        assert directory.domains() == {"alpha", "beta"}
        assert len(directory) == 2

    def test_reregistration_same_domain_is_idempotent(self):
        directory = ResourceDirectory()
        directory.register("res.a", "alpha")
        directory.register("res.a", "alpha")
        assert len(directory) == 1

    def test_conflicting_registration_rejected(self):
        directory = ResourceDirectory()
        directory.register("res.a", "alpha")
        with pytest.raises(ValueError, match="already governed"):
            directory.register("res.a", "beta")

    def test_transfer_moves_governance_explicitly(self):
        directory = ResourceDirectory()
        directory.register("res.a", "alpha")
        directory.transfer("res.a", "beta")
        assert directory.domain_of("res.a") == "beta"

    def test_transfer_of_unregistered_resource_rejected(self):
        """A typo'd transfer must not mint a phantom route."""
        directory = ResourceDirectory()
        with pytest.raises(KeyError, match="not registered"):
            directory.transfer("res.typo", "beta")
        assert len(directory) == 0
        assert directory.epoch == 0

    def test_transfer_bumps_epoch_only_on_change(self):
        directory = ResourceDirectory()
        directory.register("res.a", "alpha")
        assert directory.epoch == 0
        assert directory.transfer("res.a", "beta") == 1
        # Same-domain transfer is a no-op: no spurious epoch churn.
        assert directory.transfer("res.a", "beta") == 1
        assert directory.transfer("res.a", "alpha") == 2

    def test_an_unknown_resource_has_no_domain(self):
        directory = ResourceDirectory()
        assert directory.domain_of("anything") is None

    def test_resolver_reads_the_request_resource(self):
        directory = ResourceDirectory()
        directory.register("res.a", "alpha")
        answers = []
        requests = [
            RequestContext.simple("u", "res.a", "read"),
            RequestContext.simple("u", "res.x", "read"),
        ]
        directory.resolver()(requests, answers.append)
        assert answers == [["alpha", None]]  # at once, one per request

    def test_resolver_treats_resource_less_requests_as_local(self):
        """Even with a default domain, a request naming *no* resource
        must resolve local (None) — it has nothing a remote domain
        could govern, so forwarding it to a default domain would be a
        misroute by construction."""
        directory = ResourceDirectory()
        directory.register("res.x", "hub")
        request = RequestContext()
        assert request.resource_id is None
        answers = []
        directory.resolver()(
            [request, RequestContext.simple("u", "res.x", "read")], answers.append
        )
        assert answers == [[None, "hub"]]
