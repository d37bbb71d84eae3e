"""A world owns its identifiers: what it mints, sends and decides
depends on its own inputs only.

Message ids are stamped by the world's ``Network`` at transmit; query,
batch and assertion ids come from ``Network.mint``; certificate serials
from the world's ``KeyStore``.  So a small world driven alone gives the
same bytes, messages, decisions and id sequence whether it is built
first, after a twin with the same seed, step for step beside a twin, or
after another world minted 10^5 ids of every kind — and its first ids
are the first of each sequence.
"""

import re
from itertools import zip_longest

from repro.revocation import RevocationKind, certificate_target
from repro.simnet import Message, Network
from repro.workloads import healthcare_federation, revocation_churn
from repro.wss import KeyStore
from repro.xacml import RequestContext

#: Nine pull decisions across the three domains of the federation.
PULLS = [
    ("hospital", "patient-records", "dr-adams", "read"),
    ("hospital", "patient-records", "medic-diaz", "read"),
    ("hospital", "patient-records", "prof-chen", "read"),
    ("hospital", "patient-records", "dr-adams", "write"),
    ("clinic", "lab-results", "nurse-brown", "read"),
    ("clinic", "lab-results", "prof-chen", "read"),
    ("clinic", "lab-results", "dr-adams", "read"),
    ("research", "anonymised-cohort", "prof-chen", "read"),
    ("research", "anonymised-cohort", "nurse-brown", "read"),
]
#: Requests the clinic's coalescing queue carries as one batch.
BATCHED = [("nurse-brown", "read"), ("prof-chen", "read"), ("dr-adams", "write")]
MINTED_ID = re.compile(r"(?:xacmlq|xacmlb|saml)-\d+")


class World:
    """One healthcare federation, its drive as steps, and what it did:
    every transmitted message (id, reply-to, kind, size, the minted ids
    its payload carries), every decision, every assertion id and
    certificate serial minted outside a message."""

    def __init__(self, seed: int = 3) -> None:
        self.scenario = healthcare_federation(seed)
        self.network = self.scenario.network
        self.trace: list[tuple] = []
        self.decisions: list[str] = []
        transmit = self.network.transmit

        def recording(message: Message) -> None:
            transmit(message)
            self.trace.append(
                (
                    message.msg_id,
                    message.reply_to,
                    message.kind,
                    message.size_bytes,
                    tuple(MINTED_ID.findall(str(message.payload))),
                )
            )

        self.network.transmit = recording
        vo = self.scenario.vo
        vo.domain("hospital").peps["patient-records"].register_obligation_handler(
            "urn:repro:obligation:break-glass-audit", lambda obligation, request: True
        )
        self.steps = [lambda pull=pull: self.pull(*pull) for pull in PULLS]
        self.steps += [self.batch, self.assert_and_certify]

    def pull(self, domain: str, resource: str, subject: str, action: str) -> None:
        pep = self.scenario.vo.domain(domain).peps[resource]
        self.decisions.append(pep.authorize_simple(subject, resource, action).decision.value)

    def batch(self) -> None:
        pep = self.scenario.vo.domain("clinic").peps["lab-results"]
        pep.enable_batching(max_batch=len(BATCHED))
        results: list = []
        for subject, action in BATCHED:
            pep.submit(RequestContext.simple(subject, "lab-results", action), results.append)
        self.network.loop.run_until(lambda: len(results) == len(BATCHED), self.network.now + 5.0)
        self.decisions += [result.decision.value for result in results]

    def assert_and_certify(self) -> None:
        hospital = self.scenario.vo.domain("hospital")
        for subject in ("dr-adams", "medic-diaz"):
            self.trace.append(("assertion", hospital.idp.issue_assertion(subject).assertion.assertion_id))
        for name in ("probe-a", "probe-b"):
            self.trace.append(("serial", hospital.component_identity(name).certificate.serial))

    def drive(self) -> "World":
        for step in self.steps:
            step()
        return self

    def outcome(self) -> tuple:
        metrics = self.network.metrics
        return metrics.bytes_sent, metrics.messages_sent, self.decisions, self.trace


def test_the_drive_mints_every_kind_of_id_from_the_start():
    world = World().drive()
    bytes_sent, messages_sent, decisions, trace = world.outcome()
    sent = [entry for entry in trace if isinstance(entry[0], int)]
    assert [entry[0] for entry in sent] == list(range(1, len(sent) + 1))
    minted = [name for entry in sent for name in entry[4]]
    assert minted[0] == "xacmlq-1"
    assert "xacmlb-1" in minted
    assert [entry[1] for entry in trace if entry[0] == "assertion"] == ["saml-1", "saml-2"]
    # The identities the federation built first drew the serials below.
    serials = [entry[1] for entry in trace if entry[0] == "serial"]
    assert serials == [serials[0], serials[0] + 1] and serials[0] > 1000
    assert len(decisions) == len(PULLS) + len(BATCHED)
    assert messages_sent == len(sent)


def test_a_world_built_after_its_twin_is_the_same_world():
    first = World().drive().outcome()
    second = World().drive().outcome()
    assert second == first


def test_twins_driven_step_for_step_are_each_the_world_alone():
    alone = World().drive().outcome()
    left, right = World(), World()
    for one, other in zip_longest(left.steps, right.steps):
        one()
        other()
    assert left.outcome() == alone
    assert right.outcome() == alone


def test_a_world_built_after_another_minted_a_hundred_thousand_ids_is_unchanged():
    alone = World().drive().outcome()
    busy, keystore = Network(seed=3), KeyStore(seed=3)
    for _ in range(100_000):
        for prefix in ("xacmlq", "xacmlb", "saml"):
            busy.mint(prefix)
        keystore.mint_serial()
        busy.transmit(Message("nowhere", "nobody", "noise"))  # dropped: no node
    assert busy.mint("xacmlq") == "xacmlq-100001"
    assert World().drive().outcome() == alone


def test_serials_stay_unique_across_the_cas_of_a_vo_that_share_a_registry():
    """Two domain CAs of one VO bound to one registry, which keys a
    revoked certificate by serial alone: revoking every certificate
    the registrar's CA issued leaves every one of the archive's valid."""
    scenario = revocation_churn(seed=1, member_count=1)
    registry = scenario.notes["authority"].registry
    registrar, archive = scenario.vo.domain("registrar"), scenario.vo.domain("archive")
    issued = {
        domain.name: [domain.component_identity(f"probe-{index}").certificate for index in range(8)]
        for domain in (registrar, archive)
    }
    for certificate in issued["registrar"]:
        registry.revoke(RevocationKind.CERTIFICATE, certificate_target(certificate.serial))
    for certificate in issued["registrar"]:
        assert registrar.ca.is_revoked(certificate)
    for certificate in issued["archive"]:
        assert not archive.ca.is_revoked(certificate)
        archive.validator.validate(certificate, at=scenario.network.now)
