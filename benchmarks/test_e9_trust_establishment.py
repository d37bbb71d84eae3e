"""E9 — §3.1 Heterogeneity of subjects: the three trust styles.

Paper claim: identity-based access needs a trusted IdP and known users —
"defining access control rules based on individual identities is not
efficient and often not viable" at scale; capability-based covers the
federated community without per-identity rules; and for strangers
"neither identity- nor capability-based approaches ... provide required
functionality", so trust negotiation covers them at extra message cost.

The experiment authorises three subject populations (home users,
federated-VO users, strangers) under each style and reports coverage and
message cost per admitted subject.
"""

from repro.bench import Experiment
from repro.capability import (
    CapabilityEnforcer,
    CapabilityRequest,
    CapabilityScope,
    CapabilityVerifier,
    CommunityAuthorizationService,
)
from repro.domain import (
    Credential,
    NegotiationParty,
    TraustServer,
    TrustKind,
    build_federation,
)
from repro.simnet import Network
from repro.wss import KeyStore
from repro.xacml import (
    Category,
    Policy,
    attribute_equals,
    combining,
    deny_rule,
    permit_rule,
    string,
)

HOME_USERS = ["home-0", "home-1", "home-2"]
FEDERATED_USERS = ["fed-0", "fed-1", "fed-2"]
STRANGERS = ["stranger-0", "stranger-1", "stranger-2"]


def build(seed=9):
    network = Network(seed=seed)
    keystore = KeyStore(seed=seed)
    vo = build_federation(
        "vo", ["resource-domain", "partner-domain"], network, keystore,
        kinds=(TrustKind.IDENTITY, TrustKind.CAPABILITY),
    )
    host = vo.domain("resource-domain")
    partner = vo.domain("partner-domain")
    for user in HOME_USERS:
        host.new_subject(user, role=["member"])
    for user in FEDERATED_USERS:
        partner.new_subject(user, role=["member"])
    # Strangers belong to no domain in the VO at all.

    cas_identity = host.component_identity("cas.vo")
    cas = CommunityAuthorizationService(
        "cas.vo", network, "resource-domain", cas_identity, vo_name="vo"
    )
    for user in HOME_USERS + FEDERATED_USERS:
        cas.set_subject_attribute(user, "urn:repro:subject:member", ["true"])
    cas.add_policy(
        Policy(
            policy_id="community",
            rules=(
                permit_rule(
                    "members-only",
                    condition=attribute_equals(
                        Category.SUBJECT,
                        "urn:repro:subject:member",
                        string("true"),
                    ),
                ),
                deny_rule("non-members"),
            ),
            rule_combining=combining.RULE_FIRST_APPLICABLE,
        )
    )

    traust_identity = host.component_identity("traust.resource-domain")
    traust = TraustServer(
        "traust.resource-domain", network, "resource-domain", traust_identity
    )
    traust.protect_resource("dataset", frozenset({"business-license"}))
    traust.provider_party.add_credential(
        Credential("provider-id", "resource-domain", "traust")
    )
    # Everyone can *try* negotiation — it is the most general mechanism;
    # what distinguishes populations is whether the cheaper styles work.
    for user in HOME_USERS + FEDERATED_USERS + STRANGERS:
        party = NegotiationParty(user)
        party.add_credential(Credential("public-id", "self", user))
        party.add_credential(
            Credential("business-license", "gov", user),
            requires=frozenset({"provider-id"}),
        )
        traust.register_party(party)
    return network, keystore, vo, host, partner, cas, traust


def identity_style(network, host, partner, user):
    """The service pulls the user's profile from a *trusted* IdP."""
    idp = None
    if host.idp.knows(user):
        idp = host.idp
    elif partner.idp.knows(user):
        idp = partner.idp  # trusted: federated VO
    if idp is None:
        return False, 0
    before = network.metrics.messages_sent
    signed = idp.issue_assertion(user)
    try:
        host.accept(signed, TrustKind.IDENTITY, at=network.now + 0.1)
    except Exception:
        return False, network.metrics.messages_sent - before
    # Profile retrieval costs one request/response pair in the push-free
    # flow (the IdP call happens in-process here; count the canonical 2).
    return True, 2


def capability_style(network, keystore, host, cas, enforcer, user):
    before = network.metrics.messages_sent
    try:
        capability = cas.issue(
            CapabilityRequest(
                subject_id=user, scopes=(CapabilityScope("dataset", "read"),)
            )
        )
    except Exception:
        return False, network.metrics.messages_sent - before + 2
    result = enforcer.authorize(capability, user, "dataset", "read")
    return result.granted, network.metrics.messages_sent - before + 2


def negotiation_style(traust, user):
    try:
        outcome, token = traust.negotiate_for(user, "dataset")
    except Exception:
        return False, 2
    return token is not None, 2 + outcome.messages


def test_e9_trust_establishment_styles(benchmark):
    network, keystore, vo, host, partner, cas, traust = build()
    resource = host.expose_resource("dataset")
    verifier = CapabilityVerifier(host)
    enforcer = CapabilityEnforcer(resource.pep, verifier)

    populations = (
        ("home users", HOME_USERS),
        ("federated users", FEDERATED_USERS),
        ("strangers", STRANGERS),
    )
    experiment = Experiment(
        exp_id="E9",
        title="Trust establishment: identity vs capability vs negotiation",
        paper_claim="identity-based fails beyond known IdPs; capabilities "
        "cover the federation; negotiation admits strangers at extra cost",
        columns=["population", "identity", "capability", "negotiation", "neg_msgs"],
    )
    coverage = {}
    for label, users in populations:
        identity_ok = sum(
            1
            for user in users
            if identity_style(network, host, partner, user)[0]
        )
        capability_ok = sum(
            1
            for user in users
            if capability_style(network, keystore, host, cas, enforcer, user)[0]
        )
        negotiation_results = [negotiation_style(traust, user) for user in users]
        negotiation_ok = sum(1 for ok, _ in negotiation_results if ok)
        mean_messages = sum(m for _, m in negotiation_results) / len(users)
        coverage[label] = (identity_ok, capability_ok, negotiation_ok)
        experiment.add_row(
            label,
            f"{identity_ok}/{len(users)}",
            f"{capability_ok}/{len(users)}",
            f"{negotiation_ok}/{len(users)}",
            round(mean_messages, 1),
        )
    experiment.show()

    # Shape: identity works for home+federated, fails for strangers;
    # capability mirrors the community registry; only negotiation admits
    # strangers — and it needs more messages than a capability issue (2).
    assert coverage["home users"][0] == len(HOME_USERS)
    assert coverage["federated users"][0] == len(FEDERATED_USERS)
    assert coverage["strangers"][0] == 0
    assert coverage["strangers"][1] == 0
    # Negotiation is the most general style: it admits every population,
    # strangers included — at the highest message cost.
    for label, _ in populations:
        assert coverage[label][2] == 3

    benchmark(lambda: traust.negotiate_for("stranger-0", "dataset"))
