"""E7 — §3.2 Communication Performance: message-size overheads.

Paper claims: (a) "When messages ... are secured with Web Service-
compliant standards, they are significantly bigger than those which do
not use any security mechanisms" (citing Juric et al.); (b) "Because
XACML uses XML to encode access control policies then the size of
policies and privilege statements is significant due to the XML encoding
overhead and verbosity of the language."
"""

from repro.bench import Experiment
from repro.saml import XacmlAuthzDecisionQuery
from repro.wss import CertificateAuthority, KeyStore
from repro.wsvc import request_envelope, secure_envelope
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    serialize_policy,
    subject_resource_action_target,
)


def sample_query():
    request = RequestContext.simple("alice@physics", "dataset-weather-2024", "read")
    return XacmlAuthzDecisionQuery(
        request=request, issuer="pep.archive", issue_instant=1.0
    )


def policy_with_rules(rule_count):
    rules = tuple(
        permit_rule(
            f"rule-{index}",
            subject_resource_action_target(
                subject_id=f"subject-{index}",
                resource_id=f"resource-{index}",
                action_id="read",
            ),
        )
        for index in range(rule_count)
    ) + (deny_rule("default-deny"),)
    return Policy(
        policy_id=f"policy-{rule_count}",
        rules=rules,
        rule_combining=combining.RULE_FIRST_APPLICABLE,
    )


def signing_identity():
    """``(keystore, key pair, certificate, recipient pair)`` of E7a."""
    keystore = KeyStore(seed=7)
    ca = CertificateAuthority("Root", keystore)
    pair = keystore.generate("pep")
    cert = ca.issue("pep", pair.public, not_before=0.0, lifetime=1e6)
    return keystore, pair, cert, keystore.generate("pdp")


def sample_envelopes(keystore, pair, cert, recipient):
    """The sample query, plain, signed and signed-and-encrypted."""
    query = sample_query()
    plain = request_envelope("xacml.request", query.to_xml())
    return {
        "plain": plain,
        "signed": secure_envelope(plain, pair, cert, keystore),
        "encrypted": secure_envelope(
            plain, pair, cert, keystore, encrypt_to=recipient.public
        ),
    }, query


def test_e7_message_overhead(benchmark):
    keystore, pair, cert, recipient = signing_identity()
    envelopes, query = sample_envelopes(keystore, pair, cert, recipient)
    plain, signed, encrypted = (envelopes[k] for k in ("plain", "signed", "encrypted"))
    compact = f"{query.request.subject_id}|{query.request.resource_id}|read"

    experiment = Experiment(
        exp_id="E7a",
        title="Authorisation message sizes: plain vs WS-Security",
        paper_claim="WS-Security-protected messages are significantly "
        "bigger (Juric et al.); XML itself dwarfs a compact encoding",
        columns=["encoding", "bytes", "x_compact"],
    )
    compact_size = len(compact.encode())
    for label, size in (
        ("compact binary-ish triple", compact_size),
        ("XACML request (XML)", len(query.to_xml().encode())),
        ("+ SOAP envelope", plain.wire_size),
        ("+ WS-Security signature", signed.wire_size),
        ("+ XML encryption", encrypted.wire_size),
    ):
        experiment.add_row(label, size, round(size / compact_size, 1))
    experiment.show()

    # Shape (a): each protection layer adds measurable bytes; the signed
    # envelope is >1.5x the plain one, as the paper's citation reports.
    assert plain.wire_size > len(query.to_xml().encode())
    assert signed.wire_size > 1.5 * plain.wire_size
    assert encrypted.wire_size > signed.wire_size
    assert plain.wire_size > 10 * compact_size
    # The arithmetic size is the serialised size, to the byte.
    for envelope in envelopes.values():
        assert envelope.wire_size == len(envelope.to_xml().encode("utf-8"))

    experiment_b = Experiment(
        exp_id="E7b",
        title="XACML policy size vs rule count (XML verbosity)",
        paper_claim="policy size is significant and grows with rule count "
        "due to XML encoding overhead",
        columns=["rules", "policy_bytes", "bytes_per_rule"],
    )
    sizes = {}
    for rule_count in (1, 5, 20, 80):
        size = len(serialize_policy(policy_with_rules(rule_count)).encode())
        sizes[rule_count] = size
        experiment_b.add_row(rule_count, size, round(size / rule_count, 1))
    experiment_b.show()

    # Shape (b): size grows ~linearly with rules, with a large constant
    # per-rule XML cost.
    assert sizes[80] > sizes[20] > sizes[5] > sizes[1]
    assert sizes[80] / 80 > 200  # hundreds of bytes of XML per rule

    benchmark(lambda: secure_envelope(plain, pair, cert, keystore).wire_size)
