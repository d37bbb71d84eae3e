"""What one pull decision costs in Python calls, pinned.

The paper's pull model (§3.2) is one signed query per access and one
signed decision back.  Host time per decision depends on the machine;
the number of Python-level calls into ``repro`` that a decision makes
does not.  This cell builds a small secure pull world (one PAP, one PDP
that requires signed queries and signs its replies, one PEP on a secure
channel), warms it, and counts the ``sys.setprofile`` ``"call"`` events
into named functions under ``src/repro`` over a fixed seeded run of
decisions.  Names that start with ``<`` (comprehensions, generator
expressions, lambdas, module bodies) are skipped: Python 3.12 inlines
comprehensions that 3.11 calls, and the pin must hold on both.

The pin is an upper bound on the sum over the run, not on one call:
requests differ in what they touch, so per-decision counts differ.  A
change that makes a decision do more work nothing reads shows up here
on any machine.  A change that needs more calls for a reason raises
``CALL_BUDGET`` and says why in CHANGES.
"""

import random
import sys
from pathlib import Path

import repro
from repro.components import PdpConfig, PepConfig
from repro.domain import AdministrativeDomain
from repro.simnet import Network
from repro.wss import KeyStore
from repro.xacml import (
    Policy,
    RequestContext,
    combining,
    deny_rule,
    permit_rule,
    subject_resource_action_target,
)

SEED = 11
RESOURCES = 4
WARM_DECISIONS = 50
COUNTED_DECISIONS = 20
#: Calls into named ``repro`` functions over the counted run.  The
#: parent of this pin made 4,780 (239 a decision).
CALL_BUDGET = 4_440

SOURCE = str(Path(repro.__file__).resolve().parent)


def _world():
    network = Network(seed=SEED)
    domain = AdministrativeDomain("acme", network, KeyStore(seed=SEED))
    pap = domain.create_pap()
    for index in range(RESOURCES):
        pap.publish(
            Policy(
                policy_id=f"res-{index}-policy",
                target=subject_resource_action_target(resource_id=f"res-{index}"),
                rules=(
                    permit_rule(
                        "reads",
                        target=subject_resource_action_target(action_id="read"),
                    ),
                    deny_rule("rest"),
                ),
                rule_combining=combining.RULE_FIRST_APPLICABLE,
            )
        )
    domain.create_pdp(config=PdpConfig(require_signed_queries=True))
    return domain.create_pep("db", config=PepConfig(secure_channel=True))


def _requests(count, rng):
    return [
        RequestContext.simple(
            f"user-{rng.randrange(10**6):06d}",
            f"res-{rng.randrange(RESOURCES)}",
            "read" if rng.random() < 0.9 else "delete",
        )
        for _ in range(count)
    ]


def count_calls(pep, requests):
    """Calls into named ``repro`` functions while ``requests`` are
    authorised one after the other, and the results."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(SOURCE) and not code.co_name.startswith("<"):
                calls += 1

    results = []
    sys.setprofile(profile)
    try:
        for request in requests:
            results.append(pep.authorize(request))
    finally:
        sys.setprofile(None)
    return calls, results


def test_a_pull_decision_stays_within_its_call_budget():
    pep = _world()
    rng = random.Random(SEED)
    for request in _requests(WARM_DECISIONS, rng):
        assert pep.authorize(request).source == "pdp"
    calls, results = count_calls(pep, _requests(COUNTED_DECISIONS, rng))
    # The run decided what it was asked, through the PDP, every time.
    assert [result.source for result in results] == ["pdp"] * COUNTED_DECISIONS
    assert any(result.granted for result in results)
    assert not all(result.granted for result in results)
    assert calls <= CALL_BUDGET, (
        f"{calls} calls over {COUNTED_DECISIONS} pull decisions "
        f"({calls / COUNTED_DECISIONS:.1f} each) exceed the budget of "
        f"{CALL_BUDGET}: a decision does work it did not do before"
    )
