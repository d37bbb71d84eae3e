"""Realistic large populations: the state axis of experiment E19.

:mod:`repro.workloads.generator` builds *small* federated workloads —
dozens of subjects wired into live domain components.  The north star
is millions of users, and at that scale the interesting questions are
about *state* (who holds which subject's attributes) rather than wiring.
This module produces populations of up to 10^6+ subjects with the shape
real deployments have, without ever materialising the population:

* **streaming** — every subject is derived on demand, O(log n) per
  subject, deterministically from ``(seed, index)``; request streams
  are generators;
* **Zipf popularity** — subject activity and resource popularity follow
  bounded Zipf distributions, sampled in O(1) per draw by rejection
  inversion (Hörmann & Derflinger 1996) instead of materialising the
  n-entry weight vector :func:`repro.workloads.generator._zipf_weights`
  needs;
* **org-chart structure** — subjects form an implicit complete b-ary
  management tree: depth determines management role (executive /
  director / manager), leaves draw individual-contributor roles from a
  weighted distribution, organisational units are subtrees, and the
  delegation chain of a subject is its management chain;
* **attribute authority** — :meth:`Population.attribute_resolver`
  adapts the population to the
  :data:`repro.components.placement.AttributeResolver` contract, so a
  sharded PDP tier can fault any subject's attributes in lazily and
  "repopulate after rebalance" is exact.

The request stream plugs into the same machinery as
:func:`~repro.workloads.generator.request_stream` (it yields the same
:class:`~repro.workloads.generator.AccessEvent`) and into the closed-
loop drivers of :mod:`repro.workloads.highload`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

from ..xacml import combining
from ..xacml.attributes import (
    AttributeValue,
    Category,
    SUBJECT_ROLE,
    integer,
    string,
)
from ..xacml.context import RequestContext
from ..xacml.expressions import attribute_equals
from ..xacml.policy import Policy
from ..xacml.rules import deny_rule, permit_rule
from ..xacml.targets import subject_resource_action_target
from .generator import ACTIONS, AccessEvent

#: Attribute identifiers the population's subjects carry (SUBJECT_ROLE
#: is the standard XACML 2.0 role attribute; the rest use the repro
#: namespace).
SUBJECT_UNIT = "urn:repro:subject:unit"
SUBJECT_CLEARANCE = "urn:repro:subject:clearance"
SUBJECT_MANAGER = "urn:repro:subject:manager"

#: Management roles by tree depth; anyone deeper with reports is a
#: plain manager.
_DEPTH_ROLES = ("executive", "director")


@dataclass
class PopulationSpec:
    """Parameters of a synthetic organisation-shaped population."""

    #: Distinct subjects (the org tree's node count).
    subjects: int = 10_000
    #: Distinct resources.
    resources: int = 1_000
    #: Fan-out of the management tree (direct reports per manager).
    branching: int = 8
    #: Individual-contributor roles for leaf subjects, with draw weights.
    roles: tuple[str, ...] = ("engineer", "analyst", "contractor")
    role_weights: tuple[float, ...] = (0.5, 0.3, 0.2)
    #: Tree depth whose ancestor names a subject's organisational unit.
    unit_depth: int = 2
    #: Zipf exponents: subject activity / resource popularity skew
    #: (0 = uniform).
    subject_skew: float = 1.1
    resource_skew: float = 1.0
    #: Action mix: reads, then the rest split between write and delete.
    read_fraction: float = 0.8
    delete_fraction: float = 0.05
    seed: int = 0
    domain: str = "domain-a"

    def __post_init__(self) -> None:
        if self.subjects < 1:
            raise ValueError(f"subjects must be >= 1, got {self.subjects}")
        if self.resources < 1:
            raise ValueError(f"resources must be >= 1, got {self.resources}")
        if self.branching < 2:
            raise ValueError(f"branching must be >= 2, got {self.branching}")
        if not self.roles:
            raise ValueError("at least one individual-contributor role")
        if len(self.role_weights) != len(self.roles):
            raise ValueError(
                f"{len(self.roles)} roles but "
                f"{len(self.role_weights)} role_weights"
            )
        if any(weight <= 0 for weight in self.role_weights):
            raise ValueError("role_weights must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )
        if not 0.0 <= self.delete_fraction <= 1.0:
            raise ValueError(
                f"delete_fraction must be in [0, 1], got "
                f"{self.delete_fraction}"
            )


class ZipfSampler:
    """Bounded Zipf(n, s) ranks in O(1) per draw, O(1) memory.

    Classic weighted choice needs the n-entry weight vector — already
    40 MB of floats at n = 5·10^6 — and O(log n) per draw.  Rejection
    inversion (Hörmann & Derflinger 1996, the algorithm behind Apache
    Commons' ``RejectionInversionZipfSampler``) inverts the integral of
    the density instead, so nothing is materialised and the population
    can scale to 10^6+ subjects.  ``exponent <= 0`` degrades to uniform.
    Draws consume the supplied ``random.Random`` deterministically.
    """

    def __init__(self, n: int, exponent: float, rng: random.Random) -> None:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.exponent = exponent
        self.rng = rng
        if exponent <= 0:
            return
        self._h_x1 = self._h(1.5) - 1.0
        self._h_n = self._h(n + 0.5)
        self._s = 2.0 - self._h_inv(self._h(2.5) - self._power(2.0))

    def _power(self, x: float) -> float:
        return math.exp(-self.exponent * math.log(x))

    def _h(self, x: float) -> float:
        # Antiderivative of x^(-exponent).
        if self.exponent == 1.0:
            return math.log(x)
        return (x ** (1.0 - self.exponent)) / (1.0 - self.exponent)

    def _h_inv(self, x: float) -> float:
        if self.exponent == 1.0:
            return math.exp(x)
        return (x * (1.0 - self.exponent)) ** (1.0 / (1.0 - self.exponent))

    def sample(self) -> int:
        """One rank in [1, n]; rank 1 is the most popular."""
        if self.exponent <= 0:
            return self.rng.randrange(self.n) + 1
        while True:
            u = self._h_n + self.rng.random() * (self._h_x1 - self._h_n)
            x = self._h_inv(u)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self.n:
                k = self.n
            if k - x <= self._s or u >= self._h(k + 0.5) - self._power(k):
                return k


@dataclass(frozen=True)
class SubjectProfile:
    """One subject's derived identity: role, org position, attributes."""

    index: int
    subject_id: str
    role: str
    depth: int
    unit: str
    manager_id: Optional[str]
    clearance: int


class Population:
    """A streaming, deterministic, organisation-shaped population.

    Subjects are the nodes of an implicit complete ``branching``-ary
    tree over indices ``0 .. subjects-1`` (node ``i``'s manager is
    ``(i-1) // branching``), so org structure costs nothing to store
    and any subject's profile derives in O(log n) from its index plus a
    per-subject ``random.Random`` keyed on ``(seed, index)``.
    """

    def __init__(self, spec: PopulationSpec) -> None:
        self.spec = spec
        self._subject_width = len(str(max(spec.subjects - 1, 1)))
        self._resource_width = len(str(max(spec.resources - 1, 1)))
        self._subject_prefix = f"subj-{spec.seed}-"
        self._resource_prefix = f"res-{spec.seed}-"
        self._subject_scramble = _coprime_multiplier(spec.subjects)
        self._resource_scramble = _coprime_multiplier(spec.resources)

    # -- identities ---------------------------------------------------------------

    def subject_id(self, index: int) -> str:
        self._check_subject(index)
        return f"{self._subject_prefix}{index:0{self._subject_width}d}"

    def resource_id(self, index: int) -> str:
        if not 0 <= index < self.spec.resources:
            raise ValueError(f"resource index {index} out of range")
        return f"{self._resource_prefix}{index:0{self._resource_width}d}"

    def subject_index(self, subject_id: str) -> Optional[int]:
        """Inverse of :meth:`subject_id`; None for foreign identifiers."""
        if not subject_id.startswith(self._subject_prefix):
            return None
        try:
            index = int(subject_id[len(self._subject_prefix):])
        except ValueError:
            return None
        if not 0 <= index < self.spec.subjects:
            return None
        return index

    def _check_subject(self, index: int) -> None:
        if not 0 <= index < self.spec.subjects:
            raise ValueError(f"subject index {index} out of range")

    # -- org structure ------------------------------------------------------------

    def manager_index(self, index: int) -> Optional[int]:
        self._check_subject(index)
        if index == 0:
            return None
        return (index - 1) // self.spec.branching

    def _depth(self, index: int) -> int:
        depth = 0
        while index > 0:
            index = (index - 1) // self.spec.branching
            depth += 1
        return depth

    def _has_reports(self, index: int) -> bool:
        return index * self.spec.branching + 1 < self.spec.subjects

    def _ancestor_at_depth(self, index: int, depth: int) -> int:
        while self._depth(index) > depth:
            index = (index - 1) // self.spec.branching
        return index

    def subject_profile(self, index: int) -> SubjectProfile:
        """Derive one subject, O(log n), no population-wide state.

        Management roles come from tree position (root = executive,
        depth 1 = director, any deeper node with reports = manager);
        leaves draw an individual-contributor role from the weighted
        role distribution with a per-subject rng, so the same
        ``(seed, index)`` always yields the same subject.
        """
        self._check_subject(index)
        depth = self._depth(index)
        if self._has_reports(index):
            role = (
                _DEPTH_ROLES[depth]
                if depth < len(_DEPTH_ROLES)
                else "manager"
            )
        else:
            rng = random.Random(f"{self.spec.seed}:subj:{index}")
            role = rng.choices(
                self.spec.roles, weights=self.spec.role_weights
            )[0]
        manager = self.manager_index(index)
        unit_root = self._ancestor_at_depth(
            index, min(depth, self.spec.unit_depth)
        )
        return SubjectProfile(
            index=index,
            subject_id=self.subject_id(index),
            role=role,
            depth=depth,
            unit=f"unit-{unit_root}",
            manager_id=None if manager is None else self.subject_id(manager),
            clearance=max(0, len(_DEPTH_ROLES) + 1 - depth),
        )

    # -- attribute authority ------------------------------------------------------

    def subject_attributes(
        self, subject_id: str
    ) -> dict[str, list[AttributeValue]]:
        """Authoritative attributes of one subject ({} for strangers)."""
        index = self.subject_index(subject_id)
        if index is None:
            return {}
        profile = self.subject_profile(index)
        attributes = {
            SUBJECT_ROLE: [string(profile.role)],
            SUBJECT_UNIT: [string(profile.unit)],
            SUBJECT_CLEARANCE: [integer(profile.clearance)],
        }
        if profile.manager_id is not None:
            attributes[SUBJECT_MANAGER] = [string(profile.manager_id)]
        return attributes

    def attribute_resolver(self):
        """This population as a :data:`~repro.components.placement.
        AttributeResolver` (what sharded partitions fault state from)."""
        return self.subject_attributes

    def populate_pip(self, store) -> int:
        """Eagerly load every subject's attributes into a PIP's
        AttributeStore (only sensible for small populations: unsharded
        baselines).  Returns the number loaded."""
        count = self.spec.subjects
        for index in range(count):
            subject_id = self.subject_id(index)
            for attribute_id, values in self.subject_attributes(
                subject_id
            ).items():
                store.set_subject_attribute(subject_id, attribute_id, values)
        return count

    # -- policies -----------------------------------------------------------------

    def policy_set(self, policies: Optional[int] = None) -> list[Policy]:
        """Role-based policies governing the population's resources.

        With ``policies=None`` (the default): one policy per action,
        targeted on the action id (so the target index keeps candidate
        sets small) with one role-conditioned permit rule per entitled
        role.  Entitlement tightens with privilege: everyone reads,
        individual contributors above contractor plus all management
        write, only senior management deletes.  Decisions therefore
        *require* resolving the subject's role attribute — the
        per-subject state E19 shards — and no rule constrains resources,
        so the store replicates cleanly across a subject-sharded tier.

        With ``policies=N``: a mined-looking corpus of ``N`` per-resource
        policies (the "Mining Domain-Based Policies" shape), each
        targeting one ``(resource, action)`` pair with role-conditioned
        permit rules and an occasional disjoint-role deny.  The corpus
        is *clean by construction* — permitted and denied role sets are
        derived per ``(resource, action)`` bucket and kept disjoint, so
        the static analyzer must report zero findings on it; E25 pins
        exactly that, and uses the corpus for wall-time scaling.
        """
        if policies is not None:
            return self._mined_policy_set(policies)
        management = _DEPTH_ROLES + ("manager",)
        ic_roles = tuple(self.spec.roles)
        writers = tuple(
            role for role in ic_roles if role != "contractor"
        ) + management
        entitlements = {
            "read": ic_roles + management,
            "write": writers,
            "delete": _DEPTH_ROLES,
        }
        policies = []
        for action in ACTIONS:
            roles = entitlements.get(action, management)
            policies.append(
                Policy(
                    policy_id=f"pop-{self.spec.seed}-{action}",
                    target=subject_resource_action_target(action_id=action),
                    rules=tuple(
                        permit_rule(
                            f"pop-{action}-{role}",
                            condition=attribute_equals(
                                Category.SUBJECT, SUBJECT_ROLE, string(role)
                            ),
                        )
                        for role in roles
                    ),
                    rule_combining=combining.RULE_PERMIT_OVERRIDES,
                )
            )
        return policies

    def _mined_policy_set(self, count: int) -> list[Policy]:
        if count < 1:
            raise ValueError(f"policies must be >= 1, got {count}")
        management = _DEPTH_ROLES + ("manager",)
        all_roles = tuple(self.spec.roles) + management
        out: list[Policy] = []
        for index in range(count):
            resource = index % self.spec.resources
            action = ACTIONS[(index // self.spec.resources) % len(ACTIONS)]
            # Role sets derive from the (resource, action) bucket, not
            # the policy index, so same-bucket policies never contradict
            # each other and denied roles stay disjoint from permitted
            # ones — zero analyzer findings by construction.
            rng = random.Random(
                f"{self.spec.seed}:mined:{resource}:{action}"
            )
            permitted = tuple(
                rng.sample(all_roles, k=rng.randrange(1, 4))
            )
            denied = tuple(
                role
                for role in all_roles
                if role not in permitted and rng.random() < 0.2
            )[:1]
            rules = tuple(
                permit_rule(
                    f"mined-{index}-permit-{role}",
                    condition=attribute_equals(
                        Category.SUBJECT, SUBJECT_ROLE, string(role)
                    ),
                )
                for role in permitted
            ) + tuple(
                deny_rule(
                    f"mined-{index}-deny-{role}",
                    condition=attribute_equals(
                        Category.SUBJECT, SUBJECT_ROLE, string(role)
                    ),
                )
                for role in denied
            )
            out.append(
                Policy(
                    policy_id=f"mined-{self.spec.seed}-{index:05d}",
                    target=subject_resource_action_target(
                        resource_id=self.resource_id(resource),
                        action_id=action,
                    ),
                    rules=rules,
                    rule_combining=combining.RULE_PERMIT_OVERRIDES,
                )
            )
        return out

    # -- request streams ----------------------------------------------------------

    def _scrambled_subject(self, rank: int) -> int:
        # Popularity rank → subject index, decorrelating activity from
        # org position (the busiest subject should not always be the
        # CEO) while keeping the mapping a deterministic bijection.
        return (rank - 1) * self._subject_scramble % self.spec.subjects

    def _scrambled_resource(self, rank: int) -> int:
        return (rank - 1) * self._resource_scramble % self.spec.resources

    def events(
        self, count: int, seed: Optional[int] = None
    ) -> Iterator[AccessEvent]:
        """Stream ``count`` access events, Zipf-skewed both ways.

        A generator: nothing population-sized is materialised, so the
        same code path drives the 10^4 and 10^6 tiers of E19.
        """
        spec = self.spec
        rng = random.Random(
            f"{spec.seed}:stream:{spec.seed if seed is None else seed}"
        )
        subject_ranks = ZipfSampler(spec.subjects, spec.subject_skew, rng)
        resource_ranks = ZipfSampler(spec.resources, spec.resource_skew, rng)
        for _ in range(count):
            subject = self._scrambled_subject(subject_ranks.sample())
            resource = self._scrambled_resource(resource_ranks.sample())
            draw = rng.random()
            if draw < spec.read_fraction:
                action = "read"
            elif draw < spec.read_fraction + spec.delete_fraction:
                action = "delete"
            else:
                action = "write"
            yield AccessEvent(
                subject_id=self.subject_id(subject),
                subject_domain=spec.domain,
                resource_id=self.resource_id(resource),
                resource_domain=spec.domain,
                action_id=action,
            )

    def request_contexts(
        self, count: int, seed: Optional[int] = None
    ) -> Iterator[RequestContext]:
        """The event stream as bare XACML request contexts.

        Requests carry only the three canonical identifiers — the
        subject's role/unit/clearance stay server-side state the PDP
        must resolve, which is exactly the state axis E19 measures.
        """
        for event in self.events(count, seed=seed):
            yield RequestContext.simple(
                subject_id=event.subject_id,
                resource_id=event.resource_id,
                action_id=event.action_id,
            )

    def __repr__(self) -> str:
        return (
            f"Population(subjects={self.spec.subjects}, "
            f"resources={self.spec.resources}, "
            f"branching={self.spec.branching}, seed={self.spec.seed})"
        )


def _coprime_multiplier(n: int) -> int:
    """Smallest multiplier >= 7919 coprime to ``n`` (a bijective mixer)."""
    candidate = 7919  # the 1000th prime; any odd start works
    while math.gcd(candidate, n) != 1:
        candidate += 1
    return candidate
