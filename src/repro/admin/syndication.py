"""Policy syndication: the PAP hierarchy of paper Fig. 5.

"A global Policy Administration Point, which is managed by a central
authority, may hold a global security policy.  Such policy is then
syndicated to more local PAP components residing in different
administrative domains ... More local PAP components can incorporate all
changes or only those that are in line with constraints imposed by
authoritative bodies of those local PAPs.  Reports can be later sent back
to more global PAP components or the syndication servers.  A hierarchy of
such PAP interactions can be created."

:class:`SyndicationNode` is one node of that hierarchy: it owns (or
fronts) a PAP, subscribes children, pushes updates downward, filters them
through a local acceptance constraint and reports back upward.
Experiment E5 compares this push hierarchy against every PDP pulling from
one central PAP.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..components.base import Component
from ..components.pap import PolicyAdministrationPoint
from ..simnet.message import Message
from ..simnet.network import Network
from ..xacml.parser import parse_policy
from ..xacml.policy import Policy, PolicySet, child_identifier
from ..xacml.serializer import serialize_policy

PolicyElement = Union[Policy, PolicySet]

#: Acceptance constraint: local authority's filter over incoming updates.
AcceptancePolicy = Callable[[PolicyElement], bool]


@dataclass
class SyndicationReport:
    """What a child reports back after applying an update."""

    node: str
    accepted: list[str] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)

    def to_xml(self) -> str:
        accepted = "".join(f"<Accepted id=\"{i}\"/>" for i in self.accepted)
        rejected = "".join(f"<Rejected id=\"{i}\"/>" for i in self.rejected)
        return f'<SyndicationReport node="{self.node}">{accepted}{rejected}</SyndicationReport>'

    @classmethod
    def from_xml(cls, xml_text: str) -> "SyndicationReport":
        head = re.match(r'<SyndicationReport node="([^"]*)">', xml_text)
        if head is None:
            raise ValueError("not a SyndicationReport")
        return cls(
            node=head.group(1),
            accepted=re.findall(r'<Accepted id="([^"]*)"/>', xml_text),
            rejected=re.findall(r'<Rejected id="([^"]*)"/>', xml_text),
        )


class SyndicationNode(Component):
    """One node in the Fig. 5 hierarchy.

    The root node is where the central authority publishes; interior
    nodes relay; leaf nodes apply updates into their domain-local PAP so
    in-domain PDPs fetch policies over cheap intra-domain links.
    """

    def __init__(
        self,
        name: str,
        network: Network,
        domain: str = "",
        local_pap: Optional[PolicyAdministrationPoint] = None,
        acceptance: Optional[AcceptancePolicy] = None,
    ) -> None:
        super().__init__(name, network, domain)
        self.local_pap = local_pap
        self.acceptance = acceptance
        self.children: list[str] = []
        self.parent: Optional[str] = None
        self.updates_pushed = 0
        self.updates_applied = 0
        self.updates_rejected = 0
        self.reports_received: list[SyndicationReport] = []
        self.on("synd.update", self._handle_update)
        self.on("synd.report", self._handle_report)

    # -- topology ---------------------------------------------------------------

    def add_child(self, child: "SyndicationNode") -> None:
        self.children.append(child.name)
        child.parent = self.name

    # -- publication (root-side API) -------------------------------------------------

    def publish(
        self, element: PolicyElement, then: Callable[[list[SyndicationReport]], None]
    ) -> None:
        """Publish at this node and syndicate downwards; ``then`` gets
        the reports of the entire subtree (depth-first) once the last
        child has answered.

        Unlike a relayed update, a published one is pushed to the
        children even when this node's own acceptance check rejects it.
        """
        self._syndicate(element, then, push_rejected=True)

    def _apply_locally(self, element: PolicyElement) -> bool:
        if self.acceptance is not None and not self.acceptance(element):
            self.updates_rejected += 1
            return False
        if self.local_pap is not None:
            self.local_pap.repository.publish(
                element, at=self.now, publisher=f"syndication:{self.name}"
            )
        self.updates_applied += 1
        return True

    def _syndicate(
        self,
        element: PolicyElement,
        then: Callable[[list[SyndicationReport]], None],
        push_rejected: bool = False,
    ) -> None:
        """Apply ``element`` here, then push it to the children in turn.

        A child that is unreachable or answers with a fault is reported
        as having rejected the update (it did not apply it), and its
        siblings are still served.
        """
        identifier = child_identifier(element)
        applied = self._apply_locally(element)
        own = SyndicationReport(node=self.name)
        (own.accepted if applied else own.rejected).append(identifier)
        reports = [own]
        if not (applied or push_rejected):
            then(reports)
            return
        payload = serialize_policy(element)

        def push(child: str, settled: Callable[[], None]) -> None:
            self.updates_pushed += 1

            def answered(reply: Message) -> None:
                reports.extend(_parse_reports(str(reply.payload)))
                settled()

            def failed(_: Exception) -> None:
                reports.append(SyndicationReport(child, rejected=[identifier]))
                settled()

            self.ask(child, "synd.update", payload, answered, failed)

        self.in_turn(self.children, push, lambda: then(reports))

    # -- handlers ------------------------------------------------------------------------

    def _handle_update(self, message: Message) -> None:
        """Apply and relay; reply once the subtree has answered."""
        self._syndicate(
            parse_policy(str(message.payload)),
            lambda reports: self.respond(message, "".join(r.to_xml() for r in reports)),
        )

    def _handle_report(self, message: Message) -> str:
        self.reports_received.extend(_parse_reports(str(message.payload)))
        return "<Ack/>"


def _parse_reports(xml_text: str) -> list[SyndicationReport]:
    return [
        SyndicationReport.from_xml(match.group(0))
        for match in re.finditer(
            r"<SyndicationReport .*?</SyndicationReport>", xml_text, re.DOTALL
        )
    ]


def build_hierarchy(
    network: Network,
    root_name: str,
    regions: dict[str, list[PolicyAdministrationPoint]],
    acceptance_for: Optional[
        Callable[[str], Optional[AcceptancePolicy]]
    ] = None,
) -> tuple[SyndicationNode, list[SyndicationNode]]:
    """Assemble the Fig. 5 shape: root → regional servers → local PAPs.

    Args:
        regions: region name → local PAPs whose domains it serves.
        acceptance_for: optional factory giving each *leaf* node its local
            acceptance constraint.

    Returns:
        (root node, all leaf nodes).
    """
    root = SyndicationNode(root_name, network)
    leaves = []
    for region_name, paps in regions.items():
        regional = SyndicationNode(f"synd.{region_name}", network)
        root.add_child(regional)
        for pap in paps:
            acceptance = acceptance_for(pap.domain) if acceptance_for else None
            leaf = SyndicationNode(
                f"synd.{pap.name}",
                network,
                domain=pap.domain,
                local_pap=pap,
                acceptance=acceptance,
            )
            regional.add_child(leaf)
            leaves.append(leaf)
    return root, leaves
