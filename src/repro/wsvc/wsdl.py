"""WSDL-lite: machine-readable service descriptions.

The paper stresses that "interfaces of those components should be
standardised ... and other components of the access control system must be
able to invoke them".  A :class:`ServiceDescription` is the minimal
analogue: named operations with input/output message kinds, bound to a
network address.  The registry (:mod:`repro.wsvc.registry`) indexes these
for discovery.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Operation:
    """One WSDL operation: name plus input/output message kinds."""

    name: str
    input_kind: str
    output_kind: str
    documentation: str = ""


@dataclass(frozen=True)
class ServiceDescription:
    """A service's public contract.

    Attributes:
        name: unique service name, e.g. ``"engineering-pdp"``.
        service_type: role tag used for discovery, e.g. ``"pdp"``,
            ``"pap"``, ``"capability-service"``, ``"business"``.
        address: network address of the endpoint (simnet node address).
        operations: the callable operations.
        domain: owning administrative domain, for scoped discovery.
    """

    name: str
    service_type: str
    address: str
    operations: tuple[Operation, ...] = ()
    domain: str = ""

    def to_xml(self) -> str:
        ops = "".join(
            f'<operation name="{op.name}" input="{op.input_kind}" '
            f'output="{op.output_kind}"/>'
            for op in self.operations
        )
        return (
            f'<definitions name="{self.name}" type="{self.service_type}" '
            f'domain="{self.domain}"><service address="{self.address}">'
            f"{ops}</service></definitions>"
        )

    @property
    def wire_size(self) -> int:
        return len(self.to_xml().encode("utf-8"))


def pdp_description(name: str, address: str, domain: str = "") -> ServiceDescription:
    """Canonical description of a Policy Decision Point endpoint."""
    return ServiceDescription(
        name=name,
        service_type="pdp",
        address=address,
        domain=domain,
        operations=(
            Operation(
                name="evaluate",
                input_kind="xacml.request",
                output_kind="xacml.response",
                documentation="Evaluate an XACML request context",
            ),
        ),
    )
