"""Serialization of XACML objects to XML text.

The serializer produces compact, standard-shaped XML: policies use
``Policy``/``PolicySet``/``Rule``/``Target``/``Apply`` elements, contexts
use ``Request``/``Response``.  Byte sizes of these strings are what the
communication-performance experiments (E5, E7) measure, so the output is
canonical-compact (no pretty-printing) and deterministic.

Two writers, one form.  Policies (written when a PAP publishes, a cold
path) are built as ``ElementTree`` trees and handed to ``ET.tostring``.
Request and response contexts are written on every decision, so
:func:`serialize_request` / :func:`serialize_response` write the text
directly — the fixed opening tags are formatted once per
``Category`` / ``DataType`` / ``Decision`` / ``StatusCode`` at import,
values go through :func:`repro.xmlutil.escape_text` /
:func:`~repro.xmlutil.escape_attr` — and the contract is that the result
is **byte for byte** what ``ET.tostring`` gives for the same tree
(attribute order, ``<Tag />`` for an element with neither text nor
children, ``ElementTree``'s escaping).  ``tests/xacml/test_codec.py``
holds the tree builder this writer replaced and asserts the identity
over hostile inputs, plus golden bytes.  The rare ``<Obligations>``
subtree of a response stays on the tree helpers the policy writer uses.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Union

from ..xmlutil import escape_attr, escape_text
from .attributes import AttributeDesignator, AttributeValue, Category, DataType
from .context import (
    Decision,
    Obligation,
    RequestContext,
    ResponseContext,
    StatusCode,
)
from .expressions import (
    AllOfFunction,
    AnyOfFunction,
    Apply,
    Designator,
    Expression,
    Literal,
)
from .policy import Policy, PolicyReference, PolicySet
from .rules import Rule
from .targets import Target

ANY_OF_FUNCTION_ID = "urn:oasis:names:tc:xacml:1.0:function:any-of"
ALL_OF_FUNCTION_ID = "urn:oasis:names:tc:xacml:1.0:function:all-of"


def _value_element(value: AttributeValue) -> ET.Element:
    element = ET.Element("AttributeValue", {"DataType": value.data_type.value})
    element.text = value.lexical()
    return element


def _designator_element(designator: AttributeDesignator) -> ET.Element:
    attrib = {
        "Category": designator.category.value,
        "AttributeId": designator.attribute_id,
        "DataType": designator.data_type.value,
        "MustBePresent": "true" if designator.must_be_present else "false",
    }
    if designator.issuer is not None:
        attrib["Issuer"] = designator.issuer
    return ET.Element("AttributeDesignator", attrib)


def _expression_element(expression: Expression) -> ET.Element:
    if isinstance(expression, Literal):
        return _value_element(expression.value)
    if isinstance(expression, Designator):
        return _designator_element(expression.designator)
    if isinstance(expression, Apply):
        element = ET.Element("Apply", {"FunctionId": expression.function_id})
        for argument in expression.arguments:
            element.append(_expression_element(argument))
        return element
    if isinstance(expression, AnyOfFunction):
        return _higher_order_element(
            ANY_OF_FUNCTION_ID, expression.function_id, expression.value,
            expression.bag,
        )
    if isinstance(expression, AllOfFunction):
        return _higher_order_element(
            ALL_OF_FUNCTION_ID, expression.function_id, expression.value,
            expression.bag,
        )
    raise TypeError(f"cannot serialize expression type {type(expression).__name__}")


def _higher_order_element(
    outer_id: str, inner_id: str, value: Expression, bag: Expression
) -> ET.Element:
    element = ET.Element("Apply", {"FunctionId": outer_id})
    element.append(ET.Element("Function", {"FunctionId": inner_id}))
    element.append(_expression_element(value))
    element.append(_expression_element(bag))
    return element


def _target_element(target: Target) -> ET.Element:
    element = ET.Element("Target")
    for any_of in target.any_ofs:
        any_el = ET.SubElement(element, "AnyOf")
        for all_of in any_of.all_ofs:
            all_el = ET.SubElement(any_el, "AllOf")
            for match in all_of.matches:
                match_el = ET.SubElement(
                    all_el, "Match", {"MatchId": match.match_function}
                )
                match_el.append(_value_element(match.value))
                match_el.append(_designator_element(match.designator))
    return element


def _obligations_element(obligations: tuple[Obligation, ...]) -> ET.Element:
    element = ET.Element("Obligations")
    for obligation in obligations:
        ob_el = ET.SubElement(
            element,
            "Obligation",
            {
                "ObligationId": obligation.obligation_id,
                "FulfillOn": obligation.fulfill_on.value,
            },
        )
        for assignment in obligation.assignments:
            assign_el = ET.SubElement(
                ob_el,
                "AttributeAssignment",
                {
                    "AttributeId": assignment.attribute_id,
                    "DataType": assignment.value.data_type.value,
                },
            )
            assign_el.text = assignment.value.lexical()
    return element


def _rule_element(rule: Rule) -> ET.Element:
    element = ET.Element(
        "Rule", {"RuleId": rule.rule_id, "Effect": rule.effect.value}
    )
    if rule.description:
        desc = ET.SubElement(element, "Description")
        desc.text = rule.description
    if rule.target.any_ofs:
        element.append(_target_element(rule.target))
    if rule.condition is not None:
        condition_el = ET.SubElement(element, "Condition")
        condition_el.append(_expression_element(rule.condition.expression))
    return element


def policy_to_element(policy: Policy) -> ET.Element:
    attrib = {
        "PolicyId": policy.policy_id,
        "RuleCombiningAlgId": policy.rule_combining,
        "Version": policy.version,
    }
    if policy.issuer is not None:
        attrib["Issuer"] = policy.issuer
    element = ET.Element("Policy", attrib)
    if policy.description:
        desc = ET.SubElement(element, "Description")
        desc.text = policy.description
    element.append(_target_element(policy.target))
    for rule in policy.rules:
        element.append(_rule_element(rule))
    if policy.obligations:
        element.append(_obligations_element(policy.obligations))
    return element


def policy_set_to_element(policy_set: PolicySet) -> ET.Element:
    attrib = {
        "PolicySetId": policy_set.policy_set_id,
        "PolicyCombiningAlgId": policy_set.policy_combining,
        "Version": policy_set.version,
    }
    if policy_set.issuer is not None:
        attrib["Issuer"] = policy_set.issuer
    element = ET.Element("PolicySet", attrib)
    if policy_set.description:
        desc = ET.SubElement(element, "Description")
        desc.text = policy_set.description
    element.append(_target_element(policy_set.target))
    for child in policy_set.children:
        if isinstance(child, Policy):
            element.append(policy_to_element(child))
        elif isinstance(child, PolicyReference):
            ref_el = ET.SubElement(element, "PolicyIdReference")
            ref_el.text = child.reference_id
        else:
            element.append(policy_set_to_element(child))
    if policy_set.obligations:
        element.append(_obligations_element(policy_set.obligations))
    return element


def serialize_policy(element: Union[Policy, PolicySet]) -> str:
    """Policy or policy set to compact XML text."""
    xml_el = (
        policy_to_element(element)
        if isinstance(element, Policy)
        else policy_set_to_element(element)
    )
    return ET.tostring(xml_el, encoding="unicode")


_ATTRIBUTES_OPEN = {
    category: f'<Attributes Category="{escape_attr(category.value)}">'
    for category in Category
}
_VALUE_OPEN = {
    data_type: f'<AttributeValue DataType="{escape_attr(data_type.value)}"'
    for data_type in DataType
}
_DECISION = {
    decision: f"<Decision>{escape_text(decision.value)}</Decision>"
    for decision in Decision
}
_STATUS_CODE = {
    code: f'<StatusCode Value="{escape_attr(code.value)}" />'
    for code in StatusCode
}


def serialize_request(request: RequestContext) -> str:
    parts = []
    for category, attributes_open in _ATTRIBUTES_OPEN.items():
        attributes = request.attributes(category)
        if not attributes:
            continue
        parts.append(attributes_open)
        for attribute in attributes:
            parts.append(
                f'<Attribute AttributeId="{escape_attr(attribute.attribute_id)}"'
            )
            if attribute.issuer is not None:
                parts.append(f' Issuer="{escape_attr(attribute.issuer)}"')
            parts.append(">")
            for value in attribute.values:
                value_open = _VALUE_OPEN[value.data_type]
                text = value.lexical()
                if text:
                    parts.append(
                        f"{value_open}>{escape_text(text)}</AttributeValue>"
                    )
                else:
                    parts.append(f"{value_open} />")
            parts.append("</Attribute>")
        parts.append("</Attributes>")
    if not parts:
        return "<Request />"
    return f"<Request>{''.join(parts)}</Request>"


def serialize_response(response: ResponseContext) -> str:
    if not response.results:
        return "<Response />"
    parts = ["<Response>"]
    for result in response.results:
        parts.append(
            "<Result>"
            if result.resource_id is None
            else f'<Result ResourceId="{escape_attr(result.resource_id)}">'
        )
        parts.append(_DECISION[result.decision])
        parts.append("<Status>")
        parts.append(_STATUS_CODE[result.status.code])
        if result.status.message:
            parts.append(
                f"<StatusMessage>{escape_text(result.status.message)}"
                "</StatusMessage>"
            )
        parts.append("</Status>")
        if result.obligations:
            parts.append(
                ET.tostring(
                    _obligations_element(result.obligations), encoding="unicode"
                )
            )
        parts.append("</Result>")
    parts.append("</Response>")
    return "".join(parts)
