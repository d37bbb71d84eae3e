"""Parsing XACML XML back into objects (inverse of the serializer).

Round-tripping (``parse(serialize(x)) == x`` up to object identity) is
asserted by property-based tests; the parser is also what PDPs use when
policies arrive over the wire from PAPs and syndication servers.

Leaves come from the constructors the builders use
(:func:`repro.xacml.attributes._designator_of` has the contract).
Policy-side ones — designators, matches, single-match groups and
``attribute_equals``-shaped conditions — are shared with every other
policy in the process that says the same thing.  Request attributes
come from :func:`~repro.xacml.attributes._attribute_of`, keyed on id,
issuer and each value's data-type URI and text: a decoded request
shares its attributes with every request, decoded or built by
``RequestContext.simple``, that says the same thing.  The walk checks
the structure (``Category``, ``AttributeId``, each value's
``DataType``) before it asks for the leaf; what the leaf refuses (an
unknown data type, a text its type cannot read, no values) is a
:class:`ParseError` with the leaf's message.

Every document and every ``<Request>`` / ``<Response>`` fragment goes
through expat (``ET.fromstring``): text that is not well-formed XML is a
:class:`ParseError` whatever the envelope around it looked like.  (A
``<Request>`` inside a SAML query is read from the element the query's
own expat pass built, by the same walk, :func:`_request_of`; a
``<Response>`` text that was accepted before is answered from
:func:`parse_response`'s bounded memo; a text never seen, or rejected,
is parsed in full.)  What
the Python half adds on top is kept to what the wire needs: URIs
resolve to ``Category`` / ``DataType`` members through dicts built once,
and children are looked up by plain tag, which the C accelerator's
``find`` / ``findall`` answer without entering ElementPath (a Python
loop over the children measures slower).  Every structural rejection
(missing ``Category`` / ``AttributeId`` / ``DataType``, unknown URI,
attribute without values, ``Result`` without ``Decision``, empty
``Response``, wrong root) is listed in ``tests/xacml/test_codec.py``.
"""

from __future__ import annotations

import enum
import functools
import xml.etree.ElementTree as ET
from typing import TypeVar, Union

from .attributes import (
    AttributeDesignator,
    AttributeValue,
    Category,
    DataType,
    _attribute_of,
    _designator_of,
)
from .context import (
    Decision,
    Obligation,
    ObligationAssignment,
    RequestContext,
    ResponseContext,
    Result,
    Status,
    StatusCode,
)
from .expressions import (
    AllOfFunction,
    AnyOfFunction,
    Apply,
    Condition,
    Designator,
    Expression,
    Literal,
    _condition_of,
)
from .policy import Policy, PolicyReference, PolicySet
from .rules import Rule
from .serializer import ALL_OF_FUNCTION_ID, ANY_OF_FUNCTION_ID
from .targets import AllOf, AnyOf, Target, _match_of, target_of


class ParseError(ValueError):
    """Raised when a document is not well-formed XACML.

    A ``ValueError``, like every other rejection of a malformed message:
    a server turns one exception type into its malformed-input fault,
    whichever layer of the decode found the fault."""


_CATEGORY_BY_URI = {member.value: member for member in Category}


def _category_from_uri(uri: str) -> Category:
    try:
        return _CATEGORY_BY_URI[uri]
    except KeyError:
        raise ParseError(f"unknown attribute category URI {uri!r}") from None


_E = TypeVar("_E", bound=enum.Enum)


def _member(enum_class: type[_E], text: object) -> _E:
    """The member ``text`` names; a name outside the vocabulary is a
    malformed document like any other."""
    try:
        return enum_class(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_value(element: ET.Element) -> AttributeValue:
    uri = element.get("DataType")
    if uri is None:
        raise ParseError("AttributeValue missing DataType")
    try:
        data_type = DataType.from_uri(uri)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return AttributeValue.parse(data_type, element.text or "")


def _parse_designator(element: ET.Element) -> AttributeDesignator:
    category_uri = element.get("Category")
    attribute_id = element.get("AttributeId")
    data_type_uri = element.get("DataType")
    if not (category_uri and attribute_id and data_type_uri):
        raise ParseError("AttributeDesignator missing required attributes")
    try:
        data_type = DataType.from_uri(data_type_uri)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return _designator_of(
        _category_from_uri(category_uri),
        attribute_id,
        data_type,
        element.get("MustBePresent", "false") == "true",
        element.get("Issuer"),
    )


def _parse_expression(element: ET.Element) -> Expression:
    if element.tag == "AttributeValue":
        return Literal(_parse_value(element))
    if element.tag == "AttributeDesignator":
        return Designator(_parse_designator(element))
    if element.tag == "Apply":
        function_id = element.get("FunctionId")
        if function_id is None:
            raise ParseError("Apply missing FunctionId")
        children = list(element)
        if function_id in (ANY_OF_FUNCTION_ID, ALL_OF_FUNCTION_ID):
            if len(children) != 3 or children[0].tag != "Function":
                raise ParseError(
                    f"higher-order {function_id} needs Function + 2 arguments"
                )
            inner = children[0].get("FunctionId")
            if inner is None:
                raise ParseError("Function element missing FunctionId")
            value = _parse_expression(children[1])
            bag = _parse_expression(children[2])
            cls = (
                AnyOfFunction
                if function_id == ANY_OF_FUNCTION_ID
                else AllOfFunction
            )
            return cls(function_id=inner, value=value, bag=bag)
        return Apply(
            function_id=function_id,
            arguments=tuple(_parse_expression(child) for child in children),
        )
    raise ParseError(f"unexpected expression element <{element.tag}>")


def _parse_target(element: ET.Element | None) -> Target:
    if element is None:
        return Target()
    any_ofs = []
    for any_el in element.findall("AnyOf"):
        all_ofs = []
        for all_el in any_el.findall("AllOf"):
            matches = []
            for match_el in all_el.findall("Match"):
                match_id = match_el.get("MatchId")
                if match_id is None:
                    raise ParseError("Match missing MatchId")
                value_el = match_el.find("AttributeValue")
                desig_el = match_el.find("AttributeDesignator")
                if value_el is None or desig_el is None:
                    raise ParseError(
                        "Match needs AttributeValue and AttributeDesignator"
                    )
                value = _parse_value(value_el)
                matches.append(
                    _match_of(
                        match_id,
                        value.data_type,
                        value.lexical(),
                        _parse_designator(desig_el),
                    )
                )
            all_ofs.append(AllOf(matches=tuple(matches)))
        if len(all_ofs) == 1 and len(all_ofs[0].matches) == 1:
            # The group ``target_of`` builds: the shared one.
            any_ofs.extend(target_of(*all_ofs[0].matches).any_ofs)
        else:
            any_ofs.append(AnyOf(all_ofs=tuple(all_ofs)))
    return Target(any_ofs=tuple(any_ofs))


def _parse_obligations(element: ET.Element | None) -> tuple[Obligation, ...]:
    if element is None:
        return ()
    obligations = []
    for ob_el in element.findall("Obligation"):
        obligation_id = ob_el.get("ObligationId")
        fulfill_on = ob_el.get("FulfillOn")
        if obligation_id is None or fulfill_on is None:
            raise ParseError("Obligation missing ObligationId or FulfillOn")
        assignments = []
        for assign_el in ob_el.findall("AttributeAssignment"):
            attribute_id = assign_el.get("AttributeId")
            data_type_uri = assign_el.get("DataType")
            if attribute_id is None or data_type_uri is None:
                raise ParseError("AttributeAssignment missing attributes")
            data_type = DataType.from_uri(data_type_uri)
            assignments.append(
                ObligationAssignment(
                    attribute_id=attribute_id,
                    value=AttributeValue.parse(data_type, assign_el.text or ""),
                )
            )
        obligations.append(
            Obligation(
                obligation_id=obligation_id,
                fulfill_on=Decision(fulfill_on),
                assignments=tuple(assignments),
            )
        )
    return tuple(obligations)


def _parse_rule(element: ET.Element) -> Rule:
    rule_id = element.get("RuleId")
    effect = element.get("Effect")
    if rule_id is None or effect is None:
        raise ParseError("Rule missing RuleId or Effect")
    description_el = element.find("Description")
    condition_el = element.find("Condition")
    condition = None
    if condition_el is not None:
        children = list(condition_el)
        if len(children) != 1:
            raise ParseError("Condition must contain exactly one expression")
        expression = _parse_expression(children[0])
        condition = Condition(expression)
        if type(expression) is Apply and [
            type(argument) for argument in expression.arguments
        ] == [Literal, Designator]:
            # The shape ``attribute_equals`` builds: the shared one.
            literal, bag = expression.arguments
            condition = _condition_of(
                expression.function_id,
                literal.value.data_type,  # type: ignore[attr-defined]
                literal.value.lexical(),  # type: ignore[attr-defined]
                bag.designator,  # type: ignore[attr-defined]
            )
    return Rule(
        rule_id=rule_id,
        effect=Decision(effect),
        target=_parse_target(element.find("Target")),
        condition=condition,
        description=(description_el.text or "") if description_el is not None else "",
    )


def parse_policy_element(element: ET.Element) -> Policy:
    policy_id = element.get("PolicyId")
    rule_combining = element.get("RuleCombiningAlgId")
    if policy_id is None or rule_combining is None:
        raise ParseError("Policy missing PolicyId or RuleCombiningAlgId")
    description_el = element.find("Description")
    return Policy(
        policy_id=policy_id,
        rules=tuple(_parse_rule(rule_el) for rule_el in element.findall("Rule")),
        rule_combining=rule_combining,
        target=_parse_target(element.find("Target")),
        obligations=_parse_obligations(element.find("Obligations")),
        description=(description_el.text or "") if description_el is not None else "",
        version=element.get("Version", "1.0"),
        issuer=element.get("Issuer"),
    )


def parse_policy_set_element(element: ET.Element) -> PolicySet:
    policy_set_id = element.get("PolicySetId")
    policy_combining = element.get("PolicyCombiningAlgId")
    if policy_set_id is None or policy_combining is None:
        raise ParseError("PolicySet missing PolicySetId or PolicyCombiningAlgId")
    children: list[Union[Policy, PolicySet, PolicyReference]] = []
    for child in element:
        if child.tag == "Policy":
            children.append(parse_policy_element(child))
        elif child.tag == "PolicySet":
            children.append(parse_policy_set_element(child))
        elif child.tag == "PolicyIdReference":
            if not child.text:
                raise ParseError("empty PolicyIdReference")
            children.append(PolicyReference(reference_id=child.text))
    description_el = element.find("Description")
    return PolicySet(
        policy_set_id=policy_set_id,
        children=tuple(children),
        policy_combining=policy_combining,
        target=_parse_target(element.find("Target")),
        obligations=_parse_obligations(element.find("Obligations")),
        description=(description_el.text or "") if description_el is not None else "",
        version=element.get("Version", "1.0"),
        issuer=element.get("Issuer"),
    )


def parse_policy(xml_text: str) -> Union[Policy, PolicySet]:
    """Parse XML text into a Policy or PolicySet."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from exc
    if root.tag == "Policy":
        return parse_policy_element(root)
    if root.tag == "PolicySet":
        return parse_policy_set_element(root)
    raise ParseError(f"expected <Policy> or <PolicySet>, got <{root.tag}>")


def parse_request(xml_text: str) -> RequestContext:
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from exc
    return _request_of(root)


def _request_of(root: ET.Element) -> RequestContext:
    """The request a parsed ``<Request>`` element says: the walk behind
    :func:`parse_request`, and the one the SAML query decoders run on the
    element their own expat pass produced."""
    if root.tag != "Request":
        raise ParseError(f"expected <Request>, got <{root.tag}>")
    request = RequestContext()
    for cat_el in root.findall("Attributes"):
        category_uri = cat_el.get("Category")
        if category_uri is None:
            raise ParseError("Attributes missing Category")
        category = _category_from_uri(category_uri)
        for attr_el in cat_el.findall("Attribute"):
            attribute_id = attr_el.get("AttributeId")
            if attribute_id is None:
                raise ParseError("Attribute missing AttributeId")
            values = []
            for value_el in attr_el.findall("AttributeValue"):
                uri = value_el.get("DataType")
                if uri is None:
                    raise ParseError("AttributeValue missing DataType")
                if len(value_el):
                    raise ParseError("AttributeValue holds an element")
                values.append((uri, value_el.text or ""))
            try:
                attribute = _attribute_of(
                    attribute_id, attr_el.get("Issuer"), tuple(values)
                )
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
            request.add(category, attribute)
    return request


#: Distinct response texts :func:`parse_response` remembers.  A PDP
#: answers from a small vocabulary (resource x decision x status): the
#: largest perf workload sees about 4,000 texts in a run.
RESPONSE_MEMO_SIZE = 8192


@functools.lru_cache(maxsize=RESPONSE_MEMO_SIZE)
def parse_response(xml_text: str) -> ResponseContext:
    """Parse a ``<Response>``; equal texts share one parsed result.

    The memo's contract.  *Pure*: the result depends on the text alone
    and is a frozen :class:`ResponseContext` of frozen parts, so handing
    the same object to every caller is unobservable (``==`` and ``hash``
    are by content) and statements held by decision caches share their
    responses instead of each owning a copy.  *Bounded*: least recently
    used texts fall out past :data:`RESPONSE_MEMO_SIZE`.  *Exceptions
    are never remembered*: a text that is rejected is rejected by a full
    parse on every call.  *Nothing is skipped*: a text seen for the
    first time goes through expat and every check below, whole.

    This is the form every module-level memo under ``src/`` takes
    (``tests/observability/test_memo_lint.py`` lists them) and is safe
    beside "worlds own their identifiers" (ROADMAP direction 1): it maps
    a text to the value of that text and mints nothing, so two worlds in
    one process cannot perturb each other's results, bytes or event
    order through it — a hit and a miss differ in host time only.  The
    lint allows exactly this form: an ``lru_cache`` with a constant
    bound on a function of immutable arguments returning an immutable
    value.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise ParseError(f"malformed XML: {exc}") from exc
    if root.tag != "Response":
        raise ParseError(f"expected <Response>, got <{root.tag}>")
    results = []
    for result_el in root.findall("Result"):
        decision_el = result_el.find("Decision")
        if decision_el is None or not decision_el.text:
            raise ParseError("Result missing Decision")
        status = Status()
        status_el = result_el.find("Status")
        if status_el is not None:
            code_el = status_el.find("StatusCode")
            message_el = status_el.find("StatusMessage")
            code = StatusCode.OK
            if code_el is not None and code_el.get("Value"):
                code = _member(StatusCode, code_el.get("Value"))
            status = Status(
                code=code,
                message=(message_el.text or "") if message_el is not None else "",
            )
        results.append(
            Result(
                decision=_member(Decision, decision_el.text),
                status=status,
                obligations=_parse_obligations(result_el.find("Obligations")),
                resource_id=result_el.get("ResourceId"),
            )
        )
    if not results:
        raise ParseError("Response has no Result")
    return ResponseContext(results=tuple(results))
