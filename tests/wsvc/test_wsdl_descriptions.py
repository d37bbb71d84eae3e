"""Tests for WSDL-lite service descriptions."""

from repro.wsvc import pdp_description


class TestServiceDescription:
    def test_xml_rendering(self):
        description = pdp_description("pdp-1", "pdp-1.addr", domain="d")
        xml = description.to_xml()
        assert 'name="pdp-1"' in xml
        assert 'type="pdp"' in xml
        assert 'address="pdp-1.addr"' in xml
        assert description.wire_size == len(xml.encode("utf-8"))

    def test_canonical_pdp_description(self):
        description = pdp_description("pdp-x", "addr", domain="acme")
        assert description.service_type == "pdp"
        (evaluate,) = (op for op in description.operations if op.name == "evaluate")
        assert evaluate.input_kind == "xacml.request"
