from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

from hypothesis import example, given
from hypothesis import strategies as st

from receipt_kie import render

from helpers import make_doc, make_token

# The characters XML 1.0 forbids even as character references.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


@given(st.text())
@example("&amp; <b>&lt;</b> \"'")
@example("MILK\x0c\x00\t\n\r\x1f\x7f\ufffe\uffff")
def test_escape_matches_saxutils(text):
    # saxutils passes the characters XML forbids through; _escape makes
    # them U+FFFD first.
    assert render._escape(text) == escape(_NOT_XML.sub("\ufffd", text))


def test_a_page_with_control_characters_renders_well_formed_xml():
    texts = ["MILK\x0c", "2\x00", "a&b<\x1f>", "\ufffe\uffff"]
    tokens = [make_token(i, text, 10, 10 + 30 * i) for i, text in enumerate(texts)]
    svg = render.render_svg(make_doc(tokens, doc_id="doc\x01"), [])
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert root.find(f"{ns}title").text == "doc\ufffd"
    assert [el.text for el in root.iter(f"{ns}text")] == [
        "MILK\ufffd", "2\ufffd", "a&b<\ufffd>", "\ufffd\ufffd"
    ]
