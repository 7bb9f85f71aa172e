from __future__ import annotations

from xml.sax.saxutils import escape

from hypothesis import example, given
from hypothesis import strategies as st

from receipt_kie import render


@given(st.text())
@example("&amp; <b>&lt;</b> \"'")
def test_escape_matches_saxutils(text):
    assert render._escape(text) == escape(text)
