"""SVG overlay rendering of a decoded document.

Produces a standalone SVG in page pixel coordinates: one rectangle per
token tinted by entity class (descriptions green, codes gray, quantities
yellow, prices red), the token text on top, and one outline per product
group on a blue-to-purple ramp by group order. Tokens whose label came
from a correction rule get a dashed outline so recovered entities stand
out from model output at a glance.
"""

from __future__ import annotations

from typing import Sequence

from .model import Document, EntityLabel, LabelSource, ProductGroup

LABEL_FILLS: dict[EntityLabel, str] = {
    EntityLabel.DESCRIPTION: "#2e8b57",
    EntityLabel.CODE: "#808080",
    EntityLabel.QUANTITY: "#e8c011",
    EntityLabel.PRICE: "#d92b2b",
    EntityLabel.UNTAGGED: "none",
}

_GROUP_RAMP_START = (30, 80, 255)  # blue
_GROUP_RAMP_END = (142, 36, 170)  # purple


def _escape(text: str) -> str:
    """``text`` as XML character data: ``&``, ``<`` and ``>`` escaped, ``&``
    first, as ``xml.sax.saxutils.escape`` does. That module is not imported:
    it pulls in ``urllib`` and ``email`` on every command's startup."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _group_stroke(index: int, count: int) -> str:
    t = index / (count - 1) if count > 1 else 0.0
    channels = (
        round(a + (b - a) * t) for a, b in zip(_GROUP_RAMP_START, _GROUP_RAMP_END)
    )
    return "#{:02x}{:02x}{:02x}".format(*channels)


def render_svg(doc: Document, groups: Sequence[ProductGroup]) -> str:
    """Render the document and its groups to an SVG string."""
    w, h = doc.page_width, doc.page_height
    parts: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f"<title>{_escape(doc.doc_id)}</title>",
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="#fdfdf8"/>',
    ]

    for i, group in enumerate(groups):
        b = group.bbox
        stroke = _group_stroke(i, len(groups))
        dash = ' stroke-dasharray="2 4"' if group.incomplete else ""
        parts.append(
            f'<rect class="group" x="{b.x_min * w - 4:.1f}" y="{b.y_min * h - 4:.1f}" '
            f'width="{b.width * w + 8:.1f}" height="{b.height * h + 8:.1f}" '
            f'fill="none" stroke="{stroke}" stroke-width="2"{dash}/>'
        )

    for tok in doc.tokens:
        b = tok.bbox
        fill = LABEL_FILLS[tok.label]
        x, y = b.x_min * w, b.y_min * h
        tw, th = b.width * w, b.height * h
        if tok.source is LabelSource.CORRECTION:
            outline = ' stroke="#1a1a1a" stroke-width="1.5" stroke-dasharray="5 3"'
        elif tok.label is EntityLabel.UNTAGGED:
            outline = ' stroke="#b9b9b9" stroke-width="0.5"'
        else:
            outline = ' stroke="#505050" stroke-width="0.5"'
        opacity = ' fill-opacity="0.35"' if fill != "none" else ""
        parts.append(
            f'<rect class="token" x="{x:.1f}" y="{y:.1f}" width="{tw:.1f}" '
            f'height="{th:.1f}" fill="{fill}"{opacity}{outline}/>'
        )
        font_size = max(th * 0.62, 4.0)
        parts.append(
            f'<text x="{x + 3:.1f}" y="{y + th * 0.72:.1f}" '
            f'font-family="monospace" font-size="{font_size:.1f}" '
            f"fill=\"#14141e\">{_escape(tok.text)}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
