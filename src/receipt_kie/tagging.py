"""Token tagging: entity labels from a model or from layout heuristics.

The learned tagger (a fine-tuned language-and-layout encoder) is a
training artifact and lives outside this package. Its labels enter as a
predictions file, which :func:`import_predictions` loads (it is defined
in :mod:`receipt_kie.ingest` with the other readers, and re-exported
here, where the CLI looks it up). :func:`heuristic_tag` is a
dependency-free geometric/lexical tagger good enough to exercise the
full pipeline without any model.

Both taggers build their output with :meth:`~receipt_kie.model.Document.relabel`,
so they return a new Document and never touch geometry or text.
"""

from __future__ import annotations

from .corrections import DECIMAL_SEPARATORS, MAX_INTEGER_DIGITS, _split_number
from .ingest import import_predictions  # noqa: F401 (re-export)
from .model import Document, EntityLabel, LabelSource


# Column bands are page-normalized x positions tested against a token's
# left edge. They fit a typical single-column receipt: totals in the
# right-most third of the page, quantities mid-line.
_PRICE_BAND_MIN_X = 0.65
_QUANTITY_BAND = (0.45, 0.70)
_MAX_QUANTITY = 99
_MIN_CODE_LENGTH = 5

# The tagger reads numbers with the correction rules' lexer but strips only
# currency signs, so "*12345" is no code to it. It caps no digit run except
# in the quantity rule.
_TAG_STRIP_CHARS = ""

# The (label, source, confidence) of each rule's label, built once.
_PRICE = (EntityLabel.PRICE, LabelSource.HEURISTIC, None)
_QUANTITY = (EntityLabel.QUANTITY, LabelSource.HEURISTIC, None)
_CODE = (EntityLabel.CODE, LabelSource.HEURISTIC, None)
_DESCRIPTION = (EntityLabel.DESCRIPTION, LabelSource.HEURISTIC, None)


def _alpha_majority(text: str) -> bool:
    return sum(map(str.isalpha, text)) * 2 > len(text)


def heuristic_tag(doc: Document, decimal_separators: str = DECIMAL_SEPARATORS) -> Document:
    """Label tokens with position/lexicon rules; no model involved.

    Rule order per token (first match wins):

    1. decimal number with a fractional part whose left edge sits at or
       right of x = 0.65 -> PRICE
    2. integer of at most 99 whose left edge sits in [0.45, 0.70)
       -> QUANTITY
    3. digit run of at least 5 characters -> CODE
    4. alphabetic-majority text -> DESCRIPTION
    5. otherwise untagged

    Numbers are read with the characters of ``decimal_separators`` as
    decimal separators, like the correction rules read them. An all-letter
    word skips the lexer: it holds no ASCII digit, so it is a description
    whatever the separators.
    Pre-existing labels are discarded; output labels carry
    ``source=HEURISTIC``. Deterministic: same document, same labels, bit
    for bit.
    """
    qty_lo, qty_hi = _QUANTITY_BAND
    labels: dict[int, tuple[EntityLabel, LabelSource, None]] = {}
    for token_id, text, (x_min, _, _, _), _, _, _ in doc.tokens:
        if text.isalpha():
            # No ASCII digit, so rules 1-3 cannot match; all letters, so rule 4 does.
            labels[token_id] = _DESCRIPTION
            continue
        number = _split_number(text, _TAG_STRIP_CHARS, decimal_separators)
        digits, fraction = number or ("", None)
        is_integer = bool(digits) and fraction is None
        if fraction is not None and x_min >= _PRICE_BAND_MIN_X:
            labels[token_id] = _PRICE
        elif (
            is_integer
            and len(digits) <= MAX_INTEGER_DIGITS
            and int(digits) <= _MAX_QUANTITY
            and qty_lo <= x_min < qty_hi
        ):
            labels[token_id] = _QUANTITY
        elif is_integer and len(digits) >= _MIN_CODE_LENGTH:
            labels[token_id] = _CODE
        elif _alpha_majority(text):
            labels[token_id] = _DESCRIPTION
    return doc.relabel(labels)
