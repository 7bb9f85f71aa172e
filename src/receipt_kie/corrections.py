"""Rule-based false-negative corrections for product groups.

A tagger sometimes misses an entity the receipt clearly prints. Within a
product group the missing value is usually recoverable from the words
that stayed untagged, because purchase documents obey three lexical
regularities:

* the product code is the *largest* integer in the group,
* the quantity is the *smallest* integer,
* the total price is the *largest* decimal number.

Each rule only fires for a group that lacks the entity entirely (false
negatives only — an existing model or heuristic label is never touched,
so a rule can add recall but never undo precision); a group that already
holds all three entities is skipped whole, without parsing a word, and a
document where no rule fires comes back as it was. The code and quantity
rules are guarded: the candidate must be strictly greater (code) or
strictly smaller (quantity) than some *other* integer among the group's
originally-untagged words, otherwise a lone stray number would be
promoted on no evidence. The price rule is unguarded — a decimal number
with a fractional part in a product group is overwhelmingly the total.

The rules run on every group, including one flagged ``incomplete`` (still
open when the document ended, so it may run into the footer). Whether
such a group should be corrected at all is an open decision.

Guards always compare against the group's pool as it stood before any
correction, while each firing rule removes its token from the live pool
so two rules cannot claim the same word.
"""

from __future__ import annotations

import math
import unicodedata
from typing import Callable, NamedTuple, Sequence

from .model import Document, EntityLabel, LabelSource, ProductGroup, Token, reading_order

_DIGITS = frozenset("0123456789")

# Longer digit runs are OCR garbage to the parsers, and not worth an int().
MAX_INTEGER_DIGITS = 18


# Removed from both ends of a token before the rules parse it, along with
# anything in the Unicode "Sc" currency-symbol category: receipts decorate
# numbers with these and with currency marks.
_RULE_STRIP_CHARS = "*#:"


# The characters accepted between the integer and fractional part of a
# decimal number, each one a separator.
DECIMAL_SEPARATORS = ".,"


def _split_number(
    text: str, strip_chars: str, decimal_separators: str
) -> tuple[str, str | None] | None:
    """The one numeric lexer: strip ``strip_chars`` and currency symbols
    from both ends of ``text`` and split the rest into its integer digits
    and, after exactly one decimal separator (a character of
    ``decimal_separators``), its fractional digits (None for a plain
    integer).

    Returns None when the token is not a number. The integer part of a
    decimal may be empty (".50"); the fractional part may not, so a token
    that is not all digits and does not end in a digit is rejected at once.
    Digit runs come back uncapped: each caller applies its own length limit.
    The separator is the last character that is not a digit, so a digit in
    ``decimal_separators`` never matches, and an empty string reads no
    decimal at all.

    An ASCII text is stripped by one ``str.strip``, since ``$`` is the only
    ASCII character in the Unicode "Sc" category; any other text is
    stripped one character at a time. The split itself runs no Python code
    per character.
    """
    if text.isascii():
        s = text.strip(strip_chars + "$")
    else:

        def strippable(ch: str) -> bool:
            return ch in strip_chars or unicodedata.category(ch) == "Sc"

        start, end = 0, len(text)
        while start < end and strippable(text[start]):
            start += 1
        while end > start and strippable(text[end - 1]):
            end -= 1
        s = text[start:end]
    if _DIGITS.issuperset(s):
        return (s, None) if s else None
    if s[-1] not in _DIGITS:
        return None
    # What is left is digits, one separator and at least one digit to the
    # end, so the separator is the last character that is not a digit.
    head = s.rstrip("0123456789")
    if head[-1] not in decimal_separators or not _DIGITS.issuperset(head[:-1]):
        return None
    return head[:-1], s[len(head) :]


def parse_integer(text: str, decimal_separators: str = DECIMAL_SEPARATORS) -> int | None:
    """Read ``text`` as a plain integer, or None if it is not one.

    After decoration stripping the token must consist solely of ASCII
    digits — no signs, no separators ("2x" and "138.00" are not
    integers). Digit runs longer than ``MAX_INTEGER_DIGITS`` are rejected
    as OCR garbage rather than parsed.

    No result depends on ``decimal_separators``: the lexer returns a plain
    integer before it reads the separators, and any other text is no
    integer whatever they are. The parameter is taken only so that the
    ``_RULES`` table calls both parsers alike.
    """
    number = _split_number(text, _RULE_STRIP_CHARS, decimal_separators)
    if number is None or number[1] is not None or len(number[0]) > MAX_INTEGER_DIGITS:
        return None
    return int(number[0])


def parse_float(text: str, decimal_separators: str = DECIMAL_SEPARATORS) -> float | None:
    """Read ``text`` as a decimal number with a fractional part.

    Exactly one decimal separator must occur, followed by at least one
    digit; the integer part may be empty (".50" is 0.5). Pure integers do
    not parse — quantities and codes must not be mistaken for prices —
    and neither do tokens with thousands grouping ("1,150.00" holds two
    separator characters; which one ends the integer part is ambiguous,
    so it is rejected outright).
    """
    number = _split_number(text, _RULE_STRIP_CHARS, decimal_separators)
    if number is None or number[1] is None or len(number[0]) > MAX_INTEGER_DIGITS:
        return None
    int_part, frac_part = number
    value = float((int_part or "0") + "." + frac_part)
    return value if math.isfinite(value) else None


class CorrectionRecord(NamedTuple):
    """One rule firing: which token was promoted to which entity, and the
    numeric value that justified it."""

    group_id: int
    entity: EntityLabel
    token_id: int
    parsed_value: int | float


# The rule table, in firing order: a parser, the extreme to pick, and an
# optional guard that the picked value must pass against the group's
# original integers (a lone integer is evidence of neither a code nor a
# quantity).
_Rule = tuple[
    Callable[..., "int | float | None"], Callable[..., "int | float"], Callable[..., bool] | None
]
_RULES: dict[EntityLabel, _Rule] = {
    EntityLabel.CODE: (parse_integer, max, lambda value, ints: value > min(ints)),
    EntityLabel.QUANTITY: (parse_integer, min, lambda value, ints: value < max(ints)),
    EntityLabel.PRICE: (parse_float, max, None),
}


def apply_corrections(
    doc: Document,
    groups: Sequence[ProductGroup],
    decimal_separators: str = DECIMAL_SEPARATORS,
) -> tuple[Document, list[CorrectionRecord]]:
    """Run all three rules over every group; return the corrected document
    and the firings in order.

    Per group the order is code, then quantity, then price. A rule is
    skipped when the group already holds its entity. Otherwise it takes
    the extreme value among the live pool's numbers it can parse, and the
    top-most, left-most token holding that value wins. A rule that fires
    removes its token from the live pool before the next rule runs, but
    the guards keep comparing against the group's original pool — the
    evidence for "is this number extreme" is the document as the tagger
    left it, not the shrinking remainder.

    Corrected tokens get ``source=CORRECTION``. Tokens that already carry
    a label are never modified, so the output is the input plus zero or
    more promotions — which also makes a second application a no-op. With
    no promotion, the output is ``doc`` itself.
    """
    current: dict[int, Token] = {tok.token_id: tok for tok in doc.tokens}
    records: list[CorrectionRecord] = []

    for group in groups:
        tokens = [current[tid] for tid in group.token_ids]
        present = {tok.label for tok in tokens}
        if _RULES.keys() <= present:  # every rule's outcome is "entity present"
            continue
        pool = [tok for tok in tokens if tok.label is EntityLabel.UNTAGGED]
        guard_ints = [
            v for tok in pool if (v := parse_integer(tok.text, decimal_separators)) is not None
        ]
        for entity, (parse, best, guard) in _RULES.items():
            if entity in present:
                continue
            parsed = [
                (v, tok) for tok in pool if (v := parse(tok.text, decimal_separators)) is not None
            ]
            if not parsed:
                continue
            target = best(v for v, _ in parsed)
            # The live pool is a subset of the original one, so an integer
            # candidate always has a non-empty guard set.
            if guard is not None and not guard(target, guard_ints):
                continue
            tok = min((tok for v, tok in parsed if v == target), key=reading_order)
            current[tok.token_id] = tok._replace(label=entity, source=LabelSource.CORRECTION)
            pool.remove(tok)
            records.append(CorrectionRecord(group.group_id, entity, tok.token_id, target))

    if not records:
        return doc, records
    corrected = doc.with_tokens(current[tok.token_id] for tok in doc.tokens)
    return corrected, records
