"""Rule-based false-negative corrections for product groups.

A tagger sometimes misses an entity the receipt clearly prints. Within a
closed product group the missing value is usually recoverable from the
words that stayed untagged, because purchase documents obey three lexical
regularities:

* the product code is the *largest* integer in the group,
* the quantity is the *smallest* integer,
* the total price is the *largest* decimal number.

Each rule only fires for a group that lacks the entity entirely (false
negatives only — an existing model or heuristic label is never touched,
so a rule can add recall but never undo precision). The code and quantity
rules are guarded: the candidate must be strictly greater (code) or
strictly smaller (quantity) than some *other* integer among the group's
originally-untagged words, otherwise a lone stray number would be
promoted on no evidence. The price rule is unguarded — a decimal number
with a fractional part in a closed group is overwhelmingly the total.

Guards always compare against the group's pool as it stood before any
correction, while each firing rule removes its token from the live pool
so two rules cannot claim the same word.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .model import Document, EntityLabel, LabelSource, ProductGroup, Token, reading_order

_DIGITS = frozenset("0123456789")


@dataclass(frozen=True, slots=True)
class NumericParseConfig:
    """Lexical rules for reading numbers out of OCR tokens.

    ``strip_chars`` (plus, when ``strip_currency`` is set, anything in the
    Unicode "Sc" currency-symbol category) are removed from both ends of a
    token before parsing — receipts decorate numbers with ``*``, ``#``,
    ``:`` and currency marks. ``decimal_separators`` lists the characters
    accepted between the integer and fractional part; a token is a decimal
    number only if exactly one of them occurs.
    """

    decimal_separators: tuple[str, ...] = (".", ",")
    strip_currency: bool = True
    strip_chars: str = "*#:"
    max_integer_digits: int = 18

    def __post_init__(self) -> None:
        if not self.decimal_separators:
            raise ValueError("decimal_separators must not be empty")
        for sep in self.decimal_separators:
            if len(sep) != 1:
                raise ValueError(f"decimal separators are single characters, got {sep!r}")
            if sep in _DIGITS:
                raise ValueError(f"digit {sep!r} cannot be a decimal separator")
        if self.max_integer_digits < 1:
            raise ValueError("max_integer_digits must be at least 1")


DEFAULT_PARSE_CONFIG = NumericParseConfig()


def _split_number(text: str, config: NumericParseConfig) -> tuple[str, str | None] | None:
    """The one numeric lexer: strip decorations from both ends of ``text``
    and split the rest into its integer digits and, after exactly one
    decimal separator, its fractional digits (None for a plain integer).

    Returns None when the token is not a number. The integer part of a
    decimal may be empty (".50"); the fractional part may not. Digit runs
    come back uncapped: each caller applies its own length limit.
    """

    def strippable(ch: str) -> bool:
        if ch in config.strip_chars:
            return True
        return config.strip_currency and unicodedata.category(ch) == "Sc"

    start, end = 0, len(text)
    while start < end and strippable(text[start]):
        start += 1
    while end > start and strippable(text[end - 1]):
        end -= 1
    s = text[start:end]
    if _DIGITS.issuperset(s):
        return (s, None) if s else None
    sep_positions = [i for i, ch in enumerate(s) if ch in config.decimal_separators]
    if len(sep_positions) != 1:
        return None
    int_part, frac_part = s[: sep_positions[0]], s[sep_positions[0] + 1 :]
    if not frac_part or not _DIGITS.issuperset(frac_part) or not _DIGITS.issuperset(int_part):
        return None
    return int_part, frac_part


def parse_integer(text: str, config: NumericParseConfig = DEFAULT_PARSE_CONFIG) -> int | None:
    """Read ``text`` as a plain integer, or None if it is not one.

    After decoration stripping the token must consist solely of ASCII
    digits — no signs, no separators ("2x" and "138.00" are not
    integers). Digit runs longer than ``max_integer_digits`` are rejected
    as OCR garbage rather than parsed.
    """
    number = _split_number(text, config)
    if number is None or number[1] is not None or len(number[0]) > config.max_integer_digits:
        return None
    return int(number[0])


def parse_float(text: str, config: NumericParseConfig = DEFAULT_PARSE_CONFIG) -> float | None:
    """Read ``text`` as a decimal number with a fractional part.

    Exactly one decimal separator must occur, followed by at least one
    digit; the integer part may be empty (".50" is 0.5). Pure integers do
    not parse — quantities and codes must not be mistaken for prices —
    and neither do tokens with thousands grouping ("1,150.00" has two
    separator characters, which is ambiguous under a two-separator
    config, so it is rejected outright).
    """
    number = _split_number(text, config)
    if number is None or number[1] is None or len(number[0]) > config.max_integer_digits:
        return None
    int_part, frac_part = number
    value = float((int_part or "0") + "." + frac_part)
    return value if math.isfinite(value) else None


@dataclass(frozen=True, slots=True)
class CorrectionRecord:
    """One rule firing: which token was promoted to which entity, and the
    numeric value that justified it."""

    group_id: int
    entity: EntityLabel
    token_id: int
    parsed_value: int | float


# The rule table, in firing order. Each rule reads the pool with a parser,
# picks the extreme value, and may demand that the value be strictly beyond
# the opposite extreme of the group's original integers: a lone integer is
# evidence of neither a code nor a quantity.
_Rule = tuple[
    Callable[..., "int | float | None"], Callable[..., "int | float"], Callable[..., bool] | None
]
_RULES: dict[EntityLabel, _Rule] = {
    EntityLabel.CODE: (parse_integer, max, lambda value, ints: value > min(ints)),
    EntityLabel.QUANTITY: (parse_integer, min, lambda value, ints: value < max(ints)),
    EntityLabel.PRICE: (parse_float, max, None),
}


def _group_state(
    tokens: Sequence[Token], config: NumericParseConfig
) -> tuple[set[EntityLabel], list[Token], list[int]]:
    """Labels present among a group's tokens, its untagged pool, and the
    pool's integer values (the guard comparison set)."""
    present = {t.label for t in tokens if t.label is not EntityLabel.UNTAGGED}
    pool = [t for t in tokens if t.label is EntityLabel.UNTAGGED]
    guard_ints = [v for t in pool if (v := parse_integer(t.text, config)) is not None]
    return present, pool, guard_ints


def _pick(
    rule: _Rule, pool: Sequence[Token], guard_ints: Sequence[int], config: NumericParseConfig
) -> tuple[int | float, Token] | None:
    """Run one rule over ``pool``: the winning value and its token, or None.

    ``pool`` is a subset of the pool ``guard_ints`` was read from, so an
    integer candidate always has a non-empty guard set.
    """
    parse, best, guard = rule
    parsed = [(value, tok) for tok in pool if (value := parse(tok.text, config)) is not None]
    if not parsed:
        return None
    target = best(value for value, _ in parsed)
    if guard is not None and not guard(target, guard_ints):
        return None
    winner = min((tok for value, tok in parsed if value == target), key=reading_order)
    return target, winner


def _correct(
    entity: EntityLabel, group: ProductGroup, doc: Document, config: NumericParseConfig
) -> CorrectionRecord | None:
    present, pool, guard_ints = _group_state([doc.token(tid) for tid in group.token_ids], config)
    if entity in present:
        return None
    fired = _pick(_RULES[entity], pool, guard_ints, config)
    if fired is None:
        return None
    value, tok = fired
    return CorrectionRecord(group.group_id, entity, tok.token_id, value)


def correct_code(
    group: ProductGroup, doc: Document, config: NumericParseConfig = DEFAULT_PARSE_CONFIG
) -> CorrectionRecord | None:
    """Recover a missing product code: the largest integer in the pool.

    Fires only when the group has no code-labeled token, the pool contains
    at least one integer, and the largest strictly exceeds the smallest
    (ties on the winning value go to the top-most, left-most token).
    Returns the firing as a record, or None.
    """
    return _correct(EntityLabel.CODE, group, doc, config)


def correct_quantity(
    group: ProductGroup, doc: Document, config: NumericParseConfig = DEFAULT_PARSE_CONFIG
) -> CorrectionRecord | None:
    """Recover a missing quantity: the smallest integer in the pool,
    guarded by being strictly below the pool's largest integer."""
    return _correct(EntityLabel.QUANTITY, group, doc, config)


def correct_price(
    group: ProductGroup, doc: Document, config: NumericParseConfig = DEFAULT_PARSE_CONFIG
) -> CorrectionRecord | None:
    """Recover a missing price: the largest decimal number in the pool.

    Unguarded — unlike codes and quantities, a decimal with a fractional
    part inside a product group is already strong evidence on its own.
    """
    return _correct(EntityLabel.PRICE, group, doc, config)


def apply_corrections(
    doc: Document,
    groups: Sequence[ProductGroup],
    config: NumericParseConfig = DEFAULT_PARSE_CONFIG,
) -> tuple[Document, list[CorrectionRecord]]:
    """Run all three rules over every group; return the corrected document
    and the firings in order.

    Per group the order is code, then quantity, then price. A rule that
    fires removes its token from the live pool before the next rule runs,
    but the guards keep comparing against the group's original pool — the
    evidence for "is this number extreme" is the document as the tagger
    left it, not the shrinking remainder.

    Corrected tokens get ``source=CORRECTION``. Tokens that already carry
    a label are never modified, so the output is the input plus zero or
    more promotions — which also makes a second application a no-op.
    """
    current: dict[int, Token] = {tok.token_id: tok for tok in doc.tokens}
    records: list[CorrectionRecord] = []

    for group in groups:
        present, pool, guard_ints = _group_state([current[tid] for tid in group.token_ids], config)
        for entity, rule in _RULES.items():
            if entity in present:
                continue
            fired = _pick(rule, pool, guard_ints, config)
            if fired is None:
                continue
            value, tok = fired
            current[tok.token_id] = replace(tok, label=entity, source=LabelSource.CORRECTION)
            pool.remove(tok)
            records.append(CorrectionRecord(group.group_id, entity, tok.token_id, value))

    corrected = doc.with_tokens(current[tok.token_id] for tok in doc.tokens)
    return corrected, records
