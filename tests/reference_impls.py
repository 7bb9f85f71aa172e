"""Independent reference implementations used as test oracles.

Everything here is written from the rules as stated, in the most literal
way possible, with no code shared with the package — the point is that a
bug would have to be made twice, in two different shapes, to go unseen.
"""

from __future__ import annotations

import unicodedata

from receipt_kie.model import Document, EntityLabel

DESC = EntityLabel.DESCRIPTION
CODE = EntityLabel.CODE
QTY = EntityLabel.QUANTITY
PRICE = EntityLabel.PRICE


# --------------------------------------------------------------------------
# Line clustering oracle: connected components of the pairwise-overlap graph,
# found by BFS. Single-linkage clustering over a symmetric relation is
# exactly this, so any disagreement is a bug in the union-find bookkeeping.


def brute_force_lines(doc: Document, threshold: float = 0.4) -> set[frozenset[int]]:
    tokens = list(doc.tokens)

    def overlaps(a, b) -> bool:
        inter = min(a.bbox.y_max, b.bbox.y_max) - max(a.bbox.y_min, b.bbox.y_min)
        if inter < 0:
            return False
        shorter = min(a.bbox.y_max - a.bbox.y_min, b.bbox.y_max - b.bbox.y_min)
        if shorter <= 0:
            return True
        return inter / shorter >= threshold

    unvisited = set(range(len(tokens)))
    components: set[frozenset[int]] = set()
    while unvisited:
        seed = unvisited.pop()
        component = {seed}
        frontier = [seed]
        while frontier:
            current = frontier.pop()
            for other in list(unvisited):
                if overlaps(tokens[current], tokens[other]):
                    unvisited.remove(other)
                    component.add(other)
                    frontier.append(other)
        components.add(frozenset(tokens[i].token_id for i in component))
    return components


# --------------------------------------------------------------------------
# Grouping oracle: the three scan steps transcribed over abstract line
# contents (a sequence of label sets), with nothing else.


def literal_grouping(line_entities: list[set[EntityLabel]]) -> list[tuple[tuple[int, ...], bool]]:
    """Returns (member line positions, incomplete) per group."""
    groups: list[tuple[tuple[int, ...], bool]] = []
    n = len(line_entities)
    i = 0
    while i < n:
        entities = line_entities[i]
        # Step 1: walk down until a line contains a product description.
        if DESC not in entities:
            i += 1
            continue
        # Step 2a: the line also holds a quantity and a price -> the
        # product is complete on this single line.
        if QTY in entities and PRICE in entities:
            groups.append(((i,), False))
            i += 1
            continue
        # Step 2b/3: otherwise keep taking lines; the first following line
        # holding any non-description entity completes the product.
        members = [i]
        closed = False
        j = i + 1
        while j < n:
            members.append(j)
            if entities_other_than_description(line_entities[j]):
                closed = True
                break
            j += 1
        groups.append((tuple(members), not closed))
        i = members[-1] + 1
    return groups


def entities_other_than_description(entities: set[EntityLabel]) -> bool:
    return bool(entities & {CODE, QTY, PRICE})


# --------------------------------------------------------------------------
# Correction-rule oracle: strip decorations, parse, take the extreme, check
# the strict guard — written against the rule statements, character by
# character, with its own parsing.


def _oracle_strip(text: str) -> str:
    def deco(ch: str) -> bool:
        return ch in "*#:" or unicodedata.category(ch) == "Sc"

    while text and deco(text[0]):
        text = text[1:]
    while text and deco(text[-1]):
        text = text[:-1]
    return text


def oracle_parse_int(text: str) -> int | None:
    s = _oracle_strip(text)
    if s and all(c in "0123456789" for c in s) and len(s) <= 18:
        return int(s)
    return None


def oracle_parse_float(text: str) -> float | None:
    s = _oracle_strip(text)
    separators = [i for i, c in enumerate(s) if c in ".,"]
    if len(separators) != 1:
        return None
    head, tail = s[: separators[0]], s[separators[0] + 1 :]
    if not tail or not all(c in "0123456789" for c in tail):
        return None
    if head and not all(c in "0123456789" for c in head):
        return None
    if len(head) > 18:
        return None
    return float(head + "." + tail) if head else float("0." + tail)


def oracle_code(pool: list[tuple[int, str]]) -> tuple[int, int] | None:
    """pool is [(token_id, text)] in reading order; returns (token_id, value)."""
    ints = [(tid, v) for tid, s in pool if (v := oracle_parse_int(s)) is not None]
    if not ints:
        return None
    largest = max(v for _, v in ints)
    smallest = min(v for _, v in ints)
    if not largest > smallest:
        return None
    for tid, v in ints:  # first in reading order wins ties
        if v == largest:
            return tid, v
    raise AssertionError("unreachable")


def oracle_quantity(pool: list[tuple[int, str]]) -> tuple[int, int] | None:
    ints = [(tid, v) for tid, s in pool if (v := oracle_parse_int(s)) is not None]
    if not ints:
        return None
    largest = max(v for _, v in ints)
    smallest = min(v for _, v in ints)
    if not smallest < largest:
        return None
    for tid, v in ints:
        if v == smallest:
            return tid, v
    raise AssertionError("unreachable")


def oracle_price(pool: list[tuple[int, str]]) -> tuple[int, float] | None:
    floats = [(tid, v) for tid, s in pool if (v := oracle_parse_float(s)) is not None]
    if not floats:
        return None
    largest = max(v for _, v in floats)
    for tid, v in floats:
        if v == largest:
            return tid, v
    raise AssertionError("unreachable")


# --------------------------------------------------------------------------
# Heuristic tagger oracle: the five rules of the tagger's docstring, first
# match wins, with the tagger's own reading of numbers. Only currency signs
# are stripped (never "*#:"), digit runs have no length cap, and the
# quantity rule alone passes over runs longer than 18 digits.


def _strip_currency_signs(text: str) -> str:
    while text and unicodedata.category(text[0]) == "Sc":
        text = text[1:]
    while text and unicodedata.category(text[-1]) == "Sc":
        text = text[:-1]
    return text


def _ascii_digits(s: str) -> bool:
    return all(c in "0123456789" for c in s)


def oracle_heuristic_label(
    text: str,
    x_min: float,
    price_band_min_x: float = 0.65,
    quantity_band: tuple[float, float] = (0.45, 0.70),
    max_quantity: int = 99,
    min_code_length: int = 5,
) -> EntityLabel:
    s = _strip_currency_signs(text)
    separators = [i for i, c in enumerate(s) if c in ".,"]
    is_decimal = False
    if len(separators) == 1:
        head, tail = s[: separators[0]], s[separators[0] + 1 :]
        is_decimal = tail != "" and _ascii_digits(tail) and _ascii_digits(head)
    is_integer = s != "" and _ascii_digits(s)
    # 1. a decimal number whose left edge sits in the price column
    if is_decimal and x_min >= price_band_min_x:
        return PRICE
    # 2. a small integer inside the quantity band
    if (
        is_integer
        and len(s) <= 18
        and int(s) <= max_quantity
        and quantity_band[0] <= x_min < quantity_band[1]
    ):
        return QTY
    # 3. a long enough digit run, anywhere
    if is_integer and len(s) >= min_code_length:
        return CODE
    # 4. more than half of the raw text is letters
    if sum(1 for c in text if c.isalpha()) * 2 > len(text):
        return DESC
    return EntityLabel.UNTAGGED
