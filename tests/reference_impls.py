"""Independent reference implementations used as test oracles.

Everything here is written from the rules as stated, in the most literal
way possible, with no code shared with the package — the point is that a
bug would have to be made twice, in two different shapes, to go unseen.
The numeric lexer reference and the file-format and scorer references at
the end are the exception: each keeps an earlier, plainer version of one
step of the package and shares the rest (field checks, the JSON writer,
the count type) with it. The decode reference chains the references and
shares only what they share.
"""

from __future__ import annotations

import json
import unicodedata
from pathlib import Path
from typing import Any, Iterable, Sequence

from receipt_kie.errors import SchemaError
from receipt_kie.evaluation import EntityCounts, MatchMode
from receipt_kie.ingest import (
    _LABELS_BY_VALUE,
    _SCALAR_KEYS,
    _SOURCES_BY_VALUE,
    _bbox_from_json,
    _check_doc_id,
    _claim,
    _confidence,
    _doc_id,
    _is_number,
    _load_object,
    _lookup,
    _page_dims,
    _records,
    _require,
    _text,
    _token_id,
    canonical_json,
)
from receipt_kie.model import (
    ENTITY_ORDER,
    SCALAR_ENTITIES,
    BBox,
    Document,
    EntityLabel,
    LabelSource,
    Product,
    ProductGroup,
    Token,
)

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
# The overlap test as stated, with min and max: the vertical intersection
# over the shorter height, 0 for disjoint intervals, 1 for a zero-height box
# that touches the other, at most 1.


def reference_overlap_ratio(a: BBox, b: BBox) -> float:
    intersection = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if intersection < 0.0:
        return 0.0
    shorter = min(a.y_max - a.y_min, b.y_max - b.y_min)
    if shorter <= 0.0:
        return 1.0
    return min(1.0, intersection / shorter)


# --------------------------------------------------------------------------
# Ordered line oracle: the all-pairs union-find that compares every pair of
# tokens, with the package's line ordering (mean y-center, then the least
# x_min per line; (x_min, token_id) inside a line). It returns
# [(line index, token ids)], so it checks the clustering and the ordering.


def oracle_detect_lines(doc: Document, threshold: float = 0.4) -> list[tuple[int, tuple[int, ...]]]:
    tokens = doc.tokens
    n = len(tokens)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if reference_overlap_ratio(tokens[i].bbox, tokens[j].bbox) >= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    clusters: dict[int, list] = {}
    for i, tok in enumerate(tokens):
        clusters.setdefault(find(i), []).append(tok)
    ordered = sorted(
        clusters.values(),
        key=lambda members: (
            sum((t.bbox.y_min + t.bbox.y_max) / 2.0 for t in members) / len(members),
            min(t.bbox.x_min for t in members),
        ),
    )
    return [
        (index, tuple(t.token_id for t in sorted(members, key=lambda t: (t.bbox.x_min, t.token_id))))
        for index, members in enumerate(ordered)
    ]


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
# Group box oracle: the smallest box over ``boxes``, as a fold of
# two-argument min and max from the first box. Of equal extremes the fold
# keeps the earlier one, which ``repr`` tells apart for 0.0 and -0.0.


def union_bbox(boxes: Iterable[BBox]) -> BBox:
    rest = iter(boxes)
    first = next(rest, None)
    if first is None:
        raise ValueError("union_bbox requires at least one box")
    x_min, y_min, x_max, y_max = first
    for b in rest:
        x_min, y_min = min(x_min, b.x_min), min(y_min, b.y_min)
        x_max, y_max = max(x_max, b.x_max), max(y_max, b.y_max)
    return BBox(x_min, y_min, x_max, y_max)


# --------------------------------------------------------------------------
# Entity resolution oracle: one candidate list per role, the descriptions
# sorted on their own and a separate minimum per scalar role, each by the
# reading-order key written out (top-most, then left-most, then lowest id).


def reference_assign_entities(group: ProductGroup, doc: Document) -> Product:
    def key(tok: Token) -> tuple[float, float, int]:
        return (tok.bbox.y_min, tok.bbox.x_min, tok.token_id)

    descriptions: list[Token] = []
    scalars: dict[EntityLabel, list[Token]] = {label: [] for label in SCALAR_ENTITIES}
    for tid in group.token_ids:
        tok = doc.token(tid)
        if tok.label is DESC:
            descriptions.append(tok)
        elif tok.label in scalars:
            scalars[tok.label].append(tok)
    descriptions.sort(key=key)
    return Product(
        tuple(t.token_id for t in descriptions),
        *(min(found, key=key).token_id if found else None for found in scalars.values()),
    )


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


def oracle_parse_float(text: str, separators: str = ".,") -> float | None:
    s = _oracle_strip(text)
    positions = [i for i, c in enumerate(s) if c in separators]
    if len(positions) != 1:
        return None
    head, tail = s[: positions[0]], s[positions[0] + 1 :]
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


def oracle_corrections(
    pool: list[tuple[int, str]], present: Iterable[EntityLabel] = (), separators: str = ".,"
) -> list[tuple[EntityLabel, int, int | float]]:
    """The three rules composed as stated, on a group's untagged words
    ``pool`` ([(token_id, text)] in reading order): code on the whole pool,
    quantity on what the code left, price on what both left, each skipped
    when the group holds its entity in ``present``. Both guards compare
    with the integers of the whole pool. Returns (entity, token_id, value)
    per firing."""
    original_ints = [v for _, s in pool if (v := oracle_parse_int(s)) is not None]
    out: list[tuple[EntityLabel, int, int | float]] = []

    ints = [(tid, v) for tid, s in pool if (v := oracle_parse_int(s)) is not None]
    if CODE not in present and ints:
        largest = max(v for _, v in ints)
        if original_ints and largest > min(original_ints):
            tid = next(t for t, v in ints if v == largest)
            out.append((CODE, tid, largest))
            pool = [(t, s) for t, s in pool if t != tid]

    ints = [(tid, v) for tid, s in pool if (v := oracle_parse_int(s)) is not None]
    if QTY not in present and ints:
        smallest = min(v for _, v in ints)
        if original_ints and smallest < max(original_ints):
            tid = next(t for t, v in ints if v == smallest)
            out.append((QTY, tid, smallest))
            pool = [(t, s) for t, s in pool if t != tid]

    floats = [(tid, v) for tid, s in pool if (v := oracle_parse_float(s, separators)) is not None]
    if PRICE not in present and floats:
        largest = max(v for _, v in floats)
        tid = next(t for t, v in floats if v == largest)
        out.append((PRICE, tid, largest))
    return out


# --------------------------------------------------------------------------
# Numeric lexer reference: ``corrections._split_number`` in its plain form,
# stripping one character at a time and scanning every character of a text
# that is not all digits.

_DIGITS = frozenset("0123456789")


def reference_split_number(
    text: str, strip_chars: str, decimal_separators: str
) -> tuple[str, str | None] | None:
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
    sep_positions = [i for i, ch in enumerate(s) if ch in decimal_separators]
    if len(sep_positions) != 1:
        return None
    int_part, frac_part = s[: sep_positions[0]], s[sep_positions[0] + 1 :]
    if not frac_part or not _DIGITS.issuperset(frac_part) or not _DIGITS.issuperset(int_part):
        return None
    return int_part, frac_part


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
    separators: str = ".,",
    price_band_min_x: float = 0.65,
    quantity_band: tuple[float, float] = (0.45, 0.70),
    max_quantity: int = 99,
    min_code_length: int = 5,
) -> EntityLabel:
    s = _strip_currency_signs(text)
    positions = [i for i, c in enumerate(s) if c in separators]
    is_decimal = False
    if len(positions) == 1:
        head, tail = s[: positions[0]], s[positions[0] + 1 :]
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


# --------------------------------------------------------------------------
# Result writer reference: the result payload as plain dicts and lists, for
# ``canonical_json`` to write. ``serialize_result`` must give the same text.


def _bbox_payload(bbox: BBox) -> dict[str, float]:
    return {"x_min": bbox.x_min, "y_min": bbox.y_min, "x_max": bbox.x_max, "y_max": bbox.y_max}


def reference_result_payload(doc: Document, groups: Sequence[ProductGroup]) -> dict[str, Any]:
    token_objs = []
    for tok in doc.tokens:
        obj: dict[str, Any] = {
            "token_id": tok.token_id,
            "text": tok.text,
            "bbox": _bbox_payload(tok.bbox),
            "label": tok.label.value,
        }
        if tok.source is not None:
            obj["source"] = tok.source.value
        if tok.confidence is not None:
            obj["confidence"] = tok.confidence
        token_objs.append(obj)

    product_objs = []
    for group in groups:
        product = reference_assign_entities(group, doc)
        entities: dict[str, Any] = {"description": list(product.description_ids)}
        corrected: list[str] = []
        for label, tid in zip(SCALAR_ENTITIES, product.scalar_ids()):
            if tid is None:
                continue
            entities[label.value] = tid
            if doc.token(tid).source is LabelSource.CORRECTION:
                corrected.append(label.value)
        product_objs.append(
            {
                "group_id": group.group_id,
                "line_indices": list(group.line_indices),
                "token_ids": list(group.token_ids),
                "bbox": _bbox_payload(group.bbox),
                "incomplete": group.incomplete,
                "entities": entities,
                "corrected": corrected,
            }
        )

    return {
        "doc_id": doc.doc_id,
        "page": {"width": doc.page_width, "height": doc.page_height},
        "tokens": token_objs,
        "products": product_objs,
    }


# --------------------------------------------------------------------------
# OCR reader reference: every vertex checked for shape, converted to float
# and then compared with the page, one coordinate at a time.


def reference_parse_ocr(data: bytes | str) -> Document:
    raw = _load_object(data)
    doc_id = _doc_id(raw)
    width, height = _page_dims(_require(raw, "page", "top level"))

    tokens: list[Token] = []
    for where, word in _records(raw, "words", "word"):
        text = _text(word, where)
        polygon = _require(word, "polygon", where)
        if not isinstance(polygon, list) or len(polygon) < 3:
            raise SchemaError(f"{where}: polygon needs at least 3 vertices")
        xs: list[float] = []
        ys: list[float] = []
        for j, vertex in enumerate(polygon):
            if not isinstance(vertex, list) or len(vertex) != 2 or not all(map(_is_number, vertex)):
                raise SchemaError(f"{where}: vertex {j} must be an [x, y] number pair")
            try:
                x, y = float(vertex[0]), float(vertex[1])
            except OverflowError:
                raise SchemaError(f"{where}: vertex {j} outside the {width}x{height} page") from None
            if not (0 <= x <= width) or not (0 <= y <= height):
                raise SchemaError(
                    f"{where}: vertex {j} ({x}, {y}) outside the {width}x{height} page"
                )
            xs.append(x)
            ys.append(y)
        _confidence(word, where)  # checked, not kept
        bbox = BBox(min(xs) / width, min(ys) / height, max(xs) / width, max(ys) / height)
        tokens.append(Token(token_id=len(tokens), text=text, bbox=bbox))
    return Document(doc_id=doc_id, tokens=tuple(tokens), page_width=width, page_height=height)


# --------------------------------------------------------------------------
# Decode reference: the references above chained as ``decode`` runs its
# stages on one OCR file. Labels come from the document's ``.pred.json`` in
# ``pred_dir``, read literally, or from the heuristic tagger's oracle.


def reference_import_labels(doc: Document, data: bytes) -> Document:
    labels = {entry["token_id"]: entry for entry in json.loads(data)["labels"]}
    tokens = []
    for tok in doc.tokens:
        entry = labels.get(tok.token_id)
        if entry is None:
            tokens.append(Token(tok.token_id, tok.text, tok.bbox))
            continue
        confidence = entry.get("confidence")
        tokens.append(
            Token(
                tok.token_id, tok.text, tok.bbox, EntityLabel(entry["label"]), LabelSource.MODEL,
                None if confidence is None else float(confidence),
            )
        )
    return Document(doc.doc_id, tuple(tokens), doc.page_width, doc.page_height)


def reference_heuristic_tag(doc: Document, separators: str) -> Document:
    tokens = []
    for tok in doc.tokens:
        label = oracle_heuristic_label(tok.text, tok.bbox.x_min, separators)
        source = None if label is EntityLabel.UNTAGGED else LabelSource.HEURISTIC
        tokens.append(Token(tok.token_id, tok.text, tok.bbox, label, source))
    return Document(doc.doc_id, tuple(tokens), doc.page_width, doc.page_height)


def reference_decode(
    ocr: bytes,
    pred_dir: Path | None = None,
    *,
    corrections: bool = True,
    separators: str = ".,",
    threshold: float = 0.4,
) -> tuple[str, list[str]]:
    """The result text of one OCR file and its lines of the corrections
    audit, each ending in a newline."""
    doc = reference_parse_ocr(ocr)
    if pred_dir is None:
        doc = reference_heuristic_tag(doc, separators)
    else:
        doc = reference_import_labels(doc, (pred_dir / f"{doc.doc_id}.pred.json").read_bytes())

    lines = [ids for _, ids in oracle_detect_lines(doc, threshold)]
    tokens = list(doc.tokens)
    groups = []
    for members, incomplete in literal_grouping([{tokens[t].label for t in ids} for ids in lines]):
        token_ids = tuple(t for m in members for t in lines[m])
        bbox = union_bbox(tokens[t].bbox for t in token_ids)
        groups.append(ProductGroup(len(groups), members, token_ids, bbox, incomplete))

    audit = []
    for group in groups if corrections else ():
        members = [tokens[t] for t in group.token_ids]
        pool = sorted(
            (t for t in members if t.label is EntityLabel.UNTAGGED),
            key=lambda t: (t.bbox.y_min, t.bbox.x_min, t.token_id),
        )
        firings = oracle_corrections(
            [(t.token_id, t.text) for t in pool], {t.label for t in members}, separators
        )
        for entity, tid, value in firings:
            tok = tokens[tid]
            tokens[tid] = Token(tid, tok.text, tok.bbox, entity, LabelSource.CORRECTION)
            record = {"doc_id": doc.doc_id, "group_id": group.group_id, "entity": entity.value,
                      "token_id": tid, "parsed_value": value}
            audit.append(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
    doc = Document(doc.doc_id, tuple(tokens), doc.page_width, doc.page_height)
    return canonical_json(reference_result_payload(doc, groups)), audit


# --------------------------------------------------------------------------
# Result reader reference: every token and every product through the
# field-by-field checks, in the order they run, with no inline test.


def reference_parse_result(data: bytes | str) -> tuple[Document, tuple[ProductGroup, ...]]:
    raw = _load_object(data)
    doc_id = _doc_id(raw)
    width, height = _page_dims(_require(raw, "page", "top level"))

    tokens: list[Token] = []
    for where, rt in _records(raw, "tokens", "token"):
        token_id = _require(rt, "token_id", where)
        if type(token_id) is not int:
            raise SchemaError(f"{where}: token_id must be an integer")
        if token_id != len(tokens):
            raise SchemaError(
                f"{where}: token_id {token_id} is duplicated or out of order "
                "(ids must be dense 0..n-1)"
            )
        text = _text(rt, where)
        label = _lookup(_LABELS_BY_VALUE, _require(rt, "label", where), where, "label")
        source = rt.get("source")
        if source is not None:
            source = _lookup(_SOURCES_BY_VALUE, source, where, "label source")
        if (source is None) is not (label is EntityLabel.UNTAGGED):
            raise SchemaError(
                f"{where}: labeled token has no label source"
                if source is None
                else f"{where}: untagged token carries a label source"
            )
        confidence = _confidence(rt, where)
        bbox = _bbox_from_json(_require(rt, "bbox", where), where)
        tokens.append(Token(token_id, text, bbox, label, source, confidence))
    doc = Document(doc_id=doc_id, tokens=tuple(tokens), page_width=width, page_height=height)

    groups: list[ProductGroup] = []
    claimed: dict[int, int] = {}  # token id -> index of the group that holds it
    for where, rp in _records(raw, "products", "product"):
        group_id = _require(rp, "group_id", where)
        line_indices = _require(rp, "line_indices", where)
        token_ids = _require(rp, "token_ids", where)
        incomplete = rp.get("incomplete", False)
        if type(group_id) is not int:
            raise SchemaError(f"{where}: group_id must be an integer")
        for name, ids in (("line_indices", line_indices), ("token_ids", token_ids)):
            if not isinstance(ids, list) or not all(type(v) is int for v in ids):
                raise SchemaError(f"{where}: {name} must be a list of integers")
        if line_indices != sorted(set(line_indices)) or (line_indices and line_indices[0] < 0):
            raise SchemaError(
                f"{where}: line_indices must be non-negative and increasing, got {line_indices}"
            )
        if not isinstance(incomplete, bool):
            raise SchemaError(f"{where}: incomplete must be a boolean")
        group = ProductGroup(
            group_id=group_id,
            line_indices=tuple(line_indices),
            token_ids=tuple(_token_id(tid, where, "token_ids", len(tokens)) for tid in token_ids),
            bbox=_bbox_from_json(_require(rp, "bbox", where), where),
            incomplete=incomplete,
        )
        _claim(claimed, group.token_ids, len(groups), where)
        groups.append(group)
    return doc, tuple(groups)


# --------------------------------------------------------------------------
# Ground-truth reader reference: every product through the named checks,
# in the order they run, with no inline test.


def reference_parse_ground_truth(data: bytes | str, doc: Document) -> tuple[Product, ...]:
    raw = _load_object(data)
    _check_doc_id(raw, doc, "ground truth is")

    n_tokens = len(doc.tokens)
    claimed: dict[int, int] = {}  # token id -> product index that owns it
    products: list[Product] = []
    for where, rp in _records(raw, "products", "product"):
        raw_desc = _require(rp, "description_ids", where)
        if not isinstance(raw_desc, list) or not raw_desc:
            raise SchemaError(f"{where}: description_ids must be a non-empty list")
        product = Product(
            tuple(_token_id(tid, where, "description_ids", n_tokens) for tid in raw_desc),
            *[
                None if rp.get(key) is None else _token_id(rp[key], where, key, n_tokens)
                for key in _SCALAR_KEYS
            ],
        )
        _claim(claimed, [tid for tid, _ in product.labeled_ids()], len(products), where)
        products.append(product)
    return tuple(products)


# --------------------------------------------------------------------------
# Scorer references: the per-label set comprehensions and the sorted claim
# lists that ``evaluation`` used before it counted in one pass. Text is
# compared in NFC form, as ``MatchMode.STRICT_OCR`` asks.


def _reference_texts_match(pred_doc: Document, truth_doc: Document, token_id: int) -> bool:
    return unicodedata.normalize("NFC", pred_doc.token(token_id).text) == unicodedata.normalize(
        "NFC", truth_doc.token(token_id).text
    )


def reference_score_entities(predictions, truth, mode: MatchMode) -> dict[EntityLabel, EntityCounts]:
    totals = {label: EntityCounts() for label in ENTITY_ORDER}
    for doc_id in sorted(truth):
        pred_doc = predictions[doc_id]
        truth_doc, products = truth[doc_id]
        truth_labels = {tid: label for p in products for tid, label in p.labeled_ids()}
        pred_labels = {
            tok.token_id: tok.label for tok in pred_doc.tokens if tok.is_tagged
        }
        for label in ENTITY_ORDER:
            truth_ids = {tid for tid, lab in truth_labels.items() if lab is label}
            pred_ids = {tid for tid, lab in pred_labels.items() if lab is label}
            tp = 0
            for tid in truth_ids & pred_ids:
                if mode is MatchMode.STRICT_OCR and not _reference_texts_match(
                    pred_doc, truth_doc, tid
                ):
                    continue
                tp += 1
            counts = EntityCounts(
                tp=tp, fp=len(pred_ids) - tp, fn=len(truth_ids) - tp
            )
            totals[label] = totals[label] + counts
    return totals


def _reference_product_matches(
    predicted: Product, truth: Product, pred_doc: Document, truth_doc: Document, mode: MatchMode
) -> bool:
    if predicted.scalar_ids() != truth.scalar_ids():
        return False
    if set(predicted.description_ids) != set(truth.description_ids):
        return False
    if mode is MatchMode.STRICT_OCR:
        return all(
            _reference_texts_match(pred_doc, truth_doc, tid) for tid, _ in truth.labeled_ids()
        )
    return True


def reference_score_whole_products(predictions, truth, mode: MatchMode) -> EntityCounts:
    total = EntityCounts()
    for doc_id in sorted(truth):
        pred = predictions[doc_id]
        truth_doc, products = truth[doc_id]

        # Which truth product does each group claim?
        claims: dict[int, list[tuple[int, int]]] = {}  # product idx -> [(overlap, group pos)]
        for pos, assignment in enumerate(pred.assignments):
            desc = set(assignment.description_ids)
            if not desc:
                continue
            for pi, product in enumerate(products):
                overlap = len(desc & set(product.description_ids))
                if overlap * 2 > len(desc):
                    claims.setdefault(pi, []).append((overlap, pos))
                    break  # a strict majority is unique

        tp = 0
        matched_groups: set[int] = set()
        matched_products: set[int] = set()
        for pi, claimants in claims.items():
            # Larger overlap wins; ties go to the smaller group id.
            claimants.sort(key=lambda c: (-c[0], pred.groups[c[1]].group_id))
            _, pos = claimants[0]
            if _reference_product_matches(
                pred.assignments[pos], products[pi], pred.document, truth_doc, mode
            ):
                tp += 1
                matched_groups.add(pos)
                matched_products.add(pi)

        fp = len(pred.assignments) - len(matched_groups)
        fn = len(products) - len(matched_products)
        total = total + EntityCounts(tp=tp, fp=fp, fn=fn)
    return total
