"""Independent reference implementations used as test oracles.

Everything here is written from the rules as stated, in the most literal
way possible, with no code shared with the package — the point is that a
bug would have to be made twice, in two different shapes, to go unseen.
The file-format and scorer references at the end are the exception: each
keeps an earlier, plainer version of one step of the package and shares
the rest (field checks, entity resolution, the count type) with it.
"""

from __future__ import annotations

import unicodedata
from typing import Any, Sequence

from receipt_kie.errors import SchemaError
from receipt_kie.evaluation import EntityCounts, MatchMode
from receipt_kie.ingest import (
    _confidence,
    _doc_id,
    _is_number,
    _load_object,
    _page_dims,
    _records,
    _require,
    _text,
)
from receipt_kie.layout import assign_entities
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

    def overlap_ratio(a, b) -> float:
        intersection = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
        if intersection < 0.0:
            return 0.0
        shorter = min(a.y_max - a.y_min, b.y_max - b.y_min)
        if shorter <= 0.0:
            return 1.0
        return min(1.0, intersection / shorter)

    for i in range(n):
        for j in range(i + 1, n):
            if overlap_ratio(tokens[i].bbox, tokens[j].bbox) >= threshold:
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
        product = assign_entities(group, doc)
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
        confidence = _confidence(word, where)
        bbox = BBox(min(xs) / width, min(ys) / height, max(xs) / width, max(ys) / height)
        tokens.append(Token(token_id=len(tokens), text=text, bbox=bbox, confidence=confidence))
    return Document(doc_id=doc_id, tokens=tuple(tokens), page_width=width, page_height=height)


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
