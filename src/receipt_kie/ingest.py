"""Reading and writing the package's three JSON file formats.

* OCR input: ``{"doc_id", "page": {"width", "height"}, "words": [...]}``
  where each word carries a ``text`` and a pixel-coordinate ``polygon``.
* Ground truth: per-document product annotations referencing token ids.
* Results: a decoded document echo plus its product groups.

Parsers are strict — malformed input raises one of the exception types in
:mod:`receipt_kie.errors` naming the offending record — but unknown JSON
fields are ignored so files produced by newer writers still load. Writers
never emit fields outside the documented schema, and serialization is
deterministic (sorted keys) so identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
import sys
import unicodedata
from typing import Any, Mapping, Sequence

from .errors import MalformedJsonError, SchemaError, TokenReferenceError
from .model import (
    SCALAR_ENTITIES,
    BBox,
    Document,
    EntityLabel,
    LabelSource,
    Product,
    ProductGroup,
    Token,
)


def normalize_text(text: str) -> str:
    """Unicode NFC normalization, the canonical form for text comparison."""
    return unicodedata.normalize("NFC", text)


def _loads(data: bytes | str) -> Any:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedJsonError("input is not valid UTF-8", e.start) from e
    else:
        text = data
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        offset = len(text[: e.pos].encode("utf-8"))
        raise MalformedJsonError(e.msg, offset) from e
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise MalformedJsonError("integer literal has too many digits", 0) from e
    except RecursionError as e:
        raise MalformedJsonError("arrays or objects nested too deeply", 0) from e


def _require(obj: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return obj[key]


def _page_dims(raw: Any) -> tuple[int, int]:
    if not isinstance(raw, dict):
        raise SchemaError("page: expected an object with width and height")
    width = _require(raw, "width", "page")
    height = _require(raw, "height", "page")
    for name, value in (("width", width), ("height", height)):
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise SchemaError(f"page.{name}: expected a positive integer, got {value!r}")
        if value > sys.float_info.max:  # coordinates are divided by it as floats
            raise SchemaError(f"page.{name}: too large for a page size")
    return width, height


def _confidence(obj: Mapping[str, Any], where: str) -> float | None:
    """The optional ``confidence`` field of ``obj``: a number in [0, 1]."""
    value = obj.get("confidence")
    if value is None:
        return None
    # JSON numbers decode to exactly int or float; a bool is neither.
    if type(value) is not float and type(value) is not int:
        raise SchemaError(f"{where}: confidence must be a number")
    # Compared before conversion, so a huge integer cannot overflow; NaN fails.
    if not 0 <= value <= 1:
        raise SchemaError(f"{where}: confidence {value} outside [0, 1]")
    return float(value)


def parse_ocr(data: bytes | str) -> Document:
    """Parse an OCR dump into a Document with all tokens untagged.

    Pixel polygons are collapsed to their axis-aligned envelope and
    normalized by the page dimensions, so token boxes land in the unit
    square (top-left origin, y down). Any coordinate outside the page is
    a schema error naming the word index. The doc id must be usable as a
    file name: not empty, ``.`` or ``..``, and free of ``/``, ``\\`` and
    NUL.
    """
    raw = _loads(data)
    if not isinstance(raw, dict):
        raise SchemaError("top level: expected a JSON object")
    doc_id = _require(raw, "doc_id", "top level")
    # Results are written to <doc_id>.result.json: the id must name a file.
    if (
        not isinstance(doc_id, str)
        or doc_id in ("", ".", "..")
        or "/" in doc_id
        or "\\" in doc_id
        or "\0" in doc_id
    ):
        raise SchemaError(f"doc_id: expected a plain file name, got {doc_id!r}")
    width, height = _page_dims(_require(raw, "page", "top level"))
    words = _require(raw, "words", "top level")
    if not isinstance(words, list):
        raise SchemaError("words: expected a list")

    tokens: list[Token] = []
    for i, word in enumerate(words):
        where = f"word {i}"
        if not isinstance(word, dict):
            raise SchemaError(f"{where}: expected an object")
        text = _require(word, "text", where)
        if not isinstance(text, str) or not text:
            raise SchemaError(f"{where}: text must be a non-empty string")
        polygon = _require(word, "polygon", where)
        if not isinstance(polygon, list) or len(polygon) < 3:
            raise SchemaError(f"{where}: polygon needs at least 3 vertices")
        xs: list[float] = []
        ys: list[float] = []
        for j, vertex in enumerate(polygon):
            if (
                not isinstance(vertex, (list, tuple))
                or len(vertex) != 2
                or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in vertex)
            ):
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
        tokens.append(Token(token_id=i, text=text, bbox=bbox, confidence=confidence))
    return Document(doc_id=doc_id, tokens=tuple(tokens), page_width=width, page_height=height)


# The ground-truth field of each scalar entity, in SCALAR_ENTITIES order.
_SCALAR_KEYS = tuple(f"{label.value}_id" for label in SCALAR_ENTITIES)


def _optional_token_id(
    product: Mapping[str, Any], key: str, where: str, valid_ids: frozenset[int]
) -> int | None:
    value = product.get(key)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{where}: {key} must be an integer token id")
    if value not in valid_ids:
        raise TokenReferenceError(f"{where}: {key} references unknown token id {value}")
    return value


def parse_ground_truth(data: bytes | str, doc: Document) -> tuple[Product, ...]:
    """Parse a ground-truth annotation file against its document.

    All referenced token ids must exist in ``doc`` and no id may belong to
    two products.
    """
    raw = _loads(data)
    if not isinstance(raw, dict):
        raise SchemaError("top level: expected a JSON object")
    doc_id = _require(raw, "doc_id", "top level")
    if doc_id != doc.doc_id:
        raise TokenReferenceError(
            f"ground truth is for doc_id {doc_id!r} but the document is {doc.doc_id!r}"
        )
    raw_products = _require(raw, "products", "top level")
    if not isinstance(raw_products, list):
        raise SchemaError("products: expected a list")

    valid_ids = frozenset(t.token_id for t in doc.tokens)
    claimed: dict[int, int] = {}  # token id -> product index that owns it
    products: list[Product] = []
    for pi, rp in enumerate(raw_products):
        where = f"product {pi}"
        if not isinstance(rp, dict):
            raise SchemaError(f"{where}: expected an object")
        raw_desc = _require(rp, "description_ids", where)
        if not isinstance(raw_desc, list) or not raw_desc:
            raise SchemaError(f"{where}: description_ids must be a non-empty list")
        desc_ids: list[int] = []
        for tid in raw_desc:
            if not isinstance(tid, int) or isinstance(tid, bool):
                raise SchemaError(f"{where}: description_ids entries must be integers")
            if tid not in valid_ids:
                raise TokenReferenceError(
                    f"{where}: description_ids references unknown token id {tid}"
                )
            desc_ids.append(tid)
        product = Product(
            tuple(desc_ids),
            *[_optional_token_id(rp, key, where, valid_ids) for key in _SCALAR_KEYS],
        )
        for tid, _ in product.labeled_ids():
            if tid in claimed:
                raise SchemaError(
                    f"{where}: token id {tid} already belongs to product {claimed[tid]}"
                )
            claimed[tid] = pi
        products.append(product)
    return tuple(products)


def apply_truth_labels(
    doc: Document,
    products: Sequence[Product],
    source: LabelSource = LabelSource.GROUND_TRUTH,
) -> Document:
    """Return a copy of ``doc`` labeled according to ``products``.

    Tokens not referenced by any product come back untagged; pre-existing
    labels are discarded. Useful both for building the truth side of an
    evaluation and for simulating a perfect tagger (``source=MODEL``).
    """
    labels: dict[int, EntityLabel] = {}

    def _claim(tid: int, label: EntityLabel) -> None:
        if tid in labels and labels[tid] is not label:
            raise ValueError(f"token {tid} assigned both {labels[tid].value} and {label.value}")
        labels[tid] = label

    for product in products:
        for tid, label in product.labeled_ids():
            _claim(tid, label)

    tokens = []
    for tok in doc.tokens:
        label = labels.get(tok.token_id)
        if label is None:
            tokens.append(
                Token(tok.token_id, tok.text, tok.bbox, EntityLabel.UNTAGGED, None, None)
            )
        else:
            tokens.append(Token(tok.token_id, tok.text, tok.bbox, label, source, None))
    return doc.with_tokens(tokens)


def _bbox_to_json(bbox: BBox) -> dict[str, float]:
    return {
        "x_min": bbox.x_min,
        "y_min": bbox.y_min,
        "x_max": bbox.x_max,
        "y_max": bbox.y_max,
    }


def _bbox_from_json(raw: Any, where: str) -> BBox:
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: bbox must be an object")
    coords = []
    for key in ("x_min", "y_min", "x_max", "y_max"):
        value = _require(raw, key, where)
        # JSON numbers decode to exactly int or float; a bool is neither.
        if type(value) is not float and type(value) is not int:
            raise SchemaError(f"{where}: bbox.{key} must be a number")
        try:
            coords.append(float(value))
        except OverflowError:
            raise SchemaError(f"{where}: bbox.{key} is not within the unit page") from None
    bbox = BBox(*coords)
    # Also rejects NaN and infinities, which the JSON reader accepts.
    if not bbox.is_valid():
        raise SchemaError(f"{where}: bbox {coords} is not a box within the unit page")
    return bbox


def serialize_result(doc: Document, groups: Sequence[ProductGroup]) -> str:
    """Serialize a decoded document and its product groups to JSON.

    The output echoes the full document (so a result file is
    self-contained) and, per group, both the raw membership and the
    resolved entity assignment. ``corrected`` lists which of the group's
    entities were filled in by a correction rule.
    """
    # Imported here: layout depends on the model only, but pulling it at
    # module import time would make ingest <-> layout ordering brittle.
    from .layout import assign_entities

    token_objs = []
    for tok in doc.tokens:
        obj: dict[str, Any] = {
            "token_id": tok.token_id,
            "text": tok.text,
            "bbox": _bbox_to_json(tok.bbox),
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
                "bbox": _bbox_to_json(group.bbox),
                "incomplete": group.incomplete,
                "entities": entities,
                "corrected": corrected,
            }
        )

    payload = {
        "doc_id": doc.doc_id,
        "page": {"width": doc.page_width, "height": doc.page_height},
        "tokens": token_objs,
        "products": product_objs,
    }
    return canonical_json(payload)


_LABELS_BY_VALUE = {label.value: label for label in EntityLabel}
_SOURCES_BY_VALUE = {source.value: source for source in LabelSource}


def parse_result(data: bytes | str) -> tuple[Document, tuple[ProductGroup, ...]]:
    """Inverse of :func:`serialize_result`.

    Round-trips exactly: ``parse_result(serialize_result(doc, groups))``
    reproduces both the document and the groups field for field. The
    derived ``entities``/``corrected`` fields are ignored on read. Token
    ids must be dense ``0..n-1`` in file order, as every writer emits them.
    """
    raw = _loads(data)
    if not isinstance(raw, dict):
        raise SchemaError("top level: expected a JSON object")
    doc_id = _require(raw, "doc_id", "top level")
    if not isinstance(doc_id, str) or not doc_id:
        raise SchemaError("doc_id: expected a non-empty string")
    width, height = _page_dims(_require(raw, "page", "top level"))
    raw_tokens = _require(raw, "tokens", "top level")
    if not isinstance(raw_tokens, list):
        raise SchemaError("tokens: expected a list")

    tokens: list[Token] = []
    for i, rt in enumerate(raw_tokens):
        where = f"token {i}"
        if not isinstance(rt, dict):
            raise SchemaError(f"{where}: expected an object")
        token_id = _require(rt, "token_id", where)
        if not isinstance(token_id, int) or isinstance(token_id, bool):
            raise SchemaError(f"{where}: token_id must be an integer")
        if token_id != i:
            raise SchemaError(
                f"{where}: token_id {token_id} is duplicated or out of order "
                "(ids must be dense 0..n-1)"
            )
        text = _require(rt, "text", where)
        if not isinstance(text, str) or not text:
            raise SchemaError(f"{where}: text must be a non-empty string")
        label_raw = _require(rt, "label", where)
        if not isinstance(label_raw, str) or label_raw not in _LABELS_BY_VALUE:
            raise SchemaError(f"{where}: unknown label {label_raw!r}")
        source_raw = rt.get("source")
        if source_raw is not None and (
            not isinstance(source_raw, str) or source_raw not in _SOURCES_BY_VALUE
        ):
            raise SchemaError(f"{where}: unknown label source {source_raw!r}")
        confidence = _confidence(rt, where)
        tokens.append(
            Token(
                token_id=token_id,
                text=text,
                bbox=_bbox_from_json(_require(rt, "bbox", where), where),
                label=_LABELS_BY_VALUE[label_raw],
                source=_SOURCES_BY_VALUE[source_raw] if source_raw is not None else None,
                confidence=confidence,
            )
        )
    doc = Document(doc_id=doc_id, tokens=tuple(tokens), page_width=width, page_height=height)

    raw_products = _require(raw, "products", "top level")
    if not isinstance(raw_products, list):
        raise SchemaError("products: expected a list")
    groups: list[ProductGroup] = []
    for gi, rp in enumerate(raw_products):
        where = f"product {gi}"
        if not isinstance(rp, dict):
            raise SchemaError(f"{where}: expected an object")
        group_id = _require(rp, "group_id", where)
        line_indices = _require(rp, "line_indices", where)
        token_ids = _require(rp, "token_ids", where)
        incomplete = rp.get("incomplete", False)
        if not isinstance(group_id, int) or isinstance(group_id, bool):
            raise SchemaError(f"{where}: group_id must be an integer")
        for name, ids in (("line_indices", line_indices), ("token_ids", token_ids)):
            if not isinstance(ids, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in ids
            ):
                raise SchemaError(f"{where}: {name} must be a list of integers")
        if line_indices != sorted(set(line_indices)) or (line_indices and line_indices[0] < 0):
            raise SchemaError(
                f"{where}: line_indices must be non-negative and increasing, got {line_indices}"
            )
        if not isinstance(incomplete, bool):
            raise SchemaError(f"{where}: incomplete must be a boolean")
        for tid in token_ids:
            if not 0 <= tid < len(tokens):
                raise TokenReferenceError(f"{where}: token_ids references unknown token id {tid}")
        groups.append(
            ProductGroup(
                group_id=group_id,
                line_indices=tuple(line_indices),
                token_ids=tuple(token_ids),
                bbox=_bbox_from_json(_require(rp, "bbox", where), where),
                incomplete=incomplete,
            )
        )
    return doc, tuple(groups)


def canonical_json(payload: Any) -> str:
    """The package-wide JSON writer: sorted keys, UTF-8 friendly, stable.

    Every file this package writes goes through here so that identical
    inputs always produce byte-identical outputs.
    """
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, indent=2) + "\n"


def write_ground_truth_json(doc_id: str, products: Sequence[Product]) -> str:
    """Serialize ground-truth products to the annotation schema."""
    objs = []
    for product in products:
        obj: dict[str, Any] = {"description_ids": list(product.description_ids)}
        for key, tid in zip(_SCALAR_KEYS, product.scalar_ids()):
            if tid is not None:
                obj[key] = tid
        objs.append(obj)
    return canonical_json({"doc_id": doc_id, "products": objs})
