"""Reading and writing the package's four JSON file formats.

* OCR input: ``{"doc_id", "page": {"width", "height"}, "words": [...]}``
  where each word carries a ``text`` and a pixel-coordinate ``polygon``.
* Ground truth: per-document product annotations referencing token ids.
* Predictions: a model's token labels, ``{"doc_id", "labels": [...]}``.
* Results: a decoded document echo plus its product groups.

Parsers are strict — malformed input raises one of the exception types in
:mod:`receipt_kie.errors` naming the offending record — but unknown JSON
fields are ignored so files produced by newer writers still load. All four
readers share one set of field checks. Writers never emit fields outside
the documented schema, and every file is written in one canonical form
(sorted keys, two-space indent, non-ASCII kept) so identical inputs
produce identical bytes. :func:`canonical_json` writes that form for any
payload. :func:`serialize_result`, the one writer on the decode path,
writes the result schema's canonical text itself, without building a
payload; a test checks it byte for byte against :func:`canonical_json`
of the payload it stands for.
"""

from __future__ import annotations

import json
import sys
import unicodedata
from json.encoder import encode_basestring as _quote
from typing import Any, Iterator, Mapping, Sequence

# layout.assign_entities is looked up at each call, not bound at import:
# perfbench counts decode's calls by wrapping it in the layout module.
from . import layout
from .errors import LabelConflictError, MalformedJsonError, SchemaError, TokenReferenceError
from .model import (
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


def normalize_text(text: str) -> str:
    """Unicode NFC normalization, the canonical form for text comparison."""
    return unicodedata.normalize("NFC", text)


def _load_object(data: bytes | str) -> dict[str, Any]:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise MalformedJsonError("input is not valid UTF-8", e.start) from e
    else:
        text = data
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        offset = len(text[: e.pos].encode("utf-8"))
        raise MalformedJsonError(e.msg, offset) from e
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise MalformedJsonError("integer literal has too many digits", 0) from e
    except RecursionError as e:
        raise MalformedJsonError("arrays or objects nested too deeply", 0) from e
    if not isinstance(raw, dict):
        raise SchemaError("top level: expected a JSON object")
    return raw


def _require(obj: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return obj[key]


def _records(raw: Mapping[str, Any], key: str, noun: str) -> Iterator[tuple[str, dict[str, Any]]]:
    """Walk the required top-level list ``key``: yield each record, which
    must be an object, with its location ``"<noun> <index>"``."""
    items = _require(raw, key, "top level")
    if not isinstance(items, list):
        raise SchemaError(f"{key}: expected a list")
    for i, obj in enumerate(items):
        where = f"{noun} {i}"
        if not isinstance(obj, dict):
            raise SchemaError(f"{where}: expected an object")
        yield where, obj


# JSON numbers decode to exactly int or float; a bool is neither.
_NUMBER_TYPES = frozenset((int, float))
_INF = float("inf")


def _is_number(value: Any) -> bool:
    return type(value) in _NUMBER_TYPES


def _check_utf8(value: str, what: str) -> None:
    """Reject a lone surrogate (a JSON ``\\ud800`` escape gives one), which
    UTF-8 cannot encode. Callers skip the test for ASCII strings."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError as e:
        raise SchemaError(f"{what} {value!r} has a lone surrogate at index {e.start}") from None


def _text(obj: Mapping[str, Any], where: str) -> str:
    text = _require(obj, "text", where)
    if not isinstance(text, str) or not text:
        raise SchemaError(f"{where}: text must be a non-empty string")
    if not text.isascii():
        _check_utf8(text, f"{where}: text")
    return text


def _lookup(table: Mapping[str, Any], value: Any, where: str, what: str) -> Any:
    """The entry of ``table`` named by the JSON string ``value``."""
    if not isinstance(value, str) or value not in table:
        raise SchemaError(f"{where}: unknown {what} {value!r}")
    return table[value]


def _doc_id(raw: Mapping[str, Any]) -> str:
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
    if not doc_id.isascii():
        _check_utf8(doc_id, "doc_id")
    return doc_id


def _check_doc_id(raw: Mapping[str, Any], doc: Document, what: str) -> None:
    doc_id = _require(raw, "doc_id", "top level")
    if doc_id != doc.doc_id:
        raise TokenReferenceError(
            f"{what} for doc_id {doc_id!r} but the document is {doc.doc_id!r}"
        )


def _page_dims(raw: Any) -> tuple[int, int]:
    if not isinstance(raw, dict):
        raise SchemaError("page: expected an object with width and height")
    width = _require(raw, "width", "page")
    height = _require(raw, "height", "page")
    for name, value in (("width", width), ("height", height)):
        if type(value) is not int or value <= 0:
            raise SchemaError(f"page.{name}: expected a positive integer, got {value!r}")
        if value > sys.float_info.max:  # coordinates are divided by it as floats
            raise SchemaError(f"page.{name}: too large for a page size")
    return width, height


def _confidence(obj: Mapping[str, Any], where: str) -> float | None:
    """The optional ``confidence`` field of ``obj``: a number in [0, 1]."""
    value = obj.get("confidence")
    if value is None:
        return None
    if not _is_number(value):
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
    NUL. The doc id and every text must be encodable as UTF-8.
    """
    raw = _load_object(data)
    doc_id = _doc_id(raw)
    width, height = _page_dims(_require(raw, "page", "top level"))
    # Coordinates are compared with the page size before any conversion, so
    # a huge integer cannot overflow. Below 2**53 that exact test decides as
    # the test of the coordinate's float does; on a larger page every vertex
    # takes the float test.
    exact = width < 2**53 and height < 2**53

    tokens: list[Token] = []
    for where, word in _records(raw, "words", "word"):
        text = _text(word, where)
        polygon = _require(word, "polygon", where)
        if not isinstance(polygon, list) or len(polygon) < 3:
            raise SchemaError(f"{where}: polygon needs at least 3 vertices")
        # The envelope is taken as the vertices are checked. Strict tests keep
        # the first of equal extremes, as min and max do (0 against -0.0).
        x_min = y_min = _INF
        x_max = y_max = -_INF
        for j, vertex in enumerate(polygon):
            if (
                type(vertex) is not list
                or len(vertex) != 2
                or type(vertex[0]) not in _NUMBER_TYPES
                or type(vertex[1]) not in _NUMBER_TYPES
            ):
                raise SchemaError(f"{where}: vertex {j} must be an [x, y] number pair")
            x, y = vertex
            if not (exact and 0 <= x <= width and 0 <= y <= height):
                try:
                    fx, fy = float(x), float(y)
                except OverflowError:
                    raise SchemaError(f"{where}: vertex {j} outside the {width}x{height} page") from None
                if not (0 <= fx <= width) or not (0 <= fy <= height):
                    raise SchemaError(
                        f"{where}: vertex {j} ({fx}, {fy}) outside the {width}x{height} page"
                    )
            if x < x_min:
                x_min = x
            if x > x_max:
                x_max = x
            if y < y_min:
                y_min = y
            if y > y_max:
                y_max = y
        confidence = _confidence(word, where)
        # float is monotone, so the float of the least coordinate is the
        # least of the coordinates' floats.
        bbox = BBox(
            float(x_min) / width,
            float(y_min) / height,
            float(x_max) / width,
            float(y_max) / height,
        )
        tokens.append(Token(len(tokens), text, bbox, EntityLabel.UNTAGGED, None, confidence))
    return Document(doc_id=doc_id, tokens=tuple(tokens), page_width=width, page_height=height)


# The ground-truth field of each scalar entity, in SCALAR_ENTITIES order.
_SCALAR_KEYS = tuple(f"{label.value}_id" for label in SCALAR_ENTITIES)


def _optional_token_id(
    product: Mapping[str, Any], key: str, where: str, n_tokens: int
) -> int | None:
    value = product.get(key)
    if value is None:
        return None
    if type(value) is not int:
        raise SchemaError(f"{where}: {key} must be an integer token id")
    if not 0 <= value < n_tokens:
        raise TokenReferenceError(f"{where}: {key} references unknown token id {value}")
    return value


def parse_ground_truth(data: bytes | str, doc: Document) -> tuple[Product, ...]:
    """Parse a ground-truth annotation file against its document.

    All referenced token ids must exist in ``doc`` (ids are positions) and
    no id may belong to two products.
    """
    raw = _load_object(data)
    _check_doc_id(raw, doc, "ground truth is")

    n_tokens = len(doc.tokens)
    claimed: dict[int, int] = {}  # token id -> product index that owns it
    products: list[Product] = []
    for where, rp in _records(raw, "products", "product"):
        raw_desc = _require(rp, "description_ids", where)
        if not isinstance(raw_desc, list) or not raw_desc:
            raise SchemaError(f"{where}: description_ids must be a non-empty list")
        for tid in raw_desc:
            if type(tid) is not int:
                raise SchemaError(f"{where}: description_ids entries must be integers")
            if not 0 <= tid < n_tokens:
                raise TokenReferenceError(
                    f"{where}: description_ids references unknown token id {tid}"
                )
        product = Product(
            tuple(raw_desc),
            *[_optional_token_id(rp, key, where, n_tokens) for key in _SCALAR_KEYS],
        )
        for tid, _ in product.labeled_ids():
            if tid in claimed:
                raise SchemaError(
                    f"{where}: token id {tid} already belongs to product {claimed[tid]}"
                )
            claimed[tid] = len(products)
        products.append(product)
    return tuple(products)


_IMPORTABLE_LABELS = {label.value: label for label in ENTITY_ORDER}


def import_predictions(doc: Document, data: bytes | str) -> Document:
    """Apply model predictions from a JSON file to ``doc``.

    The file shape is ``{"doc_id", "labels": [{"token_id", "label",
    "confidence"?}]}``. Every referenced token id must exist; a token id
    listed twice with different labels is a conflict (duplicates with the
    same label are tolerated). Tokens the file does not mention come back
    untagged. Imported labels carry ``source=MODEL``.
    """
    raw = _load_object(data)
    _check_doc_id(raw, doc, "predictions are")

    n_tokens = len(doc.tokens)
    assigned: dict[int, tuple[EntityLabel, LabelSource, float | None]] = {}
    for where, entry in _records(raw, "labels", "label"):
        token_id = _require(entry, "token_id", where)
        if type(token_id) is not int:
            raise SchemaError(f"{where}: token_id must be an integer")
        if not 0 <= token_id < n_tokens:
            raise TokenReferenceError(f"{where}: unknown token id {token_id}")
        label = _lookup(_IMPORTABLE_LABELS, _require(entry, "label", where), where, "label")
        confidence = _confidence(entry, where)
        if token_id in assigned and assigned[token_id][0] is not label:
            raise LabelConflictError(
                f"{where}: token id {token_id} labeled both "
                f"{assigned[token_id][0].value!r} and {label.value!r}"
            )
        assigned[token_id] = (label, LabelSource.MODEL, confidence)
    return doc.relabel(assigned)


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
    labels: dict[int, tuple[EntityLabel, LabelSource, None]] = {}
    for product in products:
        for tid, label in product.labeled_ids():
            if tid in labels and labels[tid][0] is not label:
                raise ValueError(
                    f"token {tid} assigned both {labels[tid][0].value} and {label.value}"
                )
            labels[tid] = (label, source, None)
    return doc.relabel(labels)


def _bbox_from_json(raw: Any, where: str) -> BBox:
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: bbox must be an object")
    coords = []
    for key in ("x_min", "y_min", "x_max", "y_max"):
        value = _require(raw, key, where)
        if not _is_number(value):
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


# The JSON string of each label and label source.
_QUOTED = {member: _quote(member.value) for enum in (EntityLabel, LabelSource) for member in enum}


def _box_text(bbox: BBox) -> str:
    # A box is the value of a key six spaces in, in tokens and in products.
    x_min, y_min, x_max, y_max = bbox
    return (
        f'{{\n        "x_max": {x_max!r},\n        "x_min": {x_min!r},\n'
        f'        "y_max": {y_max!r},\n        "y_min": {y_min!r}\n      }}'
    )


def _list_text(items: Sequence[str], indent: str) -> str:
    """The JSON list of the already written ``items``, laid out as
    ``canonical_json`` does with its closing bracket after ``indent``."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def serialize_result(doc: Document, groups: Sequence[ProductGroup]) -> str:
    """Serialize a decoded document and its product groups to JSON.

    The output echoes the full document (so a result file is
    self-contained) and, per group, both the raw membership and the
    resolved entity assignment. ``corrected`` lists which of the group's
    entities were filled in by a correction rule.

    The text is written directly in the form :func:`canonical_json` gives
    the result payload: keys in sorted order, two-space indentation,
    strings by ``json``'s own escaper and numbers by ``repr``, as
    ``json.dumps`` writes them.
    """
    # Tokens and boxes are unpacked: one unpack of a named tuple costs less
    # than reading its fields one by one.
    token_texts = []
    for token_id, text, bbox, label, source, confidence in doc.tokens:
        confidence_text = "" if confidence is None else f'"confidence": {confidence!r},\n      '
        source_text = "" if source is None else f'"source": {_QUOTED[source]},\n      '
        token_texts.append(
            f'{{\n      "bbox": {_box_text(bbox)},\n      {confidence_text}'
            f'"label": {_QUOTED[label]},\n      {source_text}"text": {_quote(text)},\n'
            f'      "token_id": {token_id!r}\n    }}'
        )

    product_texts = []
    for group in groups:
        product = layout.assign_entities(group, doc)
        entities = {"description": _list_text(list(map(repr, product.description_ids)), "        ")}
        corrected = []
        for label, tid in zip(SCALAR_ENTITIES, product.scalar_ids()):
            if tid is None:
                continue
            entities[label.value] = repr(tid)
            if doc.token(tid).source is LabelSource.CORRECTION:
                corrected.append(_QUOTED[label])
        entity_text = ",\n        ".join(f'"{name}": {entities[name]}' for name in sorted(entities))
        product_texts.append(
            f'{{\n      "bbox": {_box_text(group.bbox)},\n'
            f'      "corrected": {_list_text(corrected, "      ")},\n'
            f'      "entities": {{\n        {entity_text}\n      }},\n'
            f'      "group_id": {group.group_id!r},\n'
            f'      "incomplete": {"true" if group.incomplete else "false"},\n'
            f'      "line_indices": {_list_text(list(map(repr, group.line_indices)), "      ")},\n'
            f'      "token_ids": {_list_text(list(map(repr, group.token_ids)), "      ")}\n    }}'
        )

    return (
        f'{{\n  "doc_id": {_quote(doc.doc_id)},\n'
        f'  "page": {{\n    "height": {doc.page_height!r},\n    "width": {doc.page_width!r}\n  }},\n'
        f'  "products": {_list_text(product_texts, "  ")},\n'
        f'  "tokens": {_list_text(token_texts, "  ")}\n}}\n'
    )


_LABELS_BY_VALUE = {label.value: label for label in EntityLabel}
_SOURCES_BY_VALUE = {source.value: source for source in LabelSource}


def parse_result(data: bytes | str) -> tuple[Document, tuple[ProductGroup, ...]]:
    """Inverse of :func:`serialize_result`.

    Round-trips exactly: ``parse_result(serialize_result(doc, groups))``
    reproduces both the document and the groups field for field. The
    derived ``entities``/``corrected`` fields are ignored on read. Token
    ids must be dense ``0..n-1`` in file order, as every writer emits them,
    and a token must name its label source exactly when it is labeled.
    The doc id follows the rule of :func:`parse_ocr`.
    """
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

    Every JSON file this package writes is in this form, so that identical
    inputs always produce byte-identical outputs. Result files are the one
    kind written without it: :func:`serialize_result` writes the same text
    itself.
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
