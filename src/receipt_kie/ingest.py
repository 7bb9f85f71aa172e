"""Reading and writing the package's four JSON file formats.

* OCR input: ``{"doc_id", "page": {"width", "height"}, "words": [...]}``
  where each word carries a ``text`` and a pixel-coordinate ``polygon``.
* Ground truth: per-document product annotations referencing token ids.
* Predictions: a model's token labels, ``{"doc_id", "labels": [...]}``.
* Results: a decoded document echo plus its product groups.

Parsers are strict — malformed input raises one of the exception types in
:mod:`receipt_kie.errors` naming the offending record — but unknown JSON
fields are ignored so files produced by newer writers still load. All four
readers share one set of field checks, which alone name errors.
:func:`parse_ocr` and :func:`parse_result` walk each word or token once,
field by field in the order the errors name them: the common value of a
field passes an inline test on its raw JSON value, and any other value
goes to that field's check. The products of :func:`parse_result` and
:func:`parse_ground_truth` take that path a record at a time: a record of
the common shape passes one inline test, and any other record goes to
the named checks from its start. Writers never emit fields outside the
documented schema, and every file is written in one canonical form
(sorted keys, two-space indent, non-ASCII kept) so identical inputs
produce identical bytes.
:func:`canonical_json` writes that form for any payload.
:func:`serialize_result`, the one writer on the decode path, writes the
result schema's canonical text itself, without building a payload; a test
checks it byte for byte against :func:`canonical_json` of the payload it
stands for.
"""

from __future__ import annotations

import json
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
            raise MalformedJsonError(f"input is not valid UTF-8 (byte offset {e.start})") from e
    else:
        text = data
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        offset = len(text[: e.pos].encode("utf-8"))
        raise MalformedJsonError(f"{e.msg} (byte offset {offset})") from e
    except ValueError as e:  # an integer literal past the interpreter's digit limit
        raise MalformedJsonError("integer literal has too many digits (byte offset 0)") from e
    except RecursionError as e:
        raise MalformedJsonError("arrays or objects nested too deeply (byte offset 0)") from e
    if not isinstance(raw, dict):
        raise SchemaError("top level: expected a JSON object")
    return raw


def _require(obj: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise SchemaError(f"{where}: missing required field {key!r}")
    return obj[key]


def _record_list(raw: Mapping[str, Any], key: str) -> list[Any]:
    """The required top-level list ``key``."""
    items = _require(raw, key, "top level")
    if not isinstance(items, list):
        raise SchemaError(f"{key}: expected a list")
    return items


def _records(raw: Mapping[str, Any], key: str, noun: str) -> Iterator[tuple[str, dict[str, Any]]]:
    """Walk the required top-level list ``key``: yield each record, which
    must be an object, with its location ``"<noun> <index>"``."""
    for i, obj in enumerate(_record_list(raw, key)):
        where = f"{noun} {i}"
        if not isinstance(obj, dict):
            raise SchemaError(f"{where}: expected an object")
        yield where, obj


# JSON numbers decode to exactly int or float; a bool is neither.
_NUMBER_TYPES = frozenset((int, float))
_INF = float("inf")
_UNTAGGED = EntityLabel.UNTAGGED
# Builds a BBox or Token from fields the caller has just checked: the arity
# is fixed, and a named tuple's generated __new__ costs one Python call.
_tuple_new = tuple.__new__


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


def _is_file_name(name: Any) -> bool:
    """Whether ``name`` is a string that names a file in a directory. UTF-8
    encodes every code point but a surrogate, and a lone surrogate (a JSON
    ``\\ud800`` escape gives one) is in no file name."""
    return (
        isinstance(name, str)
        and name not in ("", ".", "..")
        and "/" not in name
        and "\\" not in name
        and "\0" not in name
        and (name.isascii() or not any("\ud800" <= ch <= "\udfff" for ch in name))
    )


def _doc_id(raw: Mapping[str, Any]) -> str:
    doc_id = _require(raw, "doc_id", "top level")
    if isinstance(doc_id, str) and not doc_id.isascii():
        _check_utf8(doc_id, "doc_id")
    # Results are written to <doc_id>.result.json: the id must name a file.
    if not _is_file_name(doc_id):
        raise SchemaError(f"doc_id: expected a plain file name, got {doc_id!r}")
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
        if value >= 2**53:  # a smaller size is exact as a float, as vertex tests need
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


def _vertex_on_page(vertex: Any, where: str, j: int, width: int, height: int) -> None:
    """Raise unless ``vertex`` is an [x, y] number pair whose floats lie on
    the ``width`` x ``height`` page."""
    if (
        type(vertex) is not list
        or len(vertex) != 2
        or type(vertex[0]) not in _NUMBER_TYPES
        or type(vertex[1]) not in _NUMBER_TYPES
    ):
        raise SchemaError(f"{where}: vertex {j} must be an [x, y] number pair")
    try:
        fx, fy = float(vertex[0]), float(vertex[1])
    except OverflowError:
        raise SchemaError(f"{where}: vertex {j} outside the {width}x{height} page") from None
    if not (0 <= fx <= width) or not (0 <= fy <= height):
        raise SchemaError(f"{where}: vertex {j} ({fx}, {fy}) outside the {width}x{height} page")


def parse_ocr(data: bytes | str) -> Document:
    """Parse an OCR dump into a Document with all tokens untagged.

    Pixel polygons are collapsed to their axis-aligned envelope and
    normalized by the page dimensions, so token boxes land in the unit
    square (top-left origin, y down). Any coordinate outside the page is
    a schema error naming the word index. The doc id must be usable as a
    file name: not empty, ``.`` or ``..``, and free of ``/``, ``\\`` and
    NUL. The doc id and every text must be encodable as UTF-8.

    Each field of a word is checked once, in the order the errors name
    them: the object, its text, its polygon, each vertex, its confidence.
    The common value of a field (ASCII text, a vertex of two numbers on the
    page, a float confidence or none) passes an inline test;
    any other value goes to the field's named check, which reads it or
    raises. A word's confidence must be a number in [0, 1] but is not
    kept: every token comes back with no confidence.
    """
    raw = _load_object(data)
    doc_id = _doc_id(raw)
    width, height = _page_dims(_require(raw, "page", "top level"))
    words = _record_list(raw, "words")

    tokens: list[Token] = []
    for i, word in enumerate(words):
        if type(word) is not dict:
            raise SchemaError(f"word {i}: expected an object")
        text = word.get("text")
        if type(text) is not str or not text or not text.isascii():
            text = _text(word, f"word {i}")
        polygon = word.get("polygon")
        if type(polygon) is not list or len(polygon) < 3:
            _require(word, "polygon", f"word {i}")
            raise SchemaError(f"word {i}: polygon needs at least 3 vertices")
        # The envelope is taken as the vertices are checked, before any float
        # conversion, so a huge integer cannot overflow. Strict tests keep
        # the first of equal extremes, as min and max do (0 against -0.0).
        x_min = y_min = _INF
        x_max = y_max = -_INF
        for vertex in polygon:
            if not (
                type(vertex) is list
                and len(vertex) == 2
                and type(x := vertex[0]) in _NUMBER_TYPES
                and type(y := vertex[1]) in _NUMBER_TYPES
                and 0 <= x <= width
                and 0 <= y <= height
            ):
                # The index is found only here, by identity: the check raises, if
                # at all, at the first position that holds this object.
                j = next(j for j, v in enumerate(polygon) if v is vertex)
                _vertex_on_page(vertex, f"word {i}", j, width, height)
                x, y = vertex
            if x < x_min:
                x_min = x
            if x > x_max:
                x_max = x
            if y < y_min:
                y_min = y
            if y > y_max:
                y_max = y
        # Checked, not kept: a token's confidence is its label's.
        confidence = word.get("confidence")
        if confidence is not None and not (type(confidence) is float and 0.0 <= confidence <= 1.0):
            _confidence(word, f"word {i}")
        # float is monotone, so the float of the least coordinate is the
        # least of the coordinates' floats.
        bbox = _tuple_new(BBox, (
            float(x_min) / width,
            float(y_min) / height,
            float(x_max) / width,
            float(y_max) / height,
        ))
        tokens.append(_tuple_new(Token, (i, text, bbox, _UNTAGGED, None, None)))
    return Document(doc_id=doc_id, tokens=tuple(tokens), page_width=width, page_height=height)


# The ground-truth field of each scalar entity, in SCALAR_ENTITIES order.
_SCALAR_KEYS = tuple(f"{label.value}_id" for label in SCALAR_ENTITIES)


def _token_id(value: Any, where: str, what: str, n_tokens: int) -> int:
    """``value`` as the id of one of a page's ``n_tokens`` tokens."""
    if type(value) is not int:
        raise SchemaError(f"{where}: {what} must be an integer token id")
    if not 0 <= value < n_tokens:
        raise TokenReferenceError(f"{where}: {what} references unknown token id {value}")
    return value


def _claim(claimed: dict[int, int], token_ids: Sequence[int], owner: int, where: str) -> None:
    """Record in ``claimed`` (token id -> owning product) that product
    ``owner`` holds ``token_ids``; no token id may belong to two products,
    or twice to one."""
    for tid in token_ids:
        if tid in claimed:
            raise SchemaError(f"{where}: token id {tid} already belongs to product {claimed[tid]}")
        claimed[tid] = owner


def _claim_inline(claimed: dict[int, int], token_ids: list[Any], owner: int, n_tokens: int) -> bool:
    """Whether ``token_ids`` is a list of distinct ints, each the id of one
    of ``n_tokens`` tokens and in no earlier record of ``claimed``.
    If so they are claimed for ``owner``, as :func:`_claim` claims them;
    if not, ``claimed`` is left as it was, for the named checks to read."""
    for k, tid in enumerate(token_ids):
        if type(tid) is not int or not 0 <= tid < n_tokens or tid in claimed:
            for claimed_here in token_ids[:k]:
                del claimed[claimed_here]
            return False
        claimed[tid] = owner
    return True


def _truth_product(rp: Any, i: int, n_tokens: int, claimed: dict[int, int]) -> Product:
    """The named checks of one ground-truth record, in the order the errors
    name them: the object, its description ids, each scalar id, the claims."""
    where = f"product {i}"
    if not isinstance(rp, dict):
        raise SchemaError(f"{where}: expected an object")
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
    _claim(claimed, [tid for tid, _ in product.labeled_ids()], i, where)
    return product


def parse_ground_truth(data: bytes | str, doc: Document) -> tuple[Product, ...]:
    """Parse a ground-truth annotation file against its document.

    All referenced token ids must exist in ``doc`` (ids are positions) and
    no id may belong to two products.

    A record of the common shape (an object with a non-empty list of
    description ids, whose ids and set scalar ids are distinct in-range
    ints that no earlier record claimed) passes an inline test; any other
    record goes to the named checks, which read it or raise.
    """
    raw = _load_object(data)
    _check_doc_id(raw, doc, "ground truth is")

    n_tokens = len(doc.tokens)
    claimed: dict[int, int] = {}  # token id -> product index that owns it
    products: list[Product] = []
    for i, rp in enumerate(_record_list(raw, "products")):
        if type(rp) is dict and type(desc := rp.get("description_ids")) is list and desc:
            code, quantity, price = map(rp.get, _SCALAR_KEYS)
            # A null scalar id is no id, as in the named checks.
            ids = desc + [tid for tid in (code, quantity, price) if tid is not None]
            if _claim_inline(claimed, ids, i, n_tokens):
                products.append(_tuple_new(Product, (tuple(desc), code, quantity, price)))
                continue
        products.append(_truth_product(rp, i, n_tokens, claimed))
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
        token_id = _token_id(_require(entry, "token_id", where), where, "token_id", n_tokens)
        label = _lookup(_IMPORTABLE_LABELS, _require(entry, "label", where), where, "label")
        confidence = _confidence(entry, where)
        if token_id in assigned and assigned[token_id][0] is not label:
            raise LabelConflictError(
                f"{where}: token id {token_id} labeled both "
                f"{assigned[token_id][0].value!r} and {label.value!r}"
            )
        assigned[token_id] = (label, LabelSource.MODEL, confidence)
    return doc.relabel(assigned)


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
    x_min, y_min, x_max, y_max = coords
    # Also rejects NaN and infinities, which the JSON reader accepts.
    if not (0.0 <= x_min <= x_max <= 1.0 and 0.0 <= y_min <= y_max <= 1.0):
        raise SchemaError(f"{where}: bbox {coords} is not a box within the unit page")
    return BBox(x_min, y_min, x_max, y_max)


# The JSON string of each label and label source.
_QUOTED = {member: _quote(member.value) for enum in (EntityLabel, LabelSource) for member in enum}


class _CoordinateTexts(dict):
    """The text of each float coordinate looked up, made by ``repr`` on
    first use. Keys are nonzero floats only: an int, or a zero of either
    sign, would share a key with a number that ``repr`` writes otherwise."""

    def __missing__(self, coordinate: float) -> str:
        text = self[coordinate] = repr(coordinate)
        return text


def _box_text(bbox: BBox, texts: _CoordinateTexts) -> str:
    """A box as the value of a key six spaces in, in tokens and in products.
    ``texts`` gives the text of a nonzero float coordinate; any other
    coordinate is written by ``repr``, since ``1`` and ``1.0``, or ``0.0``
    and ``-0.0``, are one key with two texts."""
    x_min, y_min, x_max, y_max = bbox
    return (
        f'{{\n        "x_max": {texts[x_max] if type(x_max) is float and x_max else repr(x_max)},\n'
        f'        "x_min": {texts[x_min] if type(x_min) is float and x_min else repr(x_min)},\n'
        f'        "y_max": {texts[y_max] if type(y_max) is float and y_max else repr(y_max)},\n'
        f'        "y_min": {texts[y_min] if type(y_min) is float and y_min else repr(y_min)}\n      }}'
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
    # Neighbouring tokens share edges: each distinct nonzero float coordinate
    # of the document is formatted once, for token and group boxes alike.
    texts = _CoordinateTexts()

    # Tokens and boxes are unpacked: one unpack of a named tuple costs less
    # than reading its fields one by one.
    token_texts = []
    for token_id, text, bbox, label, source, confidence in doc.tokens:
        confidence_text = "" if confidence is None else f'"confidence": {confidence!r},\n      '
        source_text = "" if source is None else f'"source": {_QUOTED[source]},\n      '
        token_texts.append(
            f'{{\n      "bbox": {_box_text(bbox, texts)},\n      {confidence_text}'
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
            f'{{\n      "bbox": {_box_text(group.bbox, texts)},\n'
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
    No token may belong to two groups, or twice to one. The doc id follows
    the rule of :func:`parse_ocr`.

    Each field of a token is checked once, in the order the errors name
    them: the object, its token id, text, label, label source, the pairing
    of the two, confidence and box. The common value of a field (as
    :func:`serialize_result` writes it: ASCII text, a float confidence and
    float box) passes an inline test; any other value goes to the field's
    named check, which reads it or raises. A product of the common shape
    (an int group id, strictly increasing non-negative line indices, a
    bool flag, a float box on the unit page and unclaimed in-range token
    ids) passes one inline test; any other goes to the named checks.
    """
    raw = _load_object(data)
    doc_id = _doc_id(raw)
    width, height = _page_dims(_require(raw, "page", "top level"))
    items = _record_list(raw, "tokens")

    tokens: list[Token] = []
    for i, rt in enumerate(items):
        if type(rt) is not dict:
            raise SchemaError(f"token {i}: expected an object")
        token_id = rt.get("token_id")
        if type(token_id) is not int or token_id != i:
            token_id = _require(rt, "token_id", f"token {i}")
            if type(token_id) is not int:
                raise SchemaError(f"token {i}: token_id must be an integer")
            raise SchemaError(
                f"token {i}: token_id {token_id} is duplicated or out of order "
                "(ids must be dense 0..n-1)"
            )
        text = rt.get("text")
        if type(text) is not str or not text or not text.isascii():
            text = _text(rt, f"token {i}")
        label = rt.get("label")
        if type(label) is not str or (label := _LABELS_BY_VALUE.get(label)) is None:
            where = f"token {i}"
            label = _lookup(_LABELS_BY_VALUE, _require(rt, "label", where), where, "label")
        source = rt.get("source")
        if source is not None and (
            type(source) is not str or (source := _SOURCES_BY_VALUE.get(source)) is None
        ):
            source = _lookup(_SOURCES_BY_VALUE, rt["source"], f"token {i}", "label source")
        if (source is None) is not (label is _UNTAGGED):
            raise SchemaError(
                f"token {i}: labeled token has no label source"
                if source is None
                else f"token {i}: untagged token carries a label source"
            )
        confidence = rt.get("confidence")
        if confidence is not None and not (type(confidence) is float and 0.0 <= confidence <= 1.0):
            confidence = _confidence(rt, f"token {i}")
        if (
            type(box := rt.get("bbox")) is dict
            and type(x_min := box.get("x_min")) is float
            and type(y_min := box.get("y_min")) is float
            and type(x_max := box.get("x_max")) is float
            and type(y_max := box.get("y_max")) is float
            # As _bbox_from_json; NaN fails it.
            and 0.0 <= x_min <= x_max <= 1.0
            and 0.0 <= y_min <= y_max <= 1.0
        ):
            bbox = _tuple_new(BBox, (x_min, y_min, x_max, y_max))
        else:
            bbox = _bbox_from_json(_require(rt, "bbox", f"token {i}"), f"token {i}")
        tokens.append(_tuple_new(Token, (i, text, bbox, label, source, confidence)))
    doc = Document(doc_id=doc_id, tokens=tuple(tokens), page_width=width, page_height=height)

    n_tokens = len(tokens)
    groups: list[ProductGroup] = []
    claimed: dict[int, int] = {}  # token id -> index of the group that holds it
    for i, rp in enumerate(_record_list(raw, "products")):
        if (
            type(rp) is dict
            and type(group_id := rp.get("group_id")) is int
            and type(line_indices := rp.get("line_indices")) is list
            and _is_line_list(line_indices)
            and type(incomplete := rp.get("incomplete", False)) is bool
            and type(box := rp.get("bbox")) is dict
            and type(x_min := box.get("x_min")) is float
            and type(y_min := box.get("y_min")) is float
            and type(x_max := box.get("x_max")) is float
            and type(y_max := box.get("y_max")) is float
            and 0.0 <= x_min <= x_max <= 1.0
            and 0.0 <= y_min <= y_max <= 1.0
            and type(token_ids := rp.get("token_ids")) is list
            and _claim_inline(claimed, token_ids, i, n_tokens)
        ):
            bbox = _tuple_new(BBox, (x_min, y_min, x_max, y_max))
            groups.append(_tuple_new(
                ProductGroup, (group_id, tuple(line_indices), tuple(token_ids), bbox, incomplete)
            ))
        else:
            groups.append(_result_group(rp, i, n_tokens, claimed))
    return doc, tuple(groups)


def _is_line_list(line_indices: list[Any]) -> bool:
    """Whether ``line_indices`` holds strictly increasing non-negative ints."""
    previous = -1
    for index in line_indices:
        if type(index) is not int or index <= previous:
            return False
        previous = index
    return True


def _result_group(rp: Any, i: int, n_tokens: int, claimed: dict[int, int]) -> ProductGroup:
    """The named checks of one result product, in the order the errors name
    them: the object, its required fields, the group id, the two id lists,
    the line order, the flag, each token id, the box and the claims."""
    where = f"product {i}"
    if not isinstance(rp, dict):
        raise SchemaError(f"{where}: expected an object")
    group_id = _require(rp, "group_id", where)
    line_indices = _require(rp, "line_indices", where)
    token_ids = _require(rp, "token_ids", where)
    incomplete = rp.get("incomplete", False)
    if type(group_id) is not int:
        raise SchemaError(f"{where}: group_id must be an integer")
    for name, ids in (("line_indices", line_indices), ("token_ids", token_ids)):
        if not isinstance(ids, list) or not all(type(v) is int for v in ids):
            raise SchemaError(f"{where}: {name} must be a list of integers")
    if not _is_line_list(line_indices):
        raise SchemaError(
            f"{where}: line_indices must be non-negative and increasing, got {line_indices}"
        )
    if not isinstance(incomplete, bool):
        raise SchemaError(f"{where}: incomplete must be a boolean")
    group = ProductGroup(
        group_id=group_id,
        line_indices=tuple(line_indices),
        token_ids=tuple(_token_id(tid, where, "token_ids", n_tokens) for tid in token_ids),
        bbox=_bbox_from_json(_require(rp, "bbox", where), where),
        incomplete=incomplete,
    )
    _claim(claimed, group.token_ids, i, where)
    return group


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
