from __future__ import annotations

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from receipt_kie.errors import (
    MalformedJsonError,
    ReceiptKieError,
    SchemaError,
    TokenReferenceError,
)
from receipt_kie.ingest import (
    canonical_json,
    import_predictions,
    normalize_text,
    parse_ground_truth,
    parse_ocr,
    parse_result,
    serialize_result,
    write_ground_truth_json,
)
from receipt_kie.layout import detect_lines_geometric, group_product_lines
from receipt_kie.model import BBox, Document, EntityLabel, LabelSource, Product, ProductGroup, Token

from helpers import make_doc, make_token
from reference_impls import (
    reference_parse_ground_truth,
    reference_parse_ocr,
    reference_parse_result,
    reference_result_payload,
)


def ocr_payload(**overrides):
    payload = {
        "doc_id": "r-001",
        "page": {"width": 100, "height": 100},
        "words": [
            {
                "text": "MILK",
                "polygon": [[10, 10], [90, 10], [90, 30], [10, 30]],
                "confidence": 0.93,
            }
        ],
    }
    payload.update(overrides)
    return payload


class TestParseOcr:
    def test_polygon_envelope_is_normalized(self):
        doc = parse_ocr(json.dumps(ocr_payload()))
        assert doc.doc_id == "r-001"
        assert (doc.page_width, doc.page_height) == (100, 100)
        tok = doc.tokens[0]
        assert tok.text == "MILK"
        assert tok.bbox == BBox(0.1, 0.1, 0.9, 0.3)
        assert tok.label is EntityLabel.UNTAGGED
        assert tok.confidence is None

    def test_skewed_polygon_collapses_to_envelope(self):
        payload = ocr_payload()
        payload["words"][0]["polygon"] = [[20, 10], [90, 14], [80, 30], [10, 26]]
        tok = parse_ocr(json.dumps(payload)).tokens[0]
        assert tok.bbox == BBox(0.1, 0.1, 0.9, 0.3)

    def test_token_ids_are_word_indices(self):
        payload = ocr_payload()
        payload["words"].append({"text": "2", "polygon": [[10, 40], [20, 40], [20, 60]]})
        doc = parse_ocr(json.dumps(payload))
        assert [t.token_id for t in doc.tokens] == [0, 1]

    def test_invalid_json_reports_byte_offset(self):
        with pytest.raises(MalformedJsonError, match=r"^Expecting value \(byte offset 11\)$"):
            parse_ocr(b'{"doc_id": }')

    def test_byte_offset_counts_utf8_bytes(self):
        # "é" is two bytes in UTF-8, so the character offset and the byte
        # offset of the error disagree.
        bad = '{"doc_id": "é", "x": }'.encode("utf-8")
        assert bad.index(b"}") == len('{"doc_id": "é", "x": ') + 1
        with pytest.raises(MalformedJsonError, match=rf"\(byte offset {bad.index(b'}')}\)$"):
            parse_ocr(bad)

    def test_invalid_utf8(self):
        with pytest.raises(MalformedJsonError):
            parse_ocr(b'{"doc_id": "\xff"}')

    def test_schema_error_names_the_word(self):
        payload = ocr_payload()
        payload["words"].append({"text": "", "polygon": [[0, 0], [1, 0], [1, 1]]})
        with pytest.raises(SchemaError, match="word 1"):
            parse_ocr(json.dumps(payload))

    def test_coordinates_outside_page_rejected(self):
        payload = ocr_payload()
        payload["words"][0]["polygon"] = [[10, 10], [110, 10], [110, 30], [10, 30]]
        with pytest.raises(SchemaError, match="outside"):
            parse_ocr(json.dumps(payload))

    def test_too_few_vertices_rejected(self):
        payload = ocr_payload()
        payload["words"][0]["polygon"] = [[10, 10], [90, 30]]
        with pytest.raises(SchemaError, match="at least 3"):
            parse_ocr(json.dumps(payload))

    def test_confidence_out_of_range_rejected(self):
        payload = ocr_payload()
        payload["words"][0]["confidence"] = 1.2
        with pytest.raises(SchemaError, match="confidence"):
            parse_ocr(json.dumps(payload))

    @pytest.mark.parametrize("value", [0, 0.5, 0.93, 1.0])
    def test_word_confidence_is_checked_but_not_kept(self, value):
        payload = ocr_payload()
        payload["words"][0]["confidence"] = value
        assert parse_ocr(json.dumps(payload)).tokens[0].confidence is None

    @pytest.mark.parametrize(
        "value, message",
        [
            (-0.1, "confidence -0.1 outside [0, 1]"),
            (float("nan"), "confidence nan outside [0, 1]"),
            (True, "confidence must be a number"),
            (10**400, f"confidence {10**400} outside [0, 1]"),
        ],
        ids=["-0.1", "nan", "true", "400-digits"],
    )
    def test_word_confidence_outside_the_unit_interval_is_refused(self, value, message):
        payload = ocr_payload()
        payload["words"][0]["confidence"] = value
        with pytest.raises(SchemaError) as exc:
            parse_ocr(json.dumps(payload))
        assert str(exc.value) == f"word 0: {message}"

    @pytest.mark.parametrize("missing", ["doc_id", "page", "words"])
    def test_missing_top_level_field(self, missing):
        payload = ocr_payload()
        del payload[missing]
        with pytest.raises(SchemaError, match=missing):
            parse_ocr(json.dumps(payload))

    @pytest.mark.parametrize("doc_id", ["", ".", "..", "../escaped", "a/b", "/abs", "a\\b", "a\0b"])
    def test_doc_id_must_be_a_plain_file_name(self, doc_id):
        with pytest.raises(SchemaError, match="doc_id: expected a plain file name"):
            parse_ocr(json.dumps(ocr_payload(doc_id=doc_id)))

    def test_a_lone_surrogate_is_named_before_the_file_name_rule(self):
        # The id is neither a plain name nor UTF-8: the surrogate check runs first.
        with pytest.raises(SchemaError, match=r"^doc_id 'a/\\ud800' has a lone surrogate at index 2$"):
            parse_ocr(json.dumps(ocr_payload(doc_id="a/\ud800")))

    def test_integer_past_the_digit_limit_is_malformed_json(self):
        with pytest.raises(MalformedJsonError, match="too many digits"):
            parse_ocr(b'{"doc_id": ' + b"9" * 5000 + b"}")

    @pytest.mark.parametrize("size", [0, -600, 600.0])
    def test_page_size_must_be_a_positive_integer(self, size):
        with pytest.raises(SchemaError, match="page.height: expected a positive integer"):
            parse_ocr(json.dumps(ocr_payload(page={"width": 100, "height": size})))

    @pytest.mark.parametrize("name", ["width", "height"])
    def test_page_size_must_be_below_2_pow_53(self, name):
        # Every smaller page size is exact as a float: a vertex on its edge reads.
        page = {"width": 100, "height": 100, name: 2**53 - 1}
        payload = ocr_payload(page=page)
        payload["words"][0]["polygon"][2] = [page["width"], page["height"]]
        doc = parse_ocr(json.dumps(payload))
        assert (doc.page_width, doc.page_height) == (page["width"], page["height"])
        assert doc.tokens[0].bbox[2:] == (1.0, 1.0)
        payload["page"][name] = 2**53
        with pytest.raises(SchemaError, match=rf"^page\.{name}: too large for a page size$"):
            parse_ocr(json.dumps(payload))

    @pytest.mark.parametrize("where", ["vertex", "confidence", "page"])
    def test_integer_too_large_for_a_float_is_a_schema_error(self, where):
        payload = ocr_payload()
        if where == "vertex":
            payload["words"][0]["polygon"][1] = [10**400, 10]
        elif where == "confidence":
            payload["words"][0]["confidence"] = 10**400
        else:
            payload["page"]["width"] = 10**400
        with pytest.raises(SchemaError, match="page" if where == "page" else "word 0"):
            parse_ocr(json.dumps(payload))

    def test_unknown_fields_are_ignored(self):
        payload = ocr_payload(pipeline_version="v2")
        payload["words"][0]["angle"] = 0.3
        doc = parse_ocr(json.dumps(payload))
        assert len(doc.tokens) == 1


class TestParseGroundTruth:
    def test_values_resolved_from_document(self, receipt_doc):
        raw = {
            "doc_id": receipt_doc.doc_id,
            "products": [
                {"description_ids": [1, 2], "code_id": 3, "quantity_id": 4, "price_id": 7}
            ],
        }
        (product,) = parse_ground_truth(json.dumps(raw), receipt_doc)
        assert product.description_ids == (1, 2)
        assert receipt_doc.token(product.code_id).text == "4902102"
        assert receipt_doc.token(product.quantity_id).text == "2"
        assert receipt_doc.token(product.price_id).text == "138.00"

    def test_doc_id_mismatch(self, receipt_doc):
        raw = {"doc_id": "other", "products": []}
        with pytest.raises(TokenReferenceError, match="other"):
            parse_ground_truth(json.dumps(raw), receipt_doc)

    def test_dangling_token_id(self, receipt_doc):
        raw = {
            "doc_id": receipt_doc.doc_id,
            "products": [{"description_ids": [1], "price_id": 999}],
        }
        with pytest.raises(TokenReferenceError, match="999"):
            parse_ground_truth(json.dumps(raw), receipt_doc)

    def test_products_must_not_share_tokens(self, receipt_doc):
        raw = {
            "doc_id": receipt_doc.doc_id,
            "products": [
                {"description_ids": [1, 2]},
                {"description_ids": [2]},
            ],
        }
        with pytest.raises(SchemaError, match="already belongs"):
            parse_ground_truth(json.dumps(raw), receipt_doc)

    def test_empty_description_rejected(self, receipt_doc):
        raw = {"doc_id": receipt_doc.doc_id, "products": [{"description_ids": []}]}
        with pytest.raises(SchemaError, match="non-empty"):
            parse_ground_truth(json.dumps(raw), receipt_doc)

    def test_round_trip_through_writer(self, receipt_doc, receipt_truth):
        text = write_ground_truth_json(receipt_doc.doc_id, receipt_truth)
        assert parse_ground_truth(text, receipt_doc) == receipt_truth


class TestNormalizeText:
    def test_composes_to_nfc(self):
        decomposed = "Café"
        assert normalize_text(decomposed) == "Café"

    def test_ascii_unchanged(self):
        assert normalize_text("138.00") == "138.00"


class TestResultRoundTrip:
    def _decode(self, doc):
        lines = detect_lines_geometric(doc)
        return group_product_lines(doc, lines)

    def test_exact_round_trip(self, labeled_receipt):
        groups = self._decode(labeled_receipt)
        text = serialize_result(labeled_receipt, groups)
        doc2, groups2 = parse_result(text)
        assert doc2 == labeled_receipt
        assert groups2 == tuple(groups)

    def test_serialization_is_deterministic(self, labeled_receipt):
        groups = self._decode(labeled_receipt)
        a = serialize_result(labeled_receipt, groups)
        b = serialize_result(labeled_receipt, groups)
        assert a == b

    def test_entities_section_lists_assignments(self, labeled_receipt):
        groups = self._decode(labeled_receipt)
        payload = json.loads(serialize_result(labeled_receipt, groups))
        first = payload["products"][0]
        assert first["entities"]["description"] == [1, 2]
        assert first["entities"]["code"] == 3
        assert first["entities"]["quantity"] == 4
        assert first["entities"]["price"] == 7
        assert first["corrected"] == []

    def test_dangling_group_reference_rejected(self, labeled_receipt):
        groups = self._decode(labeled_receipt)
        text = serialize_result(labeled_receipt, groups)
        payload = json.loads(text)
        payload["products"][0]["token_ids"] = [9999]
        with pytest.raises(TokenReferenceError, match="9999"):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize("name", ["width", "height"])
    def test_page_size_must_be_below_2_pow_53(self, labeled_receipt, name):
        payload = json.loads(serialize_result(labeled_receipt, []))
        payload["page"][name] = 2**53 - 1
        doc, _ = parse_result(json.dumps(payload))
        page = payload["page"]
        assert (doc.page_width, doc.page_height) == (page["width"], page["height"])
        payload["page"][name] = 2**53
        with pytest.raises(SchemaError, match=rf"^page\.{name}: too large for a page size$"):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize("ids", [[0, 2], [0, 0]])
    def test_token_ids_must_be_dense(self, labeled_receipt, ids):
        payload = json.loads(serialize_result(labeled_receipt, []))
        payload["tokens"] = payload["tokens"][:2]
        for tok, token_id in zip(payload["tokens"], ids):
            tok["token_id"] = token_id
        with pytest.raises(SchemaError, match=rf"token 1: token_id {ids[1]}"):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize("doc_id", ["", "..", "../x", "a/b", "a\\b"])
    def test_doc_id_must_be_a_plain_file_name(self, labeled_receipt, doc_id):
        payload = json.loads(serialize_result(labeled_receipt, []))
        payload["doc_id"] = doc_id
        with pytest.raises(SchemaError, match="doc_id: expected a plain file name"):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize("indices", [[-1], [-1, 0], [2, 1], [1, 1]])
    def test_line_indices_must_be_non_negative_and_increasing(self, labeled_receipt, indices):
        payload = json.loads(serialize_result(labeled_receipt, self._decode(labeled_receipt)))
        payload["products"][1]["line_indices"] = indices
        with pytest.raises(SchemaError, match=r"product 1: line_indices"):
            parse_result(json.dumps(payload))

    def test_boxes_on_the_page_edges_are_accepted(self, labeled_receipt):
        """The bounds are inclusive: a box over the whole page reads back,
        as a token's box and as a group's, written as floats or as ints."""
        payload = json.loads(serialize_result(labeled_receipt, self._decode(labeled_receipt)))
        whole_page = {"x_min": 0.0, "y_min": 0.0, "x_max": 1.0, "y_max": 1.0}
        payload["tokens"][3]["bbox"] = whole_page
        payload["tokens"][4]["bbox"] = {"x_min": 0, "y_min": 0, "x_max": 1, "y_max": 1}
        payload["products"][0]["bbox"] = whole_page
        doc, groups = parse_result(json.dumps(payload))
        assert doc.token(3).bbox == BBox(0.0, 0.0, 1.0, 1.0)
        assert doc.token(4).bbox == BBox(0.0, 0.0, 1.0, 1.0)
        assert groups[0].bbox == BBox(0.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.25, 1.5])
    def test_token_bbox_must_lie_within_the_page(self, labeled_receipt, value):
        payload = json.loads(serialize_result(labeled_receipt, []))
        payload["tokens"][3]["bbox"]["y_max"] = value
        # json.dumps writes NaN and Infinity, which the reader accepts
        with pytest.raises(SchemaError, match=r"token 3: bbox"):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"source": None}, "labeled token has no label source"),
            ({"label": "untagged"}, "untagged token carries a label source"),
            ({"text": ""}, "text must be a non-empty string"),
            ({"source": "ground_truth"}, "unknown label source 'ground_truth'"),
        ],
        ids=["label-without-source", "source-without-label", "empty-text", "ground-truth-source"],
    )
    def test_token_errors_name_the_token(self, labeled_receipt, edit, message):
        payload = json.loads(serialize_result(labeled_receipt, []))
        token = payload["tokens"][1]
        assert (token["label"], token["source"]) == ("description", "model")
        token.update(edit)
        if token["source"] is None:
            del token["source"]
        with pytest.raises(SchemaError, match=rf"token 1: {message}"):
            parse_result(json.dumps(payload))

    def test_token_bbox_coordinate_too_large_for_a_float(self, labeled_receipt):
        payload = json.loads(serialize_result(labeled_receipt, []))
        payload["tokens"][1]["bbox"]["x_max"] = 10**400
        with pytest.raises(SchemaError, match=r"token 1: bbox.x_max"):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize(
        "value", [float("nan"), 5.0, -3, 10**400, True, "0.5"],
        ids=["nan", "5.0", "-3", "400-digits", "true", "string"],
    )
    def test_token_confidence_must_be_a_number_in_the_unit_interval(self, labeled_receipt, value):
        payload = json.loads(serialize_result(labeled_receipt, []))
        payload["tokens"][2]["confidence"] = value
        with pytest.raises(SchemaError, match=r"token 2: confidence"):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize("value", [True, "0.5", None, [0.5]])
    def test_token_bbox_coordinates_must_be_numbers(self, labeled_receipt, value):
        payload = json.loads(serialize_result(labeled_receipt, []))
        payload["tokens"][2]["bbox"]["x_min"] = value
        with pytest.raises(SchemaError, match=r"token 2: bbox.x_min must be a number"):
            parse_result(json.dumps(payload))

    def test_token_bbox_must_not_be_inverted(self, labeled_receipt):
        payload = json.loads(serialize_result(labeled_receipt, []))
        box = payload["tokens"][0]["bbox"]
        box["x_min"], box["x_max"] = box["x_max"], box["x_min"]
        with pytest.raises(SchemaError, match=r"token 0: bbox"):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.5])
    def test_group_bbox_must_lie_within_the_page(self, labeled_receipt, value):
        payload = json.loads(serialize_result(labeled_receipt, self._decode(labeled_receipt)))
        payload["products"][0]["bbox"]["x_max"] = value
        with pytest.raises(SchemaError, match=r"product 0: bbox"):
            parse_result(json.dumps(payload))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda products: products[0]["token_ids"].append(products[0]["token_ids"][0]),
             "product 0: token id 1 already belongs to product 0"),
            (lambda products: products.append(dict(products[0])),
             "product 2: token id 1 already belongs to product 0"),
            (lambda products: products[1]["token_ids"].append(3),
             "product 1: token id 3 already belongs to product 0"),
        ],
        ids=["listed-twice", "copied-group", "shared-token"],
    )
    def test_a_token_belongs_to_one_group_at_most(self, labeled_receipt, edit, message):
        payload = json.loads(serialize_result(labeled_receipt, self._decode(labeled_receipt)))
        assert payload["products"][0]["token_ids"][0] == 1
        edit(payload["products"])
        with pytest.raises(SchemaError, match=message):
            parse_result(json.dumps(payload))

    def test_non_ascii_text_survives(self):
        doc = make_doc([make_token(0, "Café", 10, 10, label=EntityLabel.DESCRIPTION)])
        text = serialize_result(doc, [])
        assert "Café" in text  # ensure_ascii=False keeps it readable
        doc2, _ = parse_result(text)
        assert doc2.tokens[0].text == "Café"


class TestCanonicalJson:
    def test_sorted_keys_and_trailing_newline(self):
        out = canonical_json({"b": 1, "a": 2})
        assert out.index('"a"') < out.index('"b"')
        assert out.endswith("\n")


# Every parser, given any byte string, returns or raises a ReceiptKieError.
# Inputs are raw bytes, or JSON shaped like the parser's schema where each
# field holds either a value of the expected shape or any JSON value.
_ANY_JSON = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-2, max_value=200),
        st.just(10**400),
        st.floats(),
        st.sampled_from(["doc-1", "", "..", "code", "description", "model", "A"]),
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)


def _record(**fields):
    """Objects with every field of a schema record, each holding a value of
    the expected shape two times in three, so draws reach the later checks."""
    return st.fixed_dictionaries({key: st.one_of(value, value, _ANY_JSON) for key, value in fields.items()})


_NUMBER = st.one_of(st.integers(min_value=-1, max_value=120), st.floats(), st.just(10**400))
_ID = st.integers(min_value=-1, max_value=4)
_IDS = st.lists(_ID, max_size=3)
_LABEL = st.sampled_from([label.value for label in EntityLabel] + ["total"])
_PAGE = _record(width=_NUMBER, height=_NUMBER)
_BOX = _record(x_min=_NUMBER, y_min=_NUMBER, x_max=_NUMBER, y_max=_NUMBER)
_SHAPED = {
    "ocr": _record(
        doc_id=st.sampled_from(["doc-1", "..", "a/b"]),
        page=_PAGE,
        words=st.lists(
            _record(
                text=st.text(max_size=3),
                polygon=st.lists(st.lists(_NUMBER, max_size=3), max_size=4),
                confidence=_NUMBER,
            ),
            max_size=3,
        ),
    ),
    "ground_truth": _record(
        doc_id=st.just("doc-1"),
        products=st.lists(
            _record(description_ids=_IDS, code_id=_ID, quantity_id=_ID, price_id=_ID), max_size=3
        ),
    ),
    "predictions": _record(
        doc_id=st.just("doc-1"),
        labels=st.lists(_record(token_id=_ID, label=_LABEL, confidence=_NUMBER), max_size=3),
    ),
    "result": _record(
        doc_id=st.just("doc-1"),
        page=_PAGE,
        tokens=st.lists(
            _record(
                token_id=_ID,
                text=st.text(max_size=3),
                label=_LABEL,
                source=st.sampled_from([source.value for source in LabelSource]),
                confidence=_NUMBER,
                bbox=_BOX,
            ),
            max_size=3,
        ),
        products=st.lists(
            _record(group_id=_ID, line_indices=_IDS, token_ids=_IDS, incomplete=st.booleans(), bbox=_BOX),
            max_size=2,
        ),
    ),
}
_TARGET = make_doc([make_token(i, "A", 10 * i, 10) for i in range(3)])
_PARSERS = {
    "ocr": parse_ocr,
    "ground_truth": lambda data: parse_ground_truth(data, _TARGET),
    "predictions": lambda data: import_predictions(_TARGET, data),
    "result": parse_result,
}
_HOSTILE = [b"", b"\xff\xfe", b"9" * 5000, b"[" * 100_000, b'{"doc_id": "doc-1"}']


@pytest.mark.parametrize("schema", sorted(_PARSERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parsers_return_or_raise_a_package_error(schema, data):
    raw = data.draw(
        st.one_of(
            st.binary(max_size=40),
            st.sampled_from(_HOSTILE),
            _SHAPED[schema].map(lambda value: json.dumps(value).encode("utf-8")),
        )
    )
    try:
        _PARSERS[schema](raw)
    except ReceiptKieError:
        pass


# A "\ud800" escape is valid JSON but decodes to a lone surrogate, which UTF-8
# cannot encode: a result holding one could be read but not rendered or written.
_LONE_SURROGATE = "A\ud800"


def _payload_with_lone_surrogate(schema: str, field: str) -> dict:
    if schema == "ocr":
        payload = ocr_payload()
        target = payload["words"][0]
    elif schema == "result":
        payload = json.loads(serialize_result(_TARGET, []))
        target = payload["tokens"][0]
    else:
        payload = {"doc_id": _TARGET.doc_id, "products": [], "labels": []}
    if field == "doc_id":
        payload["doc_id"] = _LONE_SURROGATE
    else:
        target["text"] = _LONE_SURROGATE
    return payload


@pytest.mark.parametrize(
    "schema, field, message",
    [
        ("ocr", "doc_id", r"doc_id 'A\\ud800' has a lone surrogate at index 1"),
        ("ocr", "text", r"word 0: text 'A\\ud800' has a lone surrogate"),
        ("result", "doc_id", r"doc_id 'A\\ud800' has a lone surrogate"),
        ("result", "text", r"token 0: text 'A\\ud800' has a lone surrogate"),
        # These two readers compare the doc id with a document already read.
        ("ground_truth", "doc_id", r"ground truth is for doc_id 'A\\ud800'"),
        ("predictions", "doc_id", r"predictions are for doc_id 'A\\ud800'"),
    ],
)
def test_lone_surrogates_are_refused_by_every_reader(schema, field, message):
    data = json.dumps(_payload_with_lone_surrogate(schema, field))
    assert "\\ud800" in data
    with pytest.raises(ReceiptKieError, match=message) as excinfo:
        _PARSERS[schema](data)
    str(excinfo.value).encode("utf-8")  # the error itself can be printed


def _payload_with_token_id(schema: str, field: str, token_id) -> dict:
    """A valid file of ``schema`` for ``_TARGET`` with ``token_id`` in
    ``field`` of its first record."""
    if schema == "ground_truth":
        product = {"description_ids": [0], field: token_id}
        if field == "description_ids":
            product[field] = [0, token_id]
        return {"doc_id": _TARGET.doc_id, "products": [product]}
    if schema == "predictions":
        return {"doc_id": _TARGET.doc_id, "labels": [{"token_id": token_id, "label": "code"}]}
    group = ProductGroup(0, (0,), (0, 1), BBox(0.0, 0.0, 0.5, 0.5))
    payload = json.loads(serialize_result(_TARGET, [group]))
    payload["products"][0]["token_ids"] = [0, token_id]
    return payload


@pytest.mark.parametrize(
    "token_id, error",
    [(True, SchemaError), (1.0, SchemaError), ("3", SchemaError),
     (-1, TokenReferenceError), (len(_TARGET.tokens), TokenReferenceError)],
    ids=["true", "1.0", "string", "-1", "n_tokens"],
)
@pytest.mark.parametrize(
    "schema, where, field",
    [("ground_truth", "product 0", "description_ids"), ("ground_truth", "product 0", "price_id"),
     ("predictions", "label 0", "token_id"), ("result", "product 0", "token_ids")],
    ids=["truth.description_ids", "truth.price_id", "predictions.token_id", "result.token_ids"],
)
def test_every_token_id_reader_refuses_a_bad_id(schema, where, field, token_id, error):
    data = json.dumps(_payload_with_token_id(schema, field, token_id))
    with pytest.raises(error) as excinfo:
        _PARSERS[schema](data)
    assert type(excinfo.value) is error
    assert str(excinfo.value).startswith(f"{where}: {field} ")
    if error is TokenReferenceError:
        assert str(excinfo.value).endswith(f"references unknown token id {token_id}")


# --------------------------------------------------------------------------
# serialize_result writes the canonical text of the result payload itself;
# it must equal canonical_json of the payload the reference builds.

_AWKWARD_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028\u2029\ufeffé€😀'), st.characters()),
    max_size=6,
)
# Non-finite floats cannot reach the writer: every reader rejects them.
_FINITE = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e-7, 0.1 + 0.2, 1e16, 1.0, 0]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_BOXES = st.builds(BBox, _FINITE, _FINITE, _FINITE, _FINITE)


@st.composite
def decoded_documents(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    tokens = tuple(
        Token(
            i,
            draw(_AWKWARD_TEXT),
            draw(_BOXES),
            draw(st.sampled_from(EntityLabel)),
            draw(st.none() | st.sampled_from(LabelSource)),
            draw(st.none() | _FINITE),
        )
        for i in range(n)
    )
    doc = Document(
        draw(_AWKWARD_TEXT), tokens, draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6))
    )
    ids = st.lists(st.integers(0, n - 1), max_size=4) if n else st.just([])
    groups = draw(
        st.lists(
            st.builds(
                ProductGroup,
                group_id=st.integers(0, 50),
                line_indices=st.lists(st.integers(0, 50), max_size=3).map(tuple),
                token_ids=ids.map(tuple),
                bbox=_BOXES,
                incomplete=st.booleans(),
            ),
            max_size=3,
        )
    )
    return doc, groups


# Every scalar entity filled in by a correction, and no description.
_NO_DESCRIPTION = make_doc(
    [
        make_token(i, text, 10 + 100 * i, 10, label=label, source=LabelSource.CORRECTION)
        for i, (text, label) in enumerate(
            [("4902102", EntityLabel.CODE), ("2", EntityLabel.QUANTITY), ("1.50", EntityLabel.PRICE)]
        )
    ]
)


# 0.0 and -0.0 compare and hash as one number, but JSON writes them apart:
# both stand in token boxes and in a group box, each sign first somewhere.
_SIGNED_ZEROS = make_doc(
    [
        Token(0, "A", BBox(0.0, -0.0, 0.5, 0.0)),
        Token(1, "B", BBox(-0.0, 0.0, -0.0, 0.5)),
    ]
)

# An int and a float of one value also hash as one number, and JSON writes
# them apart too.
_INT_AND_FLOAT = Document(
    "d", (Token(0, "a", BBox(0.5, 0.5, 1, 1)), Token(1, "b", BBox(0.5, 0.5, 1.0, 1.0))), 10, 10
)


@settings(max_examples=300, deadline=None)
@given(case=decoded_documents())
@example(case=(make_doc([], doc_id="empty"), []))
@example(case=(_SIGNED_ZEROS, [ProductGroup(0, (0,), (0, 1), BBox(-0.0, 0.0, 0.5, -0.0))]))
@example(case=(_NO_DESCRIPTION, []))
@example(case=(_INT_AND_FLOAT, [ProductGroup(0, (0,), (0, 1), BBox(0.5, 0.5, 1.0, 1))]))
@example(
    case=(
        _NO_DESCRIPTION,
        [ProductGroup(0, (0,), (0, 1, 2), BBox(0.0, 0.0, 0.5, 0.5), incomplete=True)],
    )
)
def test_serialize_result_writes_canonical_json_of_the_reference_payload(case):
    doc, groups = case
    out = serialize_result(doc, groups)
    assert out == canonical_json(reference_result_payload(doc, groups))
    assert canonical_json(json.loads(out)) == out


# --------------------------------------------------------------------------
# parse_ocr checks each vertex on the raw JSON numbers and converts only the
# envelope; the reference converts every coordinate first. On any input both
# return equal documents, or both raise the same error.

_SIZES = [1, 100, 600, 2**53 - 1, 2**53, 2**53 + 1, 2**53 + 3, 2**60]


def _awkward_coordinates(limit: int):
    return st.sampled_from(
        [-1, -0.0, -1e-9, limit - 1, limit, limit + 1, limit + 3, limit + 0.5, float(limit),
         2**53, 2**53 + 1, 2**53 + 3, 10**400, -10**400, 1e308, True, False, None, "1",
         float("nan"), float("inf")]
    )


@st.composite
def ocr_payloads(draw):
    """A page of words with in-range polygons, ints and floats mixed, then
    up to three damages: an awkward coordinate, a vertex of another shape,
    or a polygon cut short."""
    width, height = draw(st.sampled_from(_SIZES)), draw(st.sampled_from(_SIZES))
    vertex = st.tuples(
        st.one_of(st.integers(0, width), st.floats(0, float(width))),
        st.one_of(st.integers(0, height), st.floats(0, float(height))),
    ).map(list)
    words = draw(
        st.lists(
            st.fixed_dictionaries(
                {
                    "text": st.sampled_from(["MILK", "12.50"]),
                    "polygon": st.lists(vertex, min_size=3, max_size=5),
                },
                optional={"confidence": st.sampled_from([0.5, 1, 0, 0.25, 2])},
            ),
            max_size=3,
        )
    )
    for _ in range(draw(st.integers(0, 3)) if words else 0):
        polygon = draw(st.sampled_from(words))["polygon"]
        if not polygon:
            continue
        j = draw(st.integers(0, len(polygon) - 1))
        damage = draw(st.sampled_from(["coordinate", "coordinate", "shape", "short"]))
        if damage == "coordinate":
            k = draw(st.integers(0, 1))
            polygon[j] = draw(vertex)
            polygon[j][k] = draw(_awkward_coordinates((width, height)[k]))
        elif damage == "shape":
            polygon[j] = draw(st.sampled_from([[1], [1, 1, 1], [], None, 5, {"x": 1, "y": 1}]))
        else:
            del polygon[j:]
    return {"doc_id": "doc-1", "page": {"width": width, "height": height}, "words": words}


def _outcome(parse, data):
    try:
        doc = parse(data)
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)
    return doc, repr(doc)  # repr tells -0.0 from 0.0


_MIXED = [[10, 20.5], [90.25, 20], [90, 30], [10.0, 30]]


@settings(max_examples=500, deadline=None)
@given(payload=ocr_payloads())
@example(payload=ocr_payload(words=[{"text": "A", "polygon": _MIXED}]))
@example(payload=ocr_payload(words=[{"text": "A", "polygon": [[-0.0, 0], [0, -0.0], [1, 1]]}]))
# Zero-size polygons: the largest x and y tie too, and the first of them wins.
@example(payload=ocr_payload(words=[{"text": "A", "polygon": [[-0.0, -0.0], [0, 0], [0, 0]]}]))
@example(payload=ocr_payload(words=[{"text": "A", "polygon": [[0, 0], [-0.0, -0.0], [-0.0, -0.0]]}]))
@example(payload=ocr_payload(words=[{"text": "A", "polygon": [[10, 10], [20, True], [20, 20]]}]))
# The bad vertex equals the one before it (True == 1): the error names vertex 1.
@example(payload=ocr_payload(words=[{"text": "A", "polygon": [[20, 1], [20, True], [20, 20]]}]))
# Fields whose inline test sends them to their named check, which reads
# them: non-ASCII text and integer confidences, next to a float one that
# passes inline.
@example(payload=ocr_payload(words=[{"text": "Café", "polygon": _MIXED}]))
@example(payload=ocr_payload(words=[{"text": "A\ud800", "polygon": _MIXED}]))
@example(payload=ocr_payload(words=[{"text": "A", "polygon": _MIXED, "confidence": 0}]))
@example(payload=ocr_payload(words=[{"text": "A", "polygon": _MIXED, "confidence": 1}]))
@example(payload=ocr_payload(words=[{"text": "A", "polygon": _MIXED, "confidence": 0.5}]))
# The largest page: float(2**53 - 1) is exact, and float(2**53 + 1), which
# is 2**53, lies off it. A page of 2**53 is refused.
@example(
    payload=ocr_payload(
        page={"width": 2**53 - 1, "height": 2**53 - 1},
        words=[{"text": "A", "polygon": [[2**53 - 1, 0], [0, 2**53 + 1], [1, 1]]}],
    )
)
@example(payload=ocr_payload(page={"width": 2**53, "height": 1}))
# Two faults: the vertex is named, as it comes before the confidence.
@example(
    payload=ocr_payload(
        words=[{"text": "A", "polygon": [[10, 10], [20, None], [20, 20]], "confidence": 2.0}]
    )
)
def test_parse_ocr_matches_the_reference(payload):
    data = json.dumps(payload).encode("utf-8")
    assert _outcome(parse_ocr, data) == _outcome(reference_parse_ocr, data)


# --------------------------------------------------------------------------
# parse_result tests the common value of each token field inline and sends
# any other value to the field's named check; the reference runs the named
# checks on every field. On any input both return equal documents and
# groups, or raise the same error.

_UNIT = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 0.1 + 0.2, 1.0]), st.floats(0, 1))
_RESULT_TEXT = st.sampled_from(["MILK", "12.50", "Café", "€3", "A\ud800", "\u2028"])


@st.composite
def unit_boxes(draw) -> BBox:
    x0, x1 = sorted((draw(_UNIT), draw(_UNIT)))
    y0, y1 = sorted((draw(_UNIT), draw(_UNIT)))
    return BBox(x0, y0, x1, y1)


@st.composite
def result_tokens(draw, i: int) -> Token:
    label = draw(st.sampled_from(EntityLabel))
    source = None if label is EntityLabel.UNTAGGED else draw(st.sampled_from(LabelSource))
    confidence = draw(st.none() | _UNIT)
    return Token(i, draw(_RESULT_TEXT), draw(unit_boxes()), label, source, confidence)


_NAN, _INF = float("nan"), float("inf")
_NOT_A_NUMBER = [True, False, None, "1", [0.5]]
# Each damage sets one field of a token to one of these values, or drops it.
_TOKEN_DAMAGES = {
    "token_id": [True, 0.0, 1.0, -1, 0, 1, 10**400, "0"],
    "text": ["", "é", "A\ud800", "\ud800\udc00", 5],
    "label": ["untagged", "price", "total", 3],
    "source": [None, "model", "correction", "oracle", "ground_truth", 3],
    "confidence": [0, 1, 0.5, -0.0, 1.5, -0.25, _NAN, _INF, 10**400, *_NOT_A_NUMBER],
    "bbox": [None, [0.0, 0.0, 1.0, 1.0], {"x_min": 0.0}],
}
_COORDINATES = [0, 1, 0.0, 0.5, 1.0, -0.0, 1.5, -0.25, _NAN, _INF, -_INF, 10**400, *_NOT_A_NUMBER]
# Each product damage sets one field of a product to one of these values,
# valid ones among them, or drops it.
_PRODUCT_DAMAGES = {
    "group_id": [True, False, 0.0, 1.0, -1, 7, 10**400, "0", None],
    "line_indices": [[1, 0], [0, 0], [-1], [-1, 0], [0, 2], [], [True], [0.0], "0", None],
    "incomplete": [True, False, 0, 1, 0.0, None, "false"],
    "token_ids": [[], [0, 0], "0", 0, None, [[0]], {"0": 0}],
    "bbox": [None, [0.0, 0.0, 1.0, 1.0], {"x_min": 0.0}, "box"],
}


def _damage_value(values: list) -> st.SearchStrategy:
    """One of ``values``, copied: a later damage may change a list or a
    dict it put into the payload in place, and the tables must stay as
    they are for the next example."""
    return st.sampled_from(values).map(copy.deepcopy)


@st.composite
def damaged_products(draw, products: list) -> None:
    """Damage one product of ``products``: a field of another type or
    value, a field or a box coordinate missing, a box coordinate that is
    an int, off the page or not a number, a record that is not an object,
    or a token id that another product, or the same one, already holds."""
    k = draw(st.integers(0, len(products) - 1))
    damage = draw(st.sampled_from(["field", "missing", "coordinate", "coordinate", "record",
                                   "shared", "shared"]))
    if damage == "record":
        products[k] = draw(st.sampled_from([None, [], "product", 0]))
        return
    product = products[k]
    if not isinstance(product, dict):
        return
    if damage == "field":
        key = draw(st.sampled_from(sorted(_PRODUCT_DAMAGES)))
        product[key] = draw(_damage_value(_PRODUCT_DAMAGES[key]))
    elif damage == "missing":
        product.pop(draw(st.sampled_from(sorted(_PRODUCT_DAMAGES))), None)
    elif damage == "coordinate":
        if not isinstance(box := product.get("bbox"), dict) or not box:
            return
        key = draw(st.sampled_from(sorted(box)))
        if draw(st.booleans()):
            box[key] = draw(_damage_value(_COORDINATES))
        else:
            del box[key]
    else:
        held = [
            tid for other in products if isinstance(other, dict)
            for tid in other.get("token_ids") or () if isinstance(tid, int)
        ]
        if held and isinstance(product.get("token_ids"), list):
            product["token_ids"].insert(
                draw(st.integers(0, len(product["token_ids"]))), draw(st.sampled_from(held))
            )


@st.composite
def result_payloads(draw):
    """serialize_result output for a page of tokens in disjoint groups, as
    every writer emits them, then up to three damages: a token field of
    another type or value (int, bool, NaN, infinite or huge numbers,
    non-ASCII or lone-surrogate text, a label without its source or the
    reverse), a field missing, a record that is not an object, or a bad
    group token id; and up to three damaged products."""
    n = draw(st.integers(0, 5))
    doc = make_doc([draw(result_tokens(i)) for i in range(n)])
    ids = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    spans = zip([0, *cuts], [*cuts, n])
    groups = [
        ProductGroup(g, (g,), tuple(ids[a:b]), draw(unit_boxes()))
        for g, (a, b) in enumerate(spans)
    ]
    payload = json.loads(serialize_result(doc, groups))
    tokens = payload["tokens"]
    for _ in range(draw(st.integers(0, 3)) if tokens else 0):
        j = draw(st.integers(0, n - 1))
        target = draw(st.sampled_from(["field", "field", "coordinate", "coordinate", "missing",
                                       "record", "group"]))
        if target == "record":
            tokens[j] = draw(st.sampled_from([None, [], "token", 0]))
        elif target == "group":
            group = draw(st.sampled_from(payload["products"]))
            group["token_ids"].append(draw(st.sampled_from([True, 1.0, -1, n, 10**400])))
        elif not isinstance(tokens[j], dict):
            continue
        elif target == "field":
            key = draw(st.sampled_from(sorted(_TOKEN_DAMAGES)))
            tokens[j][key] = draw(_damage_value(_TOKEN_DAMAGES[key]))
        elif target == "missing":
            tokens[j].pop(draw(st.sampled_from(sorted(_TOKEN_DAMAGES))), None)
        elif isinstance(box := tokens[j].get("bbox"), dict):
            box[draw(st.sampled_from(sorted(box)))] = draw(_damage_value(_COORDINATES))
    for _ in range(draw(st.integers(0, 3))):
        draw(damaged_products(payload["products"]))
    return payload


def _set_at_paths(records: list, edits) -> None:
    """Set each value of the ``path, value, ...`` pairs in ``edits`` at its
    path in ``records`` (``"1.bbox.x_min"``: the x_min of record 1's box)."""
    for path, value in zip(edits[::2], edits[1::2]):
        *keys, last = path.split(".")
        target = records
        for key in keys:
            target = target[int(key) if key.isdigit() else key]
        target[last] = value


def _result_with(*edits) -> dict:
    """A two-token result with the ``edits`` of :func:`_set_at_paths` made
    to its tokens."""
    doc = make_doc(
        [make_token(0, "MILK", 0, 10), make_token(1, "2.50", 50, 10, label=EntityLabel.PRICE)]
    )
    payload = json.loads(serialize_result(doc, []))
    _set_at_paths(payload["tokens"], edits)
    return payload


def _two_groups_with(*edits) -> dict:
    """A two-token result of two one-token groups with the ``edits`` of
    :func:`_set_at_paths` made to its products."""
    doc = make_doc([make_token(0, "MILK", 0, 10), make_token(1, "2.50", 50, 10)])
    groups = [ProductGroup(g, (g,), (g,), doc.tokens[g].bbox) for g in range(2)]
    payload = json.loads(serialize_result(doc, groups))
    _set_at_paths(payload["products"], edits)
    return payload


@settings(max_examples=500, deadline=None)
@given(payload=result_payloads())
# Fields whose inline test sends them to their named check, which reads
# them (integer coordinates and confidences, non-ASCII text) or names the
# fault.
@example(payload=_result_with("1.bbox.x_min", 0))
@example(payload=_result_with("1.bbox.y_max", 1))
@example(payload=_result_with("1.confidence", 0))
@example(payload=_result_with("1.confidence", 1))
@example(payload=_result_with("1.confidence", 0.5))
@example(payload=_result_with("1.text", "Café"))
@example(payload=_result_with("1.text", "A\ud800"))
@example(payload=_result_with("1.token_id", 0))
@example(payload=_result_with("0.source", "model"))
@example(payload=_result_with("1.source", None))
@example(payload=_result_with("1.bbox.x_max", 0.0))
# Two faults: the first field in the order of the checks is named.
@example(payload=_result_with("1.label", "total", "1.token_id", 5))
@example(payload=_result_with("1.confidence", 1.5, "1.bbox.x_min", _NAN))
# Products that the inline test sends to the named checks, which read
# them (an empty group, integer box coordinates, no flag) or name the fault.
@example(payload=_two_groups_with("0.token_ids", []))
@example(payload=_two_groups_with("0.bbox.x_min", 0))
@example(payload=_two_groups_with("1.bbox.y_max", 1))
@example(payload=_two_groups_with("0.incomplete", None))
@example(payload=_two_groups_with("1.incomplete", 0))
@example(payload=_two_groups_with("1.group_id", True))
@example(payload=_two_groups_with("0.line_indices", [1, 0]))
@example(payload=_two_groups_with("0.line_indices", [-1]))
@example(payload=_two_groups_with("1.token_ids", [1, 0]))
@example(payload=_two_groups_with("1.token_ids", [1, 1]))
@example(payload=_two_groups_with("1.token_ids", 0))
@example(payload=_two_groups_with("0.bbox", [0.0, 0.0, 1.0, 1.0]))
# Two faults in one product: the group id is named before the token id.
@example(payload=_two_groups_with("1.group_id", 1.0, "1.token_ids", [0]))
def test_parse_result_matches_the_reference(payload):
    data = json.dumps(payload).encode("utf-8")
    assert _outcome(parse_result, data) == _outcome(reference_parse_result, data)


# --------------------------------------------------------------------------
# parse_ground_truth tests a product of the common shape inline and sends
# any other to the named checks; the reference runs the named checks on
# every product. On any input both return equal products or raise the
# same error.

_BAD_IDS = [True, False, 1.0, 0.0, -1, 10**400, "0", None, [0]]


@st.composite
def truth_payloads(draw):
    """write_ground_truth_json output for disjoint products of a page's
    tokens, as every writer emits them, sometimes with an explicit null
    scalar id, then up to three damages: a product that is not an object,
    description ids missing, empty or not a list, an id that is a bool, a
    float, out of range or not a number, or an id used twice within one
    product or by two products."""
    n = draw(st.integers(1, 8))
    doc = make_doc([make_token(i, "A", 10 * i, 10) for i in range(n)])
    ids = draw(st.permutations(range(n)))
    products, start = [], 0
    while start < n and len(products) < 3:
        end = draw(st.integers(start + 1, n))
        chunk, start = ids[start:end], end
        cut = draw(st.integers(1, len(chunk)))
        rest = iter(chunk[cut:])
        scalars = [next(rest, None) if draw(st.booleans()) else None for _ in range(3)]
        products.append(Product(tuple(chunk[:cut]), *scalars))
    payload = json.loads(write_ground_truth_json(doc.doc_id, products))
    records = payload["products"]
    for record in records:
        if draw(st.booleans()):
            record.setdefault(draw(st.sampled_from(["code_id", "quantity_id", "price_id"])), None)
    for _ in range(draw(st.integers(0, 3)) if records else 0):
        k = draw(st.integers(0, len(records) - 1))
        damage = draw(st.sampled_from(["record", "description", "id", "id", "twice", "shared",
                                       "shared"]))
        if damage == "record":
            records[k] = draw(st.sampled_from([None, [], "product", 0]))
            continue
        record = records[k]
        if not isinstance(record, dict):
            continue
        desc = record.get("description_ids")
        if damage == "description":
            value = draw(st.sampled_from(["missing", [], "0", 0, None, {"0": 0}]))
            if value == "missing":
                record.pop("description_ids", None)
            else:
                record["description_ids"] = value
            continue
        key = draw(st.sampled_from(["description_ids", "code_id", "quantity_id", "price_id"]))
        if damage == "id":
            new_id = draw(st.sampled_from([*_BAD_IDS, n, n - 1, 0]))
        else:
            # An id already in this product, or in any product.
            owners = [record] if damage == "twice" else records
            held = [
                tid for other in owners if isinstance(other, dict)
                for tid in [*(other.get("description_ids") or ()),
                            *(other.get(s) for s in ("code_id", "quantity_id", "price_id"))]
                if type(tid) is int
            ]
            if not held:
                continue
            new_id = draw(st.sampled_from(held))
        if key != "description_ids":
            record[key] = new_id
        elif isinstance(desc, list):
            desc.insert(draw(st.integers(0, len(desc))), new_id)
    return doc, payload


_TRUTH_DOC = make_doc([make_token(i, "A", 10 * i, 10) for i in range(4)])


def _truth_with(*products) -> tuple[Document, dict]:
    return _TRUTH_DOC, {"doc_id": _TRUTH_DOC.doc_id, "products": list(products)}


@settings(max_examples=500, deadline=None)
@given(case=truth_payloads())
# A null scalar id is no id; an id claimed twice is named with its owner.
@example(case=_truth_with({"description_ids": [0], "code_id": None, "price_id": 1}))
@example(case=_truth_with({"description_ids": [0, 1]}, {"description_ids": [2], "price_id": 1}))
@example(case=_truth_with({"description_ids": [0], "price_id": 0}))
@example(case=_truth_with({"description_ids": [0, 0]}))
# Two faults: the description is named before the scalar id, and a bad id
# before a claim.
@example(case=_truth_with({"description_ids": [True], "code_id": 9}))
@example(case=_truth_with({"description_ids": [0]}, {"description_ids": [0, 9]}))
@example(case=_truth_with({"description_ids": [0]}, {"description_ids": [1], "code_id": 1.0}))
def test_parse_ground_truth_matches_the_reference(case):
    doc, payload = case
    data = json.dumps(payload).encode("utf-8")
    assert _outcome(lambda d: parse_ground_truth(d, doc), data) == _outcome(
        lambda d: reference_parse_ground_truth(d, doc), data
    )
