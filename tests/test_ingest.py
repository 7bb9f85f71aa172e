from __future__ import annotations

import json

import pytest

from receipt_kie.errors import (
    MalformedJsonError,
    SchemaError,
    TokenReferenceError,
)
from receipt_kie.ingest import (
    GroundTruthProduct,
    apply_truth_labels,
    canonical_json,
    normalize_text,
    parse_ground_truth,
    parse_ocr,
    parse_result,
    serialize_result,
    write_ground_truth_json,
)
from receipt_kie.layout import detect_lines_geometric, group_product_lines
from receipt_kie.model import BBox, EntityLabel, LabelSource

from helpers import make_doc, make_token


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
        assert tok.confidence == pytest.approx(0.93)

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
        with pytest.raises(MalformedJsonError) as exc:
            parse_ocr(b'{"doc_id": }')
        assert exc.value.byte_offset == 11

    def test_byte_offset_counts_utf8_bytes(self):
        # "é" is two bytes in UTF-8, so the character offset and the byte
        # offset of the error disagree.
        bad = '{"doc_id": "é", "x": }'.encode("utf-8")
        with pytest.raises(MalformedJsonError) as exc:
            parse_ocr(bad)
        assert exc.value.byte_offset == bad.index(b"}")

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

    @pytest.mark.parametrize("missing", ["doc_id", "page", "words"])
    def test_missing_top_level_field(self, missing):
        payload = ocr_payload()
        del payload[missing]
        with pytest.raises(SchemaError, match=missing):
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


class TestApplyTruthLabels:
    def test_labels_and_source(self, receipt_doc, receipt_truth):
        labeled = apply_truth_labels(receipt_doc, receipt_truth)
        assert labeled.token(3).label is EntityLabel.CODE
        assert labeled.token(3).source is LabelSource.GROUND_TRUTH
        assert labeled.token(4).label is EntityLabel.QUANTITY
        assert labeled.token(0).label is EntityLabel.UNTAGGED
        assert labeled.token(0).source is None

    def test_simulated_model_source(self, receipt_doc, receipt_truth):
        labeled = apply_truth_labels(receipt_doc, receipt_truth, source=LabelSource.MODEL)
        assert labeled.token(3).source is LabelSource.MODEL

    def test_conflicting_claims_rejected(self, receipt_doc):
        products = [
            GroundTruthProduct(description_ids=(1,), code_id=1),
        ]
        with pytest.raises(ValueError, match="token 1"):
            apply_truth_labels(receipt_doc, products)


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

    @pytest.mark.parametrize("ids", [[0, 2], [0, 0]])
    def test_token_ids_must_be_dense(self, labeled_receipt, ids):
        payload = json.loads(serialize_result(labeled_receipt, []))
        payload["tokens"] = payload["tokens"][:2]
        for tok, token_id in zip(payload["tokens"], ids):
            tok["token_id"] = token_id
        with pytest.raises(SchemaError, match=rf"token 1: token_id {ids[1]}"):
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
