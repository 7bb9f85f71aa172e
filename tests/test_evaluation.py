from __future__ import annotations

import pytest

from receipt_kie.errors import CorpusMismatchError
from receipt_kie.evaluation import (
    ENTITY_ORDER,
    DocPrediction,
    EntityCounts,
    EvalReport,
    MatchMode,
    build_report,
    score_entities,
    score_whole_products,
)
from receipt_kie.ingest import apply_truth_labels
from receipt_kie.layout import detect_lines_geometric, group_product_lines
from receipt_kie.model import EntityLabel, LabelSource, Product, ProductGroup, Token, union_bbox

from helpers import make_doc, make_token


class TestEntityCounts:
    def test_precision_recall_f1(self):
        c = EntityCounts(tp=8, fp=2, fn=2)
        assert c.precision == pytest.approx(0.8)
        assert c.recall == pytest.approx(0.8)
        assert c.f1 == pytest.approx(0.8)

    def test_zero_denominators_score_zero(self):
        empty = EntityCounts()
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f1 == 0.0
        assert EntityCounts(fp=3).precision == 0.0
        assert EntityCounts(fn=3).recall == 0.0

    def test_addition(self):
        total = EntityCounts(1, 2, 3) + EntityCounts(4, 5, 6)
        assert (total.tp, total.fp, total.fn) == (5, 7, 9)


def truth_for(doc, products):
    return {doc.doc_id: (doc, tuple(products))}


class TestScoreEntities:
    def test_perfect_predictions(self, receipt_doc, receipt_truth, labeled_receipt):
        counts = score_entities(
            {receipt_doc.doc_id: labeled_receipt}, truth_for(receipt_doc, receipt_truth)
        )
        assert counts[EntityLabel.DESCRIPTION] == EntityCounts(tp=3, fp=0, fn=0)
        assert counts[EntityLabel.CODE] == EntityCounts(tp=2, fp=0, fn=0)
        assert counts[EntityLabel.QUANTITY] == EntityCounts(tp=2, fp=0, fn=0)
        assert counts[EntityLabel.PRICE] == EntityCounts(tp=2, fp=0, fn=0)

    def test_dropped_label_is_a_false_negative(self, receipt_doc, receipt_truth, labeled_receipt):
        dropped = labeled_receipt.with_tokens(
            [
                tok
                if tok.token_id != 3
                else Token(3, tok.text, tok.bbox, EntityLabel.UNTAGGED, None, None)
                for tok in labeled_receipt.tokens
            ]
        )
        counts = score_entities(
            {receipt_doc.doc_id: dropped}, truth_for(receipt_doc, receipt_truth)
        )
        assert counts[EntityLabel.CODE] == EntityCounts(tp=1, fp=0, fn=1)

    def test_mislabeled_token_is_fp_for_one_and_fn_for_the_other(
        self, receipt_doc, receipt_truth, labeled_receipt
    ):
        # truth quantity token relabeled as a code: codes gain a false
        # positive and quantities lose their token
        swapped = labeled_receipt.with_tokens(
            [
                tok
                if tok.token_id != 4
                else Token(4, tok.text, tok.bbox, EntityLabel.CODE, LabelSource.MODEL, None)
                for tok in labeled_receipt.tokens
            ]
        )
        counts = score_entities(
            {receipt_doc.doc_id: swapped}, truth_for(receipt_doc, receipt_truth)
        )
        assert counts[EntityLabel.CODE] == EntityCounts(tp=2, fp=1, fn=0)
        assert counts[EntityLabel.QUANTITY] == EntityCounts(tp=1, fp=0, fn=1)

    def test_strict_mode_counts_garbled_text_as_miss(
        self, receipt_doc, receipt_truth, labeled_receipt
    ):
        garbled = labeled_receipt.with_tokens(
            [
                tok
                if tok.token_id != 3
                else Token(3, "49O21O2", tok.bbox, EntityLabel.CODE, LabelSource.MODEL, None)
                for tok in labeled_receipt.tokens
            ]
        )
        tag_counts = score_entities(
            {receipt_doc.doc_id: garbled}, truth_for(receipt_doc, receipt_truth)
        )
        strict_counts = score_entities(
            {receipt_doc.doc_id: garbled},
            truth_for(receipt_doc, receipt_truth),
            MatchMode.STRICT_OCR,
        )
        assert tag_counts[EntityLabel.CODE] == EntityCounts(tp=2, fp=0, fn=0)
        # the garbled token is simultaneously a spurious prediction and a miss
        assert strict_counts[EntityLabel.CODE] == EntityCounts(tp=1, fp=1, fn=1)

    def test_label_on_another_token_is_fp_and_fn(self, receipt_doc, receipt_truth, labeled_receipt):
        # the code label moves from its token (3) to an untagged one (6)
        moved = labeled_receipt.with_tokens(
            [
                Token(tok.token_id, tok.text, tok.bbox, label, source, None)
                for tok in labeled_receipt.tokens
                for label, source in [
                    (EntityLabel.UNTAGGED, None) if tok.token_id == 3
                    else (EntityLabel.CODE, LabelSource.MODEL) if tok.token_id == 6
                    else (tok.label, tok.source)
                ]
            ]
        )
        for mode in MatchMode:
            counts = score_entities(
                {receipt_doc.doc_id: moved}, truth_for(receipt_doc, receipt_truth), mode
            )
            assert counts[EntityLabel.CODE] == EntityCounts(tp=1, fp=1, fn=1)

    def test_strict_mode_compares_nfc_forms(self):
        truth_doc = make_doc([make_token(0, "Caf\u00e9", 40, 100)])
        pred_doc = make_doc(
            [make_token(0, "Cafe\u0301", 40, 100, label=EntityLabel.DESCRIPTION)]
        )
        counts = score_entities(
            {pred_doc.doc_id: pred_doc},
            truth_for(truth_doc, [Product(description_ids=(0,))]),
            MatchMode.STRICT_OCR,
        )
        assert counts[EntityLabel.DESCRIPTION] == EntityCounts(tp=1, fp=0, fn=0)

    def test_misaligned_corpora_rejected(self, receipt_doc, receipt_truth, labeled_receipt):
        with pytest.raises(CorpusMismatchError, match="receipt-fixture"):
            score_entities({}, truth_for(receipt_doc, receipt_truth))
        with pytest.raises(CorpusMismatchError, match="stray-doc"):
            score_entities(
                {
                    receipt_doc.doc_id: labeled_receipt,
                    "stray-doc": labeled_receipt,
                },
                truth_for(receipt_doc, receipt_truth),
            )


def predict(doc, groups=None):
    if groups is None:
        groups = group_product_lines(doc, detect_lines_geometric(doc))
    return DocPrediction.from_groups(doc, groups)


class TestScoreWholeProducts:
    def test_perfect_decode_scores_all_products(
        self, receipt_doc, receipt_truth, labeled_receipt
    ):
        counts = score_whole_products(
            {receipt_doc.doc_id: predict(labeled_receipt)},
            truth_for(receipt_doc, receipt_truth),
        )
        assert counts == EntityCounts(tp=2, fp=0, fn=0)

    def test_one_wrong_scalar_fails_the_whole_product(
        self, receipt_doc, receipt_truth, labeled_receipt
    ):
        # drop the first product's code label: that group no longer
        # reproduces the truth product, so it flips to FP + FN
        dropped = labeled_receipt.with_tokens(
            [
                tok
                if tok.token_id != 3
                else Token(3, tok.text, tok.bbox, EntityLabel.UNTAGGED, None, None)
                for tok in labeled_receipt.tokens
            ]
        )
        counts = score_whole_products(
            {receipt_doc.doc_id: predict(dropped)}, truth_for(receipt_doc, receipt_truth)
        )
        assert counts == EntityCounts(tp=1, fp=1, fn=1)

    def test_spurious_extra_entity_fails_the_product(self, receipt_doc, receipt_truth):
        # truth's second product has no code; predicting one must sink it
        truth_without_code = (
            receipt_truth[0],
            Product(
                description_ids=(8,), quantity_id=10, price_id=11,
            ),
        )
        labeled = apply_truth_labels(receipt_doc, receipt_truth, source=LabelSource.MODEL)
        counts = score_whole_products(
            {receipt_doc.doc_id: predict(labeled)},
            truth_for(receipt_doc, truth_without_code),
        )
        assert counts == EntityCounts(tp=1, fp=1, fn=1)

    def test_description_set_must_match_exactly(self, receipt_doc, receipt_truth):
        # label only one of the two description tokens: the group's
        # description set is a strict subset, so the product fails even
        # though the majority alignment still finds it
        partial = apply_truth_labels(receipt_doc, receipt_truth, source=LabelSource.MODEL)
        partial = partial.with_tokens(
            [
                tok
                if tok.token_id != 2
                else Token(2, tok.text, tok.bbox, EntityLabel.UNTAGGED, None, None)
                for tok in partial.tokens
            ]
        )
        counts = score_whole_products(
            {receipt_doc.doc_id: predict(partial)}, truth_for(receipt_doc, receipt_truth)
        )
        assert counts == EntityCounts(tp=1, fp=1, fn=1)

    def test_group_without_majority_claims_nothing(self, receipt_doc, receipt_truth):
        # a group whose description tokens split evenly between two truth
        # products (one from each): neither owns a strict majority, so the
        # group aligns to nothing and both products go unmatched
        labeled = apply_truth_labels(receipt_doc, receipt_truth, source=LabelSource.MODEL)
        mega = ProductGroup(
            group_id=0,
            line_indices=(1, 2, 3, 4),
            token_ids=tuple(range(2, 12)),  # descriptions: {2} and {8}
            bbox=union_bbox(labeled.token(t).bbox for t in range(2, 12)),
            incomplete=False,
        )
        counts = score_whole_products(
            {receipt_doc.doc_id: predict(labeled, [mega])},
            truth_for(receipt_doc, receipt_truth),
        )
        assert counts == EntityCounts(tp=0, fp=1, fn=2)

    def test_oversized_group_claims_but_fails_on_the_description_set(
        self, receipt_doc, receipt_truth
    ):
        # a group holding both description tokens of product one plus the
        # lone description of product two still aligns to product one (2 of
        # 3 is a strict majority) but its description set is a superset, so
        # the match fails
        labeled = apply_truth_labels(receipt_doc, receipt_truth, source=LabelSource.MODEL)
        mega = ProductGroup(
            group_id=0,
            line_indices=(1, 2, 3, 4),
            token_ids=tuple(range(1, 12)),  # descriptions: {1, 2} and {8}
            bbox=union_bbox(labeled.token(t).bbox for t in range(1, 12)),
            incomplete=False,
        )
        counts = score_whole_products(
            {receipt_doc.doc_id: predict(labeled, [mega])},
            truth_for(receipt_doc, receipt_truth),
        )
        assert counts == EntityCounts(tp=0, fp=1, fn=2)

    def test_competing_groups_resolved_by_overlap_then_group_id(self):
        # two description tokens in truth; group A covers both, group B
        # covers one plus the scalar tokens. A has the larger overlap and
        # wins the claim; B becomes a false positive.
        tokens = [
            make_token(0, "GREEN", 40, 40, label=EntityLabel.DESCRIPTION),
            make_token(1, "TEA", 110, 40, label=EntityLabel.DESCRIPTION),
            make_token(2, "2", 300, 80, label=EntityLabel.QUANTITY),
            make_token(3, "9.99", 480, 80, label=EntityLabel.PRICE),
        ]
        doc = make_doc(tokens, doc_id="competing")
        truth = [
            Product(description_ids=(0, 1), quantity_id=2, price_id=3)
        ]
        group_a = ProductGroup(
            0, (0,), (0, 1), union_bbox(t.bbox for t in tokens[:2]), False
        )
        group_b = ProductGroup(
            1, (1,), (1, 2, 3), union_bbox(t.bbox for t in tokens[1:]), False
        )
        counts = score_whole_products(
            {"competing": predict(doc, [group_a, group_b])}, {"competing": (doc, tuple(truth))}
        )
        # group A wins the alignment but misses quantity and price, so
        # nothing scores: 2 group FPs and the product unmatched
        assert counts == EntityCounts(tp=0, fp=2, fn=1)

    def test_winning_claimant_can_still_score(self):
        # same two-claimant shape, but the larger-overlap group carries the
        # scalars too: it wins the claim and matches, the loser is the FP
        tokens = [
            make_token(0, "GREEN", 40, 40, label=EntityLabel.DESCRIPTION),
            make_token(1, "TEA", 110, 40, label=EntityLabel.DESCRIPTION),
            make_token(2, "2", 300, 80, label=EntityLabel.QUANTITY),
            make_token(3, "9.99", 480, 80, label=EntityLabel.PRICE),
        ]
        doc = make_doc(tokens, doc_id="competing-2")
        truth = [Product(description_ids=(0, 1), quantity_id=2, price_id=3)]
        full = ProductGroup(0, (0, 1), (0, 1, 2, 3), union_bbox(t.bbox for t in tokens), False)
        partial = ProductGroup(1, (0,), (1,), tokens[1].bbox, True)
        counts = score_whole_products(
            {"competing-2": predict(doc, [full, partial])},
            {"competing-2": (doc, tuple(truth))},
        )
        assert counts == EntityCounts(tp=1, fp=1, fn=0)

    def test_strict_mode_fails_products_with_garbled_text(
        self, receipt_doc, receipt_truth, labeled_receipt
    ):
        garbled = labeled_receipt.with_tokens(
            [
                tok
                if tok.token_id != 11
                else Token(11, "9,99", tok.bbox, EntityLabel.PRICE, LabelSource.MODEL, None)
                for tok in labeled_receipt.tokens
            ]
        )
        tag = score_whole_products(
            {receipt_doc.doc_id: predict(garbled)}, truth_for(receipt_doc, receipt_truth)
        )
        strict = score_whole_products(
            {receipt_doc.doc_id: predict(garbled)},
            truth_for(receipt_doc, receipt_truth),
            MatchMode.STRICT_OCR,
        )
        assert tag == EntityCounts(tp=2, fp=0, fn=0)
        assert strict == EntityCounts(tp=1, fp=1, fn=1)


class TestReport:
    def test_build_report_wires_both_scorers(self, receipt_doc, receipt_truth, labeled_receipt):
        report = build_report(
            {receipt_doc.doc_id: predict(labeled_receipt)},
            truth_for(receipt_doc, receipt_truth),
        )
        assert report.corpus_size == 1
        assert report.whole_products == EntityCounts(tp=2, fp=0, fn=0)
        assert report.entities[EntityLabel.CODE].f1 == pytest.approx(1.0)

    def test_as_dict_shape(self, receipt_doc, receipt_truth, labeled_receipt):
        report = build_report(
            {receipt_doc.doc_id: predict(labeled_receipt)},
            truth_for(receipt_doc, receipt_truth),
        )
        payload = report.as_dict()
        assert payload["mode"] == "tag"
        assert set(payload["entities"]) == {"descriptions", "codes", "quantities", "prices"}
        assert payload["entities"]["codes"]["tp"] == 2
        assert payload["whole_products"]["f1"] == pytest.approx(1.0)

    def test_format_table_lists_every_row(self, receipt_doc, receipt_truth, labeled_receipt):
        report = build_report(
            {receipt_doc.doc_id: predict(labeled_receipt)},
            truth_for(receipt_doc, receipt_truth),
        )
        table = report.format_table()
        lines = table.splitlines()
        assert lines[0].split()[0] == "entity"
        for name in ("descriptions", "codes", "quantities", "prices", "whole"):
            assert any(line.startswith(name) for line in lines[1:])

    def test_empty_report_renders(self):
        report = EvalReport(
            mode=MatchMode.TAG_ONLY,
            corpus_size=0,
            entities={label: EntityCounts() for label in ENTITY_ORDER},
        )
        assert "0.000" in report.format_table()
