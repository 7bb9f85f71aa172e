from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from receipt_kie.layout import detect_lines_geometric, group_product_lines
from receipt_kie.model import (
    BBox,
    EntityLabel,
    LabelSource,
    Product,
    ProductGroup,
    Token,
)
from receipt_kie.synth import as_model_predictions

from helpers import cpu_seconds_per_call, make_doc, make_token
from reference_impls import reference_score_entities, reference_score_whole_products, union_bbox


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
    return doc, tuple(products)


class TestScoreEntities:
    def test_perfect_predictions(self, receipt_doc, receipt_truth, labeled_receipt):
        counts = score_entities(labeled_receipt, truth_for(receipt_doc, receipt_truth))
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
        counts = score_entities(dropped, truth_for(receipt_doc, receipt_truth))
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
        counts = score_entities(swapped, truth_for(receipt_doc, receipt_truth))
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
        tag_counts = score_entities(garbled, truth_for(receipt_doc, receipt_truth))
        strict_counts = score_entities(
            garbled,
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
            counts = score_entities(moved, truth_for(receipt_doc, receipt_truth), mode)
            assert counts[EntityLabel.CODE] == EntityCounts(tp=1, fp=1, fn=1)

    def test_strict_mode_compares_nfc_forms(self):
        truth_doc = make_doc([make_token(0, "Caf\u00e9", 40, 100)])
        pred_doc = make_doc(
            [make_token(0, "Cafe\u0301", 40, 100, label=EntityLabel.DESCRIPTION)]
        )
        counts = score_entities(
            pred_doc,
            truth_for(truth_doc, [Product(description_ids=(0,))]),
            MatchMode.STRICT_OCR,
        )
        assert counts[EntityLabel.DESCRIPTION] == EntityCounts(tp=1, fp=0, fn=0)


def predict(doc, groups=None):
    if groups is None:
        groups = group_product_lines(doc, detect_lines_geometric(doc))
    return DocPrediction.from_groups(doc, groups)


class TestScoreWholeProducts:
    def test_perfect_decode_scores_all_products(
        self, receipt_doc, receipt_truth, labeled_receipt
    ):
        counts = score_whole_products(
            predict(labeled_receipt),
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
        counts = score_whole_products(predict(dropped), truth_for(receipt_doc, receipt_truth))
        assert counts == EntityCounts(tp=1, fp=1, fn=1)

    def test_spurious_extra_entity_fails_the_product(self, receipt_doc, receipt_truth):
        # truth's second product has no code; predicting one must sink it
        truth_without_code = (
            receipt_truth[0],
            Product(
                description_ids=(8,), quantity_id=10, price_id=11,
            ),
        )
        labeled = as_model_predictions(receipt_doc, receipt_truth)
        counts = score_whole_products(
            predict(labeled),
            truth_for(receipt_doc, truth_without_code),
        )
        assert counts == EntityCounts(tp=1, fp=1, fn=1)

    def test_description_set_must_match_exactly(self, receipt_doc, receipt_truth):
        # label only one of the two description tokens: the group's
        # description set is a strict subset, so the product fails even
        # though the majority alignment still finds it
        partial = as_model_predictions(receipt_doc, receipt_truth)
        partial = partial.with_tokens(
            [
                tok
                if tok.token_id != 2
                else Token(2, tok.text, tok.bbox, EntityLabel.UNTAGGED, None, None)
                for tok in partial.tokens
            ]
        )
        counts = score_whole_products(predict(partial), truth_for(receipt_doc, receipt_truth))
        assert counts == EntityCounts(tp=1, fp=1, fn=1)

    def test_group_without_majority_claims_nothing(self, receipt_doc, receipt_truth):
        # a group whose description tokens split evenly between two truth
        # products (one from each): neither owns a strict majority, so the
        # group aligns to nothing and both products go unmatched
        labeled = as_model_predictions(receipt_doc, receipt_truth)
        mega = ProductGroup(
            group_id=0,
            line_indices=(1, 2, 3, 4),
            token_ids=tuple(range(2, 12)),  # descriptions: {2} and {8}
            bbox=union_bbox(labeled.token(t).bbox for t in range(2, 12)),
            incomplete=False,
        )
        counts = score_whole_products(
            predict(labeled, [mega]),
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
        labeled = as_model_predictions(receipt_doc, receipt_truth)
        mega = ProductGroup(
            group_id=0,
            line_indices=(1, 2, 3, 4),
            token_ids=tuple(range(1, 12)),  # descriptions: {1, 2} and {8}
            bbox=union_bbox(labeled.token(t).bbox for t in range(1, 12)),
            incomplete=False,
        )
        counts = score_whole_products(
            predict(labeled, [mega]),
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
        counts = score_whole_products(predict(doc, [group_a, group_b]), (doc, tuple(truth)))
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
            predict(doc, [full, partial]),
            (doc, tuple(truth)),
        )
        assert counts == EntityCounts(tp=1, fp=1, fn=0)

    def test_half_of_a_groups_descriptions_is_no_majority(self):
        # group A holds both description tokens of the product plus two
        # strays: half is not a strict majority, so A claims nothing and
        # cannot take the product from B, the exact copy with the larger id
        tokens = [
            make_token(0, "GREEN", 40, 40, label=EntityLabel.DESCRIPTION),
            make_token(1, "TEA", 110, 40, label=EntityLabel.DESCRIPTION),
            make_token(2, "HOT", 40, 80, label=EntityLabel.DESCRIPTION),
            make_token(3, "CUP", 110, 80, label=EntityLabel.DESCRIPTION),
        ]
        doc = make_doc(tokens, doc_id="half")
        truth = [Product(description_ids=(0, 1))]
        group_a = ProductGroup(0, (0, 1), (0, 1, 2, 3), union_bbox(t.bbox for t in tokens))
        group_b = ProductGroup(1, (0,), (0, 1), union_bbox(t.bbox for t in tokens[:2]))
        counts = score_whole_products(predict(doc, [group_a, group_b]), (doc, tuple(truth)))
        assert counts == EntityCounts(tp=1, fp=1, fn=0)

    @pytest.mark.parametrize("stray", [0, 5], ids=["an earlier product's", "no product's"])
    def test_a_majority_among_stray_tokens_still_claims(self, stray):
        # Group A holds all three description tokens of the second product
        # and one stray token: three of four is a strict majority, so A
        # claims it and, with the smaller id, takes it from B, the exact
        # copy. Neither scores.
        tokens = [
            make_token(tid, "A", 40 * tid, 40, label=EntityLabel.DESCRIPTION) for tid in range(6)
        ]
        doc = make_doc(tokens, doc_id="stray")
        truth = (Product(description_ids=(0, 1)), Product(description_ids=(2, 3, 4)))
        box = union_bbox(t.bbox for t in tokens)
        group_a = ProductGroup(0, (0,), (stray, 2, 3, 4), box)
        group_b = ProductGroup(1, (1,), (2, 3, 4), box)
        pred = predict(doc, [group_a, group_b])
        counts = score_whole_products(pred, (doc, truth))
        assert counts == EntityCounts(tp=0, fp=2, fn=2)
        assert counts == reference_score_whole_products(
            {"stray": pred}, {"stray": (doc, truth)}, MatchMode.TAG_ONLY
        )

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
        tag = score_whole_products(predict(garbled), truth_for(receipt_doc, receipt_truth))
        strict = score_whole_products(
            predict(garbled),
            truth_for(receipt_doc, receipt_truth),
            MatchMode.STRICT_OCR,
        )
        assert tag == EntityCounts(tp=2, fp=0, fn=0)
        assert strict == EntityCounts(tp=1, fp=1, fn=1)


def _page_of(n: int) -> tuple[DocPrediction, tuple]:
    """A page of ``n`` products of three description tokens and a price,
    each decoded into a group of its own, and its truth."""
    tokens, products, groups = [], [], []
    for g in range(n):
        ids = tuple(range(4 * g, 4 * g + 4))
        for tid in ids:
            label = EntityLabel.PRICE if tid == ids[-1] else EntityLabel.DESCRIPTION
            tokens.append(Token(tid, "A", BBox(0.0, 0.0, 0.1, 0.1), label, LabelSource.MODEL))
        products.append(Product(ids[:3], price_id=ids[3]))
        groups.append(ProductGroup(g, (g,), ids, BBox(0.0, 0.0, 1.0, 1.0)))
    doc = make_doc(tokens)
    return DocPrediction(doc, tuple(groups), tuple(products)), truth_for(doc, products)


def test_whole_product_alignment_is_linear_in_the_products_of_a_page():
    # Four times the products cost about four times as much; an alignment
    # that tries every product for every group costs about sixteen times.
    small, large = _page_of(100), _page_of(400)
    assert score_whole_products(*large) == EntityCounts(tp=400, fp=0, fn=0)
    per_small, per_large = cpu_seconds_per_call(
        (lambda: score_whole_products(*small), 40), (lambda: score_whole_products(*large), 10)
    )
    assert per_large <= 6 * per_small


class TestReport:
    def test_build_report_wires_both_scorers(self, receipt_doc, receipt_truth, labeled_receipt):
        report = build_report([(predict(labeled_receipt), truth_for(receipt_doc, receipt_truth))])
        assert report.corpus_size == 1
        assert report.whole_products == EntityCounts(tp=2, fp=0, fn=0)
        assert report.entities[EntityLabel.CODE].f1 == pytest.approx(1.0)

    def test_as_dict_shape(self, receipt_doc, receipt_truth, labeled_receipt):
        report = build_report([(predict(labeled_receipt), truth_for(receipt_doc, receipt_truth))])
        payload = report.as_dict()
        assert payload["mode"] == "tag"
        assert set(payload["entities"]) == {"descriptions", "codes", "quantities", "prices"}
        assert payload["entities"]["codes"]["tp"] == 2
        assert payload["whole_products"]["f1"] == pytest.approx(1.0)

    def test_format_table_lists_every_row(self, receipt_doc, receipt_truth, labeled_receipt):
        report = build_report([(predict(labeled_receipt), truth_for(receipt_doc, receipt_truth))])
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
            whole_products=EntityCounts(),
        )
        assert "0.000" in report.format_table()


# --------------------------------------------------------------------------
# Differential test: both scorers against their literal references.

_LABELS = (*ENTITY_ORDER, EntityLabel.UNTAGGED)
# A truth text, an equal text in another Unicode form, and a misread one.
_TEXT_VARIANTS = (("Caf\u00e9", "Cafe\u0301", "Cafe"), ("9.99", "9.99", "9,99"), ("A", "A", "4"))


@st.composite
def _products(draw, n_tokens: int, base: Product | None = None) -> Product:
    ids = st.integers(0, n_tokens - 1)
    maybe_id = st.none() | ids
    if base is None or draw(st.booleans()):
        description = tuple(draw(st.lists(ids, max_size=4)))
        return Product(description, draw(maybe_id), draw(maybe_id), draw(maybe_id))
    # A copy of ``base``, often with one field changed: a tie or a near miss.
    fields = [base.description_ids, *base.scalar_ids()]
    field_index = draw(st.integers(0, 4))
    if field_index == 0:
        # Extra tokens: as many as the base has gives an overlap of exactly half.
        extra = draw(st.lists(ids, min_size=1, max_size=len(base.description_ids)))
        fields[0] = tuple(draw(st.permutations([*base.description_ids, *extra])))
    elif field_index < 4:
        fields[field_index] = draw(maybe_id)
    return Product(*fields)


@st.composite
def _scoring_corpus(draw):
    """Predictions and truth for 1-3 documents of up to 8 tokens: random
    labels and misread texts; truth products that may share tokens; groups
    with clashing ids whose entities copy a truth product, change one field
    of it, or are random (an empty description among them)."""
    predictions, truth = {}, {}
    for d in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 8))
        truth_tokens, pred_tokens = [], []
        for tid in range(n):
            variants = draw(st.sampled_from(_TEXT_VARIANTS))
            bbox = BBox(0.0, tid / 8, 0.1, (tid + 1) / 8)
            label = draw(st.sampled_from(_LABELS))
            source = None if label is EntityLabel.UNTAGGED else LabelSource.MODEL
            truth_tokens.append(Token(tid, variants[0], bbox))
            pred_tokens.append(Token(tid, draw(st.sampled_from(variants)), bbox, label, source))
        truth_products = []
        for _ in range(draw(st.integers(0, 3))):
            base = draw(st.sampled_from(truth_products)) if truth_products else None
            product = draw(_products(n, base))
            if not product.description_ids:
                product = Product((0,), *product.scalar_ids())
            truth_products.append(product)
        groups, assignments = [], []
        for _ in range(draw(st.integers(0, 4))):
            base = draw(st.sampled_from(truth_products)) if truth_products else None
            groups.append(ProductGroup(draw(st.integers(0, 2)), (), (), BBox(0.0, 0.0, 1.0, 1.0)))
            assignments.append(draw(_products(n, base)))
        doc_id = f"doc-{d}"
        pred_doc = make_doc(pred_tokens, doc_id=doc_id)
        predictions[doc_id] = DocPrediction(pred_doc, tuple(groups), tuple(assignments))
        truth[doc_id] = (make_doc(truth_tokens, doc_id=doc_id), tuple(truth_products))
    return predictions, truth


@settings(max_examples=300, deadline=None)
@given(corpus=_scoring_corpus(), mode=st.sampled_from(MatchMode))
def test_scorers_match_their_references(corpus, mode):
    predictions, truth = corpus
    documents = {doc_id: pred.document for doc_id, pred in predictions.items()}
    report = build_report(((predictions[doc_id], truth[doc_id]) for doc_id in truth), mode)
    assert report.entities == reference_score_entities(documents, truth, mode)
    assert report.whole_products == reference_score_whole_products(predictions, truth, mode)
