from __future__ import annotations

import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from receipt_kie import tagging
from receipt_kie.corrections import _split_number, parse_float, parse_integer
from receipt_kie.errors import LabelConflictError, SchemaError, TokenReferenceError
from receipt_kie.model import BBox, Document, EntityLabel, LabelSource, Token
from receipt_kie.synth import CorpusSpec, generate_corpus
from receipt_kie.tagging import heuristic_tag, import_predictions

from helpers import make_doc, make_token
from reference_impls import oracle_heuristic_label


class TestHeuristicRules:
    """Frozen expectations for the rule table, one token per rule."""

    def tagged(self, text, x0):
        doc = make_doc([make_token(0, text, x0, 100)])
        return heuristic_tag(doc).tokens[0]

    def test_decimal_in_price_band_is_price(self):
        assert self.tagged("138.00", 480).label is EntityLabel.PRICE

    def test_decimal_left_of_price_band_is_untagged(self):
        # 69.00 at x=0.6: numeric but mid-line, e.g. a unit price
        assert self.tagged("69.00", 360).label is EntityLabel.UNTAGGED

    def test_currency_sign_is_stripped_before_matching(self):
        assert self.tagged("$9.99", 480).label is EntityLabel.PRICE
        assert self.tagged("9.99€", 480).label is EntityLabel.PRICE

    def test_small_integer_in_quantity_band_is_quantity(self):
        assert self.tagged("2", 300).label is EntityLabel.QUANTITY

    def test_small_integer_outside_band_is_untagged(self):
        assert self.tagged("2", 40).label is EntityLabel.UNTAGGED

    def test_integer_above_max_quantity_in_band_is_untagged(self):
        assert self.tagged("250", 300).label is EntityLabel.UNTAGGED

    def test_long_digit_run_is_code_even_in_quantity_band(self):
        # 7 digits > max_quantity, so the quantity rule passes it over
        assert self.tagged("4902102", 300).label is EntityLabel.CODE

    def test_code_anywhere_on_the_line(self):
        assert self.tagged("4902102", 40).label is EntityLabel.CODE

    def test_short_digit_run_is_not_code(self):
        assert self.tagged("4902", 40).label is EntityLabel.UNTAGGED

    def test_alpha_majority_is_description(self):
        assert self.tagged("SHAMPOO", 40).label is EntityLabel.DESCRIPTION

    def test_mixed_token_needs_strict_alpha_majority(self):
        assert self.tagged("A1", 40).label is EntityLabel.UNTAGGED  # 1*2 == 2, not >
        assert self.tagged("AB1", 40).label is EntityLabel.DESCRIPTION

    def test_punctuation_is_untagged(self):
        assert self.tagged(",", 300).label is EntityLabel.UNTAGGED

    def test_thousands_grouped_number_is_untagged(self):
        # two separators -> not a decimal number to this tagger
        assert self.tagged("1,150.00", 480).label is EntityLabel.UNTAGGED

    def test_decimal_separators_follow_the_parse_config(self):
        # The tagger and the correction rules read numbers with one lexer
        # and one set of separators: a price the rules cannot read is no price.
        comma_only = ","
        doc = make_doc([make_token(0, "12.50", 480, 100), make_token(1, "12,50", 480, 140)])
        labels = [tok.label for tok in heuristic_tag(doc, comma_only).tokens]
        assert labels == [EntityLabel.UNTAGGED, EntityLabel.PRICE]
        assert parse_float("12.50", comma_only) is None
        assert parse_float("12,50", comma_only) == 12.5


class TestHeuristicTagOnFixture:
    def test_full_receipt_expectations(self, receipt_doc):
        tagged = heuristic_tag(receipt_doc)
        got = {tok.token_id: tok.label for tok in tagged.tokens}
        assert got == {
            0: EntityLabel.DESCRIPTION,  # SUPERMART
            1: EntityLabel.DESCRIPTION,  # CHOC
            2: EntityLabel.DESCRIPTION,  # COOKIES
            3: EntityLabel.CODE,  # 4902102
            4: EntityLabel.QUANTITY,  # 2
            5: EntityLabel.DESCRIPTION,  # x (alpha majority)
            6: EntityLabel.UNTAGGED,  # 69.00 left of the price band
            7: EntityLabel.PRICE,  # 138.00
            8: EntityLabel.DESCRIPTION,  # SHAMPOO
            9: EntityLabel.CODE,  # 8004520
            10: EntityLabel.QUANTITY,  # 1
            11: EntityLabel.PRICE,  # 9.99
            12: EntityLabel.DESCRIPTION,  # TOTAL
            13: EntityLabel.PRICE,  # 147.99
        }
        for tok in tagged.tokens:
            if tok.label is EntityLabel.UNTAGGED:
                assert tok.source is None
            else:
                assert tok.source is LabelSource.HEURISTIC

    def test_existing_labels_are_discarded(self, labeled_receipt):
        # token 6 ("69.00") is untagged in truth; force a label onto it and
        # check the heuristic pass starts from scratch
        forced = labeled_receipt.with_tokens(
            [
                tok
                if tok.token_id != 6
                else type(tok)(6, tok.text, tok.bbox, EntityLabel.CODE, LabelSource.MODEL, None)
                for tok in labeled_receipt.tokens
            ]
        )
        tagged = heuristic_tag(forced)
        assert tagged.token(6).label is EntityLabel.UNTAGGED


TAG_TEXT_PIECES = st.one_of(
    st.sampled_from(list("0123456789.,*#:$€xABÉßΩ١")),
    st.integers(min_value=16, max_value=22).map(lambda n: "9" * n),
    st.integers(min_value=16, max_value=22).map(lambda n: "0" * (n - 1) + "5"),
)
TAG_TEXTS = st.lists(TAG_TEXT_PIECES, min_size=1, max_size=6).map("".join)
# Left edges on and around both band boundaries: quantity [0.45, 0.70),
# price from 0.65.
TAG_X = st.one_of(
    st.sampled_from([0.0, 0.3, 0.449, 0.45, 0.5, 0.649, 0.65, 0.699, 0.7, 0.9]),
    st.floats(min_value=0.0, max_value=0.95),
)
LONG_INT = "1" * 19
LONG_DECIMAL = "1" * 19 + ".50"


class TestHeuristicTagMatchesReference:
    """heuristic_tag against a literal transcription of its rules."""

    # The second separator is a letter, which an all-letter word may hold:
    # such a word is still no number.
    @pytest.mark.parametrize("separators", [".,", "x"])
    @given(st.lists(st.tuples(TAG_TEXTS, TAG_X), min_size=1, max_size=8))
    @example([("*12345", 0.1), ("12.50*", 0.8), (LONG_INT, 0.1), (LONG_DECIMAL, 0.8)])
    @example([("0" * 17 + "5", 0.5), ("0" * 18 + "5", 0.5), ("$9.99", 0.7), ("#7:", 0.5)])
    @example([("x", 0.8), ("5x50", 0.8), ("xx5", 0.8), ("ABx", 0.1), ("Éß١", 0.1)])
    def test_labels_match_the_reference(self, separators, words):
        doc = Document(
            "diff",
            tuple(
                Token(i, text, BBox(x, 0.1 * i / len(words), x + 0.05, 0.1 * i / len(words) + 0.02))
                for i, (text, x) in enumerate(words)
            ),
            600,
            400,
        )
        tagged = heuristic_tag(doc, separators)
        for tok, (text, x) in zip(tagged.tokens, words):
            expected = oracle_heuristic_label(text, x, separators)
            assert tok.label is expected, (text, x)
            assert tok.source is (None if expected is EntityLabel.UNTAGGED else LabelSource.HEURISTIC)

    @pytest.mark.parametrize(
        ("text", "x0", "label", "parsed"),
        [
            # the tagger strips only currency signs; the parsers also "*#:"
            ("*12345", 40, EntityLabel.UNTAGGED, 12345),
            ("12.50*", 480, EntityLabel.UNTAGGED, 12.5),
            # the parsers cap digit runs at 18; the code and price rules do not
            (LONG_INT, 40, EntityLabel.CODE, None),
            (LONG_DECIMAL, 480, EntityLabel.PRICE, None),
            # the quantity rule keeps its own 18-digit cap before int()
            ("0" * 17 + "5", 300, EntityLabel.QUANTITY, 5),
            ("0" * 18 + "5", 300, EntityLabel.CODE, None),
        ],
    )
    def test_tagger_and_parsers_read_numbers_differently(self, text, x0, label, parsed):
        doc = make_doc([make_token(0, text, x0, 100)])
        assert heuristic_tag(doc).tokens[0].label is label
        read = parse_float(text) if "." in text else parse_integer(text)
        assert read == parsed


def test_all_letter_words_skip_the_lexer(monkeypatch):
    # heuristic_tag labels an all-letter word a description without lexing
    # it. If that path never ran, every other test would still pass and the
    # speed would be lost unseen.
    lexed = []

    def lexer(text, strip_chars, decimal_separators):
        if text.isalpha():
            raise AssertionError(f"all-letter word {text!r} reached the lexer")
        lexed.append(text)
        return _split_number(text, strip_chars, decimal_separators)

    monkeypatch.setattr(tagging, "_split_number", lexer)
    docs = [doc for doc, _ in generate_corpus(CorpusSpec(seed=7, n_docs=20))]
    for doc in docs:
        heuristic_tag(doc)
    assert lexed and any(tok.text.isalpha() for doc in docs for tok in doc.tokens)


class TestImportPredictions:
    def payload(self, doc_id="receipt-fixture", labels=None):
        return json.dumps(
            {
                "doc_id": doc_id,
                "labels": labels
                if labels is not None
                else [
                    {"token_id": 3, "label": "code", "confidence": 0.98},
                    {"token_id": 4, "label": "quantity"},
                    {"token_id": 7, "label": "price", "confidence": 0.91},
                    {"token_id": 1, "label": "description"},
                    {"token_id": 2, "label": "description"},
                ],
            }
        )

    def test_labels_applied_with_model_source(self, receipt_doc):
        tagged = import_predictions(receipt_doc, self.payload())
        assert tagged.token(3).label is EntityLabel.CODE
        assert tagged.token(3).source is LabelSource.MODEL
        assert tagged.token(3).confidence == pytest.approx(0.98)
        assert tagged.token(4).confidence is None
        assert tagged.token(0).label is EntityLabel.UNTAGGED
        assert tagged.token(0).source is None

    def test_doc_id_mismatch(self, receipt_doc):
        with pytest.raises(TokenReferenceError, match="someone-else"):
            import_predictions(receipt_doc, self.payload(doc_id="someone-else"))

    def test_unknown_token_id(self, receipt_doc):
        bad = self.payload(labels=[{"token_id": 99, "label": "code"}])
        with pytest.raises(TokenReferenceError, match="99"):
            import_predictions(receipt_doc, bad)

    def test_unknown_label_value(self, receipt_doc):
        bad = self.payload(labels=[{"token_id": 3, "label": "total"}])
        with pytest.raises(SchemaError, match="total"):
            import_predictions(receipt_doc, bad)

    def test_untagged_is_not_an_importable_label(self, receipt_doc):
        bad = self.payload(labels=[{"token_id": 3, "label": "untagged"}])
        with pytest.raises(SchemaError):
            import_predictions(receipt_doc, bad)

    def test_conflicting_labels_for_one_token(self, receipt_doc):
        bad = self.payload(
            labels=[
                {"token_id": 3, "label": "code"},
                {"token_id": 3, "label": "price"},
            ]
        )
        with pytest.raises(LabelConflictError, match="token id 3"):
            import_predictions(receipt_doc, bad)

    def test_duplicate_same_label_tolerated(self, receipt_doc):
        dup = self.payload(
            labels=[
                {"token_id": 3, "label": "code"},
                {"token_id": 3, "label": "code", "confidence": 0.5},
            ]
        )
        tagged = import_predictions(receipt_doc, dup)
        assert tagged.token(3).label is EntityLabel.CODE

    @pytest.mark.parametrize("confidence", [-0.1, 10**400, float("nan")], ids=["-0.1", "400-digits", "nan"])
    def test_confidence_out_of_range(self, receipt_doc, confidence):
        bad = self.payload(labels=[{"token_id": 3, "label": "code", "confidence": confidence}])
        with pytest.raises(SchemaError, match="label 0: confidence"):
            import_predictions(receipt_doc, bad)

    def test_unhashable_label_is_a_schema_error(self, receipt_doc):
        bad = self.payload(labels=[{"token_id": 3, "label": ["code"]}])
        with pytest.raises(SchemaError, match="unknown label"):
            import_predictions(receipt_doc, bad)


def test_taggers_keep_ids_text_and_geometry(receipt_doc):
    payload = json.dumps(
        {"doc_id": receipt_doc.doc_id, "labels": [{"token_id": 8, "label": "description"}]}
    )
    before = [(t.token_id, t.text, t.bbox) for t in receipt_doc.tokens]
    for tagged in (heuristic_tag(receipt_doc), import_predictions(receipt_doc, payload)):
        assert tagged.doc_id == receipt_doc.doc_id
        assert [(t.token_id, t.text, t.bbox) for t in tagged.tokens] == before
