from __future__ import annotations

import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from receipt_kie import corrections
from receipt_kie.corrections import (
    CorrectionRecord,
    apply_corrections,
    parse_float,
    parse_integer,
)
from receipt_kie.model import SCALAR_ENTITIES, EntityLabel, LabelSource, ProductGroup
from receipt_kie.tagging import heuristic_tag

from helpers import make_doc, make_token
from reference_impls import (
    oracle_corrections,
    oracle_parse_float,
    oracle_parse_int,
    reference_split_number,
    union_bbox,
)

TOKEN_ALPHABET = "0123456789.,*#:$€¥ xABy-"


class TestParseInteger:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("2", 2),
            ("4902102", 4902102),
            ("042", 42),
            ("*250*", 250),
            ("$5", 5),
            ("#7:", 7),
            ("€123", 123),
            ("9" * 18, int("9" * 18)),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_integer(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "2x",  # trailing letter is not a decoration
            "x2",
            "138.00",  # decimals are not integers
            "2,5",
            "-5",  # signs not accepted
            "+5",
            "",
            "$",
            " 2",  # whitespace is not a decoration either
            "9" * 19,  # past the digit cap: OCR garbage
            "٢",  # ARABIC-INDIC TWO: ASCII digits only
            "²",
        ],
    )
    def test_rejects(self, text):
        assert parse_integer(text) is None

    def test_rules_strip_decorations_and_the_tagger_only_currency(self):
        assert parse_integer("*2*") == 2
        assert parse_integer("#12345:") == 12345
        assert parse_integer("$2") == 2
        doc = make_doc([make_token(0, "*12345", 40, 10), make_token(1, "$12345", 40, 60)])
        tagged = heuristic_tag(doc)
        assert [tok.label for tok in tagged.tokens] == [EntityLabel.UNTAGGED, EntityLabel.CODE]


class TestParseFloat:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("138.00", 138.0),
            ("138,00", 138.0),  # comma as decimal mark
            ("9.99", 9.99),
            ("$9.99", 9.99),
            ("9.99€", 9.99),
            (".50", 0.5),  # integer part may be empty
            ("*69.00", 69.0),
        ],
    )
    def test_parses(self, text, expected):
        assert parse_float(text) == pytest.approx(expected)

    @pytest.mark.parametrize(
        "text",
        [
            "138",  # pure integer
            "138.",  # no fractional digits
            "1,150.00",  # two separators: ambiguous grouping
            "1.2.3",
            "2x",
            "a.50",
            ".",
            "",
            "9" * 19 + ".00",
        ],
    )
    def test_rejects(self, text):
        assert parse_float(text) is None

    def test_separator_set_is_configurable(self):
        assert parse_float("138,00", ",") == pytest.approx(138.0)
        assert parse_float("138.00", ",") is None
        # with a single separator the grouped form stays ambiguous
        assert parse_float("1,150.00", ",") is None


class TestParserProperties:
    @given(st.text(alphabet=TOKEN_ALPHABET, max_size=12))
    def test_integer_and_float_never_both_parse(self, text):
        assert parse_integer(text) is None or parse_float(text) is None

    @given(st.text(alphabet=TOKEN_ALPHABET, max_size=12))
    def test_matches_independent_oracle(self, text):
        assert parse_integer(text) == oracle_parse_int(text)
        got, want = parse_float(text), oracle_parse_float(text)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want)


# Currency signs (ASCII and not), letters, non-ASCII letters and digits,
# every separator of LEXER_SEPARATORS, and the rules' strip characters.
LEXER_ALPHABET = "0123456789.,x·$€¥₹*#: AbzÉ١１"
LEXER_SEPARATORS = [".,", ",", "x", "·"]


class TestSplitNumberMatchesReference:
    """The one lexer against its plain form in reference_impls."""

    @pytest.mark.parametrize("separators", LEXER_SEPARATORS)
    @pytest.mark.parametrize("strip_chars", ["", "*#:"])
    @given(st.text(alphabet=LEXER_ALPHABET, max_size=12))
    @example("")
    @example("$")
    @example("$$")
    @example("$5")
    @example(".5")
    @example("5.")
    @example("€5")
    @example("5€")
    @example("x5")
    def test_same_split(self, strip_chars, separators, text):
        got = corrections._split_number(text, strip_chars, separators)
        assert got == reference_split_number(text, strip_chars, separators)


class TestSeparatorsNeedNoCheck:
    """Why the lexer takes any string of separators: the separator of a
    decimal is the last character that is not a digit."""

    @pytest.mark.parametrize("strip_chars", ["", "*#:"])
    @given(
        st.text(alphabet=LEXER_ALPHABET, max_size=12),
        st.sampled_from(LEXER_SEPARATORS + [""]),
        st.text(alphabet="0123456789", min_size=1, max_size=3),
    )
    def test_a_digit_never_splits_a_number(self, strip_chars, text, separators, digits):
        got = corrections._split_number(text, strip_chars, separators + digits)
        assert got == corrections._split_number(text, strip_chars, separators)

    @pytest.mark.parametrize("strip_chars", ["", "*#:"])
    @given(st.text(alphabet=LEXER_ALPHABET, max_size=12))
    @example("1.5")
    def test_no_separator_reads_no_fraction(self, strip_chars, text):
        number = corrections._split_number(text, strip_chars, "")
        assert number is None or number[1] is None


# --------------------------------------------------------------------------
# Rule fixtures: a one-row document whose reading order is the list order.


def pool_doc(entries):
    """entries: list of (text, label). Returns (doc, group over all tokens)."""
    tokens = []
    for i, (text, label) in enumerate(entries):
        tokens.append(make_token(i, text, 40 + 60 * i, 100, width=40, label=label))
    doc = make_doc(tokens, doc_id="pool")
    group = ProductGroup(
        group_id=0,
        line_indices=(0,),
        token_ids=tuple(range(len(entries))),
        bbox=union_bbox(t.bbox for t in tokens),
        incomplete=False,
    )
    return doc, group


def fire(entity, entries):
    """Run apply_corrections on ``entries`` plus a labeled token for each
    scalar entity other than ``entity``, so only ``entity``'s rule can
    fire. Returns its record, or None."""
    present = [("LABELED", other) for other in SCALAR_ENTITIES if other is not entity]
    doc, group = pool_doc(entries + present)
    _, records = apply_corrections(doc, [group])
    assert [r.entity for r in records] in ([], [entity])
    return records[0] if records else None


U = EntityLabel.UNTAGGED
D = EntityLabel.DESCRIPTION


class TestCorrectCode:
    def test_fires_on_the_largest_integer(self):
        record = fire(EntityLabel.CODE, [("COOKIES", D), ("4902102", U), ("2", U)])
        assert record == CorrectionRecord(0, EntityLabel.CODE, 1, 4902102)

    def test_lone_integer_is_no_evidence(self):
        assert fire(EntityLabel.CODE, [("COOKIES", D), ("7", U)]) is None

    def test_all_equal_integers_fail_the_guard(self):
        assert fire(EntityLabel.CODE, [("12", U), ("12", U)]) is None

    def test_existing_code_blocks_the_rule(self):
        entries = [("4902102", EntityLabel.CODE), ("8004520", U), ("2", U)]
        assert fire(EntityLabel.CODE, entries) is None

    def test_decimals_do_not_feed_the_integer_rule(self):
        assert fire(EntityLabel.CODE, [("138.00", U), ("2", U)]) is None

    def test_tie_on_winning_value_goes_to_reading_order(self):
        record = fire(EntityLabel.CODE, [("99", U), ("99", U), ("1", U)])
        assert record is not None and record.token_id == 0


class TestCorrectQuantity:
    def test_fires_on_the_smallest_integer(self):
        record = fire(EntityLabel.QUANTITY, [("1", U), ("5", U), ("9", U)])
        assert record == CorrectionRecord(0, EntityLabel.QUANTITY, 0, 1)

    def test_lone_integer_is_no_evidence(self):
        assert fire(EntityLabel.QUANTITY, [("2", U)]) is None

    def test_all_equal_integers_fail_the_guard(self):
        assert fire(EntityLabel.QUANTITY, [("3", U), ("3", U)]) is None

    def test_existing_quantity_blocks_the_rule(self):
        entries = [("2", EntityLabel.QUANTITY), ("1", U), ("9", U)]
        assert fire(EntityLabel.QUANTITY, entries) is None


class TestCorrectPrice:
    def test_fires_unguarded_on_a_lone_decimal(self):
        record = fire(EntityLabel.PRICE, [("COOKIES", D), ("9.99", U)])
        assert record == CorrectionRecord(0, EntityLabel.PRICE, 1, 9.99)

    def test_picks_the_largest_decimal(self):
        record = fire(EntityLabel.PRICE, [("69.00", U), ("138.00", U)])
        assert record is not None and record.token_id == 1
        assert record.parsed_value == pytest.approx(138.0)

    def test_integers_do_not_feed_the_price_rule(self):
        assert fire(EntityLabel.PRICE, [("138", U), ("2", U)]) is None

    def test_existing_price_blocks_the_rule(self):
        assert fire(EntityLabel.PRICE, [("138.00", EntityLabel.PRICE), ("69.00", U)]) is None


class TestApplyCorrections:
    def test_full_three_rule_trace(self):
        doc, group = pool_doc([("COOKIES", D), ("4902102", U), ("2", U), ("138.00", U)])
        corrected, records = apply_corrections(doc, [group])
        assert records == [
            CorrectionRecord(0, EntityLabel.CODE, 1, 4902102),
            CorrectionRecord(0, EntityLabel.QUANTITY, 2, 2),
            CorrectionRecord(0, EntityLabel.PRICE, 3, 138.0),
        ]
        assert corrected.token(1).label is EntityLabel.CODE
        assert corrected.token(2).label is EntityLabel.QUANTITY
        assert corrected.token(3).label is EntityLabel.PRICE
        for tid in (1, 2, 3):
            assert corrected.token(tid).source is LabelSource.CORRECTION

    def test_guards_compare_against_the_original_pool(self):
        # After the code rule takes 4902102 the live pool holds a single
        # integer ("2"); the quantity guard must still see the original
        # pair and fire. A guard recomputed on the shrunken pool would not.
        doc, group = pool_doc([("4902102", U), ("2", U)])
        _, records = apply_corrections(doc, [group])
        assert [(r.entity, r.token_id) for r in records] == [
            (EntityLabel.CODE, 0),
            (EntityLabel.QUANTITY, 1),
        ]

    def test_rules_never_claim_the_same_token(self):
        # one integer pair: the code takes the larger, the quantity the
        # smaller, never the same token twice
        doc, group = pool_doc([("8", U), ("3", U)])
        _, records = apply_corrections(doc, [group])
        claimed = [r.token_id for r in records]
        assert len(claimed) == len(set(claimed)) == 2

    def test_a_later_rule_picks_from_the_live_pool(self, monkeypatch):
        # The paper's three rules never pick the same word, so two unguarded
        # rules that both take the largest integer stand in for them: the
        # second must take the next candidate, not the first rule's token.
        largest = (parse_integer, max, None)
        monkeypatch.setattr(
            corrections, "_RULES", {EntityLabel.CODE: largest, EntityLabel.QUANTITY: largest}
        )
        doc, group = pool_doc([("9", U), ("5", U)])
        corrected, records = apply_corrections(doc, [group])
        assert records == [
            CorrectionRecord(0, EntityLabel.CODE, 0, 9),
            CorrectionRecord(0, EntityLabel.QUANTITY, 1, 5),
        ]
        assert [t.label for t in corrected.tokens] == [EntityLabel.CODE, EntityLabel.QUANTITY]

    def test_existing_labels_are_never_touched(self):
        doc, group = pool_doc(
            [("COOKIES", D), ("2", EntityLabel.QUANTITY), ("4902102", U), ("138.00", U)]
        )
        corrected, records = apply_corrections(doc, [group])
        assert {r.entity for r in records} <= {EntityLabel.CODE, EntityLabel.PRICE}
        for before, after in zip(doc.tokens, corrected.tokens):
            if before.label is not EntityLabel.UNTAGGED:
                assert after == before

    def test_second_application_is_a_no_op(self):
        doc, group = pool_doc([("COOKIES", D), ("4902102", U), ("2", U), ("138.00", U)])
        once, first_records = apply_corrections(doc, [group])
        twice, second_records = apply_corrections(once, [group])
        assert first_records != []
        assert second_records == []
        assert twice is once

    def test_geometry_and_text_untouched(self):
        doc, group = pool_doc([("4902102", U), ("2", U), ("138.00", U)])
        corrected, _ = apply_corrections(doc, [group])
        assert [(t.token_id, t.text, t.bbox) for t in corrected.tokens] == [
            (t.token_id, t.text, t.bbox) for t in doc.tokens
        ]

    def test_groups_are_independent(self):
        tokens = [
            make_token(0, "SOAP", 40, 100, label=D),
            make_token(1, "8004520", 40, 140),
            make_token(2, "1", 160, 140),
            make_token(3, "TEA", 40, 200, label=D),
            make_token(4, "9.99", 160, 240),
        ]
        doc = make_doc(tokens)
        g0 = ProductGroup(0, (0, 1), (0, 1, 2), union_bbox(t.bbox for t in tokens[:3]), False)
        g1 = ProductGroup(1, (2, 3), (3, 4), union_bbox(t.bbox for t in tokens[3:]), False)
        _, records = apply_corrections(doc, [g0, g1])
        assert [(r.group_id, r.entity) for r in records] == [
            (0, EntityLabel.CODE),
            (0, EntityLabel.QUANTITY),
            (1, EntityLabel.PRICE),
        ]

    def test_record_value_types(self):
        doc, group = pool_doc([("4902102", U), ("2", U), ("138.00", U)])
        _, records = apply_corrections(doc, [group])
        by_entity = {r.entity: r for r in records}
        assert isinstance(by_entity[EntityLabel.CODE].parsed_value, int)
        assert isinstance(by_entity[EntityLabel.QUANTITY].parsed_value, int)
        assert isinstance(by_entity[EntityLabel.PRICE].parsed_value, float)


class TestApplyAgainstComposedOracle:
    """apply_corrections must equal the literal composition: code rule on
    the original pool, quantity on the remainder with original guards,
    price on what is left after both."""

    _MENU = ["4902102", "2", "138.00", "9.99", "1", "99", "COOKIES", "x", "*250*", "$5.00", "12"]

    def expected(self, entries):
        return oracle_corrections(list(enumerate(entries)))

    def test_every_pool_matches(self):
        checked = 0
        for size in range(1, 5):
            for entries in itertools.product(self._MENU, repeat=size):
                doc, group = pool_doc([(text, U) for text in entries])
                _, records = apply_corrections(doc, [group])
                got = [(r.entity, r.token_id, r.parsed_value) for r in records]
                assert got == self.expected(entries), f"pool {entries} disagrees with oracle"
                checked += 1
        assert checked == 16_104

    def test_no_groups_is_a_no_op(self):
        doc, _ = pool_doc([("COOKIES", D)])
        corrected, records = apply_corrections(doc, [])
        assert corrected == doc and records == []
