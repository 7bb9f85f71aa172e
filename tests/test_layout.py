from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from receipt_kie import layout
from receipt_kie.layout import (
    GroupingConfig,
    assign_entities,
    detect_lines_geometric,
    group_product_lines,
    vertical_overlap_ratio,
)
from receipt_kie.model import (
    BBox,
    Document,
    EntityLabel,
    Product,
    ProductGroup,
    Token,
    union_bbox,
)
from receipt_kie.synth import CorpusSpec, generate_corpus

from helpers import TOKEN_H, make_doc, make_token, norm_box
from reference_impls import (
    CODE,
    DESC,
    PRICE,
    QTY,
    brute_force_lines,
    literal_grouping,
    oracle_detect_lines,
)


class TestVerticalOverlapRatio:
    def test_identical_boxes(self):
        b = BBox(0.1, 0.2, 0.3, 0.4)
        assert vertical_overlap_ratio(b, b) == 1.0

    def test_disjoint(self):
        a = BBox(0.0, 0.0, 1.0, 0.1)
        b = BBox(0.0, 0.2, 1.0, 0.3)
        assert vertical_overlap_ratio(a, b) == 0.0

    def test_touching_intervals_do_not_overlap(self):
        a = BBox(0.0, 0.0, 1.0, 0.1)
        b = BBox(0.0, 0.1, 1.0, 0.2)
        assert vertical_overlap_ratio(a, b) == 0.0

    def test_partial_overlap_relative_to_shorter(self):
        a = BBox(0.0, 0.00, 1.0, 0.10)
        b = BBox(0.0, 0.05, 1.0, 0.25)  # taller box
        assert vertical_overlap_ratio(a, b) == pytest.approx(0.5)

    def test_symmetric(self):
        a = BBox(0.0, 0.00, 1.0, 0.10)
        b = BBox(0.0, 0.03, 1.0, 0.30)
        assert vertical_overlap_ratio(a, b) == vertical_overlap_ratio(b, a)

    def test_zero_height_box_touching_counts_as_full_overlap(self):
        flat = BBox(0.0, 0.25, 1.0, 0.25)
        tall = BBox(0.0, 0.20, 1.0, 0.30)
        assert vertical_overlap_ratio(flat, tall) == 1.0

    def test_zero_height_box_apart_counts_as_none(self):
        flat = BBox(0.0, 0.25, 1.0, 0.25)
        below = BBox(0.0, 0.30, 1.0, 0.40)
        assert vertical_overlap_ratio(flat, below) == 0.0


class TestDetectLines:
    def test_fixture_lines(self, receipt_doc):
        lines = detect_lines_geometric(receipt_doc)
        assert lines == [
            (0,),
            (1, 2),
            (3, 4, 5, 6, 7),
            (8,),
            (9, 10, 11),
            (12, 13),
        ]

    def test_single_linkage_chains_staggered_tokens(self):
        # A overlaps B and B overlaps C (9px of 20px boxes = 0.45), but A
        # and C are disjoint; transitivity must still chain all three.
        doc = make_doc(
            [
                make_token(0, "A", 40, 100),
                make_token(1, "B", 100, 111),
                make_token(2, "C", 160, 122),
            ]
        )
        lines = detect_lines_geometric(doc)
        assert lines == [(0, 1, 2)]

    def test_raising_the_threshold_splits_the_chain(self):
        doc = make_doc(
            [
                make_token(0, "A", 40, 100),
                make_token(1, "B", 100, 112),
            ]
        )
        # overlap is 8px of a 20px box, i.e. a ratio right around 0.4
        assert len(detect_lines_geometric(doc, GroupingConfig(0.3))) == 1
        assert len(detect_lines_geometric(doc, GroupingConfig(0.45))) == 2

    def test_tokens_sorted_left_to_right_with_id_tiebreak(self):
        doc = make_doc(
            [
                make_token(0, "RIGHT", 200, 100),
                make_token(1, "LEFT", 40, 100),
                make_token(2, "LEFT2", 40, 100),
            ]
        )
        (line,) = detect_lines_geometric(doc)
        assert line == (1, 2, 0)

    def test_lines_ordered_top_to_bottom(self):
        doc = make_doc(
            [
                make_token(0, "LOW", 40, 300),
                make_token(1, "HIGH", 40, 50),
                make_token(2, "MID", 40, 180),
            ]
        )
        lines = detect_lines_geometric(doc)
        assert lines == [(1,), (2,), (0,)]

    def test_empty_document(self):
        assert detect_lines_geometric(make_doc([])) == []

    def test_matches_brute_force_on_random_layouts(self):
        rng = random.Random(1302)
        for trial in range(120):
            n = rng.randint(1, 8)
            tokens = [
                make_token(
                    i,
                    "T%d" % i,
                    rng.randrange(40, 520),
                    rng.randrange(40, 360),
                    height=rng.choice([10, 16, 20, 24]),
                )
                for i in range(n)
            ]
            doc = make_doc(tokens, doc_id=f"rand-{trial}")
            lines = detect_lines_geometric(doc)
            got = {frozenset(line) for line in lines}
            assert got == brute_force_lines(doc), f"trial {trial} disagrees with oracle"
            # every token in exactly one line
            flat = [tid for line in lines for tid in line]
            assert sorted(flat) == list(range(n))

    def test_order_is_mean_center_then_left_edge(self):
        rng = random.Random(77)
        for trial in range(40):
            n = rng.randint(2, 8)
            doc = make_doc(
                [
                    make_token(i, "T", rng.randrange(40, 520), rng.randrange(40, 360))
                    for i in range(n)
                ],
                doc_id=f"order-{trial}",
            )
            lines = detect_lines_geometric(doc)
            keys = []
            for line in lines:
                boxes = [doc.token(tid).bbox for tid in line]
                keys.append(
                    (sum(b.y_center for b in boxes) / len(boxes), min(b.x_min for b in boxes))
                )
            assert keys == sorted(keys)


def grid_page(seed: int, n: int, grid: int) -> Document:
    """``n`` tokens with corners snapped to a ``grid`` x ``grid`` lattice.

    A coarse grid gives many tied ``y_min`` values and intervals that only
    touch; at least one box in six has zero height.
    """
    rng = random.Random(seed)
    tokens = []
    for i in range(n):
        y0 = rng.randrange(grid + 1)
        height = rng.choice((0, 1, 1, 2, 3, rng.randrange(grid + 1)))
        x0 = rng.randrange(grid)
        tokens.append(
            Token(
                token_id=i,
                text="T",
                bbox=BBox(
                    x0 / grid, y0 / grid, min(grid, x0 + rng.randint(1, 3)) / grid,
                    min(grid, y0 + height) / grid,
                ),
            )
        )
    return make_doc(tokens, doc_id=f"grid-{seed}")


THRESHOLDS = st.one_of(
    st.sampled_from([0.1, 0.4, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
)


class TestDetectLinesMatchesAllPairs:
    """The sweep must return exactly the all-pairs loop's ordered lines."""

    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=0, max_value=300),
        grid=st.sampled_from([2, 5, 20, 100, 10**6]),
        threshold=THRESHOLDS,
    )
    @example(seed=0, n=300, grid=5, threshold=1.0)
    @example(seed=1, n=300, grid=20, threshold=0.1)
    def test_random_grid_pages(self, seed, n, grid, threshold):
        doc = grid_page(seed, n, grid)
        lines = detect_lines_geometric(doc, GroupingConfig(threshold))
        assert list(enumerate(lines)) == oracle_detect_lines(doc, threshold)

    @pytest.mark.parametrize("threshold", [0.1, 0.4, 1.0])
    def test_zero_height_box_touching_the_next_interval_still_links(self, threshold):
        # The flat box's y_max equals the lower box's y_min: intersection 0
        # and ratio 1.0, so the sweep must not stop before comparing them.
        doc = make_doc(
            [
                Token(0, "FLAT", BBox(0.1, 0.3, 0.2, 0.3)),
                Token(1, "BELOW", BBox(0.3, 0.3, 0.4, 0.4)),
                Token(2, "ABOVE", BBox(0.5, 0.2, 0.6, 0.3)),
            ]
        )
        lines = detect_lines_geometric(doc, GroupingConfig(threshold))
        assert list(enumerate(lines)) == oracle_detect_lines(doc, threshold)
        assert lines == [(0, 1, 2)]


def count_overlap_tests(monkeypatch) -> list[int]:
    """Wrap the overlap test; the returned one-item list counts its calls."""
    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return vertical_overlap_ratio(a, b)

    monkeypatch.setattr(layout, "vertical_overlap_ratio", counting)
    return calls


def test_line_detection_makes_a_linear_number_of_overlap_tests(monkeypatch):
    # Counting calls instead of timing: all pairs would be about n**2 / 2,
    # some ten million calls on this page.
    [(doc, _)] = generate_corpus(CorpusSpec(seed=0, n_docs=1, products_per_doc=(500, 500)))
    n = len(doc.tokens)
    assert n > 4000
    calls = count_overlap_tests(monkeypatch)
    lines = detect_lines_geometric(doc)
    # At least one call: a sweep that stops calling the overlap test
    # through the module would count nothing and pass unseen.
    assert 0 < calls[0] < 4 * n
    assert sorted(tid for line in lines for tid in line) == list(range(n))


def test_a_row_of_identical_boxes_makes_a_linear_number_of_overlap_tests(monkeypatch):
    # Every pair of this row meets, so a sweep over tokens would make
    # n * (n - 1) / 2 = 499,500 overlap tests.
    n = 1000
    doc = make_doc(
        [make_token(i, "W", (i * 7) % 590, 100, width=10) for i in range(n)]
    )
    calls = count_overlap_tests(monkeypatch)
    lines = detect_lines_geometric(doc)
    assert calls[0] <= n
    assert list(enumerate(lines)) == oracle_detect_lines(doc)
    assert len(lines) == 1


# --------------------------------------------------------------------------
# Grouping


_LABEL_TEXT = {
    DESC: "ITEM",
    CODE: "4902102",
    QTY: "2",
    PRICE: "138.00",
}


def doc_from_line_labels(line_labels, doc_id="grp"):
    """One physical line per label set; empty sets become untagged noise."""
    tokens = []
    for row, labels in enumerate(line_labels):
        y = 40 + 40 * row  # 40px pitch, 20px boxes: rows never overlap
        cols = sorted(labels, key=lambda lb: lb.value) or [None]
        for k, label in enumerate(cols):
            tid = len(tokens)
            if label is None:
                tokens.append(make_token(tid, ".", 40, y))
            else:
                tokens.append(make_token(tid, _LABEL_TEXT[label], 40 + 110 * k, y, label=label))
    return make_doc(tokens, doc_id=doc_id)


def run_grouping(line_labels):
    doc = doc_from_line_labels(line_labels)
    lines = detect_lines_geometric(doc)
    assert len(lines) == len(line_labels)  # sanity: rows stayed apart
    return doc, group_product_lines(doc, lines)


class TestGroupProductLines:
    def test_fixture_produces_two_products(self, labeled_receipt):
        lines = detect_lines_geometric(labeled_receipt)
        groups = group_product_lines(labeled_receipt, lines)
        assert [g.group_id for g in groups] == [0, 1]
        assert groups[0].line_indices == (1, 2)
        assert groups[0].token_ids == (1, 2, 3, 4, 5, 6, 7)
        assert groups[1].line_indices == (3, 4)
        assert groups[1].token_ids == (8, 9, 10, 11)
        assert not groups[0].incomplete and not groups[1].incomplete
        for g in groups:
            boxes = [labeled_receipt.token(tid).bbox for tid in g.token_ids]
            assert g.bbox == union_bbox(boxes)

    def test_stray_numbers_line_without_description_is_skipped(self):
        _, groups = run_grouping([{QTY, PRICE}])
        assert groups == []

    def test_single_line_product(self):
        _, groups = run_grouping([{DESC, QTY, PRICE}])
        assert [(g.line_indices, g.incomplete) for g in groups] == [((0,), False)]

    def test_description_plus_code_alone_does_not_close_on_its_own_line(self):
        # a code is not enough for the single-line shortcut; the group stays
        # open and the next entity line completes it
        _, groups = run_grouping([{DESC, CODE}, {PRICE}])
        assert [(g.line_indices, g.incomplete) for g in groups] == [((0, 1), False)]

    def test_multi_line_description_accumulates(self):
        _, groups = run_grouping([{DESC}, {DESC}, {CODE, QTY, PRICE}])
        assert [(g.line_indices, g.incomplete) for g in groups] == [((0, 1, 2), False)]

    def test_untagged_noise_lines_are_absorbed_into_an_open_group(self):
        _, groups = run_grouping([{DESC}, set(), {PRICE}])
        assert [(g.line_indices, g.incomplete) for g in groups] == [((0, 1, 2), False)]

    def test_group_open_at_end_of_document_is_incomplete(self):
        _, groups = run_grouping([{DESC}, {DESC}])
        assert [(g.line_indices, g.incomplete) for g in groups] == [((0, 1), True)]

    def test_scan_resumes_after_the_closing_line(self):
        _, groups = run_grouping(
            [{DESC}, {QTY, PRICE}, {DESC}, {QTY, PRICE}, {QTY, PRICE}]
        )
        assert [(g.line_indices, g.incomplete) for g in groups] == [
            ((0, 1), False),
            ((2, 3), False),
        ]

    def test_closing_line_may_also_carry_a_description(self):
        # line 1 has both a description and a price: it still closes group 0
        # and is consumed by it, not restarted as a new product
        _, groups = run_grouping([{DESC}, {DESC, PRICE}, {DESC, QTY, PRICE}])
        assert [(g.line_indices, g.incomplete) for g in groups] == [
            ((0, 1), False),
            ((2,), False),
        ]

    def test_group_ids_are_dense_and_ordered(self):
        _, groups = run_grouping([{DESC, QTY, PRICE}] * 4)
        assert [g.group_id for g in groups] == [0, 1, 2, 3]

    def test_matches_literal_transcription_on_random_sequences(self):
        label_menu = [
            set(),
            {DESC},
            {DESC, QTY, PRICE},
            {DESC, CODE, QTY, PRICE},
            {QTY, PRICE},
            {CODE},
            {DESC, CODE},
            {PRICE},
        ]
        rng = random.Random(4411)
        for trial in range(150):
            seq = [rng.choice(label_menu) for _ in range(rng.randint(0, 9))]
            doc, groups = run_grouping(seq)
            got = [(g.line_indices, g.incomplete) for g in groups]
            assert got == literal_grouping(seq), f"sequence {seq} disagrees with oracle"


class TestAssignEntities:
    def test_fixture_assignment(self, labeled_receipt):
        lines = detect_lines_geometric(labeled_receipt)
        first, second = group_product_lines(labeled_receipt, lines)
        a = assign_entities(first, labeled_receipt)
        assert a == Product(description_ids=(1, 2), code_id=3, quantity_id=4, price_id=7)
        b = assign_entities(second, labeled_receipt)
        assert b.description_ids == (8,)
        assert (b.code_id, b.quantity_id, b.price_id) == (9, 10, 11)

    def _group_over(self, doc):
        token_ids = tuple(t.token_id for t in doc.tokens)
        bbox = union_bbox(t.bbox for t in doc.tokens)
        return ProductGroup(
            group_id=0, line_indices=(0,), token_ids=token_ids, bbox=bbox, incomplete=False
        )

    def test_duplicate_scalar_resolved_topmost_first(self):
        doc = make_doc(
            [
                make_token(0, "9.99", 480, 200, label=EntityLabel.PRICE),
                make_token(1, "5.00", 480, 100, label=EntityLabel.PRICE),
            ]
        )
        a = assign_entities(self._group_over(doc), doc)
        assert a.price_id == 1  # higher on the page wins

    def test_duplicate_scalar_same_row_resolved_leftmost(self):
        doc = make_doc(
            [
                make_token(0, "9.99", 480, 100, label=EntityLabel.PRICE),
                make_token(1, "5.00", 300, 100, label=EntityLabel.PRICE),
            ]
        )
        a = assign_entities(self._group_over(doc), doc)
        assert a.price_id == 1

    def test_duplicate_scalar_same_box_resolved_by_token_id(self):
        doc = make_doc(
            [
                make_token(0, "5.00", 480, 100, label=EntityLabel.PRICE, width=50),
                make_token(1, "9.99", 480, 100, label=EntityLabel.PRICE, width=50),
            ]
        )
        group = self._group_over(doc)
        a = assign_entities(replace(group, token_ids=(1, 0)), doc)
        assert a.price_id == 0

    def test_descriptions_come_back_in_reading_order(self):
        doc = make_doc(
            [
                make_token(0, "B", 150, 100, label=EntityLabel.DESCRIPTION),
                make_token(1, "A", 40, 100, label=EntityLabel.DESCRIPTION),
                make_token(2, "C", 40, 140, label=EntityLabel.DESCRIPTION),
            ]
        )
        a = assign_entities(self._group_over(doc), doc)
        assert a.description_ids == (1, 0, 2)

    def test_missing_roles_are_none(self, labeled_receipt):
        group = ProductGroup(
            group_id=0,
            line_indices=(1,),
            token_ids=(1, 2),
            bbox=union_bbox([labeled_receipt.token(1).bbox, labeled_receipt.token(2).bbox]),
            incomplete=True,
        )
        a = assign_entities(group, labeled_receipt)
        assert a.description_ids == (1, 2)
        assert a.code_id is None and a.quantity_id is None and a.price_id is None
