from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from receipt_kie.model import BBox, EntityLabel, LabelSource, Token, union_bbox

from helpers import make_doc, make_token


def boxes(draw_coords=st.floats(0.0, 1.0, allow_nan=False)):
    return st.builds(
        lambda x0, y0, x1, y1: BBox(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1)),
        draw_coords,
        draw_coords,
        draw_coords,
        draw_coords,
    )


class TestBBox:
    def test_dimensions(self):
        b = BBox(0.1, 0.2, 0.5, 0.4)
        assert b.width == pytest.approx(0.4)
        assert b.height == pytest.approx(0.2)
        assert b.y_center == pytest.approx(0.3)

    def test_validity(self):
        assert BBox(0.0, 0.0, 1.0, 1.0).is_valid()
        assert not BBox(0.5, 0.0, 0.4, 1.0).is_valid()  # inverted x
        assert not BBox(0.0, 0.0, 1.2, 1.0).is_valid()  # outside page


class TestUnionBBox:
    def test_two_boxes(self):
        got = union_bbox([BBox(0.1, 0.1, 0.3, 0.2), BBox(0.2, 0.15, 0.5, 0.4)])
        assert got == BBox(0.1, 0.1, 0.5, 0.4)

    def test_single_box_is_identity(self):
        b = BBox(0.2, 0.3, 0.4, 0.5)
        assert union_bbox([b]) == b

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="requires at least one box"):
            union_bbox([])

    @given(st.lists(boxes(), min_size=1, max_size=8), st.randoms(use_true_random=False))
    def test_order_invariant_and_matches_pairwise_fold(self, box_list, rng):
        """The union must not depend on input order and must equal the
        fold of pairwise unions."""
        shuffled = list(box_list)
        rng.shuffle(shuffled)
        assert union_bbox(shuffled) == union_bbox(box_list)

        folded = box_list[0]
        for b in box_list[1:]:
            folded = union_bbox([folded, b])
        assert union_bbox(box_list) == folded

    @given(st.lists(boxes(st.sampled_from([0.0, -0.0, 0.5, float("nan")])), min_size=1, max_size=5))
    def test_signed_zeros_and_nan_as_a_pairwise_fold(self, box_list):
        """min and max over a column keep the first of equal extremes and
        treat NaN as a fold of two-argument min and max from the first box
        does; repr tells 0.0 from -0.0 and shows NaN."""
        x_min, y_min, x_max, y_max = box_list[0]
        for b in box_list[1:]:
            x_min, y_min = min(x_min, b.x_min), min(y_min, b.y_min)
            x_max, y_max = max(x_max, b.x_max), max(y_max, b.y_max)
        assert repr(union_bbox(box_list)) == repr(BBox(x_min, y_min, x_max, y_max))

    @given(st.lists(boxes(), min_size=1, max_size=8))
    def test_union_contains_all_inputs(self, box_list):
        u = union_bbox(box_list)
        for b in box_list:
            assert u.x_min <= b.x_min and u.y_min <= b.y_min
            assert u.x_max >= b.x_max and u.y_max >= b.y_max


class TestDocument:
    def test_non_dense_ids_raise_key_error(self):
        doc = make_doc([make_token(1, "A", 10, 10), make_token(0, "B", 60, 10)])
        for token_id in (0, 1):
            with pytest.raises(KeyError):
                doc.token(token_id)


class TestValueSemantics:
    @pytest.mark.parametrize("field", ["x_min", "y_min", "x_max", "y_max"])
    def test_box_fields_cannot_be_assigned(self, field):
        b = BBox(0.1, 0.2, 0.5, 0.4)
        with pytest.raises(AttributeError):
            setattr(b, field, 0.3)
        assert b == (0.1, 0.2, 0.5, 0.4)

    @pytest.mark.parametrize("field", ["token_id", "text", "bbox", "label", "source", "confidence"])
    def test_token_fields_cannot_be_assigned(self, field):
        tok = make_token(0, "MILK", 10, 10)
        with pytest.raises(AttributeError):
            setattr(tok, field, None)
        assert tok == make_token(0, "MILK", 10, 10)

    def test_equal_values_hash_equal(self):
        assert hash(BBox(0.1, 0.2, 0.5, 0.4)) == hash(BBox(0.1, 0.2, 0.5, 0.4))
        a = Token(3, "2", BBox(0.1, 0.2, 0.5, 0.4), EntityLabel.CODE, LabelSource.MODEL, 0.5)
        b = Token(3, "2", BBox(0.1, 0.2, 0.5, 0.4), EntityLabel.CODE, LabelSource.MODEL, 0.5)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_replace_relabels_and_keeps_the_rest(self):
        tok = Token(3, "2", BBox(0.1, 0.2, 0.5, 0.4), confidence=0.75)
        got = tok._replace(label=EntityLabel.QUANTITY, source=LabelSource.CORRECTION)
        assert got == Token(
            3, "2", BBox(0.1, 0.2, 0.5, 0.4), EntityLabel.QUANTITY, LabelSource.CORRECTION, 0.75
        )
        assert tok.label is EntityLabel.UNTAGGED and tok.source is None
