from __future__ import annotations

import json

import pytest

from receipt_kie.corrections import apply_corrections, parse_float, parse_integer
from receipt_kie.ingest import parse_ground_truth, parse_ocr, write_ground_truth_json
from receipt_kie.layout import detect_lines_geometric, group_product_lines
from receipt_kie.model import Document, EntityLabel, Token, validate_document
from receipt_kie.synth import (
    CorpusSpec,
    CorruptionSpec,
    as_model_predictions,
    corrupt_predictions,
    corruption_seed,
    generate_corpus,
    predictions_payload,
    write_corpus,
)

SPEC = CorpusSpec(seed=41, n_docs=30)
PLAIN = CorpusSpec(seed=41, n_docs=30, adversarial_rate=0.0)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(SPEC)


@pytest.fixture(scope="module")
def plain_corpus():
    return generate_corpus(PLAIN)


def numbers_line_tokens(doc, product):
    """All tokens sharing the physical line of the product's quantity."""
    lines = detect_lines_geometric(doc)
    for line in lines:
        if product.quantity_id in line.token_ids:
            return [doc.token(tid) for tid in line.token_ids]
    raise AssertionError("quantity token not found in any line")


class TestGeneration:
    def test_deterministic(self):
        assert generate_corpus(SPEC) == generate_corpus(SPEC)

    def test_different_seeds_differ(self):
        other = CorpusSpec(seed=42, n_docs=30)
        assert generate_corpus(SPEC) != generate_corpus(other)

    def test_doc_ids_are_unique_and_seed_scoped(self, corpus):
        ids = [doc.doc_id for doc, _ in corpus]
        assert len(set(ids)) == len(ids) == 30
        assert all(doc_id.startswith("synth-00000029-") for doc_id in ids)

    def test_documents_are_valid_and_untagged(self, corpus):
        for doc, _ in corpus:
            assert validate_document(doc) == []
            assert all(tok.label is EntityLabel.UNTAGGED for tok in doc.tokens)

    def test_truth_values_match_token_texts(self, corpus):
        # the generated truth is what parse_ground_truth reads back from the
        # written annotation against the same document
        for doc, products in corpus:
            written = write_ground_truth_json(doc.doc_id, products)
            assert parse_ground_truth(written, doc) == products

    def test_entity_shapes(self, corpus):
        for doc, products in corpus:
            for product in products:
                if product.code_id is not None:
                    code = doc.token(product.code_id).text
                    assert 5 <= len(code) <= 8
                    assert parse_integer(code) is not None
                assert 1 <= int(doc.token(product.quantity_id).text) <= 9
                assert parse_float(doc.token(product.price_id).text) is not None

    def test_product_count_respects_the_range(self):
        narrow = CorpusSpec(seed=5, n_docs=20, products_per_doc=(2, 3))
        for _, products in generate_corpus(narrow):
            assert 2 <= len(products) <= 3

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            CorpusSpec(seed=1, n_docs=-1)
        with pytest.raises(ValueError):
            CorpusSpec(seed=1, products_per_doc=(3, 2))
        with pytest.raises(ValueError):
            CorpusSpec(seed=1, adversarial_rate=1.5)
        with pytest.raises(ValueError):
            CorruptionSpec(code_fn_rate=-0.2)


class TestBusinessRulesByConstruction:
    """The generator must place numbers so the correction rules' premises
    hold on every product block."""

    def test_code_is_the_largest_integer_on_its_line(self, corpus):
        for doc, products in corpus:
            for product in products:
                ints = [
                    v
                    for tok in numbers_line_tokens(doc, product)
                    if (v := parse_integer(tok.text)) is not None
                ]
                if product.code_id is not None:
                    assert max(ints) == int(doc.token(product.code_id).text)

    def test_quantity_is_the_smallest_integer_on_its_line(self, corpus):
        for doc, products in corpus:
            for product in products:
                ints = [
                    v
                    for tok in numbers_line_tokens(doc, product)
                    if (v := parse_integer(tok.text)) is not None
                ]
                assert min(ints) == int(doc.token(product.quantity_id).text)

    def test_department_number_sits_strictly_between(self, corpus):
        # the untagged 3-digit helper keeps both guards satisfiable after
        # any single drop
        for doc, products in corpus:
            for product in products:
                entity_ids = set(product.entity_ids())
                dept = [
                    v
                    for tok in numbers_line_tokens(doc, product)
                    if tok.token_id not in entity_ids
                    and (v := parse_integer(tok.text)) is not None
                ]
                assert len(dept) == 1
                assert int(doc.token(product.quantity_id).text) < dept[0]
                if product.code_id is not None:
                    assert dept[0] < int(doc.token(product.code_id).text)

    def test_price_is_the_largest_decimal_without_adversarial_products(self, plain_corpus):
        for doc, products in plain_corpus:
            for product in products:
                floats = [
                    v
                    for tok in numbers_line_tokens(doc, product)
                    if (v := parse_float(tok.text)) is not None
                ]
                assert max(floats) == pytest.approx(float(doc.token(product.price_id).text))

    def test_adversarial_products_put_a_larger_decimal_on_the_line(self):
        # crank the rate to make violations near-certain, then check each
        # violating line holds exactly one decimal above the true price
        spec = CorpusSpec(seed=97, n_docs=15, adversarial_rate=1.0)
        for doc, products in generate_corpus(spec):
            for product in products:
                price = float(doc.token(product.price_id).text)
                bigger = [
                    v
                    for tok in numbers_line_tokens(doc, product)
                    if (v := parse_float(tok.text)) is not None and v > price
                ]
                assert len(bigger) == 1

    def test_groups_align_one_to_one_with_products(self, corpus):
        # a perfectly tagged synthetic document decodes into exactly its
        # truth products, in order
        for doc, products in corpus:
            labeled = as_model_predictions(doc, products)
            groups = group_product_lines(labeled, detect_lines_geometric(labeled))
            assert len(groups) == len(products)
            for group, product in zip(groups, products):
                assert set(product.entity_ids()) <= set(group.token_ids)
                assert not group.incomplete

    def test_no_corrections_fire_on_a_perfect_decode(self, plain_corpus):
        for doc, products in plain_corpus:
            labeled = as_model_predictions(doc, products)
            groups = group_product_lines(labeled, detect_lines_geometric(labeled))
            corrected, records = apply_corrections(labeled, groups)
            assert records == []
            assert corrected == labeled


class TestSingleDropRecovery:
    """Dropping any one scalar label from a product must be exactly
    undone by the correction pass — the designed purpose of the layout."""

    def drop(self, doc: Document, token_id: int):
        return doc.with_tokens(
            tok
            if tok.token_id != token_id
            else Token(tok.token_id, tok.text, tok.bbox, EntityLabel.UNTAGGED, None, None)
            for tok in doc.tokens
        )

    @pytest.mark.parametrize("role", ["code", "quantity", "price"])
    def test_recovery(self, plain_corpus, role):
        checked = 0
        for doc, products in plain_corpus:
            labeled = as_model_predictions(doc, products)
            for pi, product in enumerate(products):
                truth_id = getattr(product, f"{role}_id")
                if truth_id is None:
                    continue
                dropped = self.drop(labeled, truth_id)
                groups = group_product_lines(dropped, detect_lines_geometric(dropped))
                corrected, records = apply_corrections(dropped, groups)
                mine = [r for r in records if r.group_id == groups[pi].group_id]
                recovered = [r for r in mine if r.entity.value == role]
                assert len(recovered) == 1 and recovered[0].token_id == truth_id
                assert corrected.token(truth_id).label.value == role
                # the only tolerated extra firing: a codeless product whose
                # dropped quantity briefly makes the department number look
                # like a code
                extras = [r for r in mine if r.entity.value != role]
                if product.code_id is None and role == "quantity":
                    assert [r.entity for r in extras] in ([], [EntityLabel.CODE])
                else:
                    assert extras == []
                checked += 1
        assert checked > 20  # the corpus really exercised the rule


class TestCorruption:
    def test_deterministic_in_seed(self, corpus):
        doc, products = corpus[0]
        labeled = as_model_predictions(doc, products)
        spec = CorruptionSpec(code_fn_rate=0.5, ocr_noise_rate=0.2)
        a = corrupt_predictions(labeled, spec, seed=123)
        b = corrupt_predictions(labeled, spec, seed=123)
        c = corrupt_predictions(labeled, spec, seed=124)
        assert a == b
        assert a != c

    def test_zero_rates_are_identity(self, corpus):
        doc, products = corpus[0]
        labeled = as_model_predictions(doc, products)
        assert corrupt_predictions(labeled, CorruptionSpec(), seed=9) == labeled

    def test_label_drops_only_remove_labels(self, corpus):
        spec = CorruptionSpec(
            description_fn_rate=0.5, code_fn_rate=0.5, quantity_fn_rate=0.5, price_fn_rate=0.5
        )
        for doc, products in corpus[:5]:
            labeled = as_model_predictions(doc, products)
            corrupted = corrupt_predictions(labeled, spec, seed=31)
            for before, after in zip(labeled.tokens, corrupted.tokens):
                assert after.text == before.text
                assert after.bbox == before.bbox
                assert after.label in (before.label, EntityLabel.UNTAGGED)
                if after.label is EntityLabel.UNTAGGED:
                    assert after.source is None

    def test_full_drop_rate_untags_everything(self, corpus):
        doc, products = corpus[0]
        labeled = as_model_predictions(doc, products)
        spec = CorruptionSpec(
            description_fn_rate=1.0, code_fn_rate=1.0, quantity_fn_rate=1.0, price_fn_rate=1.0
        )
        corrupted = corrupt_predictions(labeled, spec, seed=1)
        assert all(tok.label is EntityLabel.UNTAGGED for tok in corrupted.tokens)

    def test_noise_substitutes_at_most_one_character(self, corpus):
        spec = CorruptionSpec(ocr_noise_rate=1.0)
        for doc, products in corpus[:5]:
            labeled = as_model_predictions(doc, products)
            corrupted = corrupt_predictions(labeled, spec, seed=77)
            for before, after in zip(labeled.tokens, corrupted.tokens):
                assert len(after.text) == len(before.text)
                diffs = sum(1 for x, y in zip(before.text, after.text) if x != y)
                assert diffs == 1  # rate 1.0: every token misread once
                assert after.label is before.label

    def test_drop_count_falls_in_the_binomial_interval(self):
        # 1000 products, one code each, dropped independently at rate 0.3.
        # Frozen central 99% interval of Binomial(1000, 0.3), computed
        # from the exact CDF: [263, 338].
        spec = CorpusSpec(
            seed=20260819,
            n_docs=1000,
            products_per_doc=(1, 1),
            code_presence_prob=1.0,
            adversarial_rate=0.0,
        )
        corruption = CorruptionSpec(code_fn_rate=0.3)
        dropped = 0
        for doc, products in generate_corpus(spec):
            labeled = as_model_predictions(doc, products)
            corrupted = corrupt_predictions(
                labeled, corruption, corruption_seed(spec.seed, doc.doc_id)
            )
            (product,) = products
            if corrupted.token(product.code_id).label is EntityLabel.UNTAGGED:
                dropped += 1
        assert 263 <= dropped <= 338

    def test_corruption_seed_is_stable_and_doc_scoped(self):
        assert corruption_seed(7, "synth-a") == corruption_seed(7, "synth-a")
        assert corruption_seed(7, "synth-a") != corruption_seed(7, "synth-b")
        assert corruption_seed(7, "synth-a") != corruption_seed(8, "synth-a")


class TestWriteCorpus:
    def test_files_round_trip_to_the_generated_corpus(self, tmp_path):
        spec = CorpusSpec(seed=11, n_docs=4)
        manifest = write_corpus(spec, tmp_path)
        expected = generate_corpus(spec)
        assert manifest["doc_ids"] == [doc.doc_id for doc, _ in expected]
        for doc, products in expected:
            loaded = parse_ocr((tmp_path / f"{doc.doc_id}.json").read_bytes())
            assert loaded == doc  # exact, including float-for-float bboxes
            truth = parse_ground_truth(
                (tmp_path / f"{doc.doc_id}.truth.json").read_bytes(), loaded
            )
            assert truth == products

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = CorpusSpec(seed=12, n_docs=3)
        write_corpus(spec, tmp_path / "a")
        write_corpus(spec, tmp_path / "b")
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_corruption_adds_a_pred_directory(self, tmp_path):
        spec = CorpusSpec(seed=13, n_docs=3)
        corruption = CorruptionSpec(code_fn_rate=0.3, ocr_noise_rate=0.1)
        manifest = write_corpus(spec, tmp_path, corruption)
        assert manifest["corruption"]["code_fn_rate"] == 0.3
        pred = tmp_path / "pred"
        for doc_id in manifest["doc_ids"]:
            noised = parse_ocr((pred / f"{doc_id}.json").read_bytes())
            clean = parse_ocr((tmp_path / f"{doc_id}.json").read_bytes())
            assert noised.doc_id == clean.doc_id
            assert [t.bbox for t in noised.tokens] == [t.bbox for t in clean.tokens]
            payload = json.loads((pred / f"{doc_id}.pred.json").read_text())
            assert payload["doc_id"] == doc_id
            assert all(entry["label"] != "untagged" for entry in payload["labels"])

    def test_pred_labels_reference_surviving_entities_only(self, tmp_path):
        spec = CorpusSpec(seed=14, n_docs=2)
        corruption = CorruptionSpec(price_fn_rate=1.0)
        write_corpus(spec, tmp_path, corruption)
        for doc, products in generate_corpus(spec):
            payload = json.loads((tmp_path / "pred" / f"{doc.doc_id}.pred.json").read_text())
            labeled_ids = {entry["token_id"] for entry in payload["labels"]}
            for product in products:
                assert product.price_id not in labeled_ids
                assert set(product.description_ids) <= labeled_ids

    def test_without_corruption_no_pred_directory(self, tmp_path):
        write_corpus(CorpusSpec(seed=15, n_docs=1), tmp_path)
        assert not (tmp_path / "pred").exists()


class TestPredictionsPayload:
    def test_untagged_tokens_are_omitted(self, corpus):
        doc, products = corpus[0]
        labeled = as_model_predictions(doc, products)
        payload = predictions_payload(labeled)
        tagged = [tok.token_id for tok in labeled.tokens if tok.is_tagged]
        assert [entry["token_id"] for entry in payload["labels"]] == tagged
