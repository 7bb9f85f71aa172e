"""Acceptance suite: the properties this package is contractually built to.

There are eight, numbered 1-6, 8 and 9. Number 7 checked the embedding
fusion helpers, which left the package with the rest of the DL tagger's
inside; the others keep their numbers, which the project's notes cite.

Each test prints exactly one ``[acceptance N] ... PASS/FAIL`` line on the
real terminal (bypassing capture) so a full run reads as a checklist. The
numeric bars are fixed here on purpose — they are the definition of done,
not tunables.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import pytest

from receipt_kie.cli import main
from receipt_kie.corrections import apply_corrections
from receipt_kie.evaluation import (
    ENTITY_ORDER,
    EntityCounts,
    MatchMode,
    score_entities,
)
from receipt_kie.ingest import parse_result, serialize_result
from receipt_kie.layout import detect_lines_geometric, group_product_lines
from receipt_kie.model import (
    SCALAR_ENTITIES,
    BBox,
    Document,
    EntityLabel,
    LabelSource,
    ProductGroup,
    Token,
)
from receipt_kie.synth import (
    CorpusSpec,
    CorruptionSpec,
    as_model_predictions,
    corrupt_predictions,
    corruption_seed,
    generate_corpus,
    write_corpus,
)
from receipt_kie.tagging import heuristic_tag

from reference_impls import (
    literal_grouping,
    oracle_code,
    oracle_price,
    oracle_quantity,
    union_bbox,
)

SPEC = CorpusSpec(seed=7, n_docs=200)
DROPS = CorruptionSpec(code_fn_rate=0.3, quantity_fn_rate=0.3, price_fn_rate=0.3)
DROPS_NOISY = CorruptionSpec(
    code_fn_rate=0.3, quantity_fn_rate=0.3, price_fn_rate=0.3, ocr_noise_rate=0.1
)


def announce(capsys, number: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[acceptance {number}] {name}: {verdict}  ({detail})")


def run_pipeline(corruption: CorruptionSpec) -> dict:
    """Generate the corpus, corrupt the perfect tags, decode, correct."""
    start = time.process_time()
    truth = {}
    before = {}
    after = {}
    groups_by_doc = {}
    for doc, products in generate_corpus(SPEC):
        truth[doc.doc_id] = (doc, products)
        corrupted = corrupt_predictions(
            as_model_predictions(doc, products),
            corruption,
            corruption_seed(SPEC.seed, doc.doc_id),
        )
        groups = group_product_lines(corrupted, detect_lines_geometric(corrupted))
        corrected, _ = apply_corrections(corrupted, groups)
        before[doc.doc_id] = corrupted
        after[doc.doc_id] = corrected
        groups_by_doc[doc.doc_id] = tuple(groups)
    return {
        "truth": truth,
        "before": before,
        "after": after,
        "groups": groups_by_doc,
        "build_seconds": time.process_time() - start,
    }


@pytest.fixture(scope="module")
def pipeline() -> dict:
    return run_pipeline(DROPS)


@pytest.fixture(scope="module")
def noisy_pipeline() -> dict:
    return run_pipeline(DROPS_NOISY)


def score_corpus(predictions, truth, mode=MatchMode.TAG_ONLY):
    """``score_entities`` of each page of ``truth``, added up."""
    totals = dict.fromkeys(ENTITY_ORDER, EntityCounts())
    for doc_id, entry in truth.items():
        page = score_entities(predictions[doc_id], entry, mode)
        totals = {label: totals[label] + page[label] for label in ENTITY_ORDER}
    return totals


def f1_by_entity(predictions, truth, mode=MatchMode.TAG_ONLY):
    counts = score_corpus(predictions, truth, mode)
    return {label: counts[label].f1 for label in ENTITY_ORDER}


def test_1_corrections_lift_scalar_f1_by_double_digits(pipeline, capsys):
    """With 30% of code/quantity/price labels dropped, the correction pass
    must win back at least 10 f1 points on each scalar entity while moving
    descriptions by less than 2 points. Full run under 30 s of CPU time."""
    start = time.process_time()
    base = f1_by_entity(pipeline["before"], pipeline["truth"])
    fixed = f1_by_entity(pipeline["after"], pipeline["truth"])
    elapsed = pipeline["build_seconds"] + (time.process_time() - start)

    deltas = {label: fixed[label] - base[label] for label in ENTITY_ORDER}
    ok = (
        deltas[EntityLabel.CODE] >= 0.10
        and deltas[EntityLabel.QUANTITY] >= 0.10
        and deltas[EntityLabel.PRICE] >= 0.10
        and abs(deltas[EntityLabel.DESCRIPTION]) < 0.02
        and elapsed < 30.0
    )
    detail = (
        f"codes {deltas[EntityLabel.CODE]:+.3f}, "
        f"quantities {deltas[EntityLabel.QUANTITY]:+.3f}, "
        f"prices {deltas[EntityLabel.PRICE]:+.3f}, "
        f"descriptions {deltas[EntityLabel.DESCRIPTION]:+.3f}, {elapsed:.1f}s CPU"
    )
    announce(capsys, 1, "corrections win >= 10 f1 points on scalars", ok, detail)
    assert ok, detail


def test_2_strict_text_matching_never_scores_higher(pipeline, noisy_pipeline, capsys):
    """Requiring exact text can only remove credit: with character noise
    every strict f1 <= its tag-only counterpart; with no noise they are
    identical."""
    noisy_tag = f1_by_entity(noisy_pipeline["after"], noisy_pipeline["truth"])
    noisy_strict = f1_by_entity(
        noisy_pipeline["after"], noisy_pipeline["truth"], MatchMode.STRICT_OCR
    )
    clean_tag = score_corpus(pipeline["after"], pipeline["truth"], MatchMode.TAG_ONLY)
    clean_strict = score_corpus(pipeline["after"], pipeline["truth"], MatchMode.STRICT_OCR)

    monotone = all(noisy_strict[label] <= noisy_tag[label] for label in ENTITY_ORDER)
    identical = clean_tag == clean_strict
    ok = monotone and identical
    drop = sum(noisy_tag[label] - noisy_strict[label] for label in ENTITY_ORDER)
    announce(
        capsys, 2, "strict-text mode is monotone",
        ok, f"total f1 drop under noise {drop:.3f}, clean modes identical: {identical}",
    )
    assert ok


def random_small_pipeline(trial: int, rng: random.Random):
    """One random tiny corpus, tagged either perfectly or heuristically,
    then randomly corrupted and decoded."""
    spec = CorpusSpec(
        seed=rng.randrange(2**31),
        n_docs=1,
        products_per_doc=(1, 3),
        adversarial_rate=rng.choice([0.0, 0.2]),
    )
    [(doc, products)] = generate_corpus(spec)
    if trial % 2 == 0:
        tagged = as_model_predictions(doc, products)
    else:
        tagged = heuristic_tag(doc)
    corruption = CorruptionSpec(
        description_fn_rate=rng.random(),
        code_fn_rate=rng.random(),
        quantity_fn_rate=rng.random(),
        price_fn_rate=rng.random(),
        ocr_noise_rate=rng.choice([0.0, 0.1]),
    )
    corrupted = corrupt_predictions(tagged, corruption, rng.randrange(2**31))
    groups = group_product_lines(corrupted, detect_lines_geometric(corrupted))
    corrected, _ = apply_corrections(corrupted, groups)
    return doc, products, corrupted, corrected


def test_3_corrections_never_reduce_recall(capsys):
    """Across 1,000 randomized corpora, per-entity recall after the
    correction pass is >= recall before it. No exceptions."""
    rng = random.Random(318)
    violations = []
    for trial in range(1000):
        doc, products, corrupted, corrected = random_small_pipeline(trial, rng)
        truth = (doc, products)
        recall_before = {
            label: counts.recall for label, counts in score_entities(corrupted, truth).items()
        }
        recall_after = {
            label: counts.recall for label, counts in score_entities(corrected, truth).items()
        }
        for label in ENTITY_ORDER:
            if recall_after[label] < recall_before[label]:
                violations.append((trial, label.value))
    ok = not violations
    announce(
        capsys, 3, "corrections never reduce recall",
        ok, f"1000 corpora, {len(violations)} violations",
    )
    assert ok, violations[:10]


def test_4_corrections_never_touch_model_or_heuristic_labels(capsys):
    """Across 1,000 randomized corpora, the multiset of (token_id, label)
    pairs whose source is the model or the heuristic tagger is exactly
    preserved by the correction pass."""
    rng = random.Random(319)
    upstream = (LabelSource.MODEL, LabelSource.HEURISTIC)
    violations = 0
    for trial in range(1000):
        _, _, corrupted, corrected = random_small_pipeline(trial, rng)
        before = Counter(
            (tok.token_id, tok.label) for tok in corrupted.tokens if tok.source in upstream
        )
        after = Counter(
            (tok.token_id, tok.label) for tok in corrected.tokens if tok.source in upstream
        )
        if before != after:
            violations += 1
    ok = violations == 0
    announce(
        capsys, 4, "upstream labels survive corrections untouched",
        ok, f"1000 corpora, {violations} violations",
    )
    assert ok


# The 12-token alphabet for the exhaustive rule check: large/medium/small
# integers (with duplicates reachable via repetition), decorated forms,
# decimals, and junk that must parse as nothing.
RULE_ALPHABET = (
    "4902102", "250", "12", "7", "2", "$5",
    "138.00", "9.99", ".50",
    "1,150.00", "COOKIES", "x",
)

_POOL_BOXES = [BBox(0.05 + 0.15 * i, 0.3, 0.15 + 0.15 * i, 0.35) for i in range(5)]

# The texts of the labeled tokens that stand for the entities a pool case
# already holds. Were they read as part of the pool, the quantity's "0"
# and the code's "99999999" would let a lone integer pass the other
# integer rule's guard.
_PRESENT_TEXT = {
    EntityLabel.CODE: "99999999",
    EntityLabel.QUANTITY: "0",
    EntityLabel.PRICE: "99999.99",
}
_PRESENT_BOX = BBox(0.05, 0.4, 0.15, 0.45)


def _pool_case(texts: tuple[str, ...], entity: EntityLabel):
    """A one-group document: a description, the pool ``texts`` as tokens
    1..len(texts), and a labeled token for each scalar entity other than
    ``entity``, so only ``entity``'s rule can fire."""
    tokens = [Token(0, "ITEM", _POOL_BOXES[0], EntityLabel.DESCRIPTION, LabelSource.MODEL)]
    for i, text in enumerate(texts, start=1):
        tokens.append(Token(i, text, _POOL_BOXES[i]))
    for other in SCALAR_ENTITIES:
        if other is not entity:
            tokens.append(
                Token(len(tokens), _PRESENT_TEXT[other], _PRESENT_BOX, other, LabelSource.MODEL)
            )
    doc = Document("pool", tuple(tokens), 100, 100)
    group = ProductGroup(
        group_id=0,
        line_indices=(0,),
        token_ids=tuple(range(len(tokens))),
        bbox=union_bbox(t.bbox for t in tokens),
        incomplete=False,
    )
    return doc, group


def test_5_correction_rules_match_the_brute_force_oracle_exhaustively(capsys):
    """Every ordered pool of <= 4 tokens over the 12-token alphabet gives
    the same (token, value) answer as an independently written oracle for
    each of the three rules, including the strict-inequality guards. Each
    rule runs through apply_corrections, on a group that already holds the
    other two scalar entities, and no other rule may fire."""
    checked = 0
    mismatches = []
    rules = (
        (EntityLabel.CODE, oracle_code),
        (EntityLabel.QUANTITY, oracle_quantity),
        (EntityLabel.PRICE, oracle_price),
    )
    for size in range(5):
        for texts in itertools.product(RULE_ALPHABET, repeat=size):
            pool_pairs = [(i, text) for i, text in enumerate(texts, start=1)]
            for entity, oracle in rules:
                doc, group = _pool_case(texts, entity)
                _, records = apply_corrections(doc, [group])
                got = [(r.entity, r.token_id, r.parsed_value) for r in records]
                expected = oracle(pool_pairs)
                want = [] if expected is None else [(entity, *expected)]
                if got != want:
                    mismatches.append((texts, entity.value, got, want))
            checked += 1
    ok = not mismatches
    announce(
        capsys, 5, "correction rules equal the exhaustive oracle",
        ok, f"{checked} pools x 3 rules, {len(mismatches)} mismatches",
    )
    assert ok, mismatches[:5]


_LINE_TYPES = (
    (EntityLabel.DESCRIPTION,),
    (EntityLabel.DESCRIPTION, EntityLabel.QUANTITY, EntityLabel.PRICE),
    (EntityLabel.DESCRIPTION, EntityLabel.CODE, EntityLabel.QUANTITY, EntityLabel.PRICE),
    (EntityLabel.QUANTITY, EntityLabel.PRICE),
    (EntityLabel.CODE,),
    (),
)

_LINE_BOX = BBox(0.0, 0.0, 0.1, 0.05)


def _materialize(seq) -> tuple[Document, list[tuple[int, ...]]]:
    tokens: list[Token] = []
    lines: list[tuple[int, ...]] = []
    for labels in seq:
        ids = []
        if labels:
            for label in labels:
                ids.append(len(tokens))
                tokens.append(Token(len(tokens), "w", _LINE_BOX, label, LabelSource.MODEL))
        else:
            ids.append(len(tokens))
            tokens.append(Token(len(tokens), ".", _LINE_BOX))
        lines.append(tuple(ids))
    return Document("seq", tuple(tokens), 100, 100), lines


def test_6_grouping_matches_the_literal_three_step_scan_exhaustively(capsys):
    """All line sequences of length <= 6 over the six line types group
    exactly as the literal transcription of the scan does. Under 5 s of
    CPU time."""
    start = time.process_time()
    checked = 0
    mismatches = 0
    for size in range(7):
        for seq in itertools.product(_LINE_TYPES, repeat=size):
            doc, lines = _materialize(seq)
            got = [(g.line_indices, g.incomplete) for g in group_product_lines(doc, lines)]
            if got != literal_grouping([set(labels) for labels in seq]):
                mismatches += 1
            checked += 1
    elapsed = time.process_time() - start
    ok = mismatches == 0 and elapsed < 5.0
    announce(
        capsys, 6, "grouping equals the literal scan",
        ok, f"{checked} sequences, {mismatches} mismatches, {elapsed:.1f}s CPU",
    )
    assert ok


def test_8_results_round_trip_and_cli_output_is_byte_stable(
    pipeline, tmp_path_factory, capsys
):
    """parse(serialize(x)) == x for every decoded document of the full
    corpus, and running the decode CLI twice on the same corpus writes
    byte-identical files."""
    bad_round_trips = 0
    for doc_id, doc in pipeline["after"].items():
        groups = pipeline["groups"][doc_id]
        doc2, groups2 = parse_result(serialize_result(doc, groups))
        if doc2 != doc or groups2 != groups:
            bad_round_trips += 1

    base = tmp_path_factory.mktemp("byte-stability")
    corpus = base / "corpus"
    write_corpus(SPEC, corpus, DROPS)
    for sub in ("first", "second"):
        code = main(
            [
                "decode", str(corpus / "pred"),
                "--out", str(base / sub),
                "--tagger", "import",
                "--predictions", str(corpus / "pred"),
            ]
        )
        assert code == 0
    first = sorted((base / "first").iterdir())
    second = sorted((base / "second").iterdir())
    stable = [p.name for p in first] == [p.name for p in second] and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(first, second)
    )

    ok = bad_round_trips == 0 and stable
    announce(
        capsys, 8, "round-trip identity and byte-stable CLI",
        ok,
        f"{len(pipeline['after'])} documents round-tripped, "
        f"{len(first)} files byte-compared, stable: {stable}",
    )
    assert ok


def test_9_corrections_are_idempotent_on_the_full_corpus(pipeline, capsys):
    """Applying the correction pass to its own output changes nothing and
    fires no rules, for every document."""
    violations = 0
    for doc_id, corrected in pipeline["after"].items():
        again, records = apply_corrections(corrected, pipeline["groups"][doc_id])
        if records or again != corrected:
            violations += 1
    ok = violations == 0
    announce(
        capsys, 9, "corrections are idempotent",
        ok, f"{len(pipeline['after'])} documents, {violations} changed on reapplication",
    )
    assert ok
