"""Scoring decoded documents against ground truth.

Two strictness levels. ``TAG_ONLY`` asks whether the right tokens carry
the right labels. ``STRICT_OCR`` additionally demands the predicted
token's text be byte-identical (after Unicode NFC normalization) to the
ground-truth text — an entity whose digits were misread is counted as a
miss even though the token was found, which is the honest number for any
downstream consumer that uses the extracted *values*.

Per-entity scores are micro-averaged over the corpus: true positives are
token-level matches, one-to-one by token id. The whole-products score is
coarser and much less forgiving: a predicted group counts only if it maps
to exactly one ground-truth product and reproduces *every* entity field
of it, with nothing spurious added.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .errors import CorpusMismatchError
from .ingest import normalize_text
from .layout import assign_entities
from .model import ENTITY_ORDER, Document, EntityLabel, Product, ProductGroup

# Report keys and table rows name entities in the plural; the CLI accepts
# these names and the singular label values alike.
ENTITY_PLURALS = {
    EntityLabel.DESCRIPTION: "descriptions",
    EntityLabel.CODE: "codes",
    EntityLabel.QUANTITY: "quantities",
    EntityLabel.PRICE: "prices",
}


class MatchMode(Enum):
    TAG_ONLY = "tag"
    STRICT_OCR = "strict"


@dataclass(frozen=True, slots=True)
class EntityCounts:
    """Micro-average counters with the usual P/R/F1 readings."""

    tp: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    def __add__(self, other: "EntityCounts") -> "EntityCounts":
        return EntityCounts(self.tp + other.tp, self.fp + other.fp, self.fn + other.fn)

    def as_dict(self) -> dict[str, float | int]:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


TruthEntry = tuple[Document, Sequence[Product]]


@dataclass(frozen=True, slots=True)
class DocPrediction:
    """One decoded document: the labeled tokens plus its product groups
    and the product each group resolves to."""

    document: Document
    groups: tuple[ProductGroup, ...]
    assignments: tuple[Product, ...]

    @classmethod
    def from_groups(cls, document: Document, groups: Sequence[ProductGroup]) -> "DocPrediction":
        return cls(
            document=document,
            groups=tuple(groups),
            assignments=tuple(assign_entities(g, document) for g in groups),
        )


def _check_aligned(predictions: Mapping[str, object], truth: Mapping[str, TruthEntry]) -> None:
    missing = sorted(set(truth) - set(predictions))
    extra = sorted(set(predictions) - set(truth))
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"no predictions for {', '.join(missing[:5])}")
        if extra:
            parts.append(f"no ground truth for {', '.join(extra[:5])}")
        raise CorpusMismatchError("; ".join(parts))


def _texts_match(pred_doc: Document, truth_doc: Document, token_id: int) -> bool:
    return normalize_text(pred_doc.token(token_id).text) == normalize_text(
        truth_doc.token(token_id).text
    )


def score_entities(
    predictions: Mapping[str, Document],
    truth: Mapping[str, TruthEntry],
    mode: MatchMode = MatchMode.TAG_ONLY,
) -> dict[EntityLabel, EntityCounts]:
    """Token-level micro-averaged counts per entity type.

    ``predictions`` maps doc_id to the labeled document; ``truth`` maps
    doc_id to the clean document and its annotated products. The two maps
    must cover exactly the same doc ids.
    """
    _check_aligned(predictions, truth)
    strict = mode is MatchMode.STRICT_OCR
    expected: Counter[EntityLabel] = Counter()
    predicted: Counter[EntityLabel] = Counter()
    tp: Counter[EntityLabel] = Counter()
    for doc_id, (truth_doc, products) in truth.items():
        pred_doc = predictions[doc_id]
        truth_labels = {tid: label for p in products for tid, label in p.labeled_ids()}
        pred_labels = {tok.token_id: tok.label for tok in pred_doc.tokens if tok.is_tagged}
        expected.update(truth_labels.values())
        predicted.update(pred_labels.values())
        for tid, label in pred_labels.items():
            if truth_labels.get(tid) is label and (
                not strict or _texts_match(pred_doc, truth_doc, tid)
            ):
                tp[label] += 1
    return {
        label: EntityCounts(tp[label], predicted[label] - tp[label], expected[label] - tp[label])
        for label in ENTITY_ORDER
    }


def _product_matches(
    predicted: Product,
    truth: Product,
    pred_doc: Document,
    truth_doc: Document,
    mode: MatchMode,
) -> bool:
    """All of the truth product's fields reproduced, nothing spurious."""
    if predicted.scalar_ids() != truth.scalar_ids():
        return False  # a scalar entity missed, wrong or spurious
    if set(predicted.description_ids) != set(truth.description_ids):
        return False
    if mode is MatchMode.STRICT_OCR:
        return all(_texts_match(pred_doc, truth_doc, tid) for tid, _ in truth.labeled_ids())
    return True


def score_whole_products(
    predictions: Mapping[str, DocPrediction],
    truth: Mapping[str, TruthEntry],
    mode: MatchMode = MatchMode.TAG_ONLY,
) -> EntityCounts:
    """Product-level counts: a group scores only when perfect.

    A predicted group is first aligned to the first truth product that owns
    a strict majority of the group's description tokens; a group with no
    description tokens claims nothing. Competing groups are resolved by
    larger overlap, then smaller group id, then earlier position; the
    losers are false positives. The aligned group is a true positive only
    if every entity field of the truth product is matched and no extra
    entity was predicted; anything else makes it a false positive and
    leaves the truth product unmatched (a false negative).
    """
    _check_aligned(predictions, truth)
    n_groups = n_products = matched = 0
    for doc_id, (truth_doc, products) in truth.items():
        pred = predictions[doc_id]
        truth_descs = [set(product.description_ids) for product in products]
        # product index -> its best claim, (-overlap, group id, group position)
        winners: dict[int, tuple[int, int, int]] = {}
        for pos, assignment in enumerate(pred.assignments):
            desc = set(assignment.description_ids)
            for pi, truth_desc in enumerate(truth_descs):
                overlap = len(desc & truth_desc)
                if overlap * 2 > len(desc):
                    claim = (-overlap, pred.groups[pos].group_id, pos)
                    if pi not in winners or claim < winners[pi]:
                        winners[pi] = claim
                    break  # a strict majority is unique
        matched += sum(
            _product_matches(pred.assignments[pos], products[pi], pred.document, truth_doc, mode)
            for pi, (_, _, pos) in winners.items()
        )
        n_groups += len(pred.assignments)
        n_products += len(products)
    return EntityCounts(tp=matched, fp=n_groups - matched, fn=n_products - matched)


@dataclass(frozen=True, slots=True)
class EvalReport:
    """Corpus-level scores: per-entity counts plus the whole-product row."""

    mode: MatchMode
    corpus_size: int
    entities: dict[EntityLabel, EntityCounts] = field(
        default_factory=lambda: dict.fromkeys(ENTITY_ORDER, EntityCounts())
    )
    whole_products: EntityCounts = field(default_factory=EntityCounts)

    def as_dict(self) -> dict[str, object]:
        return {
            "mode": self.mode.value,
            "corpus_size": self.corpus_size,
            "entities": {
                ENTITY_PLURALS[label]: self.entities[label].as_dict() for label in ENTITY_ORDER
            },
            "whole_products": self.whole_products.as_dict(),
        }

    def format_table(self) -> str:
        rows = [["entity", "precision", "recall", "f1", "tp", "fp", "fn"]]
        named = [(ENTITY_PLURALS[label], self.entities[label]) for label in ENTITY_ORDER]
        for name, c in [*named, ("whole products", self.whole_products)]:
            rows.append(
                [name, f"{c.precision:.3f}", f"{c.recall:.3f}", f"{c.f1:.3f}",
                 str(c.tp), str(c.fp), str(c.fn)]
            )
        return format_rows(rows)


def format_rows(rows: Sequence[Sequence[str]]) -> str:
    """A plain-text table: the first column left-aligned, the others
    right-aligned, cells joined by two spaces."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return "\n".join(
        "  ".join(
            cell.ljust(widths[0]) if col == 0 else cell.rjust(widths[col])
            for col, cell in enumerate(row)
        )
        for row in rows
    )


def build_report(
    predictions: Mapping[str, DocPrediction],
    truth: Mapping[str, TruthEntry],
    mode: MatchMode = MatchMode.TAG_ONLY,
) -> EvalReport:
    """Score a full corpus: per-entity micro averages plus whole products."""
    entity_counts = score_entities(
        {doc_id: pred.document for doc_id, pred in predictions.items()}, truth, mode
    )
    whole = score_whole_products(predictions, truth, mode)
    return EvalReport(
        mode=mode,
        corpus_size=len(truth),
        entities=entity_counts,
        whole_products=whole,
    )
