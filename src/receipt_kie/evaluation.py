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

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .errors import CorpusMismatchError
from .ingest import GroundTruthProduct, normalize_text
from .layout import EntityAssignment, assign_entities
from .model import ENTITY_ORDER, Document, EntityLabel, ProductGroup, Token

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


def match_entity(predicted: Token, truth: Token, mode: MatchMode) -> bool:
    """Does a predicted token match a ground-truth token?

    Same token id and same label always required; STRICT_OCR additionally
    requires NFC-equal text.
    """
    if predicted.token_id != truth.token_id or predicted.label is not truth.label:
        return False
    if mode is MatchMode.STRICT_OCR:
        return normalize_text(predicted.text) == normalize_text(truth.text)
    return True


TruthEntry = tuple[Document, Sequence[GroundTruthProduct]]


@dataclass(frozen=True, slots=True)
class DocPrediction:
    """One decoded document: the labeled tokens plus its product groups."""

    document: Document
    groups: tuple[ProductGroup, ...]
    assignments: tuple[EntityAssignment, ...]

    @classmethod
    def from_groups(cls, document: Document, groups: Sequence[ProductGroup]) -> "DocPrediction":
        return cls(
            document=document,
            groups=tuple(groups),
            assignments=tuple(assign_entities(g, document) for g in groups),
        )


def _truth_label_map(products: Sequence[GroundTruthProduct]) -> dict[int, EntityLabel]:
    labels: dict[int, EntityLabel] = {}
    for product in products:
        for tid in product.description_ids:
            labels[tid] = EntityLabel.DESCRIPTION
        if product.code_id is not None:
            labels[product.code_id] = EntityLabel.CODE
        if product.quantity_id is not None:
            labels[product.quantity_id] = EntityLabel.QUANTITY
        if product.price_id is not None:
            labels[product.price_id] = EntityLabel.PRICE
    return labels


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
    totals = {label: EntityCounts() for label in ENTITY_ORDER}
    for doc_id in sorted(truth):
        pred_doc = predictions[doc_id]
        truth_doc, products = truth[doc_id]
        truth_labels = _truth_label_map(products)
        pred_labels = {
            tok.token_id: tok.label for tok in pred_doc.tokens if tok.is_tagged
        }
        for label in ENTITY_ORDER:
            truth_ids = {tid for tid, lab in truth_labels.items() if lab is label}
            pred_ids = {tid for tid, lab in pred_labels.items() if lab is label}
            tp = 0
            for tid in truth_ids & pred_ids:
                if mode is MatchMode.STRICT_OCR and not _texts_match(pred_doc, truth_doc, tid):
                    continue
                tp += 1
            counts = EntityCounts(
                tp=tp, fp=len(pred_ids) - tp, fn=len(truth_ids) - tp
            )
            totals[label] = totals[label] + counts
    return totals


def _assignment_matches_product(
    assignment: EntityAssignment,
    product: GroundTruthProduct,
    pred_doc: Document,
    truth_doc: Document,
    mode: MatchMode,
) -> bool:
    """All of the truth product's fields reproduced, nothing spurious."""
    if set(assignment.description_ids) != set(product.description_ids):
        return False
    if mode is MatchMode.STRICT_OCR:
        for tid in product.description_ids:
            if not _texts_match(pred_doc, truth_doc, tid):
                return False
    for predicted_id, truth_id in (
        (assignment.code_id, product.code_id),
        (assignment.quantity_id, product.quantity_id),
        (assignment.price_id, product.price_id),
    ):
        if truth_id is None:
            if predicted_id is not None:
                return False  # spurious extra entity
            continue
        if predicted_id != truth_id:
            return False
        if mode is MatchMode.STRICT_OCR and not _texts_match(pred_doc, truth_doc, truth_id):
            return False
    return True


def score_whole_products(
    predictions: Mapping[str, DocPrediction],
    truth: Mapping[str, TruthEntry],
    mode: MatchMode = MatchMode.TAG_ONLY,
) -> EntityCounts:
    """Product-level counts: a group scores only when perfect.

    A predicted group is first aligned to the truth product that owns a
    strict majority of the group's description tokens (competing groups
    are resolved by larger overlap, then smaller group id; the losers are
    false positives). The aligned group is a true positive only if every
    entity field of the truth product is matched and no extra entity was
    predicted; anything else makes it a false positive and leaves the
    truth product unmatched (a false negative).
    """
    _check_aligned(predictions, truth)
    total = EntityCounts()
    for doc_id in sorted(truth):
        pred = predictions[doc_id]
        truth_doc, products = truth[doc_id]

        # Which truth product does each group claim?
        claims: dict[int, list[tuple[int, int]]] = {}  # product idx -> [(overlap, group pos)]
        for pos, assignment in enumerate(pred.assignments):
            desc = set(assignment.description_ids)
            if not desc:
                continue
            for pi, product in enumerate(products):
                overlap = len(desc & set(product.description_ids))
                if overlap * 2 > len(desc):
                    claims.setdefault(pi, []).append((overlap, pos))
                    break  # a strict majority is unique

        tp = 0
        matched_groups: set[int] = set()
        matched_products: set[int] = set()
        for pi, claimants in claims.items():
            # Larger overlap wins; ties go to the smaller group id.
            claimants.sort(key=lambda c: (-c[0], pred.assignments[c[1]].group_id))
            _, pos = claimants[0]
            if _assignment_matches_product(
                pred.assignments[pos], products[pi], pred.document, truth_doc, mode
            ):
                tp += 1
                matched_groups.add(pos)
                matched_products.add(pi)

        fp = len(pred.assignments) - len(matched_groups)
        fn = len(products) - len(matched_products)
        total = total + EntityCounts(tp=tp, fp=fp, fn=fn)
    return total


@dataclass(frozen=True, slots=True)
class EvalReport:
    """Corpus-level scores: per-entity counts plus the whole-product row."""

    mode: MatchMode
    corpus_size: int
    entities: dict[EntityLabel, EntityCounts] = field(default_factory=dict)
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
        rows = [("entity", "precision", "recall", "f1", "tp", "fp", "fn")]
        for label in ENTITY_ORDER:
            c = self.entities[label]
            rows.append(
                (
                    ENTITY_PLURALS[label],
                    f"{c.precision:.3f}",
                    f"{c.recall:.3f}",
                    f"{c.f1:.3f}",
                    str(c.tp),
                    str(c.fp),
                    str(c.fn),
                )
            )
        w = self.whole_products
        rows.append(
            (
                "whole products",
                f"{w.precision:.3f}",
                f"{w.recall:.3f}",
                f"{w.f1:.3f}",
                str(w.tp),
                str(w.fp),
                str(w.fn),
            )
        )
        widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
        lines = []
        for row in rows:
            cells = [row[0].ljust(widths[0])]
            cells += [row[col].rjust(widths[col]) for col in range(1, len(row))]
            lines.append("  ".join(cells))
        return "\n".join(lines)


def build_report(
    predictions: Mapping[str, DocPrediction],
    truth: Mapping[str, TruthEntry],
    mode: MatchMode = MatchMode.TAG_ONLY,
) -> EvalReport:
    """Score a full corpus: per-entity micro averages plus whole products."""
    _check_aligned(predictions, truth)
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
