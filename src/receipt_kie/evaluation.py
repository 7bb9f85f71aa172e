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

``score_entities`` and ``score_whole_products`` score one page.
Whole-product alignment is linear in a page's groups plus products: each
description token maps to the one truth product that holds it.
``build_report`` is the corpus fold: it adds up their counts, 15 plain
integers a page, over a stream of (prediction, truth) pairs and keeps no
pair. Pairing each result with its truth page is the caller's job.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import chain, repeat
from operator import add
from typing import Iterable, NamedTuple, Sequence

from .ingest import normalize_text
from .layout import assign_entities
from .model import ENTITY_ORDER, SCALAR_ENTITIES, Document, EntityLabel, Product, ProductGroup

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


class EntityCounts(NamedTuple):
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

    # Overrides tuple concatenation: counts add field by field.
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


class DocPrediction(NamedTuple):
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


def _texts_match(pred_doc: Document, truth_doc: Document, token_id: int) -> bool:
    return normalize_text(pred_doc.token(token_id).text) == normalize_text(
        truth_doc.token(token_id).text
    )


_DESCRIPTION = EntityLabel.DESCRIPTION
_UNTAGGED = EntityLabel.UNTAGGED
_tuple_new = tuple.__new__


def score_entities(
    pred_doc: Document,
    truth_entry: TruthEntry,
    mode: MatchMode = MatchMode.TAG_ONLY,
) -> dict[EntityLabel, EntityCounts]:
    """Token-level counts per entity type on one page.

    ``pred_doc`` is the labeled document; ``truth_entry`` is the clean
    document of the same page and its annotated products.
    """
    truth_doc, products = truth_entry
    # Each token's truth label, product by product: the descriptions, then
    # each scalar entity that is set. Fields are read by unpacking.
    truth_labels: dict[int, EntityLabel] = {}
    for description_ids, *scalar_ids in products:
        truth_labels.update(zip(description_ids, repeat(_DESCRIPTION)))
        for label, tid in zip(SCALAR_ENTITIES, scalar_ids):
            if tid is not None:
                truth_labels[tid] = label
    pred_labels = {
        tid: label for tid, _, _, label, _, _ in pred_doc.tokens if label is not _UNTAGGED
    }
    strict = mode is MatchMode.STRICT_OCR
    tp = Counter(
        label
        for tid, label in pred_labels.items()
        if truth_labels.get(tid) is label and (not strict or _texts_match(pred_doc, truth_doc, tid))
    )
    expected = Counter(truth_labels.values())
    predicted = Counter(pred_labels.values())
    counts = {}
    for label in ENTITY_ORDER:
        hits = tp.get(label, 0)
        counts[label] = _tuple_new(
            EntityCounts, (hits, predicted.get(label, 0) - hits, expected.get(label, 0) - hits)
        )
    return counts


def _product_matches(
    predicted: Product,
    truth: Product,
    pred_doc: Document,
    truth_doc: Document,
    mode: MatchMode,
) -> bool:
    """All of the truth product's fields reproduced, nothing spurious."""
    # A product is its description ids, then its scalar ids.
    if predicted[1:] != truth[1:]:
        return False  # a scalar entity missed, wrong or spurious
    if set(predicted[0]) != set(truth[0]):
        return False
    if mode is MatchMode.STRICT_OCR:
        return all(_texts_match(pred_doc, truth_doc, tid) for tid, _ in truth.labeled_ids())
    return True


def score_whole_products(
    pred: DocPrediction,
    truth_entry: TruthEntry,
    mode: MatchMode = MatchMode.TAG_ONLY,
) -> EntityCounts:
    """Product-level counts on one page: a group scores only when perfect.

    A predicted group is first aligned to the first truth product that owns
    a strict majority of the group's description tokens; a group with no
    description tokens claims nothing. Competing groups are resolved by
    larger overlap, then smaller group id, then earlier position; the
    losers are false positives. The aligned group is a true positive only
    if every entity field of the truth product is matched and no extra
    entity was predicted; anything else makes it a false positive and
    leaves the truth product unmatched (a false negative).

    The cost is linear in the page's groups plus products when no two
    truth products share a token, as :func:`receipt_kie.ingest.parse_ground_truth`
    guarantees; products that share one are scanned in order for each group.
    """
    truth_doc, products = truth_entry
    # Description token id -> its product. Products from parse_ground_truth
    # share no token, and then a product that holds a strict majority of a
    # group's tokens is the median of their sorted owners: alignment is
    # linear in the page's groups plus products. Products that share a
    # token are scanned in order instead.
    owner = {tid: pi for pi, product in enumerate(products) for tid in product.description_ids}
    disjoint = len(owner) == sum(len(product.description_ids) for product in products)
    # product index -> its best claim, (-overlap, group id, group position)
    winners: dict[int, tuple[int, int, int]] = {}
    for pos, assignment in enumerate(pred.assignments):
        desc = set(assignment.description_ids)
        if not desc:
            continue
        pi, overlap = -1, 0  # -1: no product
        if disjoint:
            owned = sorted(map(owner.get, desc, repeat(-1)))
            pi = owned[len(owned) // 2]
            overlap = owned.count(pi)
        else:
            for i, product in enumerate(products):
                n = len(desc.intersection(product.description_ids))
                if n * 2 > len(desc):
                    pi, overlap = i, n
                    break
        if pi >= 0 and overlap * 2 > len(desc):
            claim = (-overlap, pred.groups[pos].group_id, pos)
            if pi not in winners or claim < winners[pi]:
                winners[pi] = claim
    matched = sum(
        _product_matches(pred.assignments[pos], products[pi], pred.document, truth_doc, mode)
        for pi, (_, _, pos) in winners.items()
    )
    return _tuple_new(
        EntityCounts, (matched, len(pred.assignments) - matched, len(products) - matched)
    )


class EvalReport(NamedTuple):
    """Corpus-level scores: per-entity counts plus the whole-product row."""

    mode: MatchMode
    corpus_size: int
    entities: dict[EntityLabel, EntityCounts]
    whole_products: EntityCounts

    # Overrides tuple concatenation: reports of one mode on two shares of a
    # corpus add up to the report on the whole corpus.
    def __add__(self, other: "EvalReport") -> "EvalReport":
        return EvalReport(
            self.mode,
            self.corpus_size + other.corpus_size,
            {label: self.entities[label] + other.entities[label] for label in ENTITY_ORDER},
            self.whole_products + other.whole_products,
        )

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
    pairs: Iterable[tuple[DocPrediction, TruthEntry]],
    mode: MatchMode = MatchMode.TAG_ONLY,
) -> EvalReport:
    """Score a corpus, one (prediction, truth) pair of a page at a time:
    the per-entity micro averages plus whole products. No pair is kept."""
    # Running sums: tp, fp and fn of each entity in ENTITY_ORDER, then of
    # whole products. Each page's counts are named tuples of plain ints.
    totals = [0] * 3 * (len(ENTITY_ORDER) + 1)
    corpus_size = 0
    for pred, truth_entry in pairs:
        page = score_entities(pred.document, truth_entry, mode)
        whole = score_whole_products(pred, truth_entry, mode)
        totals = list(map(add, totals, (*chain.from_iterable(page.values()), *whole)))
        corpus_size += 1
    counts = [_tuple_new(EntityCounts, totals[k : k + 3]) for k in range(0, len(totals), 3)]
    return EvalReport(
        mode=mode,
        corpus_size=corpus_size,
        entities=dict(zip(ENTITY_ORDER, counts)),
        whole_products=counts[-1],
    )
