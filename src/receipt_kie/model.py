"""Core value objects shared by every pipeline stage.

Coordinate convention
---------------------
All geometry is expressed in page-normalized coordinates: x and y lie in
[0.0, 1.0], with the origin at the top-left corner of the page and y
growing downward. OCR engines emit pixel polygons; ingestion collapses
them to axis-aligned envelopes and divides by the page dimensions once,
so everything downstream (line detection, grouping, rendering) works in
the same unit square regardless of scan resolution.

All types here are immutable value objects. Pipeline stages never mutate
a document in place; they return a new one (see e.g.
:func:`receipt_kie.corrections.apply_corrections`), which keeps shared
documents safe to read concurrently. :class:`BBox` and :class:`Token`,
built once per word by every stage, are named tuples, which are cheap to
build: each compares equal to the plain tuple of its fields and gets a
changed copy from ``_replace``. The types built once per document or
group are frozen dataclasses.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, NamedTuple


class EntityLabel(str, Enum):
    """Entity classes a token can carry."""

    DESCRIPTION = "description"
    CODE = "code"
    QUANTITY = "quantity"
    PRICE = "price"
    UNTAGGED = "untagged"


class LabelSource(str, Enum):
    """Where a token's label came from."""

    MODEL = "model"
    HEURISTIC = "heuristic"
    CORRECTION = "correction"
    GROUND_TRUTH = "ground_truth"


# The labels that mark a token as an entity of interest, in report order.
ENTITY_ORDER: tuple[EntityLabel, ...] = (
    EntityLabel.DESCRIPTION,
    EntityLabel.CODE,
    EntityLabel.QUANTITY,
    EntityLabel.PRICE,
)

# The entities a product holds at most one token of, in the order of the
# scalar fields of :class:`Product` and of the correction rules.
SCALAR_ENTITIES: tuple[EntityLabel, ...] = (
    EntityLabel.CODE,
    EntityLabel.QUANTITY,
    EntityLabel.PRICE,
)


class BBox(NamedTuple):
    """Axis-aligned box in page-normalized coordinates (y grows downward).

    A box is a tuple: it compares equal to ``(x_min, y_min, x_max, y_max)``.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def y_center(self) -> float:
        return (self.y_min + self.y_max) / 2.0

    def is_valid(self) -> bool:
        return (
            0.0 <= self.x_min <= self.x_max <= 1.0
            and 0.0 <= self.y_min <= self.y_max <= 1.0
        )


def union_bbox(boxes: Iterable[BBox]) -> BBox:
    """Smallest box covering all of ``boxes``.

    Raises ValueError on an empty iterable — there is no meaningful
    union of nothing.
    """
    try:
        x_mins, y_mins, x_maxs, y_maxs = zip(*boxes)
    except ValueError:
        raise ValueError("union_bbox() requires at least one box") from None
    # min and max over a column compare as a pairwise fold from the first box.
    return BBox(min(x_mins), min(y_mins), max(x_maxs), max(y_maxs))


class Token(NamedTuple):
    """One OCR word with its (possibly absent) entity label.

    A token is a tuple: it compares equal to the plain tuple of its fields,
    and ``tok._replace(label=..., source=...)`` is a relabeled copy.

    ``label`` is UNTAGGED exactly when ``source`` is None; a labeled token
    always records which stage produced the label. The constructor does not
    check this: the file readers in :mod:`receipt_kie.ingest` reject a
    token that breaks it, and the labeling stages build their tokens with
    :meth:`Document.relabel`, which gives a source only to the tokens it
    labels.
    """

    token_id: int
    text: str
    bbox: BBox
    label: EntityLabel = EntityLabel.UNTAGGED
    source: LabelSource | None = None
    confidence: float | None = None

    @property
    def is_tagged(self) -> bool:
        return self.label is not EntityLabel.UNTAGGED


def reading_order(tok: Token) -> tuple[float, float, int]:
    """Sort key for reading order: top-most, then left-most, then lowest id."""
    return (tok.bbox.y_min, tok.bbox.x_min, tok.token_id)


@dataclass(frozen=True, slots=True)
class Document:
    """An OCR'd page: an ordered, immutable sequence of tokens.

    Token ids are dense ``0..n-1`` in order, and a token carries a label
    source exactly when it is labeled (see :class:`Token`). The readers in
    :mod:`receipt_kie.ingest` check both for every file they load; the
    labeling stages keep them by building their output with
    :meth:`relabel`.
    """

    doc_id: str
    tokens: tuple[Token, ...]
    page_width: int
    page_height: int

    def token(self, token_id: int) -> Token:
        """The token with id ``token_id``, found by position. Raises
        KeyError when the token at that position carries another id."""
        tok = self.tokens[token_id]
        if tok.token_id != token_id:
            raise KeyError(token_id)
        return tok

    def with_tokens(self, tokens: Iterable[Token]) -> "Document":
        return Document(self.doc_id, tuple(tokens), self.page_width, self.page_height)

    def relabel(
        self, labels: Mapping[int, tuple[EntityLabel, LabelSource, float | None]]
    ) -> "Document":
        """A copy whose tokens carry the ``(label, source, confidence)`` that
        ``labels`` gives their id; each label there is an entity label, not
        UNTAGGED. Every other token comes back untagged, with no source and
        no confidence. Text and geometry are kept."""
        untagged = (EntityLabel.UNTAGGED, None, None)
        return self.with_tokens(
            Token(tok.token_id, tok.text, tok.bbox, *labels.get(tok.token_id, untagged))
            for tok in self.tokens
        )


@dataclass(frozen=True, slots=True)
class ProductGroup:
    """A contiguous run of lines belonging to one product.

    ``token_ids`` is the union of the member lines' tokens and ``bbox``
    the union of those tokens' boxes. ``incomplete`` marks a group that
    was still open when the document ended (no closing entity line was
    found).
    """

    group_id: int
    line_indices: tuple[int, ...]
    token_ids: tuple[int, ...]
    bbox: BBox
    incomplete: bool = False


@dataclass(frozen=True, slots=True)
class Product:
    """One product record: its description tokens and at most one token per
    scalar entity, as token ids.

    Ground-truth annotations and the entities resolved for a product group
    (:func:`receipt_kie.layout.assign_entities`) are both products. The
    scalar fields follow :data:`SCALAR_ENTITIES` order. An annotated
    product always has a description; a group may resolve none.
    """

    description_ids: tuple[int, ...]
    code_id: int | None = None
    quantity_id: int | None = None
    price_id: int | None = None

    def scalar_ids(self) -> tuple[int | None, int | None, int | None]:
        """The code, quantity and price ids, in :data:`SCALAR_ENTITIES` order."""
        return (self.code_id, self.quantity_id, self.price_id)

    def labeled_ids(self) -> list[tuple[int, EntityLabel]]:
        """Every token id of the product with its entity label: the
        descriptions, then each scalar entity that is set."""
        pairs = [(tid, EntityLabel.DESCRIPTION) for tid in self.description_ids]
        for label, tid in zip(SCALAR_ENTITIES, self.scalar_ids()):
            if tid is not None:
                pairs.append((tid, label))
        return pairs
