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
documents safe to read concurrently.

Constructors stay permissive on purpose: files are validated strictly at
ingestion, while in-memory structural invariants are *reported* by
:func:`validate_document` rather than enforced with asserts, so a broken
document can be diagnosed instead of half-rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator


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


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box in page-normalized coordinates (y grows downward)."""

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
    def x_center(self) -> float:
        return (self.x_min + self.x_max) / 2.0

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
    it = iter(boxes)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("union_bbox() requires at least one box") from None
    x_min, y_min, x_max, y_max = first.x_min, first.y_min, first.x_max, first.y_max
    for b in it:
        x_min = min(x_min, b.x_min)
        y_min = min(y_min, b.y_min)
        x_max = max(x_max, b.x_max)
        y_max = max(y_max, b.y_max)
    return BBox(x_min, y_min, x_max, y_max)


@dataclass(frozen=True, slots=True)
class Token:
    """One OCR word with its (possibly absent) entity label.

    ``label`` is UNTAGGED exactly when ``source`` is None; a labeled token
    always records which stage produced the label.
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
    """An OCR'd page: an ordered, immutable sequence of tokens."""

    doc_id: str
    tokens: tuple[Token, ...]
    page_width: int
    page_height: int

    def __post_init__(self) -> None:
        # Accept any iterable of tokens but store an immutable tuple.
        if not isinstance(self.tokens, tuple):
            object.__setattr__(self, "tokens", tuple(self.tokens))

    def token(self, token_id: int) -> Token:
        tok = self.tokens[token_id]
        if tok.token_id != token_id:
            # Ids are dense by invariant; fall back to a scan for documents
            # that violate it rather than silently returning the wrong token.
            for t in self.tokens:
                if t.token_id == token_id:
                    return t
            raise KeyError(token_id)
        return tok

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def with_tokens(self, tokens: Iterable[Token]) -> "Document":
        return Document(self.doc_id, tuple(tokens), self.page_width, self.page_height)


@dataclass(frozen=True, slots=True)
class Line:
    """A horizontal text line: token ids ordered left to right.

    ``index`` is the line's position in the top-to-bottom ordering of the
    document's lines.
    """

    index: int
    token_ids: tuple[int, ...]


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


def validate_document(doc: Document) -> list[str]:
    """Check structural invariants, returning one message per violation.

    An empty list means the document is well-formed. Unlike the ingestion
    parsers this never raises: it is a diagnostic for documents that were
    assembled in memory.
    """
    violations: list[str] = []
    if not doc.doc_id:
        violations.append("doc_id is empty")
    if doc.page_width <= 0 or doc.page_height <= 0:
        violations.append(
            f"page dimensions must be positive, got {doc.page_width}x{doc.page_height}"
        )

    seen: set[int] = set()
    for pos, tok in enumerate(doc.tokens):
        name = f"token {tok.token_id}"
        if tok.token_id in seen:
            violations.append(f"{name}: duplicate token id")
        seen.add(tok.token_id)
        if tok.token_id != pos:
            violations.append(
                f"{name}: ids must be dense 0..n-1 in order (found at position {pos})"
            )
        if not tok.text:
            violations.append(f"{name}: text is empty")
        b = tok.bbox
        if b.x_min > b.x_max or b.y_min > b.y_max:
            violations.append(f"{name}: bbox is inverted ({b})")
        elif not b.is_valid():
            violations.append(f"{name}: bbox outside the unit square ({b})")
        if tok.label is EntityLabel.UNTAGGED:
            if tok.source is not None:
                violations.append(f"{name}: untagged token carries a label source")
        else:
            if tok.source is None:
                violations.append(f"{name}: labeled token has no label source")
        if tok.confidence is not None and not (0.0 <= tok.confidence <= 1.0):
            violations.append(f"{name}: confidence {tok.confidence} outside [0, 1]")
    return violations
