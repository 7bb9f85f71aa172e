"""Geometric line detection and product-line grouping.

Two stages. First, tokens are clustered into horizontal text lines purely
from their boxes: two tokens share a line when their vertical intervals
overlap by at least ``y_overlap_threshold`` of the shorter box, and
clusters are the single-linkage (transitive) closure of that relation.
Second, consecutive lines are grouped into products by a scan that mirrors
how a human reads a receipt:

1. skip lines until one contains a description token;
2. if that same line also carries a quantity *and* a price, it is a
   complete single-line product — close it immediately; otherwise start
   accumulating;
3. keep absorbing following lines until one contains any non-description
   entity (quantity, price, or code); that line completes the product and
   the group closes with it. Scanning resumes on the next line.

Lines with entities but no description that do not continue an open group
are skipped (step 1 never starts a product without a description). A group
still open at the end of the document is emitted flagged ``incomplete``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import (
    BBox,
    Document,
    EntityLabel,
    Line,
    ProductGroup,
    Token,
    reading_order,
    union_bbox,
)

_NON_DESC_ENTITIES = frozenset(
    {EntityLabel.CODE, EntityLabel.QUANTITY, EntityLabel.PRICE}
)


@dataclass(frozen=True, slots=True)
class GroupingConfig:
    """Layout parameters. ``y_overlap_threshold`` is the minimum vertical
    interval overlap, as a fraction of the shorter box, for two tokens to
    be considered part of the same line."""

    y_overlap_threshold: float = 0.4

    def __post_init__(self) -> None:
        if not (0.0 < self.y_overlap_threshold <= 1.0):
            raise ValueError(
                f"y_overlap_threshold must be in (0, 1], got {self.y_overlap_threshold}"
            )


def vertical_overlap_ratio(a: BBox, b: BBox) -> float:
    """Vertical intersection of two boxes relative to the shorter one.

    Returns a value in [0, 1]. Degenerate zero-height boxes count as fully
    overlapping anything whose interval they touch.
    """
    intersection = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if intersection < 0.0:
        return 0.0
    shorter = min(a.height, b.height)
    if shorter <= 0.0:
        return 1.0
    return min(1.0, intersection / shorter)


def detect_lines_geometric(doc: Document, config: GroupingConfig | None = None) -> list[Line]:
    """Cluster tokens into lines by single-linkage vertical overlap.

    Lines come back ordered top to bottom (by mean y-center), each with
    its tokens ordered left to right by x_min. ``Line.index`` equals the
    line's position in the returned list.
    """
    cfg = config or GroupingConfig()
    tokens = doc.tokens
    n = len(tokens)
    if n == 0:
        return []

    # Union-find over token positions; single linkage = connected
    # components of the pairwise-overlap graph.
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for i in range(n):
        for j in range(i + 1, n):
            if vertical_overlap_ratio(tokens[i].bbox, tokens[j].bbox) >= cfg.y_overlap_threshold:
                union(i, j)

    clusters: dict[int, list[Token]] = {}
    for i, tok in enumerate(tokens):
        clusters.setdefault(find(i), []).append(tok)

    def mean_y_center(members: list[Token]) -> float:
        return sum(t.bbox.y_center for t in members) / len(members)

    ordered = sorted(
        clusters.values(),
        key=lambda members: (mean_y_center(members), min(t.bbox.x_min for t in members)),
    )
    lines: list[Line] = []
    for index, members in enumerate(ordered):
        members.sort(key=lambda t: (t.bbox.x_min, t.token_id))
        lines.append(Line(index=index, token_ids=tuple(t.token_id for t in members)))
    return lines


def _line_labels(line: Line, doc: Document) -> set[EntityLabel]:
    labels = set()
    for tid in line.token_ids:
        label = doc.token(tid).label
        if label is not EntityLabel.UNTAGGED:
            labels.add(label)
    return labels


def group_product_lines(doc: Document, lines: Sequence[Line]) -> list[ProductGroup]:
    """Partition lines into product groups by the three-step scan.

    Consumes the entity labels already present on ``doc``'s tokens. Lines
    must be the document's full top-to-bottom line list; groups cover
    contiguous line runs and are returned in reading order with dense
    group ids.
    """
    groups: list[ProductGroup] = []
    i = 0
    n = len(lines)
    while i < n:
        labels = _line_labels(lines[i], doc)
        if EntityLabel.DESCRIPTION not in labels:
            # Step 1: not a product start; skip (covers stray entity lines
            # that follow no open group, headers, footers, blank noise).
            i += 1
            continue
        if EntityLabel.QUANTITY in labels and EntityLabel.PRICE in labels:
            # Step 2a: description plus quantity and price on one line is
            # a complete product on its own.
            groups.append(_make_group(len(groups), [lines[i]], doc, incomplete=False))
            i += 1
            continue
        # Step 2b/3: accumulate this and following lines until one carries
        # a non-description entity; that line completes the product.
        members = [lines[i]]
        j = i + 1
        closed = False
        while j < n:
            members.append(lines[j])
            if _line_labels(lines[j], doc) & _NON_DESC_ENTITIES:
                closed = True
                break
            j += 1
        groups.append(_make_group(len(groups), members, doc, incomplete=not closed))
        i = members[-1].index + 1
    return groups


def _make_group(
    group_id: int, members: Sequence[Line], doc: Document, incomplete: bool
) -> ProductGroup:
    token_ids = tuple(tid for line in members for tid in line.token_ids)
    bbox = union_bbox(doc.token(tid).bbox for tid in token_ids)
    return ProductGroup(
        group_id=group_id,
        line_indices=tuple(line.index for line in members),
        token_ids=token_ids,
        bbox=bbox,
        incomplete=incomplete,
    )


@dataclass(frozen=True, slots=True)
class EntityAssignment:
    """The entity roles resolved for one product group.

    ``description_ids`` lists every description token in reading order;
    the scalar roles hold at most one token id each.
    """

    group_id: int
    description_ids: tuple[int, ...]
    code_id: int | None = None
    quantity_id: int | None = None
    price_id: int | None = None


def assign_entities(group: ProductGroup, doc: Document) -> EntityAssignment:
    """Resolve which group tokens fill each entity role.

    Descriptions keep all their tokens. For code, quantity, and price a
    group should hold at most one labeled token each; when a stray extra
    appears (imperfect tagging), the top-most, then left-most one wins —
    receipts put the governing figure first in reading order.
    """
    descriptions: list[Token] = []
    scalars: dict[EntityLabel, list[Token]] = {
        EntityLabel.CODE: [],
        EntityLabel.QUANTITY: [],
        EntityLabel.PRICE: [],
    }
    for tid in group.token_ids:
        tok = doc.token(tid)
        if tok.label is EntityLabel.DESCRIPTION:
            descriptions.append(tok)
        elif tok.label in scalars:
            scalars[tok.label].append(tok)

    def pick(label: EntityLabel) -> int | None:
        candidates = scalars[label]
        if not candidates:
            return None
        return min(candidates, key=reading_order).token_id

    descriptions.sort(key=reading_order)
    return EntityAssignment(
        group_id=group.group_id,
        description_ids=tuple(t.token_id for t in descriptions),
        code_id=pick(EntityLabel.CODE),
        quantity_id=pick(EntityLabel.QUANTITY),
        price_id=pick(EntityLabel.PRICE),
    )
