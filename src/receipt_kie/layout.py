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
    SCALAR_ENTITIES,
    BBox,
    Document,
    EntityLabel,
    Product,
    ProductGroup,
    Token,
    reading_order,
    union_bbox,
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


def detect_lines_geometric(
    doc: Document, config: GroupingConfig | None = None
) -> list[tuple[int, ...]]:
    """Cluster tokens into lines by single-linkage vertical overlap.

    Lines come back ordered top to bottom (by mean y-center). Each line is
    its token ids, ordered left to right by x_min; a line's index is its
    position in the returned list.

    Tokens with the same vertical interval are joined first, and only one
    token per distinct interval is compared with others, and only where
    the intervals meet. On a page of text lines the cost is near-linear,
    and so is a row of any number of identical boxes. A row whose boxes
    all differ slightly in height or offset (a jittered row) still
    compares every pair of its boxes: quadratic in the row's length.
    """
    threshold = (config or GroupingConfig()).y_overlap_threshold
    boxes = [tok.bbox for tok in doc.tokens]

    # Union-find over token positions; single linkage = connected
    # components of the pairwise-overlap graph. Two boxes with the same
    # (y_min, y_max) have ratio 1, which meets any threshold, and every
    # other box has the same ratio to both: each token starts out joined
    # to the first token of its interval, and only those are swept.
    first_of_interval: dict[tuple[float, float], int] = {}
    parent: list[int] = []
    centers: list[float] = []
    for i, (_, y_min, _, y_max) in enumerate(boxes):
        parent.append(first_of_interval.setdefault((y_min, y_max), i))
        centers.append((y_min + y_max) / 2.0)

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # Sweep in y_min order: once a later box starts strictly below box i
    # ends, their intersection is negative, the ratio is 0 and so is every
    # later box's. A box that only touches (intersection 0) is still
    # compared, because a zero-height box counts as full overlap.
    order = sorted(first_of_interval.items())
    for pos, ((_, a_max), i) in enumerate(order):
        for k in range(pos + 1, len(order)):
            (b_min, _), j = order[k]
            if b_min > a_max:
                break
            if vertical_overlap_ratio(boxes[i], boxes[j]) >= threshold:
                parent[find(j)] = find(i)

    lines: dict[int, list[int]] = {}
    for i in range(len(boxes)):
        lines.setdefault(find(i), []).append(i)
    # A line's mean center sums its members in token order.
    ordered = sorted(
        lines.values(),
        key=lambda members: (
            sum(centers[i] for i in members) / len(members),
            min(boxes[i].x_min for i in members),
        ),
    )
    return [
        tuple(tid for _, tid in sorted((boxes[i].x_min, doc.tokens[i].token_id) for i in members))
        for members in ordered
    ]


def group_product_lines(doc: Document, lines: Sequence[tuple[int, ...]]) -> list[ProductGroup]:
    """Partition lines into product groups by the three-step scan.

    Consumes the entity labels already present on ``doc``'s tokens. Lines
    must be the document's full top-to-bottom line list, each its token
    ids; groups cover contiguous line runs and are returned in reading
    order with dense group ids.
    """
    labels = [{doc.token(tid).label for tid in line} for line in lines]
    groups: list[ProductGroup] = []
    i = 0
    n = len(lines)
    while i < n:
        if EntityLabel.DESCRIPTION not in labels[i]:
            # Step 1: not a product start; skip (covers stray entity lines
            # that follow no open group, headers, footers, blank noise).
            i += 1
            continue
        if EntityLabel.QUANTITY in labels[i] and EntityLabel.PRICE in labels[i]:
            # Step 2a: description plus quantity and price on one line is
            # a complete product on its own.
            end, incomplete = i + 1, False
        else:
            # Step 2b/3: accumulate this and following lines until one
            # carries a non-description entity; that line completes the
            # product.
            j = i + 1
            while j < n and labels[j].isdisjoint(SCALAR_ENTITIES):
                j += 1
            end, incomplete = min(j + 1, n), j == n
        token_ids = tuple(tid for line in lines[i:end] for tid in line)
        groups.append(
            ProductGroup(
                group_id=len(groups),
                line_indices=tuple(range(i, end)),
                token_ids=token_ids,
                bbox=union_bbox(doc.token(tid).bbox for tid in token_ids),
                incomplete=incomplete,
            )
        )
        i = end
    return groups


def assign_entities(group: ProductGroup, doc: Document) -> Product:
    """Resolve which group tokens fill each entity role.

    Descriptions keep all their tokens, in reading order. For code,
    quantity, and price a group should hold at most one labeled token
    each; when a stray extra appears (imperfect tagging), the top-most,
    then left-most one wins — receipts put the governing figure first in
    reading order.
    """
    descriptions: list[Token] = []
    scalars: dict[EntityLabel, list[Token]] = {label: [] for label in SCALAR_ENTITIES}
    for tid in group.token_ids:
        tok = doc.token(tid)
        if tok.label is EntityLabel.DESCRIPTION:
            descriptions.append(tok)
        elif tok.label in scalars:
            scalars[tok.label].append(tok)

    descriptions.sort(key=reading_order)
    return Product(
        tuple(t.token_id for t in descriptions),
        *(
            min(candidates, key=reading_order).token_id if candidates else None
            for candidates in scalars.values()
        ),
    )
