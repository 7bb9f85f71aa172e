"""Geometric line detection and product-line grouping.

Two stages. First, tokens are clustered into horizontal text lines purely
from their boxes: two tokens share a line when their vertical intervals
overlap by at least ``y_overlap_threshold`` of the shorter box (a plain
float in (0, 1], 0.4 by default), and clusters are the single-linkage
(transitive) closure of that relation.
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

from itertools import accumulate, chain, pairwise
from typing import Sequence

from .model import (
    SCALAR_ENTITIES,
    BBox,
    Document,
    EntityLabel,
    Product,
    ProductGroup,
)

# Enum members read in the per-token loops, bound once.
_DESCRIPTION = EntityLabel.DESCRIPTION
_QUANTITY = EntityLabel.QUANTITY
_PRICE = EntityLabel.PRICE


def _check_y_overlap_threshold(threshold: float) -> None:
    """Refuse a line threshold outside (0, 1], NaN included."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"y_overlap_threshold must be in (0, 1], got {threshold}")


def vertical_overlap_ratio(a: BBox, b: BBox) -> float:
    """Vertical intersection of two boxes relative to the shorter one.

    Returns a value in [0, 1]. Degenerate zero-height boxes count as fully
    overlapping anything whose interval they touch.
    """
    # Each extreme is a conditional expression, not a min or max call, and
    # keeps the first operand on a tie as min and max do.
    _, a_min, _, a_max = a
    _, b_min, _, b_max = b
    intersection = (b_max if b_max < a_max else a_max) - (b_min if b_min > a_min else a_min)
    if intersection < 0.0:
        return 0.0
    a_height = a_max - a_min
    b_height = b_max - b_min
    shorter = b_height if b_height < a_height else a_height
    if shorter <= 0.0:
        return 1.0
    ratio = intersection / shorter
    return ratio if ratio < 1.0 else 1.0


def detect_lines_geometric(doc: Document, y_overlap_threshold: float = 0.4) -> list[tuple[int, ...]]:
    """Cluster tokens into lines by single-linkage vertical overlap of at
    least ``y_overlap_threshold`` of the shorter box. A threshold outside
    (0, 1] raises ValueError before the document is read.

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
    _check_y_overlap_threshold(y_overlap_threshold)
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
            if vertical_overlap_ratio(boxes[i], boxes[j]) >= y_overlap_threshold:
                parent[find(j)] = find(i)

    lines: dict[int, list[int]] = {}
    for i in range(len(boxes)):
        lines.setdefault(find(i), []).append(i)
    # Each token's left edge and (left edge, id) key, read once.
    x_mins = [box[0] for box in boxes]
    keys = list(zip(x_mins, [tok.token_id for tok in doc.tokens]))
    # A line's mean center sums its members in token order.
    ordered = sorted(
        lines.values(),
        key=lambda members: (
            sum(map(centers.__getitem__, members)) / len(members),
            min(map(x_mins.__getitem__, members)),
        ),
    )
    return [tuple([tid for _, tid in sorted(map(keys.__getitem__, members))]) for members in ordered]


def group_product_lines(doc: Document, lines: Sequence[tuple[int, ...]]) -> list[ProductGroup]:
    """Partition lines into product groups by the three-step scan.

    Consumes the entity labels already present on ``doc``'s tokens. Lines
    must be the document's full top-to-bottom line list, each its token
    ids; groups cover contiguous line runs and are returned in reading
    order with dense group ids.
    """
    # The lines' tokens, each read once through Document.token, which checks
    # its id, in line order: the tokens of a run of lines are one slice of
    # each column.
    tokens = list(map(doc.token, chain.from_iterable(lines)))
    if not tokens:
        return []
    ids, _, boxes, token_labels, _, _ = zip(*tokens)
    x_mins, y_mins, x_maxs, y_maxs = zip(*boxes)
    starts = [0, *accumulate(map(len, lines))]
    labels = [set(token_labels[a:b]) for a, b in pairwise(starts)]
    groups: list[ProductGroup] = []
    i = 0
    n = len(lines)
    while i < n:
        if _DESCRIPTION not in labels[i]:
            # Step 1: not a product start; skip (covers stray entity lines
            # that follow no open group, headers, footers, blank noise).
            i += 1
            continue
        if _QUANTITY in labels[i] and _PRICE in labels[i]:
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
        a, b = starts[i], starts[end]
        groups.append(
            ProductGroup(
                group_id=len(groups),
                line_indices=tuple(range(i, end)),
                token_ids=ids[a:b],
                # Min and max over the tokens in line order: the first of equal extremes wins.
                bbox=BBox(min(x_mins[a:b]), min(y_mins[a:b]), max(x_maxs[a:b]), max(y_maxs[a:b])),
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
    descriptions: list[int] = []
    scalars: dict[EntityLabel, int] = {}
    # Sorted by the key of model.reading_order, (y_min, x_min, token id),
    # built here without a call per token. The id makes it a total order:
    # the first token of a label wins its role. Untagged tokens fill a slot
    # no role reads.
    ordered = sorted([
        (y_min, x_min, token_id, label)
        for token_id, _, (x_min, y_min, _, _), label, _, _ in map(doc.token, group.token_ids)
    ])
    for _, _, token_id, label in ordered:
        if label is _DESCRIPTION:
            descriptions.append(token_id)
        else:
            scalars.setdefault(label, token_id)
    return Product(tuple(descriptions), *map(scalars.get, SCALAR_ENTITIES))
