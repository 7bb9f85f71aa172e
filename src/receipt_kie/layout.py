"""Geometric line detection and product-line grouping.

Two stages. First, tokens are clustered into horizontal text lines purely
from their boxes: two tokens share a line when their vertical intervals
overlap by at least ``y_overlap_threshold`` of the shorter box (a plain
float in (0, 1], 0.4 by default), and clusters are the single-linkage
(transitive) closure of that relation. One sweep over the boxes sorted by
vertical interval finds them: it cuts the page into blocks that no overlap
crosses, and a block whose boxes each overlap the one before is a line.
That costs one sort and about one overlap test per box on a page of text
lines, or on a row of boxes that all differ slightly. A block whose chain
breaks, such as two rows that touch, is searched with two quadrant
queries per distinct interval, which costs O(n log n) as well.
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

from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, islice, pairwise
from typing import Sequence

from .model import (
    SCALAR_ENTITIES,
    BBox,
    Document,
    EntityLabel,
    Product,
    ProductGroup,
)

_INF = float("inf")

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

    Lines come back ordered top to bottom (by mean y-center, then by the
    least x_min, then by the earliest token). Each line is its token ids,
    ordered left to right by x_min, then by id; a line's index is its
    position in the returned list.

    One sorted sweep cuts the boxes into blocks that no overlap crosses.
    A block whose boxes, taken in order, each pass the overlap test with
    the one before is one line; equal intervals join with no test. So a
    page of text lines costs one sort and about one test per box, and so
    does a row of boxes that all differ slightly (a jittered row). A
    block whose chain breaks, such as two rows that touch, goes to
    :func:`_block_lines`, which costs O(n log n) and about one test per
    box that joins.
    """
    _check_y_overlap_threshold(y_overlap_threshold)
    if not doc.tokens:
        return []
    ids, _, boxes, _, _, _ = zip(*doc.tokens)
    x_mins, y_mins, _, y_maxs = zip(*boxes)
    overlap = vertical_overlap_ratio

    # Token positions in (y_min, y_max) order. A box that starts below the
    # lowest bottom so far meets no box before it (each intersection is
    # negative, so each ratio is 0), so it starts a new block; a box that
    # only touches (intersection 0) stays in the block, because a
    # zero-height box counts as full overlap. Two boxes with the same
    # interval have ratio 1, which meets any threshold, unless the
    # interval is inverted (y_min > y_max): such a box overlaps nothing.
    sweep = sorted(zip(y_mins, y_maxs, range(len(boxes))))
    prev_min, prev_max, prev = sweep[0]
    bottom = prev_max
    block = [prev]
    blocks = [block]
    broken: list[int] = []  # the blocks whose chain broke, by index
    chained = True
    for y_min, y_max, i in islice(sweep, 1, None):
        if y_min > bottom:
            block = [i]
            blocks.append(block)
            chained = True
            bottom = y_max
        else:
            if chained and not (
                (y_min == prev_min and y_max == prev_max and y_min <= y_max)
                or (y_min <= prev_max and overlap(boxes[prev], boxes[i]) >= y_overlap_threshold)
            ):
                chained = False
                broken.append(len(blocks) - 1)
            block.append(i)
            if y_max > bottom:
                bottom = y_max
        prev_min, prev_max, prev = y_min, y_max, i
    for k in broken:
        blocks[k], *rest = _block_lines(blocks[k], boxes, y_overlap_threshold)
        blocks.extend(rest)

    # A line's mean center sums its members in token order; its members
    # are ordered by (x_min, id). The earliest token breaks a tie between
    # lines, and lines share no token, so no row list is ever compared.
    centers = [(y_min + y_max) / 2.0 for y_min, y_max in zip(y_mins, y_maxs)]
    keys = list(zip(x_mins, ids))
    rows = []
    for members in blocks:
        members.sort()
        row = sorted(map(keys.__getitem__, members))
        rows.append((sum(map(centers.__getitem__, members)) / len(members), row[0][0], members[0], row))
    rows.sort()
    return [tuple([token_id for _, token_id in row]) for _, _, _, row in rows]


def _block_lines(block: list[int], boxes: Sequence[BBox], threshold: float) -> list[list[int]]:
    """The lines of one block, its token positions in (y_min, y_max)
    order, found by a search over its distinct intervals.

    Equal intervals are joined first, with no test, except inverted ones,
    which overlap nothing. For upright intervals p and q and a threshold
    t, the overlap ratio is at least t exactly when Q(p, q) or Q(q, p)
    holds, where Q(p, q) is ``q_min <= p_max - t*h_p`` and
    ``q_max >= p_min + t*h_p``: q covers at least t of p. Each is a
    quadrant query over the intervals not yet joined: by top edge, with
    the lowest bottom kept per subtree, and by the reach of each
    interval's own query. Both queries run with a slack of 1e-9 of the
    coordinates, far more than rounding, and each interval they report is
    confirmed with the overlap test before it joins. A graph search from
    each interval not yet joined then costs O(n log n) plus one test per
    reported interval, instead of a test per pair. Only a pair whose
    ratio lies within the slack of the threshold and fails the test can
    be reported again, by a later query.
    """
    first_of: dict[int, int] = {}  # token position -> first token of its interval
    heads: list[tuple[float, float, int]] = []
    for i in block:
        _, y_min, _, y_max = boxes[i]
        if heads and y_min <= y_max and y_min == heads[-1][0] and y_max == heads[-1][1]:
            first_of[i] = heads[-1][2]
        else:
            first_of[i] = i
            heads.append((y_min, y_max, i))
    upright = [head for head in heads if head[0] <= head[1]]
    reach = []  # (highest q_min, lowest q_max) that Q(p, q) admits, with slack
    for y_min, y_max, _ in upright:
        lift = threshold * (y_max - y_min)
        slack = 1e-9 * (abs(y_min) + abs(y_max))
        reach.append((y_max - lift + slack, y_min + lift - slack))
    n = len(upright)
    by_reach = sorted(range(n), key=reach.__getitem__)
    reach_rank = [0] * n
    for rank, k in enumerate(by_reach):
        reach_rank[k] = rank
    tops = [y_min for y_min, _, _ in upright]
    reach_tops = [reach[k][0] for k in by_reach]
    bottoms = _max_tree([y_max for _, y_max, _ in upright])
    floors = _max_tree([-reach[k][1] for k in by_reach])

    line_of: dict[int, int] = {}  # first token of an interval -> first token of its line
    for start in range(n):
        first = upright[start][2]
        if first in line_of:
            continue
        line_of[first] = first
        _remove(bottoms, start)
        _remove(floors, reach_rank[start])
        queue = [start]
        while queue:
            p = queue.pop()
            p_min, p_max, i = upright[p]
            reach_max, reach_min = reach[p]
            # Q(p, q): q starts at or above reach_max and ends at or below reach_min.
            found = _report(bottoms, 0, bisect_right(tops, reach_max), reach_min)
            # Q(q, p): p lies inside q's reach.
            found += [by_reach[r] for r in _report(floors, bisect_left(reach_tops, p_min), n, -p_max)]
            for q in found:
                j = upright[q][2]
                if j not in line_of and vertical_overlap_ratio(boxes[i], boxes[j]) >= threshold:
                    line_of[j] = first
                    _remove(bottoms, q)
                    _remove(floors, reach_rank[q])
                    queue.append(q)
    lines: dict[int, list[int]] = {}
    for i in block:
        head = first_of[i]
        lines.setdefault(line_of.get(head, head), []).append(i)
    return list(lines.values())


def _max_tree(values: list[float]) -> list[float]:
    """A segment tree of ``values``: leaves from index ``len(tree) // 2``,
    each inner node the largest value below it, -inf for no value."""
    size = 1 << max(0, len(values) - 1).bit_length()
    tree = [-_INF] * (2 * size)
    tree[size : size + len(values)] = values
    for k in range(size - 1, 0, -1):
        left, right = tree[2 * k], tree[2 * k + 1]
        tree[k] = left if left > right else right
    return tree


def _report(tree: list[float], lo: int, hi: int, floor: float) -> list[int]:
    """The positions in [lo, hi) whose value in ``tree`` is at least
    ``floor``; a subtree whose largest value is below it is skipped."""
    size = len(tree) // 2
    found = []
    stack = [(1, 0, size)]
    while stack:
        node, start, end = stack.pop()
        if end <= lo or start >= hi or tree[node] < floor:
            continue
        if node >= size:
            found.append(node - size)
        else:
            mid = (start + end) // 2
            stack.append((2 * node + 1, mid, end))
            stack.append((2 * node, start, mid))
    return found


def _remove(tree: list[float], pos: int) -> None:
    """Drop the value at ``pos`` from ``tree``."""
    k = len(tree) // 2 + pos
    tree[k] = -_INF
    k //= 2
    while k:
        left, right = tree[2 * k], tree[2 * k + 1]
        tree[k] = left if left > right else right
        k //= 2


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
