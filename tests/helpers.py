"""Small builders shared across test modules."""

from __future__ import annotations

import gc
import time
from typing import Callable

from receipt_kie.model import BBox, Document, EntityLabel, LabelSource, Token

PAGE_W, PAGE_H = 600, 400
TOKEN_H = 20


def norm_box(x0: int, y0: int, x1: int, y1: int, page=(PAGE_W, PAGE_H)) -> BBox:
    w, h = page
    return BBox(x0 / w, y0 / h, x1 / w, y1 / h)


def make_token(
    token_id: int,
    text: str,
    x0: int,
    y0: int,
    *,
    width: int | None = None,
    height: int = TOKEN_H,
    label: EntityLabel = EntityLabel.UNTAGGED,
    source: LabelSource | None = None,
    page=(PAGE_W, PAGE_H),
) -> Token:
    width = width if width is not None else 10 * len(text)
    if label is not EntityLabel.UNTAGGED and source is None:
        source = LabelSource.MODEL
    return Token(
        token_id=token_id,
        text=text,
        bbox=norm_box(x0, y0, x0 + width, y0 + height, page),
        label=label,
        source=source,
    )


def make_doc(tokens, doc_id: str = "doc-1", page=(PAGE_W, PAGE_H)) -> Document:
    return Document(
        doc_id=doc_id, tokens=tuple(tokens), page_width=page[0], page_height=page[1]
    )


def cpu_seconds_per_call(*runs: tuple[Callable[[], object], int]) -> list[float]:
    """For each ``(call, calls)`` of ``runs``, the least process CPU time of
    ``calls`` calls, of five rounds, per call. Each round times every run
    in turn, so a slow phase of a shared machine hits each input alike.
    The cyclic collector is off while they run: a collection walks every
    object of the test process, not only the page's."""
    best = [float("inf")] * len(runs)
    gc.disable()
    try:
        for _ in range(5):
            for k, (call, calls) in enumerate(runs):
                start = time.process_time()
                for _ in range(calls):
                    call()
                best[k] = min(best[k], time.process_time() - start)
    finally:
        gc.enable()
    return [least / calls for least, (_, calls) in zip(best, runs)]
