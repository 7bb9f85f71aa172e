"""A fixed burst of work that measures how fast the machine runs right now.

The machine this benchmark was built on is a 2-core VM shared with other
tenants: the same pass over the same receipts took anywhere from 0.35 s
to 0.67 s within a minute, in phases of a few seconds. Each timed command
is therefore scaled by the bursts run just before and just after it,
relative to ``REFERENCE_S``, the burst's time on that machine running
fast.

A burst has two halves of about equal time, after what the program
spends its time on: JSON round trips with indented pretty-printing,
small objects and sorting (ingest); and a loop over all pairs of
intervals calling a small overlap function (line detection). Over 600 s
of 100-document decodes alternating with 1-document decodes of 1.8k-token
receipts, the median time per window of about 30 s spread by 6-21% and
10-28% unscaled, and by 2.5-3.6% and 4.4-4.7% scaled by this burst.
Reads scattered over a large array tracked the machine as well within
one process, but their speed differed by up to 40% from one process to
the next, so they are left out. The burst never changes and uses nothing
from ``receipt_kie``, so a change to the program moves the commands'
times and not the burst's.
"""

from __future__ import annotations

import json
import random
import statistics
from time import perf_counter

REFERENCE_S = 0.03  # the burst's time on a 2-core shared VM running fast, Python 3.11

_DOC = {
    "doc_id": "calibration",
    "page": {"width": 900, "height": 700},
    "tokens": [
        {
            "token_id": i,
            "text": f"ITEM{i * 7919 % 1000:03d}",
            "bbox": {"x_min": i / 97, "y_min": (i * 31 % 48) / 53, "x_max": i / 89, "y_max": (i * 31 % 48 + 1) / 53},
            "label": ("description", "code", "quantity", "price", "untagged")[i % 5],
            "source": "model",
        }
        for i in range(48)
    ],
}


class _Box:
    __slots__ = ("x_min", "y_min", "x_max", "y_max", "token_id")

    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float, token_id: int) -> None:
        self.x_min, self.y_min, self.x_max, self.y_max, self.token_id = x_min, y_min, x_max, y_max, token_id

    @property
    def height(self) -> float:
        return self.y_max - self.y_min


_rng = random.Random(2)
_INTERVALS = [_Box(0.0, y, 0.0, y + 0.01 + _rng.random() * 0.01, i) for i, y in enumerate(
    _rng.random() for _ in range(300))]


def _overlap(a: _Box, b: _Box) -> float:
    inter = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if inter < 0.0:
        return 0.0
    shorter = min(a.height, b.height)
    return 1.0 if shorter <= 0.0 else min(1.0, inter / shorter)


def burst() -> float:
    """Seconds taken by one burst of fixed work."""
    start = perf_counter()
    for _ in range(20):
        back = json.loads(json.dumps(_DOC, sort_keys=True, indent=2))
        boxes = [_Box(t["bbox"]["x_min"], t["bbox"]["y_min"], t["bbox"]["x_max"], t["bbox"]["y_max"], t["token_id"])
                 for t in back["tokens"]]
        boxes.sort(key=lambda b: (b.y_min, b.x_min, b.token_id))
    for i, a in enumerate(_INTERVALS):
        for b in _INTERVALS[i + 1:]:
            _overlap(a, b)
    return perf_counter() - start


def speed_factor(bursts: list[float]) -> float:
    """How many times slower than the reference the machine ran during
    ``bursts``: 1.0 at reference speed, 1.5 when it ran half again slower."""
    return statistics.median(bursts) / REFERENCE_S
