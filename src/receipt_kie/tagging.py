"""Token tagging: entity labels from a model or from layout heuristics.

The learned tagger itself (a fine-tuned language-and-layout encoder) is a
training artifact and lives outside this package. What lives here is its
*seams*:

* the embedding fusion contract the encoder stack relies on — image and
  text embeddings of equal shape combined by element-wise addition;
* :func:`import_predictions`, which loads a model's token labels from a
  JSON file (defined in :mod:`receipt_kie.ingest` with the other readers,
  and re-exported here, where the CLI looks it up); and
* :func:`heuristic_tag`, a dependency-free geometric/lexical tagger good
  enough to exercise the full pipeline without any model.

Both taggers build their output with :meth:`~receipt_kie.model.Document.relabel`,
so they return a new Document and never touch geometry or text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .corrections import DEFAULT_PARSE_CONFIG, MAX_INTEGER_DIGITS, NumericParseConfig, _split_number
from .ingest import import_predictions  # noqa: F401 (re-export)
from .model import Document, EntityLabel, LabelSource


@dataclass(frozen=True, slots=True)
class EmbeddingVector:
    """A fixed-dimension embedding; values are finite floats."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"embedding values must be finite, got {v!r}")

    @property
    def dim(self) -> int:
        return len(self.values)

    @classmethod
    def of(cls, values: Iterable[float]) -> "EmbeddingVector":
        return cls(tuple(float(v) for v in values))


def fuse_embeddings(image: EmbeddingVector, text: EmbeddingVector) -> EmbeddingVector:
    """Combine an image embedding and a text embedding element-wise.

    The combined representation is simply ``image[i] + text[i]`` — both
    inputs must share a dimension. Addition is exact per index, so fusion
    commutes and the zero vector is the identity.
    """
    if image.dim != text.dim:
        raise ValueError(f"dimension mismatch: image dim {image.dim} vs text dim {text.dim}")
    return EmbeddingVector(tuple(a + b for a, b in zip(image.values, text.values)))


def fuse_sequences(
    image_seq: Sequence[EmbeddingVector], text_seq: Sequence[EmbeddingVector]
) -> tuple[EmbeddingVector, ...]:
    """Fuse two equal-length sequences of embeddings pairwise."""
    if len(image_seq) != len(text_seq):
        raise ValueError(
            f"sequence length mismatch: {len(image_seq)} image vs {len(text_seq)} text"
        )
    return tuple(fuse_embeddings(a, b) for a, b in zip(image_seq, text_seq))


# Column bands are page-normalized x positions tested against a token's
# left edge. They fit a typical single-column receipt: totals in the
# right-most third of the page, quantities mid-line.
_PRICE_BAND_MIN_X = 0.65
_QUANTITY_BAND = (0.45, 0.70)
_MAX_QUANTITY = 99
_MIN_CODE_LENGTH = 5

# The tagger reads numbers with the correction rules' lexer but strips only
# currency signs, so "*12345" is no code to it. It caps no digit run except
# in the quantity rule.
_TAG_STRIP_CHARS = ""


def _alpha_majority(text: str) -> bool:
    alpha = sum(1 for ch in text if ch.isalpha())
    return alpha * 2 > len(text)


def heuristic_tag(doc: Document, config: NumericParseConfig = DEFAULT_PARSE_CONFIG) -> Document:
    """Label tokens with position/lexicon rules; no model involved.

    Rule order per token (first match wins):

    1. decimal number with a fractional part whose left edge sits at or
       right of x = 0.65 -> PRICE
    2. integer of at most 99 whose left edge sits in [0.45, 0.70)
       -> QUANTITY
    3. digit run of at least 5 characters -> CODE
    4. alphabetic-majority text -> DESCRIPTION
    5. otherwise untagged

    Numbers are read with ``config``'s decimal separators, like the
    correction rules read them. Pre-existing labels are discarded; output
    labels carry ``source=HEURISTIC``. Deterministic: same document, same
    labels, bit for bit.
    """
    qty_lo, qty_hi = _QUANTITY_BAND
    labels: dict[int, tuple[EntityLabel, LabelSource, None]] = {}
    for tok in doc.tokens:
        number = _split_number(tok.text, _TAG_STRIP_CHARS, config)
        digits, fraction = number or ("", None)
        is_integer = bool(digits) and fraction is None
        if fraction is not None and tok.bbox.x_min >= _PRICE_BAND_MIN_X:
            label = EntityLabel.PRICE
        elif (
            is_integer
            and len(digits) <= MAX_INTEGER_DIGITS
            and int(digits) <= _MAX_QUANTITY
            and qty_lo <= tok.bbox.x_min < qty_hi
        ):
            label = EntityLabel.QUANTITY
        elif is_integer and len(digits) >= _MIN_CODE_LENGTH:
            label = EntityLabel.CODE
        elif _alpha_majority(tok.text):
            label = EntityLabel.DESCRIPTION
        else:
            continue
        labels[tok.token_id] = (label, LabelSource.HEURISTIC, None)
    return doc.relabel(labels)
