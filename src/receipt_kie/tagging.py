"""Token tagging: entity labels from a model or from layout heuristics.

The learned tagger itself (a fine-tuned language-and-layout encoder) is a
training artifact and lives outside this package. What lives here is its
*seams*:

* the embedding fusion contract the encoder stack relies on — image and
  text embeddings of equal shape combined by element-wise addition;
* :func:`import_predictions`, which loads a model's token labels from a
  JSON file; and
* :class:`HeuristicTagger`, a dependency-free geometric/lexical tagger
  good enough to exercise the full pipeline without any model.

Both taggers implement the same interface: ``tag(doc)`` returns a new
Document and never touches geometry or text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, runtime_checkable

from .corrections import NumericParseConfig, _split_number
from .errors import LabelConflictError, SchemaError, TokenReferenceError
from .ingest import _loads, _require
from .model import ENTITY_ORDER, Document, EntityLabel, LabelSource, Token


@dataclass(frozen=True, slots=True)
class EmbeddingVector:
    """A fixed-dimension embedding; values are finite floats."""

    values: tuple[float, ...]
    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.values) != self.dim:
            raise ValueError(f"dim={self.dim} but got {len(self.values)} values")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"embedding values must be finite, got {v!r}")

    @classmethod
    def of(cls, values: Iterable[float]) -> "EmbeddingVector":
        vals = tuple(float(v) for v in values)
        return cls(vals, len(vals))


def fuse_embeddings(image: EmbeddingVector, text: EmbeddingVector) -> EmbeddingVector:
    """Combine an image embedding and a text embedding element-wise.

    The combined representation is simply ``image[i] + text[i]`` — both
    inputs must share a dimension. Addition is exact per index, so fusion
    commutes and the zero vector is the identity.
    """
    if image.dim != text.dim:
        raise ValueError(f"dimension mismatch: image dim {image.dim} vs text dim {text.dim}")
    return EmbeddingVector(tuple(a + b for a, b in zip(image.values, text.values)), image.dim)


def fuse_sequences(
    image_seq: Sequence[EmbeddingVector], text_seq: Sequence[EmbeddingVector]
) -> tuple[EmbeddingVector, ...]:
    """Fuse two equal-length sequences of embeddings pairwise."""
    if len(image_seq) != len(text_seq):
        raise ValueError(
            f"sequence length mismatch: {len(image_seq)} image vs {len(text_seq)} text"
        )
    return tuple(fuse_embeddings(a, b) for a, b in zip(image_seq, text_seq))


@runtime_checkable
class Tagger(Protocol):
    """A stage that labels tokens. Must preserve ids, text, and geometry."""

    def tag(self, doc: Document) -> Document: ...


@dataclass(frozen=True, slots=True)
class TagRuleConfig:
    """Knobs for the heuristic tagger's column bands and lexical rules.

    Bands are page-normalized x positions tested against a token's left
    edge. Defaults fit a typical single-column receipt: totals in the
    right-most ~third of the page, quantities mid-line.
    """

    price_band_min_x: float = 0.65
    quantity_band: tuple[float, float] = (0.45, 0.70)
    max_quantity: int = 99
    min_code_length: int = 5

    def __post_init__(self) -> None:
        if not (0.0 <= self.price_band_min_x <= 1.0):
            raise ValueError(f"price_band_min_x {self.price_band_min_x} outside [0, 1]")
        lo, hi = self.quantity_band
        if not (0.0 <= lo < hi <= 1.0):
            raise ValueError(f"quantity_band {self.quantity_band} is not a sub-interval of [0, 1]")
        if self.max_quantity < 1:
            raise ValueError("max_quantity must be at least 1")
        if self.min_code_length < 1:
            raise ValueError("min_code_length must be at least 1")


# The tagger reads numbers with the correction rules' lexer but strips only
# currency signs, so "*12345" is no code to it. It caps no digit run except
# in the quantity rule.
_TAG_NUMBERS = NumericParseConfig(strip_chars="")


def _alpha_majority(text: str) -> bool:
    alpha = sum(1 for ch in text if ch.isalpha())
    return alpha * 2 > len(text)


def heuristic_tag(doc: Document, config: TagRuleConfig | None = None) -> Document:
    """Label tokens with position/lexicon rules; no model involved.

    Rule order per token (first match wins):

    1. decimal number with a fractional part whose left edge sits in the
       right-most column band -> PRICE
    2. small integer (<= max_quantity) in the quantity band -> QUANTITY
    3. digit run of at least min_code_length characters -> CODE
    4. alphabetic-majority text -> DESCRIPTION
    5. otherwise untagged

    Pre-existing labels are discarded; output labels carry
    ``source=HEURISTIC``. Deterministic: same document and config, same
    labels, bit for bit.
    """
    cfg = config or TagRuleConfig()
    qty_lo, qty_hi = cfg.quantity_band
    tokens: list[Token] = []
    for tok in doc.tokens:
        digits, fraction = _split_number(tok.text, _TAG_NUMBERS) or ("", None)
        is_integer = bool(digits) and fraction is None
        label = EntityLabel.UNTAGGED
        if fraction is not None and tok.bbox.x_min >= cfg.price_band_min_x:
            label = EntityLabel.PRICE
        elif (
            is_integer
            and len(digits) <= 18  # keep int() cheap on garbage input
            and int(digits) <= cfg.max_quantity
            and qty_lo <= tok.bbox.x_min < qty_hi
        ):
            label = EntityLabel.QUANTITY
        elif is_integer and len(digits) >= cfg.min_code_length:
            label = EntityLabel.CODE
        elif _alpha_majority(tok.text):
            label = EntityLabel.DESCRIPTION
        if label is EntityLabel.UNTAGGED:
            tokens.append(Token(tok.token_id, tok.text, tok.bbox, EntityLabel.UNTAGGED, None, None))
        else:
            tokens.append(
                Token(tok.token_id, tok.text, tok.bbox, label, LabelSource.HEURISTIC, None)
            )
    return doc.with_tokens(tokens)


class HeuristicTagger:
    """:func:`heuristic_tag` wrapped as a Tagger."""

    def __init__(self, config: TagRuleConfig | None = None) -> None:
        self.config = config or TagRuleConfig()

    def tag(self, doc: Document) -> Document:
        return heuristic_tag(doc, self.config)


_IMPORTABLE_LABELS = {label.value: label for label in ENTITY_ORDER}


def import_predictions(doc: Document, data: bytes | str) -> Document:
    """Apply model predictions from a JSON file to ``doc``.

    The file shape is ``{"doc_id", "labels": [{"token_id", "label",
    "confidence"?}]}``. Every referenced token id must exist; a token id
    listed twice with different labels is a conflict (duplicates with the
    same label are tolerated). Tokens the file does not mention come back
    untagged. Imported labels carry ``source=MODEL``.
    """
    raw = _loads(data)
    if not isinstance(raw, dict):
        raise SchemaError("top level: expected a JSON object")
    doc_id = _require(raw, "doc_id", "top level")
    if doc_id != doc.doc_id:
        raise TokenReferenceError(
            f"predictions are for doc_id {doc_id!r} but the document is {doc.doc_id!r}"
        )
    raw_labels = _require(raw, "labels", "top level")
    if not isinstance(raw_labels, list):
        raise SchemaError("labels: expected a list")

    valid_ids = frozenset(t.token_id for t in doc.tokens)
    assigned: dict[int, tuple[EntityLabel, float | None]] = {}
    for i, entry in enumerate(raw_labels):
        where = f"label {i}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: expected an object")
        token_id = _require(entry, "token_id", where)
        if not isinstance(token_id, int) or isinstance(token_id, bool):
            raise SchemaError(f"{where}: token_id must be an integer")
        if token_id not in valid_ids:
            raise TokenReferenceError(f"{where}: unknown token id {token_id}")
        label_raw = _require(entry, "label", where)
        if label_raw not in _IMPORTABLE_LABELS:
            raise SchemaError(f"{where}: unknown label {label_raw!r}")
        label = _IMPORTABLE_LABELS[label_raw]
        confidence = entry.get("confidence")
        if confidence is not None:
            if not isinstance(confidence, (int, float)) or isinstance(confidence, bool):
                raise SchemaError(f"{where}: confidence must be a number")
            confidence = float(confidence)
            if not (0.0 <= confidence <= 1.0):
                raise SchemaError(f"{where}: confidence {confidence} outside [0, 1]")
        if token_id in assigned and assigned[token_id][0] is not label:
            raise LabelConflictError(
                f"{where}: token id {token_id} labeled both "
                f"{assigned[token_id][0].value!r} and {label.value!r}"
            )
        assigned[token_id] = (label, confidence)

    tokens: list[Token] = []
    for tok in doc.tokens:
        if tok.token_id in assigned:
            label, confidence = assigned[tok.token_id]
            tokens.append(
                Token(tok.token_id, tok.text, tok.bbox, label, LabelSource.MODEL, confidence)
            )
        else:
            tokens.append(Token(tok.token_id, tok.text, tok.bbox, EntityLabel.UNTAGGED, None, None))
    return doc.with_tokens(tokens)


class PredictionImportTagger:
    """A Tagger backed by per-document prediction files.

    Construct with a mapping from doc_id to the raw JSON payload for that
    document. ``tag`` fails with TokenReferenceError for unknown docs.
    """

    def __init__(self, payloads: dict[str, bytes | str]) -> None:
        self._payloads = dict(payloads)

    def tag(self, doc: Document) -> Document:
        try:
            payload = self._payloads[doc.doc_id]
        except KeyError:
            raise TokenReferenceError(f"no predictions loaded for doc_id {doc.doc_id!r}") from None
        return import_predictions(doc, payload)
