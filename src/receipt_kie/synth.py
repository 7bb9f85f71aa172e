"""Deterministic synthetic receipt corpus for pipeline testing.

Every generated document is a plausible single-column receipt: a header,
one block per product (one or more description lines followed by a
numbers line), and a totals footer. The numbers line is laid out so the
correction rules' assumptions hold *by construction*:

* the product code (5-8 digits, when present) is the largest integer in
  its group,
* the quantity (single digit) is the smallest,
* a 3-digit department number sits strictly between them untagged, so a
  single missing code or quantity still has a comparison partner and the
  strict-inequality guards stay satisfiable,
* the line total is the largest decimal number in the group (an optional
  per-unit price is always smaller).

A configurable fraction of "adversarial" products deliberately violates
the price rule by printing a running balance larger than the line total,
to exercise graceful degradation.

Corruption is separate from generation: :func:`corrupt_predictions`
simulates an imperfect tagger by deleting labels (false negatives) and
misreading characters (OCR noise) on a truth-labeled document. Both
generation and corruption are pure functions of their seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

from .ingest import (
    GroundTruthProduct,
    apply_truth_labels,
    canonical_json,
    write_ground_truth_json,
)
from .model import BBox, Document, EntityLabel, LabelSource, Token

_VOCAB = (
    "MILK", "BREAD", "COFFEE", "SHAMPOO", "SOAP", "RICE", "PASTA", "CHEESE",
    "BUTTER", "YOGURT", "JUICE", "WATER", "CHOC", "COOKIES", "TEA", "SUGAR",
    "FLOUR", "OIL", "TOMATO", "APPLE", "BANANA", "CEREAL", "TUNA", "HONEY",
)

_PAGE_WIDTH = 900
_LINE_HEIGHT = 32
_TOKEN_HEIGHT = 20
_MARGIN = 40
_CHAR_WIDTH = 10
_PAD = 8

# Column anchors (pixels). The quantity column falls inside the heuristic
# tagger's default quantity band and the total inside its price band.
_X_CODE = 40
_X_QTY = 450
_X_UNIT_SEP = 480
_X_UNIT = 505
_X_DEPT = 600
_X_PRICE = 700
_X_BALANCE = 800


@dataclass(frozen=True, slots=True)
class CorpusSpec:
    """Shape of a generated corpus. Same spec, same corpus, always."""

    seed: int
    n_docs: int = 200
    products_per_doc: tuple[int, int] = (1, 5)
    multiline_description_prob: float = 0.35
    code_presence_prob: float = 0.8
    adversarial_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.n_docs < 0 or self.n_docs > 99999:
            raise ValueError(f"n_docs must be in [0, 99999], got {self.n_docs}")
        lo, hi = self.products_per_doc
        if lo < 1 or hi < lo:
            raise ValueError(f"products_per_doc range invalid: {self.products_per_doc}")
        for name in ("multiline_description_prob", "code_presence_prob", "adversarial_rate"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be a probability, got {p}")


@dataclass(frozen=True, slots=True)
class CorruptionSpec:
    """False-negative rates per entity type plus a character-noise rate."""

    description_fn_rate: float = 0.0
    code_fn_rate: float = 0.0
    quantity_fn_rate: float = 0.0
    price_fn_rate: float = 0.0
    ocr_noise_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "description_fn_rate",
            "code_fn_rate",
            "quantity_fn_rate",
            "price_fn_rate",
            "ocr_noise_rate",
        ):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be a probability, got {p}")

    def fn_rate(self, label: EntityLabel) -> float:
        return {
            EntityLabel.DESCRIPTION: self.description_fn_rate,
            EntityLabel.CODE: self.code_fn_rate,
            EntityLabel.QUANTITY: self.quantity_fn_rate,
            EntityLabel.PRICE: self.price_fn_rate,
        }[label]


class _PixelWord:
    """A token being laid out, in pixel coordinates."""

    __slots__ = ("text", "x0", "y0", "x1", "y1")

    def __init__(self, text: str, x0: int, y0: int):
        self.text = text
        self.x0 = x0
        self.y0 = y0
        self.x1 = x0 + _CHAR_WIDTH * len(text) + _PAD
        self.y1 = y0 + _TOKEN_HEIGHT


def _cents(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def _generate_doc(
    doc_id: str, rng: random.Random, spec: CorpusSpec
) -> tuple[Document, tuple[GroundTruthProduct, ...], dict[str, Any]]:
    words: list[_PixelWord] = []
    products: list[GroundTruthProduct] = []
    line_no = 0

    def line_y() -> int:
        return _MARGIN + line_no * _LINE_HEIGHT

    def add_word(text: str, x0: int) -> int:
        words.append(_PixelWord(text, x0, line_y() + rng.randint(-2, 2)))
        return len(words) - 1

    # Header: never part of any product.
    add_word("MARKET", _X_CODE)
    add_word("RECEIPT", _X_CODE + 120)
    line_no += 1

    total_cents = 0
    for _ in range(rng.randint(*spec.products_per_doc)):
        desc_ids: list[int] = []
        n_desc_lines = 1
        if rng.random() < spec.multiline_description_prob:
            n_desc_lines += 1
            if rng.random() < spec.multiline_description_prob / 2:
                n_desc_lines += 1
        for _ in range(n_desc_lines):
            x = _X_CODE
            for _ in range(rng.randint(2, 4)):
                word = rng.choice(_VOCAB)
                desc_ids.append(add_word(word, x))
                x = words[-1].x1 + 12
            line_no += 1

        # Numbers line: [code] qty [x unit] dept price [balance]
        code_id = None
        if rng.random() < spec.code_presence_prob:
            code_id = add_word(str(rng.randint(10_000, 99_999_999)), _X_CODE)
        quantity = rng.randint(1, 9)
        quantity_id = add_word(str(quantity), _X_QTY)
        price_cents = rng.randint(100, 99_999)
        if quantity >= 2 and rng.random() < 0.5:
            add_word("x", _X_UNIT_SEP)
            add_word(_cents(price_cents // quantity), _X_UNIT)
        add_word(str(rng.randint(100, 999)), _X_DEPT)  # untagged department no.
        price_id = add_word(_cents(price_cents), _X_PRICE)
        if rng.random() < spec.adversarial_rate:
            # Running balance, strictly above the line total: breaks the
            # "largest decimal is the price" rule on purpose.
            add_word(_cents(price_cents + rng.randint(10, 2 * price_cents)), _X_BALANCE)
        line_no += 1
        total_cents += price_cents

        products.append(
            GroundTruthProduct(
                description_ids=tuple(desc_ids),
                code_id=code_id,
                quantity_id=quantity_id,
                price_id=price_id,
            )
        )

    add_word("TOTAL", _X_CODE)
    add_word(_cents(total_cents), _X_PRICE)
    line_no += 1

    page_height = 2 * _MARGIN + line_no * _LINE_HEIGHT
    tokens = tuple(
        Token(
            token_id=i,
            text=w.text,
            bbox=BBox(
                w.x0 / _PAGE_WIDTH,
                w.y0 / page_height,
                w.x1 / _PAGE_WIDTH,
                w.y1 / page_height,
            ),
        )
        for i, w in enumerate(words)
    )
    doc = Document(
        doc_id=doc_id, tokens=tokens, page_width=_PAGE_WIDTH, page_height=page_height
    )
    ocr_payload = {
        "doc_id": doc_id,
        "page": {"width": _PAGE_WIDTH, "height": page_height},
        "words": [
            {"text": w.text, "polygon": [[w.x0, w.y0], [w.x1, w.y0], [w.x1, w.y1], [w.x0, w.y1]]}
            for w in words
        ],
    }
    return doc, tuple(products), ocr_payload


def _doc_records(spec: CorpusSpec) -> list[tuple[Document, tuple[GroundTruthProduct, ...], dict[str, Any]]]:
    rng = random.Random(spec.seed)
    records = []
    for i in range(spec.n_docs):
        doc_id = f"synth-{spec.seed & 0xFFFFFFFF:08x}-{i:05d}"
        records.append(_generate_doc(doc_id, rng, spec))
    return records


def generate_corpus(spec: CorpusSpec) -> list[tuple[Document, tuple[GroundTruthProduct, ...]]]:
    """Generate the corpus: (clean document, ground truth) per doc.

    Documents come back with all tokens untagged, exactly as
    :func:`receipt_kie.ingest.parse_ocr` would load them; labels live in
    the ground truth.
    """
    return [(doc, products) for doc, products, _ in _doc_records(spec)]


def as_model_predictions(
    doc: Document, products: Sequence[GroundTruthProduct]
) -> Document:
    """Label a clean document with its ground truth as if a perfect model
    had tagged it (``source=MODEL``) — the starting point for corruption."""
    return apply_truth_labels(doc, products, source=LabelSource.MODEL)


# Visually confusable characters, the classic OCR substitution pairs.
_NOISE_ALPHABET = "O0Il1S5B8Z2G6q9ECKXRP"


def corrupt_predictions(doc: Document, spec: CorruptionSpec, seed: int) -> Document:
    """Degrade a labeled document: drop labels and misread characters.

    Each labeled token independently loses its label with the false-
    negative rate for its entity type. Independently, every token's text
    has one character substituted with probability ``ocr_noise_rate``
    (geometry is untouched — the scanner saw the same page). Deterministic
    in (document, spec, seed).
    """
    rng = random.Random(seed)
    tokens: list[Token] = []
    for tok in doc.tokens:
        label, source, confidence = tok.label, tok.source, tok.confidence
        if tok.is_tagged and rng.random() < spec.fn_rate(tok.label):
            label, source, confidence = EntityLabel.UNTAGGED, None, None
        text = tok.text
        if spec.ocr_noise_rate > 0.0 and rng.random() < spec.ocr_noise_rate:
            pos = rng.randrange(len(text))
            replacement = rng.choice([c for c in _NOISE_ALPHABET if c != text[pos]])
            text = text[:pos] + replacement + text[pos + 1 :]
        tokens.append(Token(tok.token_id, text, tok.bbox, label, source, confidence))
    return doc.with_tokens(tokens)


def corruption_seed(base_seed: int, doc_id: str) -> int:
    """Stable per-document corruption seed."""
    digest = hashlib.blake2b(f"{base_seed}:{doc_id}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def predictions_payload(doc: Document) -> dict[str, Any]:
    """The prediction-file payload for a labeled document."""
    labels = [
        {"token_id": tok.token_id, "label": tok.label.value}
        for tok in doc.tokens
        if tok.is_tagged
    ]
    return {"doc_id": doc.doc_id, "labels": labels}


def write_corpus(
    spec: CorpusSpec,
    out_dir: Path,
    corruption: CorruptionSpec | None = None,
) -> dict[str, Any]:
    """Write the corpus to disk and return the manifest.

    Layout: ``<doc_id>.json`` (OCR input) and ``<doc_id>.truth.json`` per
    document, plus ``manifest.json``. With a corruption spec, a ``pred/``
    subdirectory is added holding the noised OCR files (same names) and
    the surviving model labels (``<doc_id>.pred.json``) — a simulated
    imperfect tagger's output over the same corpus.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    pred_dir = out_dir / "pred"
    if corruption is not None:
        pred_dir.mkdir(exist_ok=True)

    doc_ids: list[str] = []
    for doc, products, ocr_payload in _doc_records(spec):
        doc_ids.append(doc.doc_id)
        (out_dir / f"{doc.doc_id}.json").write_text(
            canonical_json(ocr_payload), encoding="utf-8"
        )
        (out_dir / f"{doc.doc_id}.truth.json").write_text(
            write_ground_truth_json(doc.doc_id, products), encoding="utf-8"
        )
        if corruption is None:
            continue
        corrupted = corrupt_predictions(
            as_model_predictions(doc, products),
            corruption,
            corruption_seed(spec.seed, doc.doc_id),
        )
        noised_payload = dict(ocr_payload)
        noised_payload["words"] = [
            dict(word, text=tok.text)
            for word, tok in zip(ocr_payload["words"], corrupted.tokens)
        ]
        (pred_dir / f"{doc.doc_id}.json").write_text(
            canonical_json(noised_payload), encoding="utf-8"
        )
        (pred_dir / f"{doc.doc_id}.pred.json").write_text(
            canonical_json(predictions_payload(corrupted)), encoding="utf-8"
        )

    manifest: dict[str, Any] = {
        "seed": spec.seed,
        "n_docs": spec.n_docs,
        "products_per_doc": list(spec.products_per_doc),
        "multiline_description_prob": spec.multiline_description_prob,
        "code_presence_prob": spec.code_presence_prob,
        "adversarial_rate": spec.adversarial_rate,
        "doc_ids": doc_ids,
        "corruption": None
        if corruption is None
        else {
            "description_fn_rate": corruption.description_fn_rate,
            "code_fn_rate": corruption.code_fn_rate,
            "quantity_fn_rate": corruption.quantity_fn_rate,
            "price_fn_rate": corruption.price_fn_rate,
            "ocr_noise_rate": corruption.ocr_noise_rate,
        },
    }
    (out_dir / "manifest.json").write_text(canonical_json(manifest), encoding="utf-8")
    return manifest
