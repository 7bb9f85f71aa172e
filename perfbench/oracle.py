"""Reference computations that the benchmark checks the program against.

Everything here is written from the documented file formats and rules
(README "Pipeline" and "File formats"), not from the package's code, and
imports nothing from ``receipt_kie``: a fault in the program cannot hide
by being repeated here.
"""

from __future__ import annotations

import json
import unicodedata
from pathlib import Path

ENTITIES = ("description", "code", "quantity", "price")
SCALARS = ("code", "quantity", "price")
PLURAL = {"description": "descriptions", "code": "codes", "quantity": "quantities", "price": "prices"}
_DIGITS = frozenset("0123456789")


def load(path: Path) -> dict:
    return json.loads(path.read_bytes())


# --------------------------------------------------------------------------
# inputs


def ocr_tokens(ocr: dict) -> list[tuple[str, tuple[float, float, float, float]]]:
    """(text, normalized box) per word: the polygon's envelope divided by
    the page size, top-left origin."""
    width, height = ocr["page"]["width"], ocr["page"]["height"]
    out = []
    for word in ocr["words"]:
        xs = [float(x) for x, _ in word["polygon"]]
        ys = [float(y) for _, y in word["polygon"]]
        out.append((word["text"], (min(xs) / width, min(ys) / height, max(xs) / width, max(ys) / height)))
    return out


def truth_labels(truth: dict) -> dict[int, str]:
    labels: dict[int, str] = {}
    for product in truth["products"]:
        for tid in product["description_ids"]:
            labels[tid] = "description"
        for entity in SCALARS:
            if product.get(f"{entity}_id") is not None:
                labels[product[f"{entity}_id"]] = entity
    return labels


def prediction_labels(pred: dict) -> dict[int, str]:
    return {entry["token_id"]: entry["label"] for entry in pred["labels"]}


# --------------------------------------------------------------------------
# numbers, as the correction rules read them


def _strip(text: str, chars: str) -> str:
    def strippable(ch: str) -> bool:
        return ch in chars or unicodedata.category(ch) == "Sc"

    start, end = 0, len(text)
    while start < end and strippable(text[start]):
        start += 1
    while end > start and strippable(text[end - 1]):
        end -= 1
    return text[start:end]


def _decimal_parts(s: str) -> tuple[str, str] | None:
    seps = [i for i, ch in enumerate(s) if ch in ".,"]
    if len(seps) != 1:
        return None
    whole, frac = s[: seps[0]], s[seps[0] + 1 :]
    if not frac or not _DIGITS.issuperset(frac) or not _DIGITS.issuperset(whole):
        return None
    return whole, frac


def rule_integer(text: str) -> int | None:
    s = _strip(text, "*#:")
    if not s or not _DIGITS.issuperset(s) or len(s) > 18:
        return None
    return int(s)


def rule_decimal(text: str) -> float | None:
    parts = _decimal_parts(_strip(text, "*#:"))
    if parts is None or len(parts[0]) > 18:
        return None
    return float((parts[0] or "0") + "." + parts[1])


# --------------------------------------------------------------------------
# the heuristic tagger's documented rules


def heuristic_labels(tokens: list[tuple[str, tuple[float, float, float, float]]]) -> dict[int, str]:
    """First match wins: a decimal left-aligned at x >= 0.65 is a price; an
    integer <= 99 at 0.45 <= x < 0.70 a quantity; a digit run of 5 or more a
    code; alphabetic-majority text a description. Currency signs are
    stripped from the ends first."""
    labels: dict[int, str] = {}
    for tid, (text, (x_min, _, _, _)) in enumerate(tokens):
        s = _strip(text, "")
        is_int = bool(s) and _DIGITS.issuperset(s)
        if _decimal_parts(s) is not None and x_min >= 0.65:
            labels[tid] = "price"
        elif is_int and len(s) <= 18 and int(s) <= 99 and 0.45 <= x_min < 0.70:
            labels[tid] = "quantity"
        elif is_int and len(s) >= 5:
            labels[tid] = "code"
        elif sum(ch.isalpha() for ch in text) * 2 > len(text):
            labels[tid] = "description"
    return labels


# --------------------------------------------------------------------------
# scoring, tag mode


def add_counts(total: dict, part: dict) -> None:
    for key, (tp, fp, fn) in part.items():
        old = total.get(key, (0, 0, 0))
        total[key] = (old[0] + tp, old[1] + fp, old[2] + fn)


def entity_counts(predicted: dict[int, str], truth: dict[int, str]) -> dict[str, tuple[int, int, int]]:
    """Token-level (tp, fp, fn) per entity for one document."""
    out = {}
    for entity in ENTITIES:
        want = {tid for tid, lab in truth.items() if lab == entity}
        got = {tid for tid, lab in predicted.items() if lab == entity}
        tp = len(want & got)
        out[entity] = (tp, len(got) - tp, len(want) - tp)
    return out


def assignment(group_ids, labels: dict[int, str], order: dict[int, tuple]) -> dict:
    """One group's entity roles: every description token, and for each
    scalar the top-most, then left-most labelled token."""
    out: dict = {"description": {tid for tid in group_ids if labels.get(tid) == "description"}}
    for entity in SCALARS:
        ids = [tid for tid in group_ids if labels.get(tid) == entity]
        out[entity] = min(ids, key=lambda tid: order[tid]) if ids else None
    return out


def whole_product_counts(groups: list[tuple[int, list[int]]], labels: dict[int, str],
                         order: dict[int, tuple], truth: dict) -> tuple[int, int, int]:
    """A group claims the truth product owning a strict majority of its
    description tokens; among claimants the larger overlap, then the
    smaller group id, wins. The winner scores only if it reproduces every
    field of the product and adds none."""
    products = truth["products"]
    assigned = [(gid, assignment(ids, labels, order)) for gid, ids in groups]
    claims: dict[int, list[tuple[int, int, int]]] = {}
    for pos, (gid, roles) in enumerate(assigned):
        desc = roles["description"]
        for pi, product in enumerate(products):
            overlap = len(desc & set(product["description_ids"]))
            if desc and overlap * 2 > len(desc):
                claims.setdefault(pi, []).append((-overlap, gid, pos))
                break
    tp = 0
    for pi, claimants in claims.items():
        _, _, pos = min(claimants)
        roles, product = assigned[pos][1], products[pi]
        if roles["description"] == set(product["description_ids"]) and all(
            roles[e] == product.get(f"{e}_id") for e in SCALARS
        ):
            tp += 1
    return tp, len(groups) - tp, len(products) - tp


def score_result(result: dict, truth: dict, counts: dict) -> None:
    """Add one result file's tag-mode counts, per entity and for whole
    products, to ``counts``."""
    labels = {t["token_id"]: t["label"] for t in result["tokens"] if t["label"] != "untagged"}
    order = {t["token_id"]: (t["bbox"]["y_min"], t["bbox"]["x_min"], t["token_id"]) for t in result["tokens"]}
    groups = [(p["group_id"], p["token_ids"]) for p in result["products"]]
    add_counts(counts, entity_counts(labels, truth_labels(truth)))
    add_counts(counts, {"whole_products": whole_product_counts(groups, labels, order, truth)})


def f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


# --------------------------------------------------------------------------
# the correction rules


def correction_fault(entity: str, text: str, pool_texts: list[str], present_before: set[str]) -> str | None:
    """Why a token promoted to ``entity`` by a correction breaks its rule,
    judged against the group's untagged pool as the tagger left it; None
    when it keeps the rule."""
    if entity in present_before:
        return f"{entity} corrected in a group that already had one"
    ints = [v for v in map(rule_integer, pool_texts) if v is not None]
    if entity == "code":
        value = rule_integer(text)
        if value is None or value != max(ints) or not value > min(ints):
            return f"code {text!r} is not the largest pool integer above the smallest"
    elif entity == "quantity":
        value = rule_integer(text)
        if value is None or value != min(ints) or not value < max(ints):
            return f"quantity {text!r} is not the smallest pool integer below the largest"
    elif entity == "price":
        decimals = [v for v in map(rule_decimal, pool_texts) if v is not None]
        value = rule_decimal(text)
        if value is None or value != max(decimals):
            return f"price {text!r} is not the largest pool decimal"
    else:
        return f"correction produced {entity!r}"
    return None
