from __future__ import annotations

import pytest

from receipt_kie.model import Document, Product
from receipt_kie.synth import as_model_predictions

from helpers import make_doc, make_token


@pytest.fixture()
def receipt_doc() -> Document:
    """A hand-built two-product receipt, untagged, as ingestion returns it.

    Layout (600x400 page; prices right-aligned at x=480, quantities at
    x=300, codes/descriptions on the left):

        SUPERMART
        CHOC COOKIES
        4902102  2  x  69.00  138.00
        SHAMPOO
        8004520  1  9.99
        TOTAL  147.99
    """
    return make_doc(
        [
            make_token(0, "SUPERMART", 40, 30),
            make_token(1, "CHOC", 40, 80),
            make_token(2, "COOKIES", 100, 80),
            make_token(3, "4902102", 40, 120),
            make_token(4, "2", 300, 120),
            make_token(5, "x", 330, 120),
            make_token(6, "69.00", 360, 120),
            make_token(7, "138.00", 480, 120),
            make_token(8, "SHAMPOO", 40, 170),
            make_token(9, "8004520", 40, 210),
            make_token(10, "1", 300, 210),
            make_token(11, "9.99", 480, 210),
            make_token(12, "TOTAL", 40, 260),
            make_token(13, "147.99", 480, 260),
        ],
        doc_id="receipt-fixture",
    )


@pytest.fixture()
def receipt_truth() -> tuple[Product, ...]:
    return (
        Product(
            description_ids=(1, 2),
            code_id=3,
            quantity_id=4,
            price_id=7,
        ),
        Product(
            description_ids=(8,),
            code_id=9,
            quantity_id=10,
            price_id=11,
        ),
    )


@pytest.fixture()
def labeled_receipt(receipt_doc, receipt_truth) -> Document:
    """The fixture receipt with its truth labels applied as model output."""
    return as_model_predictions(receipt_doc, receipt_truth)
