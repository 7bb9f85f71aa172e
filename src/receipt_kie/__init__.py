"""Key information extraction for purchase documents.

The pipeline: OCR words in, labeled tokens and product groups out.

1. :mod:`receipt_kie.ingest` parses OCR JSON into a :class:`Document`.
2. :mod:`receipt_kie.tagging` labels tokens (imported model predictions
   or the built-in heuristic tagger).
3. :mod:`receipt_kie.layout` clusters tokens into lines and lines into
   product groups.
4. :mod:`receipt_kie.corrections` recovers entities the tagger missed
   from each group's untagged words.
5. :mod:`receipt_kie.evaluation` scores the result against ground truth.

:mod:`receipt_kie.synth`, imported on its own (``from receipt_kie.synth
import ...``), generates deterministic test corpora, and
:mod:`receipt_kie.cli` wires everything into the ``receipt-kie`` command.
"""

from .corrections import (
    CorrectionRecord,
    apply_corrections,
    parse_float,
    parse_integer,
)
from .errors import (
    CorpusMismatchError,
    LabelConflictError,
    MalformedJsonError,
    ReceiptKieError,
    SchemaError,
    TokenReferenceError,
)
from .evaluation import (
    DocPrediction,
    EntityCounts,
    EvalReport,
    MatchMode,
    build_report,
)
from .ingest import (
    parse_ground_truth,
    parse_ocr,
    parse_result,
    serialize_result,
)
from .layout import (
    assign_entities,
    detect_lines_geometric,
    group_product_lines,
)
from .model import (
    BBox,
    Document,
    EntityLabel,
    LabelSource,
    Product,
    ProductGroup,
    Token,
)
from .render import render_svg
from .tagging import heuristic_tag, import_predictions

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "CorpusMismatchError",
    "CorrectionRecord",
    "DocPrediction",
    "Document",
    "EntityCounts",
    "EntityLabel",
    "EvalReport",
    "LabelConflictError",
    "LabelSource",
    "MalformedJsonError",
    "MatchMode",
    "Product",
    "ProductGroup",
    "ReceiptKieError",
    "SchemaError",
    "Token",
    "TokenReferenceError",
    "apply_corrections",
    "assign_entities",
    "build_report",
    "detect_lines_geometric",
    "group_product_lines",
    "heuristic_tag",
    "import_predictions",
    "parse_float",
    "parse_ground_truth",
    "parse_integer",
    "parse_ocr",
    "parse_result",
    "render_svg",
    "serialize_result",
]
