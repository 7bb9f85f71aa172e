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

:mod:`receipt_kie.synth` generates deterministic test corpora and
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
    score_entities,
    score_whole_products,
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

# The names served from :mod:`receipt_kie.synth`, which is imported on the
# first read of one of them (PEP 562): the CLI and most library users
# never generate a corpus, and synth loads ``dataclasses`` and ``hashlib``.
_SYNTH_EXPORTS = (
    "CorpusSpec",
    "CorruptionSpec",
    "as_model_predictions",
    "corrupt_predictions",
    "generate_corpus",
    "write_corpus",
)


def __getattr__(name: str) -> object:
    if name in _SYNTH_EXPORTS:
        from . import synth

        return getattr(synth, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted([*globals(), *_SYNTH_EXPORTS])


__all__ = [
    "BBox",
    "CorpusMismatchError",
    "CorpusSpec",
    "CorrectionRecord",
    "CorruptionSpec",
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
    "as_model_predictions",
    "assign_entities",
    "build_report",
    "corrupt_predictions",
    "detect_lines_geometric",
    "generate_corpus",
    "group_product_lines",
    "heuristic_tag",
    "import_predictions",
    "parse_float",
    "parse_ground_truth",
    "parse_integer",
    "parse_ocr",
    "parse_result",
    "render_svg",
    "score_entities",
    "score_whole_products",
    "serialize_result",
    "write_corpus",
]
