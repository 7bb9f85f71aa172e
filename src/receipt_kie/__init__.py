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
    NumericParseConfig,
    apply_corrections,
    correct_code,
    correct_price,
    correct_quantity,
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
    match_entity,
    score_entities,
    score_whole_products,
)
from .ingest import (
    GroundTruthProduct,
    apply_truth_labels,
    parse_ground_truth,
    parse_ocr,
    parse_result,
    serialize_result,
)
from .layout import (
    EntityAssignment,
    GroupingConfig,
    assign_entities,
    detect_lines_geometric,
    group_product_lines,
)
from .model import (
    BBox,
    Document,
    EntityLabel,
    LabelSource,
    Line,
    ProductGroup,
    Token,
    union_bbox,
    validate_document,
)
from .render import render_svg
from .synth import (
    CorpusSpec,
    CorruptionSpec,
    as_model_predictions,
    corrupt_predictions,
    generate_corpus,
    write_corpus,
)
from .tagging import (
    EmbeddingVector,
    HeuristicTagger,
    PredictionImportTagger,
    TagRuleConfig,
    Tagger,
    fuse_embeddings,
    fuse_sequences,
    heuristic_tag,
    import_predictions,
)

__version__ = "0.1.0"

__all__ = [
    "BBox",
    "CorpusMismatchError",
    "CorpusSpec",
    "CorrectionRecord",
    "CorruptionSpec",
    "DocPrediction",
    "Document",
    "EmbeddingVector",
    "EntityAssignment",
    "EntityCounts",
    "EntityLabel",
    "EvalReport",
    "GroundTruthProduct",
    "GroupingConfig",
    "HeuristicTagger",
    "LabelConflictError",
    "LabelSource",
    "Line",
    "MalformedJsonError",
    "MatchMode",
    "NumericParseConfig",
    "PredictionImportTagger",
    "ProductGroup",
    "ReceiptKieError",
    "SchemaError",
    "TagRuleConfig",
    "Tagger",
    "Token",
    "TokenReferenceError",
    "apply_corrections",
    "apply_truth_labels",
    "as_model_predictions",
    "assign_entities",
    "build_report",
    "correct_code",
    "correct_price",
    "correct_quantity",
    "corrupt_predictions",
    "detect_lines_geometric",
    "fuse_embeddings",
    "fuse_sequences",
    "generate_corpus",
    "group_product_lines",
    "heuristic_tag",
    "import_predictions",
    "match_entity",
    "parse_float",
    "parse_ground_truth",
    "parse_integer",
    "parse_ocr",
    "parse_result",
    "render_svg",
    "score_entities",
    "score_whole_products",
    "serialize_result",
    "union_bbox",
    "validate_document",
    "write_corpus",
]
