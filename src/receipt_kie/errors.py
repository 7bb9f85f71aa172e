"""Exception types raised at the package's I/O boundaries.

Core pipeline functions signal contract violations with plain ValueError;
the classes below are reserved for problems with external inputs (OCR
dumps, ground-truth files, prediction files) so callers can distinguish
"your file is broken" from "you called this wrong".
"""

from __future__ import annotations


class ReceiptKieError(Exception):
    """Base class for all errors raised while reading external inputs."""


class MalformedJsonError(ReceiptKieError):
    """Input is not valid JSON. Carries the byte offset of the failure."""

    def __init__(self, message: str, byte_offset: int) -> None:
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset

    def __reduce__(self):
        # ``args`` hold the finished message, which a caller may have
        # prefixed with a path: unpickling rebuilds it without ``__init__``,
        # which would append the offset again.
        return type(self).__new__, (type(self), *self.args), self.__dict__


class SchemaError(ReceiptKieError):
    """Input is valid JSON but does not match the expected shape.

    Messages name the offending record index or field so the bad entry
    can be located in the source file.
    """


class LabelConflictError(SchemaError):
    """The same token id was assigned two different labels."""


class TokenReferenceError(ReceiptKieError):
    """A file references a token id or doc id that does not exist."""


class CorpusMismatchError(ReceiptKieError):
    """Predictions and ground truth do not cover the same documents."""
