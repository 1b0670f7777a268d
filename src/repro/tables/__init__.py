"""Web-table substrate: model, extraction, header detection, context."""

from .compiled import CompiledColumn, CompiledTable
from .context import extract_context
from .extractor import ExtractionCensus, extract_grid, extract_tables, is_data_table
from .headers import detect_header_rows, row_signature
from .table import Cell, CellFormat, ContextSnippet, WebTable

__all__ = [
    "Cell",
    "CellFormat",
    "CompiledColumn",
    "CompiledTable",
    "ContextSnippet",
    "ExtractionCensus",
    "WebTable",
    "detect_header_rows",
    "extract_context",
    "extract_grid",
    "extract_tables",
    "is_data_table",
    "row_signature",
]
