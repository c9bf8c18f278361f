"""Execution engine and trace utilities."""

from repro.trace.batch import EVENT_DTYPE, TraceBatch, iter_batches
from repro.trace.builder import BatchBuilder
from repro.trace.store import TraceBundle, TraceStore, generate_bundle, trace_key
from repro.trace.engine import (
    CALL_SITE_LEN,
    CallStyle,
    PATCH_OVERHEAD_INSTRUCTIONS,
    RESOLVER_TEXT_BASE,
    SYMTAB_DATA_BASE,
    ExecutionEngine,
    LinkMode,
)

__all__ = [
    "BatchBuilder",
    "CALL_SITE_LEN",
    "CallStyle",
    "EVENT_DTYPE",
    "ExecutionEngine",
    "LinkMode",
    "TraceBatch",
    "TraceBundle",
    "TraceStore",
    "generate_bundle",
    "iter_batches",
    "trace_key",
    "PATCH_OVERHEAD_INSTRUCTIONS",
    "RESOLVER_TEXT_BASE",
    "SYMTAB_DATA_BASE",
]
