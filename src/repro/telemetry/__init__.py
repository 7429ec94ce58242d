"""Run telemetry: spans, traces, manifests and profiling.

Import :func:`span` from here in instrumented code; it is an O(1) no-op
until a :class:`Telemetry` recorder is :func:`activate`-d on the current
thread.
"""

from .core import (
    NULL_SPAN,
    TRACE_SCHEMA,
    Telemetry,
    TraceSink,
    activate,
    activated,
    active,
    enabled,
    span,
)
from .manifest import MANIFEST_SCHEMA, build_manifest, write_manifest
from .profile import TraceProfile, load_trace, render_profile

__all__ = [
    "MANIFEST_SCHEMA",
    "NULL_SPAN",
    "TRACE_SCHEMA",
    "Telemetry",
    "TraceProfile",
    "TraceSink",
    "activate",
    "activated",
    "active",
    "build_manifest",
    "enabled",
    "load_trace",
    "render_profile",
    "span",
    "write_manifest",
]
