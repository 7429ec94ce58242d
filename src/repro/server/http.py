"""A deliberately small HTTP/1.1 layer over ``asyncio`` streams.

``repro serve`` must not pull in new dependencies, and the stdlib's
``http.server`` is thread-per-connection and cannot interleave a
long-lived chunked delta stream with other requests on one event loop.
This module implements exactly what the server needs and nothing more:
request parsing (``Content-Length`` bodies only), canonical-JSON and
plain-text responses, and a chunked-transfer writer for NDJSON event
streams. It is not a general HTTP implementation — no keep-alive
pipelining, no multipart, no TLS.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Mapping
from urllib.parse import parse_qsl, urlsplit

from repro.runner.spec import canonical_json

#: Hard request-size ceilings: a campaign-control plane has no business
#: accepting unbounded uploads (snapshots are the largest legit payload).
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 64 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class HttpError(Exception):
    """A request the server refuses, carrying the status to send back."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]
    body: bytes = b""
    #: Job digest this request resolved to, if any — filled in by the
    #: router so the access log can attribute the request to a campaign.
    job: "str | None" = field(default=None, compare=False)

    def json(self) -> Any:
        """The body parsed as JSON (400 on malformed input)."""
        if not self.body:
            raise HttpError(400, "request body must be JSON")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")

    @property
    def parts(self) -> list[str]:
        """Non-empty path segments (``/jobs/ab/deltas`` → 3 parts)."""
        return [p for p in self.path.split("/") if p]


async def read_request(reader: asyncio.StreamReader) -> "Request | None":
    """Parse one request off the stream; None on a cleanly closed socket."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head")
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large")
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            n = int(length)
        except ValueError:
            raise HttpError(400, f"bad Content-Length: {length!r}")
        if n < 0 or n > MAX_BODY_BYTES:
            raise HttpError(413, f"body of {n} bytes exceeds the limit")
        body = await reader.readexactly(n)
    return Request(
        method=method.upper(),
        path=split.path,
        query=query,
        headers=headers,
        body=body,
    )


def response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: "Mapping[str, str] | None" = None,
) -> bytes:
    """One complete non-streaming response, connection closed after."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_response(
    status: int,
    payload: Any,
    extra_headers: "Mapping[str, str] | None" = None,
) -> bytes:
    """A canonical-JSON response (stable bytes for equal payloads)."""
    body = (canonical_json(payload) + "\n").encode("utf-8")
    return response(status, body, "application/json", extra_headers)


def error_response(status: int, message: str) -> bytes:
    return json_response(status, {"error": message})


@dataclass
class ChunkedWriter:
    """Chunked transfer encoding for the NDJSON delta stream.

    Each event is one JSON line, flushed as its own chunk, so a client
    reading line-by-line sees events as they happen without waiting for
    the response to end.
    """

    writer: asyncio.StreamWriter
    started: bool = field(default=False, init=False)

    async def start(
        self, content_type: str = "application/x-ndjson"
    ) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {content_type}\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        self.writer.write(head)
        await self.writer.drain()
        self.started = True

    async def send(self, payload: Any) -> None:
        line = (canonical_json(payload) + "\n").encode("utf-8")
        chunk = f"{len(line):x}\r\n".encode("latin-1") + line + b"\r\n"
        self.writer.write(chunk)
        await self.writer.drain()

    async def finish(self) -> None:
        self.writer.write(b"0\r\n\r\n")
        await self.writer.drain()


__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "ChunkedWriter",
    "HttpError",
    "Request",
    "error_response",
    "json_response",
    "read_request",
    "response",
]
