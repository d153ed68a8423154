"""Minimal HTTP/1.1 front end for the gateway (stdlib asyncio only).

Just enough protocol for a JSON RPC service: request line, headers,
``Content-Length`` body, one response per connection
(``Connection: close``).  Deliberately not a web framework — the
gateway's contract is three endpoints and four status codes:

* ``POST /run``       ``{"experiment": "<selector>"}``
* ``POST /campaign``  ``{"selectors": [...]}`` or ``{"sweep": "name"}``
* ``GET  /status``    SLO snapshot
* ``GET  /metrics``   the raw ``serve.*`` metrics registry

``429 Too Many Requests`` (with ``Retry-After``) is the admission
control refusal; ``400``/``404`` cover malformed and unknown requests;
``500`` reports per-unit execution failures.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.serve.gateway import Gateway, RejectedError

__all__ = ["handle_connection", "MAX_BODY_BYTES"]

#: Refuse request bodies beyond this size (a selector list, not a
#: payload channel).
MAX_BODY_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    """Protocol-level refusal; ``status`` picks the response code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # the line outgrew the StreamReader's buffer limit
        raise _BadRequest(400, f"{what} too long") from None


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one request: (method, path, headers, body)."""
    request_line = await _read_line(reader, "request line")
    if not request_line:
        raise _BadRequest(400, "empty request")
    try:
        method, path, _version = (
            request_line.decode("latin-1").strip().split(" ", 2)
        )
    except ValueError:
        raise _BadRequest(400, "malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader, "header line")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0")
    try:
        length = int(raw_length)
    except ValueError:
        length = -1
    if length < 0:
        raise _BadRequest(400, f"bad Content-Length {raw_length!r}")
    if length > MAX_BODY_BYTES:
        raise _BadRequest(413, f"body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _encode_response(status: int, doc: Dict[str, Any],
                     extra_headers: Optional[Dict[str, str]] = None) -> bytes:
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


def _parse_body(body: bytes) -> Dict[str, Any]:
    if not body:
        raise _BadRequest(400, "a JSON body is required")
    try:
        doc = json.loads(body)
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError
        raise _BadRequest(400, f"body is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise _BadRequest(400, "body must be a JSON object")
    return doc


async def _dispatch(gateway: Gateway, method: str, path: str,
                    body: bytes) -> Tuple[int, Dict[str, Any]]:
    """Route one request; returns (status, response document)."""
    if path == "/status":
        if method != "GET":
            raise _BadRequest(405, "status is GET-only")
        return 200, gateway.status()
    if path == "/metrics":
        if method != "GET":
            raise _BadRequest(405, "metrics is GET-only")
        return 200, gateway.metrics.registry.as_dict()
    if path == "/run":
        if method != "POST":
            raise _BadRequest(405, "run is POST-only")
        doc = _parse_body(body)
        selector = doc.get("experiment") or doc.get("selector")
        if not isinstance(selector, str) or not selector:
            raise _BadRequest(
                400, 'run needs {"experiment": "<selector>"}'
            )
        response = await gateway.call_run(selector)
        return (500 if response.failures else 200), response.doc
    if path == "/campaign":
        if method != "POST":
            raise _BadRequest(405, "campaign is POST-only")
        doc = _parse_body(body)
        selectors = doc.get("selectors")
        sweep = doc.get("sweep")
        if selectors is not None and (
            not isinstance(selectors, list)
            or not all(isinstance(s, str) for s in selectors)
        ):
            raise _BadRequest(400, "selectors must be a list of strings")
        try:
            response = await gateway.call_campaign(
                selectors=selectors, sweep=sweep
            )
        except ValueError as exc:
            raise _BadRequest(400, str(exc)) from None
        return (500 if response.failures else 200), response.doc
    raise _BadRequest(404, f"no such endpoint: {path}")


async def handle_connection(gateway: Gateway,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """Serve one request on one connection, then close it."""
    try:
        try:
            method, path, _headers, body = await _read_request(reader)
            status, doc = await _dispatch(gateway, method, path, body)
            payload = _encode_response(status, doc)
        except RejectedError as exc:
            payload = _encode_response(
                429,
                {"error": str(exc), "retry_after": exc.retry_after},
                {"Retry-After": f"{exc.retry_after:g}"},
            )
        except _BadRequest as exc:
            payload = _encode_response(exc.status, {"error": str(exc)})
        except KeyError as exc:
            # unknown experiment / sweep from the registry layer
            payload = _encode_response(404, {"error": str(exc)})
        except asyncio.IncompleteReadError:
            return
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            payload = _encode_response(
                500, {"error": f"{type(exc).__name__}: {exc}"}
            )
        writer.write(payload)
        await writer.drain()
    except (ConnectionError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
