"""The one HTTP/1.1 core: an asyncio connection loop and a keep-alive client.

The query plane, the fleet router and the live plane each mount one
route, ``respond(method, target) -> (status, body, content_type)``, on
:class:`HTTPServer`, which owns the wire: request line, headers,
keep-alive, ``Content-Length`` framing, reason phrases, JSON errors
(:func:`json_error`; a route that raises is a 500).  Input it will not
read gets a bounded answer and then a close: a request line of fewer
than two tokens is a 400; more than :data:`MAX_HEADER_LINES` header
lines, or a line past :data:`LINE_LIMIT` bytes, a 431; a request with a
body (``Content-Length`` > 0 or ``Transfer-Encoding``) is answered with
``Connection: close``, because no route reads a body and an unread one
would be parsed as the next request.

:class:`HTTPClient` GETs over a pool of idle keep-alive connections (the
router's upstream hops, ``repro loadgen``).  Imports nothing from
``repro``, so the live plane needs no serve stack.
"""

from __future__ import annotations

import asyncio
import json
from typing import Awaitable, Callable, List, Optional, Set, Tuple

__all__ = ["HTTPClient", "HTTPServer", "json_error", "parse_url"]

#: Header lines one request head may carry (the terminating blank line
#: not counted); past it the request is refused with 431.
MAX_HEADER_LINES = 100
#: The longest line, in bytes, a connection's stream reader buffers; a
#: longer request line or header line is refused with 431.
LINE_LIMIT = 64 * 1024

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 502: "Bad Gateway",
    503: "Service Unavailable", 504: "Gateway Timeout",
}

#: ``(status, body, content_type)``: what a route answers.
Response = Tuple[int, bytes, str]


def json_error(status: int, message: str) -> Response:
    """A ``{"error": message}`` JSON answer, newline-terminated."""
    body = (json.dumps({"error": message}) + "\n").encode()
    return status, body, "application/json"


class HTTPServer:
    """One listener running the connection loop over one route.

    ``port=0`` binds an ephemeral port, read back from :attr:`port`.
    """

    def __init__(
        self,
        respond: Callable[[str, str], Awaitable[Response]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._route = respond
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._handlers: Set["asyncio.Task[None]"] = set()

    async def start(self) -> "HTTPServer":
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._connection, self.host, self.port, limit=LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # Open connections end with the listener: an idle keep-alive
            # client would keep its handler alive, and since Python 3.12
            # wait_closed() waits for every handler.
            for handler in self._handlers:
                handler.cancel()
            await asyncio.gather(*self._handlers, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None

    async def _connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        handler = asyncio.current_task()
        self._handlers.add(handler)
        try:
            while True:
                refused = None
                try:
                    request_line = await reader.readline()
                    if not request_line:
                        break
                    parts = request_line.decode("latin-1").split()
                    if len(parts) < 2:
                        refused = json_error(400, "malformed request line")
                    else:
                        keep_alive = len(parts) < 3 or parts[2] != "HTTP/1.0"
                        has_body = False
                        for _ in range(MAX_HEADER_LINES + 1):
                            header = await reader.readline()
                            if header in (b"", b"\r\n", b"\n"):
                                break
                            lowered = header.lower()
                            if lowered.startswith(b"connection:"):
                                keep_alive = b"close" not in lowered
                            elif lowered.startswith(b"content-length:"):
                                has_body |= lowered[15:].strip() != b"0"
                            elif lowered.startswith(b"transfer-encoding:"):
                                has_body = True
                        else:
                            refused = json_error(
                                431, f"more than {MAX_HEADER_LINES} header lines"
                            )
                except ValueError:  # the stream reader's LINE_LIMIT
                    refused = json_error(
                        431, f"a head line is longer than {LINE_LIMIT} bytes"
                    )
                if refused is None:
                    try:
                        status, body, ctype = await self._route(
                            parts[0], parts[1]
                        )
                    except Exception as error:
                        status, body, ctype = json_error(500, str(error))
                    keep_alive = keep_alive and not has_body
                else:
                    (status, body, ctype), keep_alive = refused, False
                connection = "keep-alive" if keep_alive else "close"
                writer.write(
                    (
                        f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                        f"Content-Type: {ctype}\r\n"
                        f"Content-Length: {len(body)}\r\n"
                        f"Connection: {connection}\r\n\r\n"
                    ).encode() + body
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._handlers.discard(handler)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def parse_url(url: str) -> Tuple[str, int]:
    """``http://host:port[/...]`` -> ``(host, port)``."""
    stripped = url.split("://", 1)[-1].split("/", 1)[0]
    host, _, port = stripped.rpartition(":")
    if not host:
        raise ValueError(f"need host:port, got {url!r}")
    return host, int(port)


class HTTPClient:
    """GETs to one ``http://host:port`` over pooled keep-alive connections."""

    def __init__(self, url: str) -> None:
        self.url = url
        self.host, self.port = parse_url(url)
        self._idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def get(self, path: str) -> Tuple[int, bytes]:
        """One GET -> ``(status, body)`` on a pooled or new connection.

        A failed connection (a pooled one the server closed) is replaced
        once.  One interrupted by any other error or a cancellation is
        closed, never pooled: a late reply on it would answer the next
        request.
        """
        if self._idle:
            reader, writer = self._idle.pop()
        else:
            reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            try:
                result = await self._fetch(reader, writer, path)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                writer.close()
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
                result = await self._fetch(reader, writer, path)
        except BaseException:
            writer.close()
            raise
        self._idle.append((reader, writer))
        return result

    async def _fetch(self, reader, writer, path: str) -> Tuple[int, bytes]:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n".encode()
        )
        await writer.drain()
        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("server closed connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            if header.lower().startswith(b"content-length:"):
                length = int(header.split(b":", 1)[1])
        body = await reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        """Close every pooled connection."""
        idle, self._idle = self._idle, []
        for _, writer in idle:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
