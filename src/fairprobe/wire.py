"""HTTP/1.1 exchanges on sockets that never block the caller.

A request of ``http.Sessions`` is an exchange (``Exchange``): a generator
that opens a connection if it needs one (``connect``, ``tunnel``,
``handshake``), writes the request (``write``), reads the reply, and
yields its socket each time it cannot go on. So one thread can keep many
requests in flight, opening connections among them, and wait on all their
sockets at once, as ``throttle.run_per_host`` does; ``finish`` runs one
exchange on the calling thread. Only a name lookup
(``socket.getaddrinfo``) waits where it is made.

A reply is read as ``http.client`` reads one (RFC 9112 sections 2-7),
each part once, as it arrives. ``Conn`` takes in the bytes that have
arrived, and the reader of each part (the head, a body, a chunk-size line,
a chunk, a trailer line, a proxy's reply to ``CONNECT``) waits (``_more``)
until the bytes it needs are there. A head ends at its first empty line,
which is searched for in what has arrived, not line by line; its bounds
are checked on what has arrived, so a line too long, or one too many,
fails at once, even on a connection left open. Its header lines become
one map, lowercase name to value, repeated names joined by ``", "``
(``Head.headers``).

A body that no caller reads is drained so that its connection can carry
the next request (``drained``), but only when it is small and arrives in
time: a declared length of at most ``DRAIN_BOUND`` bytes that arrives
within the request's timeout.
"""

from __future__ import annotations

import errno
import os
import re
import select
import socket
import ssl
import time
from http.client import (
    BadStatusLine,
    HTTPException,
    IncompleteRead,
    LineTooLong,
    RemoteDisconnected,
    UnknownProtocol,
)
from typing import Generator, NamedTuple, TypeVar

# http.client's bounds on a reply's head: a line's length with its line
# feed, and the number of header lines with the empty line that ends them
MAX_LINE = 65536
MAX_HEADERS = 100
CHUNKED = -1  # a reply's body length when it comes in chunks
# the longest body read only to keep its connection. On loopback (2 vCPUs,
# Python 3.11), a kept hop that drains 64 KiB cost the client 47 us of CPU,
# against 152 us for a hop on a new TCP connection; draining costs more only
# past 256 KiB. The bound stays well below that, because on a real network
# each byte drained also costs transfer time.
DRAIN_BOUND = 64 * 1024
RECV_SIZE = 64 * 1024  # the most bytes one receive takes in
# the longest single wait in a poll: poll takes its timeout as a C int of
# milliseconds, and a longer wait is made of several
LONGEST_WAIT_MS = 3_600_000.0

# what an exchange waits for on its socket, as ``select.poll`` names it
READ = select.POLLIN
WRITE = select.POLLOUT

T = TypeVar("T")
# what an exchange waits for: a socket, whether to become readable (READ)
# or writable (WRITE), and the time (``time.monotonic``) after which it
# stops waiting
Wait = tuple[socket.socket, int, float]
# a request on the wire, started when the generator is first advanced. It
# yields a ``Wait`` each time it cannot go on, opening its connection,
# writing or reading, is sent True once the socket is ready and False when
# the deadline passed first, and returns what it got
Exchange = Generator[Wait, bool, T]


class Conn:
    """An open connection and the bytes of its replies that have arrived.

    No call on the socket waits: ``fill`` takes in what has arrived, and
    the readers read from that, from ``pos`` on. ``close`` closes the
    socket.
    """

    __slots__ = ("sock", "data", "pos", "ended", "_tls")

    def __init__(self, sock: socket.socket) -> None:
        sock.settimeout(0.0)
        self.sock = sock
        self.data = bytearray()
        self.pos = 0  # bytes of ``data`` read
        self.ended = False  # the peer has closed its side
        self._tls = isinstance(sock, ssl.SSLSocket)

    def close(self) -> None:
        self.sock.close()

    def unread(self) -> bool:
        """Whether bytes that arrived are left unread."""
        return self.pos < len(self.data)

    def fill(self) -> bool:
        """Take in the bytes that have arrived, without waiting; returns
        whether any did or the stream ended. Raises ``OSError``."""
        try:
            chunk = self.sock.recv(RECV_SIZE)
            # TLS may hold decrypted bytes that the socket does not show
            while self._tls and chunk and self.sock.pending():
                chunk += self.sock.recv(RECV_SIZE)
        except (BlockingIOError, ssl.SSLWantReadError):
            return False
        if chunk:
            self.data += chunk
        else:
            self.ended = True
        return True


def _more(conn: Conn, deadline: float) -> Exchange[None]:
    """Wait until more bytes arrive on ``conn`` or its stream ends. Raises
    ``TimeoutError`` when neither happens before ``deadline``."""
    while True:
        if not (yield conn.sock, READ, deadline):
            raise TimeoutError("timed out")
        if conn.fill():
            return


def _line(conn: Conn, what: str, timeout: float) -> Exchange[bytes]:
    """The next line with its line feed, once it has arrived; what is left
    where the stream ends first. Raises ``LineTooLong``, naming the line
    ``what``, as soon as more than ``MAX_LINE`` bytes of it have arrived."""
    data, pos = conn.data, conn.pos
    look = pos
    while not (end := data.find(b"\n", look, pos + MAX_LINE) + 1):
        if len(data) - pos > MAX_LINE:
            raise LineTooLong(what)
        if conn.ended:
            end = len(data)
            break
        look = len(data)
        yield from _more(conn, time.monotonic() + timeout)
    conn.pos = end
    return bytes(data[pos:end])


def _take(conn: Conn, size: int | None, timeout: float) -> Exchange[bytes]:
    """The next ``size`` bytes once they have arrived, or with None every
    byte until the stream ends. Raises ``IncompleteRead`` when the stream
    ends first."""
    data, pos = conn.data, conn.pos
    while not conn.ended and (size is None or len(data) - pos < size):
        yield from _more(conn, time.monotonic() + timeout)
    end = len(data) if size is None else min(pos + size, len(data))
    conn.pos = end
    with memoryview(data) as view:
        got = bytes(view[pos:end])
    if size is not None and len(got) < size:
        raise IncompleteRead(got, size - len(got))
    return got


def _block(conn: Conn, timeout: float) -> Exchange[bytes]:
    """The header lines after a status line, up to the empty line that
    ends them, with it, or up to the end of the stream, once they have
    arrived.

    Each line is held to ``http.client``'s bounds as soon as it arrives:
    ``LineTooLong`` for one of more than ``MAX_LINE`` bytes, its line feed
    included, even before that arrives; ``HTTPException`` past
    ``MAX_HEADERS`` lines, with the empty line, or the end of the stream,
    that ends them.
    """
    data, start = conn.data, conn.pos
    line, lines = start, 0  # where the line not yet counted starts, and the lines before it
    look = start - 1  # the status line's line feed
    while True:
        # the first empty line, searched from the line feed before it
        crlf = data.find(b"\n\r\n", look)
        lf = data.find(b"\n\n", look, len(data) if crlf < 0 else crlf + 1)
        found = lf >= 0 or crlf >= 0
        end = lf + 2 if lf >= 0 else crlf + 3 if found else len(data)
        while (feed := data.find(b"\n", line, min(end, line + MAX_LINE))) >= 0:
            lines += 1
            if lines > MAX_HEADERS:
                raise HTTPException(f"got more than {MAX_HEADERS} headers")
            line = feed + 1
        if end - line > MAX_LINE:
            raise LineTooLong("header line")
        if found:
            break
        if conn.ended:
            # a last line without its line feed, then the end of the stream
            if lines + (end > line) + 1 > MAX_HEADERS:
                raise HTTPException(f"got more than {MAX_HEADERS} headers")
            break
        look = max(end - 2, start - 1)  # an empty line may straddle two arrivals
        yield from _more(conn, time.monotonic() + timeout)
    conn.pos = end
    return bytes(data[start:end])


class Head(NamedTuple):
    """A reply's status and header lines, and how its body is framed."""

    status: int
    fields: list[tuple[str, str]]  # header lines in order
    headers: dict[str, str]  # lowercase name: values joined by ", "
    length: int | None  # CHUNKED, a byte count, or None: until the connection closes
    will_close: bool  # the connection closes after this reply


def reply_head(conn: Conn, timeout: float) -> Exchange[Head]:
    """The next reply's head on ``conn``, read as ``http.client`` reads one
    once it has arrived.

    A ``100 Continue`` is skipped. A 1xx, 204 or 304 reply has no body,
    whatever its header lines say. Raises ``HTTPException`` or ``OSError``:
    ``TimeoutError`` when no byte arrives for ``timeout`` seconds.
    """
    while True:
        version, status, _ = yield from _status_line(conn, timeout)
        if status != 100:
            break
        yield from _block(conn, timeout)
    if version in ("HTTP/1.0", "HTTP/0.9"):
        http11 = False
    elif version.startswith("HTTP/1."):
        http11 = True
    else:
        raise UnknownProtocol(version)
    fields = _fields((yield from _block(conn, timeout)))
    headers: dict[str, str] = {}
    repeated: dict[str, str] = {}  # the first value of each name that repeats
    for name, value in fields:
        name = name.lower()
        seen = headers.get(name)
        if seen is None:
            headers[name] = value
        else:
            repeated.setdefault(name, seen)
            headers[name] = f"{seen}, {value}"
    # http.client frames a body by the first value of each name
    first = headers | repeated
    coding = first.get("transfer-encoding")
    chunked = bool(coding) and coding.lower() == "chunked"
    will_close = _closes(http11, first)
    length = None
    if status < 200 or status in (204, 304):
        length = 0
    elif chunked:
        length = CHUNKED
    elif first.get("content-length"):
        try:
            length = int(first["content-length"])
        except ValueError:
            pass
        else:
            if length < 0:  # ignored, as http.client ignores it
                length = None
    if length is None:
        will_close = True
    return Head(status, fields, headers, length, will_close)


def _status_line(conn: Conn, timeout: float) -> Exchange[tuple[str, int, str]]:
    """A reply's version, status and reason, read as ``http.client`` reads
    them. Raises ``HTTPException``."""
    line = str((yield from _line(conn, "status line", timeout)), "iso-8859-1")
    if not line:
        raise RemoteDisconnected("Remote end closed connection without response")
    words = line.split(None, 2)
    if len(words) < 2 or not words[0].startswith("HTTP/"):
        raise BadStatusLine(line)
    try:
        status = int(words[1])
    except ValueError:
        raise BadStatusLine(line) from None
    if not 100 <= status <= 999:
        raise BadStatusLine(line)
    return words[0], status, words[2] if len(words) > 2 else ""


# a line that email's feed parser takes for a header line: a Unix From
# line, a name (maybe empty) and a colon, or a folded continuation
_FIELD_LINE = re.compile(r"From |[\041-\071\073-\176]*:|[\t ]")


def _fields(block: bytes) -> list[tuple[str, str]]:
    """The (name, value) pairs of a header block, read as ISO-8859-1 text
    as ``http.client`` reads them with email's compat32 policy.

    Lines end at CR, LF or CRLF. The first line that is neither a header
    line nor a continuation ends the fields, as the empty line does. A
    folded value keeps its line breaks and the continuations' leading
    white space; a continuation with no field before it, a Unix From line
    and a line with an empty name are dropped.
    """
    pairs: list[tuple[str, list[str]]] = []
    value: list[str] | None = None  # the lines of the field being read
    # bytes split at CR, LF and CRLF alone, as email's parser splits
    for line in block.splitlines(True):
        line = str(line, "iso-8859-1")
        if not _FIELD_LINE.match(line):
            break
        if line[0] in " \t":
            if value is not None:
                value.append(line)
            continue
        value = None
        if line.startswith("From ") or line[0] == ":":
            continue
        name, rest = line.split(":", 1)
        value = [rest.lstrip(" \t")]
        pairs.append((name, value))
    return [(name, "".join(value).rstrip("\r\n")) for name, value in pairs]


def _closes(http11: bool, first: dict[str, str]) -> bool:
    """Whether the connection closes after a reply with these header values
    (first of each name, by lowercase name), as ``http.client`` decides."""
    connection = first.get("connection", "").lower()
    if http11:
        return "close" in connection
    return not (
        first.get("keep-alive")
        or "keep-alive" in connection
        or "keep-alive" in first.get("proxy-connection", "").lower()
    )


def reply_body(conn: Conn, length: int | None, timeout: float) -> Exchange[bytes]:
    """A body framed by ``length`` (see ``Head``), read as ``http.client``
    reads it once it has arrived: chunk extensions and trailer lines are
    skipped. Raises ``IncompleteRead`` when it ends short or a chunk size is
    not hex, ``LineTooLong`` for a chunk-size or trailer line too long, and
    ``TimeoutError`` when no byte arrives for ``timeout`` seconds."""
    if length != CHUNKED:
        return (yield from _take(conn, length, timeout))
    chunks = []
    while True:
        line = yield from _line(conn, "chunk size", timeout)
        try:
            size = int(line.split(b";", 1)[0], 16)
        except ValueError:
            raise IncompleteRead(b"".join(chunks)) from None
        if size <= 0:
            break
        chunks.append((yield from _take(conn, size, timeout)))
        yield from _take(conn, 2, timeout)  # the CRLF that ends a chunk
    if size < 0:
        raise IncompleteRead(b"".join(chunks))
    while (yield from _line(conn, "trailer line", timeout)) not in (b"\r\n", b"\n", b""):
        pass
    return b"".join(chunks)


def drained(conn: Conn, head: Head, timeout: float) -> Exchange[bool]:
    """Read a body only so that its connection can carry another request;
    returns whether it arrived whole.

    Only a declared length of at most ``DRAIN_BOUND`` bytes is read, and only
    while it arrives within ``timeout`` seconds in all: a trickling body
    must not hold a request for longer. A chunked or close-delimited body, a
    longer one and a reply that closes its connection are left unread.
    """
    length = head.length
    if head.will_close or not 0 <= length <= DRAIN_BOUND:
        return False
    deadline = time.monotonic() + timeout
    try:
        while len(conn.data) - conn.pos < length:
            if conn.ended:
                return False  # the body ended short
            yield from _more(conn, deadline)
    except OSError:  # not in time, or the connection failed
        return False
    conn.pos += length
    return True


def finish(exchange: Exchange[T]) -> T:
    """An exchange run to its end on the calling thread, waiting on its one
    socket at a time."""
    try:
        wait = next(exchange)
        while True:
            sock, events, deadline = wait
            poller = select.poll()
            poller.register(sock, events)
            while True:
                ready = bool(poller.poll(wait_ms(deadline)))
                if ready or time.monotonic() >= deadline:
                    break
            wait = exchange.send(ready)
    except StopIteration as done:
        return done.value


def wait_ms(deadline: float) -> float:
    """Milliseconds from now until ``deadline``, for a poll: none when it
    has passed, and at most ``LONGEST_WAIT_MS``."""
    return min(max((deadline - time.monotonic()) * 1000.0, 0.0), LONGEST_WAIT_MS)


def write(sock: socket.socket, message: bytes, timeout: float) -> Exchange[None]:
    """Write ``message`` whole: in one send where the socket's buffer takes
    it, as it takes a request head, else the rest as the socket takes it,
    waiting up to ``timeout`` seconds for each part."""
    while True:
        events = WRITE
        try:
            sent = sock.send(message)
        except (BlockingIOError, ssl.SSLWantWriteError):
            sent = 0
        except ssl.SSLWantReadError:  # TLS has to read first
            sent, events = 0, READ
        if sent == len(message):
            return
        message = message[sent:]
        if not (yield sock, events, time.monotonic() + timeout):
            raise TimeoutError("timed out")


def connect(host: str, port: int, timeout: float) -> Exchange[socket.socket]:
    """A TCP connection to ``host``, as ``http.client`` opens one with
    ``socket.create_connection``: each address that the name resolves to
    is tried in turn, for up to ``timeout`` seconds, and the last one's
    error is raised when none connects; small writes go out at once
    (``TCP_NODELAY``). The name lookup waits on the calling thread; a
    connect is waited for as a reply is."""
    error: OSError | None = None
    for family, kind, proto, _, address in socket.getaddrinfo(
        host, port, 0, socket.SOCK_STREAM
    ):
        sock = socket.socket(family, kind, proto)
        try:
            sock.setblocking(False)
            code = sock.connect_ex(address)
            if code == errno.EINPROGRESS:
                if not (yield sock, WRITE, time.monotonic() + timeout):
                    raise TimeoutError("timed out")
                code = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if code:
                raise OSError(code, os.strerror(code))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            sock.close()
            error = exc
            continue
        except BaseException:
            sock.close()
            raise
        return sock
    raise error if error is not None else OSError("getaddrinfo returns an empty list")


def tunnel(
    sock: socket.socket, host: str, port: int, authorization: str | None, timeout: float
) -> Exchange[None]:
    """Ask the proxy at the other end of ``sock`` for a tunnel to ``host``
    and ``port``, as ``http.client`` asks: ``CONNECT`` with the proxy's
    ``Proxy-Authorization``, if any. Raises ``OSError`` when the proxy
    refuses."""
    head = [b"CONNECT %s:%d HTTP/1.0\r\n" % (host.encode("ascii"), port)]
    if authorization is not None:
        head.append(f"Proxy-Authorization: {authorization}\r\n".encode("latin-1"))
    head.append(b"\r\n")
    yield from write(sock, b"".join(head), timeout)
    # no byte follows the reply before the client's TLS hello, so reading
    # it into a buffer of its own leaves nothing of the origin's behind
    conn = Conn(sock)
    _, status, reason = yield from _status_line(conn, timeout)
    if status != 200:
        raise OSError(f"Tunnel connection failed: {status} {reason.strip()}")
    # header lines, skipped; past MAX_HEADERS they fail, as from Python 3.12
    yield from _block(conn, timeout)


def handshake(
    sock: socket.socket, context: ssl.SSLContext, host: str, timeout: float
) -> Exchange[ssl.SSLSocket]:
    """``sock`` wrapped by ``context`` for server name ``host``, as
    ``http.client`` wraps it; the handshake is waited for as a reply is,
    for up to ``timeout`` seconds at each step. ``sock`` is closed when the
    handshake fails."""
    try:
        tls = context.wrap_socket(sock, server_hostname=host, do_handshake_on_connect=False)
    except BaseException:
        sock.close()
        raise
    try:
        while True:
            try:
                tls.do_handshake()
                return tls
            except ssl.SSLWantReadError:
                events = READ
            except ssl.SSLWantWriteError:
                events = WRITE
            if not (yield tls, events, time.monotonic() + timeout):
                raise TimeoutError("The handshake operation timed out")
    except BaseException:
        tls.close()
        raise
