"""The gateway path: ``repro serve`` in its own process, one client.

:class:`ServerProcess` spawns ``python -m repro.cli serve --port 0``,
reads the bound port from the listening line it prints, pins it to its
own CPU, and always terminates and reaps it.  :class:`Connection` is a
blocking HTTP/1.1 client on one keep-alive socket that reads both
``Content-Length`` replies and the chunked replies (with trailers) of
the streaming exchange, timing the first body byte.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence
from urllib.parse import urlencode

_LISTENING = re.compile(r"gateway listening on http://([^:]+):(\d+)")

#: Longest wait for the server's listening line.
START_TIMEOUT = 60.0


class GatewayError(RuntimeError):
    """The server failed to start or the wire broke."""


def _die_with_parent() -> None:
    """In the child before exec: SIGTERM it when the benchmark dies, so
    a killed run leaks no server (Linux ``PR_SET_PDEATHSIG``)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(1, signal.SIGTERM, 0, 0, 0)  # 1 = PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass  # not Linux: stop() in the parent's finally still reaps it


class ServerProcess:
    """One ``repro serve`` child process."""

    def __init__(self, root: str, cpu: Optional[int], log_path: str):
        self.root = root
        self.cpu = cpu
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> "ServerProcess":
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        log = open(self.log_path, "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--host",
                 self.host, "--port", "0", "--workers", "1"],
                cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log,
                preexec_fn=_die_with_parent,
            )
        finally:
            log.close()
        if self.cpu is not None:
            os.sched_setaffinity(self.proc.pid, {self.cpu})
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], deadline - time.monotonic())
            if not ready:
                break
            line = self.proc.stdout.readline()
            if not line:
                raise GatewayError("repro serve exited before listening "
                                   "(see %s)" % self.log_path)
            match = _LISTENING.search(line.decode("utf-8", "replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return self
        raise GatewayError("repro serve printed no listening line")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL; always reaps."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait(timeout=15)
        finally:
            if proc.stdout is not None:
                proc.stdout.close()


@dataclass
class Reply:
    """One HTTP reply as the client saw it."""

    status: int
    headers: Dict[str, str]
    body: bytes
    trailers: Dict[str, str] = field(default_factory=dict)
    seconds: float = 0.0  # request written → last byte read
    ttfb: float = 0.0  # request written → first body byte read

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self) -> dict:
        return json.loads(self.body.decode("utf-8"))


class Connection:
    """One keep-alive HTTP/1.1 connection (blocking, no retries)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.sock: Optional[socket.socket] = None
        self._open()

    def _open(self) -> None:
        self.sock = socket.create_connection((self.host, self.port),
                                            timeout=self.timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def close(self) -> None:
        if self.sock is None:
            return
        try:
            self.reader.close()
        finally:
            self.sock.close()
            self.sock = None

    def request(self, method: str, path: str, body: bytes = b"",
                content_type: str = "application/json") -> Reply:
        if self.sock is None:  # the server closed the last one
            self._open()
        head = ("%s %s HTTP/1.1\r\nHost: %s:%d\r\nContent-Type: %s\r\n"
                "Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
                % (method, path, self.host, self.port, content_type,
                   len(body)))
        started = time.perf_counter()
        self.sock.sendall(head.encode("latin-1") + body)
        status_line = self.reader.readline()
        if not status_line:
            raise GatewayError("connection closed by the server")
        status = int(status_line.split(b" ", 2)[1])
        headers = self._fields()
        ttfb = time.perf_counter() - started
        trailers: Dict[str, str] = {}
        if headers.get("transfer-encoding", "").lower() == "chunked":
            parts = []
            first = True
            while True:
                size = int(self.reader.readline().split(b";", 1)[0], 16)
                if first:
                    ttfb = time.perf_counter() - started
                    first = False
                if size == 0:
                    break
                parts.append(self.reader.read(size))
                self.reader.readline()  # the chunk's CRLF
            trailers = self._fields()
            body = b"".join(parts)
        else:
            length = int(headers.get("content-length", "0"))
            body = self.reader.read(length) if length else b""
        seconds = time.perf_counter() - started
        if headers.get("connection", "").lower() == "close":
            self.close()
        return Reply(status, headers, body, trailers, seconds, ttfb)

    def _fields(self) -> Dict[str, str]:
        fields: Dict[str, str] = {}
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                return fields
            name, _, value = line.decode("latin-1").partition(":")
            fields[name.strip().lower()] = value.strip()

    # -- the gateway's routes ---------------------------------------------

    def post_json(self, path: str, payload: dict) -> Reply:
        return self.request("POST", path,
                            json.dumps(payload).encode("utf-8"))

    def get(self, path: str) -> Reply:
        return self.request("GET", path)

    def register(self, name: str, xsd: str,
                 obligations: Sequence[str] = ()) -> Reply:
        return self.post_json("/peers", {
            "name": name, "xschema": xsd, "obligations": list(obligations),
            "max_inflight": 64,
        })

    def exchange_json(self, sender: str, receiver: str, xml: str,
                      seed: int, k: int) -> Reply:
        return self.post_json("/exchange", {
            "sender": sender, "receiver": receiver, "document": xml,
            "seed": seed, "k": k,
        })

    def exchange_stream(self, sender: str, receiver: str, data: bytes,
                        seed: int, k: int) -> Reply:
        query = urlencode({"sender": sender, "receiver": receiver,
                           "seed": seed, "k": k})
        return self.request("POST", "/exchange?" + query, data,
                            content_type="application/xml")

    def open_session(self, sender: str, receiver: str, document_id: str,
                     xml: str, seed: int, k: int) -> Reply:
        return self.post_json("/exchange", {
            "sender": sender, "receiver": receiver,
            "document_id": document_id, "document": xml, "seed": seed,
            "k": k,
        })

    def apply_edits(self, sender: str, receiver: str, document_id: str,
                    wire: list) -> Reply:
        return self.post_json("/exchange", {
            "sender": sender, "receiver": receiver,
            "document_id": document_id, "edits": wire,
        })
