"""Child processes and loopback HTTP load for the end-to-end benchmark.

The program is only ever run as shipped: ``python -m repro ...`` or the
public-API build child, each in a fresh interpreter with
``PYTHONPATH=src`` and ``PYTHONHASHSEED=0`` (build output depends on the
hash seed).  Peak memory comes from the child's ``ru_maxrss`` via
``os.wait4``.

Load comes from this one process over at most two keep-alive
connections, each driven by a thread with a blocking socket:
``time.sleep`` paces an open loop to tens of microseconds, where an
event loop's timer only wakes to the millisecond.
"""

from __future__ import annotations

import itertools
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, sleep
from typing import Callable, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT = 10.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _reap(proc: subprocess.Popen, timeout: float):
    """``os.wait4`` the child, killing it after ``timeout`` seconds."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


class ChildResult:
    def __init__(self, returncode: int, wall_s: float, peak_mb: float):
        self.returncode = returncode
        self.wall_s = wall_s
        self.peak_mb = peak_mb


def run_child(argv: Sequence[str], log_path: Path, timeout: float = 150.0):
    """Run one child to completion: wall from spawn to exit, peak RSS."""
    with open(log_path, "wb") as log:
        started = perf_counter()
        proc = subprocess.Popen(
            [str(arg) for arg in argv], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
        )
        usage = _reap(proc, timeout)
        wall = perf_counter() - started
    return ChildResult(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def encode_request(method: str, path: str, payload: bytes = b"") -> bytes:
    """One HTTP/1.1 keep-alive request around a JSON body."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Length: {len(payload)}\r\nConnection: keep-alive\r\n\r\n"
    ).encode("ascii")
    return head + payload


class Connection:
    """One blocking keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), REQUEST_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, data: bytes) -> Tuple[int, bytes]:
        """Send pre-encoded request bytes; ``(status, body bytes)``."""
        self.sock.sendall(data)
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("daemon closed the connection")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Daemon:
    """One ``python -m repro serve`` process on a loopback port."""

    def __init__(self, serve_args: Sequence[str], log_path: Path) -> None:
        self._log = open(log_path, "wb")
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *map(str, serve_args),
             "--host", "127.0.0.1", "--port", "0", "--workers", "1"],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self.banner: List[str] = []
        self.host = "127.0.0.1"
        self.port: Optional[int] = None

    def wait_ready(self, timeout: float = 90.0) -> float:
        """Seconds from spawn to the first ``/healthz`` 200."""
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            for raw in self.proc.stdout:
                line = raw.decode("utf-8", "replace").strip()
                if line.startswith("serving on http://"):
                    self.port = int(line.rsplit(":", 1)[1])
                    break
                self.banner.append(line)
        finally:
            timer.cancel()
        if self.port is None:
            raise RuntimeError(f"daemon exited before serving: {self.banner}")
        with Connection(self.host, self.port) as conn:
            status, _ = conn.request(encode_request("GET", "/healthz"))
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        return perf_counter() - self.started

    def stop(self, timeout: float = 30.0) -> float:
        """``POST /shutdown`` and reap; returns the daemon's peak RSS, MB."""
        try:
            with Connection(self.host, self.port) as conn:
                conn.request(encode_request("POST", "/shutdown"))
        except OSError:
            pass  # already gone: the reap below reports how it ended
        usage = _reap(self.proc, timeout)
        self._close_files()
        return usage.ru_maxrss / 1024.0

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self._close_files()

    def _close_files(self) -> None:
        self.proc.stdout.close()
        self._log.close()


Check = Callable[[int, int, bytes], bool]


class OpenStream:
    """One open-loop schedule: request ``i`` is due ``due[i]`` seconds in.

    ``connections`` workers pull the next index from one shared counter,
    so a stalled connection delays later requests instead of dropping
    them; each latency is timed from the request's due time.
    """

    def __init__(self, due: Sequence[float], requests: Sequence[bytes],
                 check: Check, connections: int = 1) -> None:
        self.due = due
        self.requests = requests
        self.check = check
        self.connections = connections
        self.latency = [0.0] * len(due)
        self.late = [0.0] * len(due)
        self.ok = [False] * len(due)


class _Link:
    """A load connection: a failed request reads as status 0, and the
    next request reconnects."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.conn: Optional[Connection] = None

    def request(self, data: bytes) -> Tuple[int, bytes]:
        try:
            if self.conn is None:
                self.conn = Connection(self.host, self.port)
            return self.conn.request(data)
        except (OSError, ValueError, IndexError):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def _open_worker(host, port, stream: OpenStream, counter, t0: float) -> None:
    link = _Link(host, port)
    try:
        for index in counter:
            if index >= len(stream.due):
                break
            due = t0 + stream.due[index]
            delay = due - perf_counter()
            if delay > 0:
                sleep(delay)
            sent = perf_counter()
            status, body = link.request(stream.requests[index])
            stream.latency[index] = perf_counter() - due
            stream.late[index] = sent - due
            stream.ok[index] = stream.check(index, status, body)
    finally:
        link.close()


def open_loop(host: str, port: int, streams: Sequence[OpenStream]) -> None:
    """Run every stream's schedule concurrently from one shared start."""
    t0 = perf_counter() + 0.05
    threads = []
    for stream in streams:
        counter = itertools.count()
        for _ in range(stream.connections):
            threads.append(threading.Thread(
                target=_open_worker, args=(host, port, stream, counter, t0)
            ))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(host: str, port: int, requests: Sequence[bytes], check: Check,
                seconds: float, connections: int) -> Tuple[int, int]:
    """Each connection sends its next request when the last one returns.

    Returns (requests completed, requests failed).
    """
    counter = itertools.count()
    deadline = perf_counter() + seconds
    completed = [0] * connections
    failures = [0] * connections

    def worker(slot: int) -> None:
        link = _Link(host, port)
        try:
            while perf_counter() < deadline:
                index = next(counter) % len(requests)
                status, body = link.request(requests[index])
                completed[slot] += 1
                if not check(index, status, body):
                    failures[slot] += 1
        finally:
            link.close()

    threads = [threading.Thread(target=worker, args=(slot,))
               for slot in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(completed), sum(failures)
