"""Child processes of the benchmark and the JSON lines they exchange with it.

The landscape and the client each run as a plain ``python3`` child started
with ``subprocess``; no ``multiprocessing`` helper process is left behind.
A message is one JSON value on one line: the benchmark writes to the
child's standard input and reads the child's original standard output. The
child's ``sys.stdout`` and file descriptor 1 are pointed at standard error,
so nothing the program prints can break a message.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"


class ChildError(Exception):
    pass


class Child:
    """A child process running ``perfbench/<script>``, seen from the benchmark."""

    def __init__(self, name: str, script: str, *args: str) -> None:
        self.name = name
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(SOURCE), env.get("PYTHONPATH"))))
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        self._buffer = b""

    def send(self, message: Any) -> None:
        try:
            self._proc.stdin.write(json.dumps(message).encode() + b"\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError):
            raise ChildError(f"{self.name}: the process ended early") from None

    def recv(self, what: str, timeout: float) -> Any:
        deadline = time.monotonic() + timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise ChildError(f"{self.name} {what}: nothing within {timeout:g} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise ChildError(f"{self.name} {what}: the process ended early")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return json.loads(line)

    def stop(self, grace: float = 10.0) -> None:
        """Close its input, which tells it to end, and wait until it has.
        After ``grace`` seconds terminate it, and kill it if that has not
        ended it within 10 s more."""
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self._proc.wait(grace)
        except subprocess.TimeoutExpired:
            self._proc.terminate()
            try:
                self._proc.wait(10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()


class Parent:
    """The benchmark, seen from inside a child process."""

    def __init__(self) -> None:
        self._out = os.fdopen(os.dup(1), "w", encoding="utf-8")
        os.dup2(2, 1)
        sys.stdout = sys.stderr

    def send(self, message: Any) -> None:
        self._out.write(json.dumps(message) + "\n")
        self._out.flush()

    def recv(self) -> Any:
        """The next message; raises EOFError once the benchmark closed the pipe."""
        line = sys.stdin.readline()
        if not line:
            raise EOFError
        return json.loads(line)
