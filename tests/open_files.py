"""This process's open files and sockets, read from ``/proc/self/fd``."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

FD_DIR = Path("/proc/self/fd")
needs_proc = pytest.mark.skipif(
    not FD_DIR.is_dir(), reason="no /proc/self/fd to list open files"
)


def sockets_to(port: int) -> list[str]:
    """This process's open TCP sockets whose remote end is on ``port``."""
    inodes = set()
    for fd in os.listdir(FD_DIR):
        try:
            target = os.readlink(FD_DIR / fd)
        except OSError:  # closed since the listing
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    found = []
    for table in ("tcp", "tcp6"):
        path = FD_DIR.parent / "net" / table
        if not path.exists():
            continue
        for line in path.read_text().splitlines()[1:]:
            fields = line.split()
            remote, inode = fields[2], fields[9]
            if inode in inodes and int(remote.rsplit(":", 1)[1], 16) == port:
                found.append(line)
    return found
