"""The one function that writes a file: ``Dataset.write_csv`` and
``causalbn scan --out`` both call ``write_file``.
"""

from __future__ import annotations

import os


def write_file(path, data: bytes) -> None:
    """Make the file at ``path`` hold exactly ``data``.

    ``path`` is a path (``str`` or ``os.PathLike``), not a file descriptor.

    An existing regular file is cut to zero length through a descriptor
    that is closed before the first new byte is written; ``data`` is then
    written through a second descriptor opened without ``O_TRUNC``.  ext4
    (its default ``auto_da_alloc``) and XFS mark a file truncated to zero,
    and when the descriptor that wrote its new data is closed they send
    that data to disk and wait: a rewrite of a 10 MB sample took 0.13-0.7 s
    that way on an ext4 disk, against about 1 ms for a new file.  Closing
    the truncating descriptor first clears the mark with nothing to send,
    so an overwrite costs what a new file costs.

    At every moment the file is empty or holds a prefix of ``data``, so a
    write that fails part-way (a full disk, a file size limit) or a process
    killed mid-write never leaves old bytes behind new ones.  Nothing is
    synced.  On ext4 and XFS a single truncating open got a flush at close
    that put the new data on disk together with the truncate; without it,
    a power loss in the seconds after a write can leave the file empty or
    short, as it can leave a newly created file.

    A symlink is written through, an existing file keeps its inode and
    mode, and a pipe or device is written without being truncated, so
    ``/dev/null`` and a FIFO work.
    """
    if os.path.isfile(path):
        os.close(os.open(path, os.O_WRONLY | os.O_TRUNC))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        view = memoryview(data)
        written = 0
        while written < len(view):
            written += os.write(fd, view[written:])
    finally:
        os.close(fd)
