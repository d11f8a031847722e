"""Crash-safe file publication."""

import os
import tempfile


def atomic_write(path, data):
    """Publish ``data`` (bytes) at ``path`` all at once or not at all.

    The bytes go to a uniquely named tempfile in the same directory
    (so concurrent writers never share a temp name), are fsync'd, and
    replace ``path`` with ``os.replace``; a reader — or a process
    restarted after ``kill -9`` — sees the old file or the new one,
    never a torn one. On failure the tempfile is removed.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
