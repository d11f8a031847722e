"""Resumable run checkpoints: one JSON record plus a pickled state blob.

The record keeps what a person reads — version, the settings that pin
the trajectory, history, objective — as plain JSON; the run state
(ADGs, warm schedules, surrogate training buffer) rides in a base64
pickle blob, because it must round-trip bit-exactly and the JSON ADG
form renumbers link ids. Files are published with
:func:`repro.utils.atomic.atomic_write`.
"""

import base64
import json
import pickle

from repro.errors import DseError
from repro.utils.atomic import atomic_write


def write(path, record, state):
    """Atomically store ``record`` (JSON-able, including its
    ``version``) with ``state`` pickled alongside."""
    blob = base64.b64encode(pickle.dumps(state)).decode("ascii")
    atomic_write(path, json.dumps({**record, "state_blob": blob}).encode())


def read(path, version, expect):
    """Load a checkpoint written by :func:`write`.

    Raises :class:`DseError` unless the file has ``version`` and every
    ``expect`` field equals the value this run uses — resuming with a
    different setting would silently fork the trajectory. Returns the
    record with the unpickled blob under ``"state"``.
    """
    with open(path) as handle:
        record = json.load(handle)
    if record.get("version") != version:
        raise DseError(
            f"checkpoint {path!r} has version {record.get('version')!r}; "
            f"expected {version}"
        )
    for name, value in expect.items():
        if record.get(name) != value:
            raise DseError(
                f"checkpoint {path!r} was written with "
                f"{name}={record.get(name)!r}; this run uses {value!r} "
                "— resuming would break trajectory determinism"
            )
    record["state"] = pickle.loads(base64.b64decode(record.pop("state_blob")))
    return record
