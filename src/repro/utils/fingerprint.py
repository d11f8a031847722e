"""Canonical typed encodings for cache keys and content addressing.

The compile memo and the artifact store both key results on "everything
the computation depends on". ``json.dumps(..., default=str)`` is not a
safe key encoder: two *distinct* values that stringify identically
(``numpy.int64(5)`` and the string ``"5"``, or two enum members with the
same ``str``) collapse to the same key, silently serving one request's
artifact for another. The encoder here is therefore *typed* and
*closed*: every supported type gets an unambiguous tagged encoding, and
anything unsupported raises ``TypeError`` at the call site instead of
being lossily coerced.

Guarantees:

* ``canonical_dumps(a) == canonical_dumps(b)`` iff ``a`` and ``b`` are
  structurally equal values of the same types (tuples and lists are
  deliberately identified — both mean "sequence" in cache keys).
* Floats encode by ``float.hex()`` — exact bits, independent of repr
  formatting; ``-0.0`` and ``0.0`` are distinct, as are ``1`` and
  ``1.0`` and ``True``.
* Dict/set iteration order never leaks into the encoding (entries are
  sorted by their encoded form).

The output is compact JSON of a type-tagged tree: ``None`` is ``"n"``,
a bool ``["t",1]``, an int ``["i","5"]``, a float ``["f","0x1.8p+0"]``
(``["f","nan"]`` for NaN), a string ``["u",...]``, bytes
``["b","<hex>"]``, an enum ``["e","<class name>",<value>]``, a sequence
``["l",[...]]``, a set ``["s",[...]]`` and a dict
``["d",[[<key>,<value>],...]]``. It is built bottom-up in one pass:
each subtree is encoded exactly once, and set items and dict entries
are sorted by those encoded strings (dict entries by key only, stably).
Store keys and content digests are this string, so its bytes must never
change.
"""

import enum
import hashlib
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

__all__ = ["canonical_dumps", "content_digest"]


def canonical_dumps(value):
    """The canonical string form of ``value`` (stable across processes
    and Python versions; raises ``TypeError`` on unsupported types)."""
    # str first: it is most of an ADG, and no str is a bool/int/float.
    if isinstance(value, str):
        return '["u",' + _quote(value) + "]"
    if value is None:
        return '"n"'
    # bool before int: bool is an int subclass.
    if isinstance(value, bool):
        return '["t",1]' if value else '["t",0]'
    # Quoted, not pasted: an int or float subclass may override the
    # text. Ints go as strings: arbitrary precision survives any JSON
    # parser.
    if isinstance(value, int):
        return '["i",' + _quote(str(value)) + "]"
    if isinstance(value, float):
        return '["f",' + _quote(value.hex() if value == value else "nan") \
            + "]"
    if isinstance(value, (bytes, bytearray)):
        return '["b","' + bytes(value).hex() + '"]'
    if isinstance(value, enum.Enum):
        return ('["e",' + _quote(type(value).__name__) + ","
                + canonical_dumps(value.value) + "]")
    if isinstance(value, (list, tuple)):
        return '["l",[' + ",".join(map(canonical_dumps, value)) + "]]"
    if isinstance(value, (set, frozenset)):
        return '["s",[' + ",".join(sorted(map(canonical_dumps, value))) \
            + "]]"
    if isinstance(value, dict):
        entries = sorted(
            ((canonical_dumps(key), canonical_dumps(item))
             for key, item in value.items()),
            key=itemgetter(0),
        )
        return '["d",[' + ",".join(
            "[" + key + "," + item + "]" for key, item in entries
        ) + "]]"
    raise TypeError(
        f"cannot canonically encode {type(value).__name__!r} value "
        f"{value!r}; pass plain ints/floats/strings/containers"
    )


def content_digest(value):
    """Hex SHA-256 of the canonical encoding — the content address."""
    return hashlib.sha256(canonical_dumps(value).encode()).hexdigest()
