"""Process-level compile memoization, optionally backed by the
persistent artifact store.

The figure harnesses repeatedly compile the same (ADG, workload, seed)
triples — across report invocations in one process, across fig10's
compiled/manual passes sharing a preset, and inside tests that sweep
simulator engines over a fixed kernel set. Compilation is deterministic
(a pure function of the ADG, the kernel, and the RNG seed), so the
result can be memoized on a structural fingerprint.

Three layers of sharing:

* An in-process **bounded LRU** memo of :data:`MAX_ENTRIES` entries.
  Long campaigns and served processes touch an unbounded stream of
  distinct compiles, so the memo evicts least-recently-used entries
  instead of leaking every result forever. Evictions are counted in
  :func:`stats`.
* An optional **persistent store** (:class:`repro.server.ArtifactStore`)
  attached with :func:`attach_store`. Memo misses fall through to the
  store, and fresh compiles are written back, so harnesses and the job
  server share one cache across processes and restarts.
* Keys use the **canonical typed encoding**
  (:mod:`repro.utils.fingerprint`) — never ``default=str`` coercion —
  so distinct non-JSON values can never collide; unsupported key types
  raise ``TypeError`` instead of being lossily stringified.

Results are deep-copied on *every* return — hits and the first miss —
because callers mutate what they get back (``model_validation`` forces
``region.frequency``; ``bind_constants`` rewrites stream bindings).
"""

import copy
from collections import OrderedDict

from repro.adg.serialize import adg_to_dict
from repro.utils.fingerprint import canonical_dumps

#: Bound on the in-process memo. Entries are whole ``CompiledKernel``
#: objects, so the bound is entry-count based; a served process that
#: needs more shares through the artifact store.
MAX_ENTRIES = 128

_cache = OrderedDict()
_hits = 0
_misses = 0
_evictions = 0
_store = None
_store_hits = 0


def adg_fingerprint(adg):
    """A stable structural fingerprint of an ADG (topology, component
    parameters, capabilities) — identical graphs hash identically even
    across separately constructed instances and processes. The graph's
    display name is excluded: compilation only sees the structure.
    Raises ``TypeError`` if a component parameter is not canonically
    encodable (rather than silently coercing it with ``str``)."""
    payload = adg_to_dict(adg)
    payload.pop("name", None)
    return canonical_dumps(payload)


def memo_key(adg, cache_key):
    """The full canonical key for one compile request."""
    return canonical_dumps(
        ["compile-memo", 1, adg_fingerprint(adg), list(cache_key)]
    )


def attach_store(store):
    """Back the memo with a persistent artifact store. Memo misses
    consult ``store.get``; fresh compiles are written back with
    ``store.put``. ``None`` detaches the memo from any store."""
    global _store, _env_checked
    _store = store
    _env_checked = True


_env_checked = False


def _maybe_attach_env_store():
    """Attach the store named by ``$REPRO_STORE`` on first use, so any
    harness run can share the served cache without code changes."""
    global _env_checked, _store
    if _env_checked:
        return
    _env_checked = True
    import os

    path = os.environ.get("REPRO_STORE")
    if not path:
        return
    from repro.server.store import ArtifactStore

    _store = ArtifactStore(path)


def _trim():
    global _evictions
    while len(_cache) > MAX_ENTRIES:
        _cache.popitem(last=False)
        _evictions += 1


def cached_compile(adg, cache_key, factory, telemetry=None):
    """Memoize ``factory()`` (a compile call) under
    ``(adg_fingerprint(adg), *cache_key)``.

    ``cache_key`` must capture everything else the compilation depends
    on: workload name, scale, RNG seed, iteration budget. Failed
    compilations (``result.ok`` false) are cached too — retrying a
    deterministic failure would just repeat the work.
    """
    global _hits, _misses, _store_hits
    _maybe_attach_env_store()
    key = memo_key(adg, cache_key)
    if key in _cache:
        _hits += 1
        _cache.move_to_end(key)
        if telemetry is not None:
            telemetry.incr("compile_cache_hits")
        return copy.deepcopy(_cache[key])
    if _store is not None:
        stored = _store.get(key)
        if stored is not _store.MISS:
            _store_hits += 1
            if telemetry is not None:
                telemetry.incr("compile_cache_store_hits")
            _cache[key] = stored
            _trim()
            return copy.deepcopy(stored)
    _misses += 1
    if telemetry is not None:
        telemetry.incr("compile_cache_misses")
    result = factory()
    _cache[key] = result
    _trim()
    if _store is not None:
        _store.put(key, result)
    return copy.deepcopy(result)


def stats():
    return {
        "entries": len(_cache),
        "max_entries": MAX_ENTRIES,
        "hits": _hits,
        "misses": _misses,
        "evictions": _evictions,
        "store_hits": _store_hits,
        "store_attached": _store is not None,
    }


def clear():
    """Drop all memoized results (and counters); tests use this to get
    a cold cache. The attached store, if any, is left untouched."""
    global _hits, _misses, _evictions, _store_hits
    _cache.clear()
    _hits = 0
    _misses = 0
    _evictions = 0
    _store_hits = 0
