"""Store-key stability: the one-pass ``canonical_dumps`` must emit the
same bytes as the tree-then-``json.dumps`` encoder it replaced, and
``job_key`` must key every preset as before while fingerprinting each
preset fabric only once per process.

Both depend on set/dict iteration order before sorting, which depends
on ``PYTHONHASHSEED``: CI reruns this file under several hash seeds.
"""

import enum
import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adg import topologies
from repro.adg.serialize import adg_to_dict
from repro.harness.compile_cache import adg_fingerprint
from repro.server import jobs
from repro.server.jobs import JobSpec, job_key
from repro.utils.fingerprint import canonical_dumps


# -- the replaced encoder, verbatim: the oracle --------------------------
def canonical_encode(value):
    """Reduce ``value`` to a JSON-safe tree that encodes type as well
    as structure. Raises ``TypeError`` for unsupported types."""
    # bool before int: bool is an int subclass.
    if value is None:
        return "n"
    if isinstance(value, bool):
        return ["t", 1 if value else 0]
    if isinstance(value, int):
        # As a string: arbitrary precision survives any JSON parser.
        return ["i", str(value)]
    if isinstance(value, float):
        return ["f", value.hex() if value == value else "nan"]
    if isinstance(value, str):
        return ["u", value]
    if isinstance(value, (bytes, bytearray)):
        return ["b", bytes(value).hex()]
    if isinstance(value, enum.Enum):
        return ["e", type(value).__name__,
                canonical_encode(value.value)]
    if isinstance(value, (list, tuple)):
        return ["l", [canonical_encode(item) for item in value]]
    if isinstance(value, (set, frozenset)):
        encoded = sorted(
            (canonical_encode(item) for item in value),
            key=lambda tree: json.dumps(tree, separators=(",", ":")),
        )
        return ["s", encoded]
    if isinstance(value, dict):
        entries = [
            [canonical_encode(key), canonical_encode(item)]
            for key, item in value.items()
        ]
        entries.sort(
            key=lambda pair: json.dumps(pair[0], separators=(",", ":"))
        )
        return ["d", entries]
    raise TypeError(
        f"cannot canonically encode {type(value).__name__!r} value "
        f"{value!r}; pass plain ints/floats/strings/containers"
    )


def oracle_dumps(value):
    return json.dumps(canonical_encode(value), separators=(",", ":"))


# -- strategies ----------------------------------------------------------
class Color(enum.Enum):
    RED = 1
    BLUE = "blue"
    NESTED = (2, "x")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2 ** 70


class Mode(str, enum.Enum):
    PLAIN = "plain"
    QUOTED = 'q"\\\né'


_SPECIAL_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                   5e-324, 1.7976931348623157e308]
# Surrogates included: they take the \\uXXXX escape path too.
_TEXT = st.text(st.characters(blacklist_categories=()), max_size=12)

_hashable_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 200),
    st.integers(min_value=-2 ** 200, max_value=-2 ** 64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_SPECIAL_FLOATS),
    _TEXT,
    st.binary(max_size=8),
    st.sampled_from(list(Color) + list(Level) + list(Mode)),
)
_hashables = st.one_of(
    _hashable_leaves,
    st.lists(_hashable_leaves, max_size=3).map(tuple),
    st.frozensets(_hashable_leaves, max_size=3),
    st.tuples(st.frozensets(_hashable_leaves, max_size=2),
              st.lists(_hashable_leaves, max_size=2).map(tuple)),
)
_values = st.recursive(
    st.one_of(_hashables, st.binary(max_size=8).map(bytearray)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.sets(_hashables, max_size=5),
        st.frozensets(_hashables, max_size=5),
        st.dictionaries(_hashables, inner, max_size=5),
    ),
    max_leaves=30,
)


class TestEncoderIdentity:
    @settings(max_examples=400, deadline=None)
    @given(_values)
    def test_matches_replaced_encoder(self, value):
        assert canonical_dumps(value) == oracle_dumps(value)

    @pytest.mark.parametrize("value", [
        None, True, False, 0, -1, 2 ** 64, -(2 ** 127) - 1,
        *_SPECIAL_FLOATS,
        "", "plain", "é中\U0001f600", '"\\\n\t\x00\x7f', "\ud800",
        b"", b"\x00\xff", bytearray(b"ab"),
        *Color, *Level, *Mode,
        [], (), set(), frozenset(), {},
        # A set's repr order follows the hash seed: pin the id's spelling.
        pytest.param([1, (2, [3, {4}]), frozenset({"a", 1, None})],
                     id="[1, (2, [3, {4}]), frozenset({1, 'a', None})]"),
        {1: "int", "1": "str", 1.0 + 1: "float", (1,): "tuple",
         frozenset({1}): "frozenset", None: "none", Mode.PLAIN: "enum",
         Color.RED: "enum", b"1": "bytes"},
        # Keys that encode alike keep their insertion order.
        {float("nan"): 1, float("nan"): 2},
        {float("nan"): 2, float("nan"): 1},
    ], ids=repr)
    def test_edge_values(self, value):
        assert canonical_dumps(value) == oracle_dumps(value)

    def test_preset_fabrics(self):
        for name, factory in sorted(topologies.PRESETS.items()):
            payload = adg_to_dict(factory())
            assert canonical_dumps(payload) == oracle_dumps(payload), name

    @pytest.mark.parametrize("value", [
        pytest.param(object(), id="object"), 1j,
        pytest.param(memoryview(b"x"), id="memoryview"), [1, object()],
        {"k": {1, 2j}}, {(1, object()): 1},
    ], ids=repr)
    def test_unsupported_types_raise(self, value):
        with pytest.raises(TypeError):
            oracle_dumps(value)
        with pytest.raises(TypeError):
            canonical_dumps(value)


# -- job keys ------------------------------------------------------------
def _pinned_specs():
    specs = [JobSpec(kind=kind, preset=name)
             for name in sorted(topologies.PRESETS)
             for kind in ("compile", "simulate")]
    specs.append(JobSpec(
        kind="simulate", workload="fft", seed=3,
        adg=adg_to_dict(topologies.softbrain(rows=3, cols=4)),
        sim_engine="event", options={"note": "inline"},
    ))
    return specs


#: sha256 over the newline-joined keys of :func:`_pinned_specs`, as
#: computed by the encoder this one replaced: a store written before
#: the change still hits after it.
KEY_PIN = "d4420bb1f9b9b694e2e8fb156c38a4e6628fb48ec1e63e70d10ecf7de1085db2"


class TestJobKeys:
    @pytest.fixture(autouse=True)
    def _fresh_memo(self, monkeypatch):
        monkeypatch.setattr(jobs, "_preset_fingerprints", {})

    def test_key_pin(self):
        keys = [job_key(spec) for spec in _pinned_specs()]
        assert hashlib.sha256("\n".join(keys).encode()).hexdigest() \
            == KEY_PIN

    @pytest.mark.parametrize("name", sorted(topologies.PRESETS))
    def test_inline_adg_keys_like_its_preset(self, name):
        inline = adg_to_dict(topologies.PRESETS[name]())
        for kind in ("compile", "simulate"):
            assert job_key(JobSpec(kind=kind, adg=inline)) \
                == job_key(JobSpec(kind=kind, preset=name))

    def test_swapped_preset_never_aliases(self, monkeypatch):
        spec = JobSpec(kind="compile", preset="softbrain")
        factory = topologies.PRESETS["softbrain"]
        original = job_key(spec)

        def smaller():
            return topologies.softbrain(rows=3, cols=4)

        monkeypatch.setitem(topologies.PRESETS, "softbrain", smaller)
        swapped = job_key(spec)
        assert swapped != original
        assert swapped == job_key(JobSpec(
            kind="compile", adg=adg_to_dict(smaller()),
        ))
        monkeypatch.setitem(topologies.PRESETS, "softbrain", factory)
        assert job_key(spec) == original

    def test_swapped_preset_never_reuses_the_encoded_fragment(
            self, monkeypatch):
        spec = JobSpec(kind="compile", preset="softbrain")
        factory = topologies.PRESETS["softbrain"]
        job_key(spec)
        old_fragment = jobs._preset_fingerprints[factory]

        def smaller():
            return topologies.softbrain(rows=3, cols=4)

        monkeypatch.setitem(topologies.PRESETS, "softbrain", smaller)
        swapped = job_key(spec)
        fragment = jobs._preset_fingerprints[smaller]
        assert fragment != old_fragment
        assert fragment == canonical_dumps(adg_fingerprint(smaller()))
        assert fragment in swapped and old_fragment not in swapped

    def test_preset_fingerprinted_once(self, monkeypatch):
        calls = []

        def counted():
            calls.append(1)
            return topologies.maeri()

        monkeypatch.setitem(topologies.PRESETS, "maeri", counted)
        first = job_key(JobSpec(kind="compile", preset="maeri"))
        again = job_key(JobSpec(kind="simulate", preset="maeri", seed=4))
        assert len(calls) == 1
        assert first != again

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError) as raised:
            job_key(JobSpec(kind="compile", preset="nope"))
        assert str(raised.value) == (
            f"unknown preset 'nope'; one of {sorted(topologies.PRESETS)}"
        )
