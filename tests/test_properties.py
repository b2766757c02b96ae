"""Property-based tests (hypothesis) on the core data structures and invariants.

These check the properties the paper relies on for *arbitrary* inputs:
provenance identity is canonical and collision-free in practice, the
provenance DAG never admits cycles and its closure strategies agree, the
attribute index agrees with a brute-force scan, windowing partitions the
reading stream, the readings codec round-trips and is the same on disk
and on the wire, and the WAL round-trips every entry.
"""

from __future__ import annotations

import json
import string
from array import array
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import repro
from repro.core import (
    GeoPoint,
    PassStore,
    ProvenanceRecord,
    SensorReading,
    Timestamp,
    TupleSet,
    TupleSetWindower,
)
from repro.core.attributes import canonical_encode
from repro.core.closure import make_closure
from repro.core.graph import ProvenanceGraph
from repro.core.provenance import PName, plain_json_text, value_json_text, value_to_json
from repro.core.query import AttributeRange
from repro.core.tupleset import readings_from_json, readings_payload_from_json, readings_to_bytes, readings_to_json
from repro.errors import CycleError, ProvenanceError
from repro.index import AttributeIndex
from repro.index.sections import pack, read_columns, read_header
from repro.server import ops, protocol
from repro.storage import MemoryBackend, WalEntry, WriteAheadLog

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
attr_names = st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=12)
timestamps = st.builds(Timestamp, st.floats(min_value=0, max_value=10**9, allow_nan=False))
geopoints = st.builds(
    GeoPoint,
    st.floats(min_value=-90, max_value=90, allow_nan=False),
    st.floats(min_value=-180, max_value=180, allow_nan=False),
)
scalar_values = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=20),
    st.booleans(),
    timestamps,
    geopoints,
)
attribute_maps = st.dictionaries(attr_names, scalar_values, min_size=1, max_size=6)
# Values for the sorted-view test.  Every example starts from the cross-kind
# ties (all order as 1.0, yet index under four encodings) and adds scalars
# and lists.  A list's canonical encoding joins its items with ";", so item
# strings avoid it -- ("a;s:b",) and ("a", "b") would share one bucket.
TIED_VALUES = [1, 1.0, True, Timestamp(1.0)]
list_values = st.lists(
    st.one_of(
        st.integers(min_value=-3, max_value=3),
        st.booleans(),
        st.text(alphabet=string.ascii_lowercase, max_size=3),
    ),
    max_size=3,
).map(tuple)
indexable_values = st.one_of(scalar_values, list_values)

COMMON_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Provenance identity
# ----------------------------------------------------------------------
class TestProvenanceIdentityProperties:
    @COMMON_SETTINGS
    @given(attributes=attribute_maps)
    def test_identity_is_deterministic(self, attributes):
        assert ProvenanceRecord(attributes).pname() == ProvenanceRecord(attributes).pname()

    @COMMON_SETTINGS
    @given(attributes=attribute_maps)
    def test_serialisation_round_trip_preserves_identity(self, attributes):
        record = ProvenanceRecord(attributes)
        assert ProvenanceRecord.from_json(record.to_json()).pname() == record.pname()

    @COMMON_SETTINGS
    @given(attributes=attribute_maps, extra_name=attr_names, extra_value=scalar_values)
    def test_adding_an_attribute_changes_identity(self, attributes, extra_name, extra_value):
        record = ProvenanceRecord(attributes)
        extended_attributes = dict(attributes)
        if extra_name in extended_attributes:
            return  # overwriting may or may not change the value; skip
        extended_attributes[extra_name] = extra_value
        assert ProvenanceRecord(extended_attributes).pname() != record.pname()

    @COMMON_SETTINGS
    @given(attributes=attribute_maps)
    def test_derivation_always_changes_identity(self, attributes):
        record = ProvenanceRecord(attributes)
        derived = record.derive(attributes)
        assert derived.pname() != record.pname()
        assert record.pname() in derived.ancestors


# ----------------------------------------------------------------------
# Graph and closure
# ----------------------------------------------------------------------
def _dag_edges(parent_choices):
    """Build edge list (child, parent) for a random DAG from hypothesis data."""
    nodes = [ProvenanceRecord({"n": i}).pname() for i in range(len(parent_choices) + 1)]
    edges = []
    for index, choices in enumerate(parent_choices, start=1):
        for parent_index in set(choice % index for choice in choices):
            edges.append((nodes[index], nodes[parent_index]))
    return nodes, edges


class TestGraphProperties:
    @pytest.mark.parametrize("strategy", ["labelled", "interval"])
    @settings(COMMON_SETTINGS, max_examples=100)
    @given(
        parent_choices=st.lists(
            st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=3),
            min_size=3,
            max_size=10,
        ),
        quarters_loaded=st.integers(min_value=0, max_value=4),
        steps=st.lists(
            st.one_of(
                st.just(("write",)),
                st.tuples(
                    st.sampled_from(
                        ["ancestors", "descendants", "reachable", "estimate_ancestors", "estimate_descendants"]
                    ),
                    st.integers(min_value=0, max_value=100),
                    st.integers(min_value=0, max_value=100),
                ),
            ),
            min_size=4,
            max_size=30,
        ),
    )
    def test_labels_built_over_a_loaded_graph_answer_like_a_fresh_walk(
        self, strategy, parent_choices, quarters_loaded, steps
    ):
        """Part of a DAG is in the graph before the labelling closure is made
        (``labelled`` builds its labels then, ``interval`` on its first read),
        the rest arrives through it; wherever the reads fall among the writes,
        every answer is the BFS one, ``interval``'s planner estimates too."""
        nodes, edges = _dag_edges(parent_choices)
        loaded = len(edges) * quarters_loaded // 4
        graph = ProvenanceGraph()
        for child, parent in edges[:loaded]:
            graph.add_edge(child, parent)
        labelling = make_closure(strategy, graph)
        naive = make_closure("naive", graph)  # walks the same graph, keeps nothing
        pending = edges[loaded:]
        writes = len(pending)
        steps = steps + [("write",)] * len(pending) + [("ancestors", at, 0) for at in range(len(nodes))]
        reads = 0
        for step in steps:
            if step[0] == "write":
                if pending:
                    child, parent = pending.pop(0)
                    labelling.add_node(child)
                    labelling.add_node(parent)
                    labelling.add_edge(child, parent)
                continue
            present = [node for node in nodes if node in graph]
            if not present:
                continue
            kind, first, second = step
            node, other = present[first % len(present)], present[second % len(present)]
            if not reads and loaded:
                event("first read %s the writes" % ("after" if not pending else "before" if len(pending) == writes else "between"))
            reads += 1
            if kind == "reachable":
                assert labelling.reachable(other, node) == naive.reachable(other, node)
            elif kind.startswith("estimate_"):
                if hasattr(labelling, kind):  # ``interval``'s planner estimates (``labelled`` keeps none)
                    assert getattr(labelling, kind)(node) == len(getattr(naive, kind[len("estimate_") :])(node))
            else:
                assert getattr(labelling, kind)(node) == getattr(naive, kind)(node)

    @COMMON_SETTINGS
    @given(
        parent_choices=st.lists(
            st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=2),
            min_size=2,
            max_size=10,
        )
    )
    def test_reverse_edge_of_reachable_pair_is_rejected(self, parent_choices):
        nodes, edges = _dag_edges(parent_choices)
        graph = ProvenanceGraph()
        for child, parent in edges:
            graph.add_edge(child, parent)
        # For every existing ancestry pair, inserting the reverse edge must fail.
        child, parent = edges[0]
        with pytest.raises(CycleError):
            graph.add_edge(parent, child)


# ----------------------------------------------------------------------
# Attribute index vs brute force
# ----------------------------------------------------------------------
class TestIndexProperties:
    # (example counts left to the Hypothesis profile: see tests/conftest.py)
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(records=st.lists(attribute_maps, min_size=1, max_size=15))
    def test_index_lookup_matches_scan(self, records):
        index = AttributeIndex()
        stored = []
        for attributes in records:
            record = ProvenanceRecord(attributes)
            stored.append(record)
            index.add(record.pname(), record)
        # Every (name, value) present in some record must be findable and
        # must return exactly the records a full scan would.
        for probe in stored:
            for name, value in probe.attributes.items():
                expected = {
                    r.pname().digest
                    for r in stored
                    if r.get(name) is not None
                    and canonical_encode(r.get(name)) == canonical_encode(value)
                }
                assert index.lookup(name, value) == expected

    @settings(
        max_examples=max(150, settings.default.max_examples),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        pool=st.lists(indexable_values, max_size=6).map(lambda more: TIED_VALUES + more),
        steps=st.lists(
            st.tuples(
                st.sampled_from(["add", "add_value", "remove", "range", "estimate"]),
                st.sampled_from(["a", "b"]),
                st.integers(min_value=0, max_value=3),  # which data set
                st.integers(min_value=0, max_value=63),  # first value / low bound
                st.integers(min_value=0, max_value=63),  # second value / high bound
                st.sampled_from(["closed", "open-low", "open-high", "no-low", "no-high"]),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_sorted_view_stays_equal_to_a_rebuilt_one(self, pool, steps):
        """Any interleaving of writes and range reads leaves the incrementally
        kept view answering like a brute-force scan with the range predicate and
        holding, entry for entry, what a fresh index of the same postings builds."""
        index = AttributeIndex()
        pnames = [ProvenanceRecord({"n": n}).pname() for n in range(4)]
        # attribute -> canonical -> [value, digests], in the index's own
        # dict order: emptied buckets leave, re-added values go to the end.
        oracle = {}

        def oracle_add(name, value, pname):
            bucket = oracle.setdefault(name, {}).setdefault(canonical_encode(value), [value, set()])
            bucket[1].add(pname.digest)

        for op, name, who, first, second, shape in steps:
            pname = pnames[who]
            one, two = pool[first % len(pool)], pool[second % len(pool)]
            if op == "add":
                record = ProvenanceRecord({"a": one, "b": two})
                index.add(pname, record)
                oracle_add("a", one, pname)
                oracle_add("b", two, pname)
            elif op == "add_value":
                index.add_value(pname, name, one)
                oracle_add(name, one, pname)
            elif op == "remove":
                record = ProvenanceRecord({"a": one, "b": two})
                index.remove(pname, record)
                for attr, value in record.attributes.items():
                    buckets = oracle.get(attr, {})
                    bucket = buckets.get(canonical_encode(value))
                    if bucket is not None:
                        bucket[1].discard(pname.digest)
                        if not bucket[1]:
                            del buckets[canonical_encode(value)]
            else:
                low = None if shape == "no-low" else one
                high = None if shape == "no-high" else two
                include_low, include_high = shape != "open-low", shape != "open-high"
                # The scan's own predicate (``compare_values`` underneath).
                scan = AttributeRange(name, low, high, include_low, include_high)
                matching = [
                    digests
                    for value, digests in oracle.get(name, {}).values()
                    if scan.matches(None, {name: value})
                ]
                if op == "range":
                    found = index.lookup_range(name, low, high, include_low, include_high)
                    assert found == set().union(*matching)
                else:
                    postings = sum(len(d) for _, d in oracle.get(name, {}).values())
                    expected = (
                        max(1, round(len(matching) * postings / len(oracle[name])))
                        if matching
                        else 0
                    )
                    estimate = index.estimate_range(name, low, high, include_low, include_high)
                    assert estimate == expected

            rebuilt = AttributeIndex()
            for attr, buckets in oracle.items():
                for value, digests in buckets.values():
                    for digest in digests:
                        rebuilt.add_value(PName(digest), attr, value)
            assert index.entry_count() == rebuilt.entry_count()
            for attr in index._values:  # only the views some read has built
                rebuilt.distinct_values(attr)
                # (an attribute emptied by removes has no view to rebuild)
                assert index._sort_keys[attr] == rebuilt._sort_keys.get(attr, [])
                assert index._values[attr] == rebuilt._values.get(attr, [])
                values = index.distinct_values(attr)
                assert [canonical_encode(value) for value in values] == index._values[attr]


# ----------------------------------------------------------------------
# Windowing partitions the stream
# ----------------------------------------------------------------------
class TestWindowerProperties:
    @COMMON_SETTINGS
    @given(
        offsets=st.lists(
            st.floats(min_value=0.0, max_value=86_400.0, allow_nan=False), min_size=1, max_size=40
        ),
        window=st.sampled_from([60.0, 300.0, 3600.0]),
    )
    def test_windowing_is_a_partition(self, offsets, window):
        readings = [
            SensorReading("s", Timestamp(offset), {"v": 1.0}) for offset in sorted(offsets)
        ]
        windower = TupleSetWindower(window, {"network": "n", "domain": "d"})
        sets = windower.window(readings)
        # Every reading lands in exactly one window and none are lost.
        assert sum(len(ts) for ts in sets) == len(readings)
        for tuple_set in sets:
            start = tuple_set.provenance.get("window_start").seconds
            end = tuple_set.provenance.get("window_end").seconds
            for reading in tuple_set:
                assert start <= reading.timestamp.seconds < end


# ----------------------------------------------------------------------
# The readings codec: one definition, stored and on the wire
# ----------------------------------------------------------------------
# Lists hold scalars only: ``coerce_value`` refuses a list inside a list,
# so a nested list cannot reach the codec.
reading_values = st.one_of(scalar_values, st.lists(scalar_values, max_size=3).map(tuple))
sensor_readings = st.builds(
    SensorReading,
    sensor_id=st.text(min_size=1, max_size=8),
    timestamp=timestamps,
    values=st.dictionaries(attr_names, reading_values, max_size=4),
    location=st.one_of(st.none(), geopoints),
)
TAG = "__type__"

# ----------------------------------------------------------------------
# The stored forms are written straight from the values: byte parity with
# the generic encoder, over everything a value, a name or a number can be
# ----------------------------------------------------------------------
class Count(int):
    """An ``int`` subclass: a fast path that goes by ``isinstance`` would take it for an int."""

    def __repr__(self) -> str:
        return f"Count({int(self)})"


class Ratio(float):
    def __repr__(self) -> str:
        return f"Ratio({float(self)})"


class Label(str):
    pass


EDGE_FLOATS = [0.0, -0.0, 1e16, 1e22, 1e-7, 5e-324, 0.1, 1 / 3, 2.0**53, float("nan"), float("inf"), float("-inf")]
EDGE_INTS = [0, 1, -1, 2**63 - 1, 2**63, -(2**63) - 1, 2**64 + 1, 10**40]
any_floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
any_ints = st.one_of(st.integers(), st.sampled_from(EDGE_INTS))
# every code point but the surrogates: quotes, backslashes, controls, non-ASCII, astral
any_text = st.text(max_size=12)
names = st.text(min_size=1, max_size=8)
numbers = st.one_of(any_floats, any_ints, st.booleans(), any_ints.map(Count), any_floats.map(Ratio))
wide_timestamps = st.builds(Timestamp, numbers)
wide_geopoints = st.builds(
    GeoPoint,
    st.one_of(st.floats(min_value=-90, max_value=90), st.integers(-90, 90), st.sampled_from([0.0, -0.0, 0, True])),
    st.one_of(st.floats(min_value=-180, max_value=180), st.integers(-180, 180), st.sampled_from([0.0, -0.0, 0, 1.0, 1])),
)
wide_scalars = st.one_of(
    numbers,
    any_text,
    any_text.map(Label),
    wide_timestamps,
    wide_geopoints,
)
wide_values = st.one_of(wide_scalars, st.lists(wide_scalars, max_size=3).map(tuple))
wide_maps = st.dictionaries(names, wide_values, max_size=5)
wide_agents = st.builds(repro.Agent, kind=names, name=names, version=any_text, metadata=wide_maps)
wide_annotations = st.builds(
    repro.Annotation,
    key=names,
    # not coerced on the way in: a list stays a list
    value=st.one_of(wide_values, st.lists(st.one_of(numbers, any_text), max_size=3)),
    author=any_text,
    timestamp=st.one_of(st.none(), numbers),
)
wide_records = st.builds(
    ProvenanceRecord,
    attributes=st.dictionaries(names, wide_values, min_size=1, max_size=6),
    ancestors=st.lists(st.integers(0, 5).map(lambda n: ProvenanceRecord({"n": n}).pname()), max_size=3),
    agents=st.lists(wide_agents, max_size=2),
    annotations=st.lists(wide_annotations, max_size=3),
)


@st.composite
def wide_readings(draw):
    """Readings of a few sensors at a few places, the places shared *and* merely equal."""
    sensors = draw(st.lists(st.one_of(names, names.map(Label), st.sampled_from([True, 1, 1.0])), min_size=1, max_size=3))
    places = draw(st.lists(st.one_of(st.none(), wide_geopoints), min_size=1, max_size=3))
    return draw(
        st.lists(
            st.builds(
                SensorReading,
                sensor_id=st.sampled_from(sensors),
                timestamp=wide_timestamps,
                values=wide_maps,
                location=st.sampled_from(places),
            ),
            max_size=6,
        )
    )


def canonical(plain) -> str:
    """The generic encoder both stored forms are defined by."""
    return json.dumps(plain, sort_keys=True, separators=(",", ":"))



def modules_spelling_the_tag(sources) -> list:
    """Names of the ``(name, source)`` pairs whose source spells the tag, in any quoting."""
    return sorted(name for name, source in sources if TAG in source)


class TestReadingsCodecProperties:
    @COMMON_SETTINGS
    @given(readings=st.lists(sensor_readings, max_size=4))
    def test_stored_and_wire_forms_round_trip_and_agree(self, readings):
        payload = PassStore._encode_readings(readings)
        assert PassStore._decode_readings(payload) == readings

        tuple_set = TupleSet(readings, ProvenanceRecord({"domain": "x"}))
        wire = json.loads(json.dumps(protocol.tuple_set_to_wire(tuple_set)))
        assert protocol.tuple_set_from_wire(wire).readings == readings
        canonical = json.dumps(wire["readings"], sort_keys=True, separators=(",", ":"))
        assert payload == canonical.encode("utf-8")

    @settings(COMMON_SETTINGS, max_examples=300)
    @given(readings=wide_readings())
    def test_stored_readings_are_the_canonical_dump_of_the_wire_form(self, readings):
        assert readings_to_bytes(readings) == canonical(readings_to_json(readings)).encode("utf-8")

    @settings(COMMON_SETTINGS, max_examples=300)
    @given(record=wide_records)
    def test_a_stored_record_body_is_the_canonical_dump_of_its_dict(self, record):
        assert record.to_json() == canonical(record.to_dict())

    @settings(COMMON_SETTINGS, max_examples=300)
    @given(value=st.one_of(wide_values, st.none(), st.lists(numbers, max_size=2)))
    def test_a_value_text_is_the_canonical_dump_of_its_json_form(self, value):
        assert value_json_text(value) == canonical(value_to_json(value))
        assert plain_json_text(value_to_json(value)) == canonical(value_to_json(value))

    def test_the_stored_forms_on_the_cases_a_shortcut_would_get_wrong(self):
        here, there = GeoPoint(0.0, 1), GeoPoint(-0.0, 1.0)
        assert here == there and hash(here) == hash(there)
        readings = [
            SensorReading("s", Timestamp(1), {"b": True, "a": 1, "c": 1e16, "d": 0.1}, here),
            SensorReading("s", Timestamp(2.0), {}, there),  # an equal place, spelled differently
            SensorReading("s", Timestamp(3.0), {"v": (1.0, True)}),  # the same sensor, nowhere
            SensorReading("s", Timestamp(4.0), {"z": Count(7)}, here),
            SensorReading(True, Timestamp(5.0), {}, here),  # True == 1 == 1.0, three spellings
            SensorReading(1, Timestamp(6.0), {}, here),
        ]
        assert readings_to_bytes(readings) == (
            b'[{"location":[0.0,1],"sensor_id":"s","timestamp":1,"values":{"a":1,"b":true,"c":1e+16,"d":0.1}},'
            b'{"location":[-0.0,1.0],"sensor_id":"s","timestamp":2.0,"values":{}},'
            b'{"sensor_id":"s","timestamp":3.0,"values":{"v":{"%s":"list","items":[1.0,true]}}},'
            b'{"location":[0.0,1],"sensor_id":"s","timestamp":4.0,"values":{"z":7}},'
            b'{"location":[0.0,1],"sensor_id":true,"timestamp":5.0,"values":{}},'
            b'{"location":[0.0,1],"sensor_id":1,"timestamp":6.0,"values":{}}]' % TAG.encode()
        )
        assert readings_to_bytes(readings) == canonical(readings_to_json(readings)).encode("utf-8")
        assert readings_to_bytes(iter(readings)) == readings_to_bytes(readings)
        record = ProvenanceRecord({"b": True, "a": 1, "c": 1e16, "d": 0.1, "e": Ratio(2.5), "f": float("nan")})
        assert record.to_json() == (
            '{"agents":[],"ancestors":[],"annotations":[],'
            '"attributes":{"a":1,"b":true,"c":1e+16,"d":0.1,"e":2.5,"f":NaN}}'
        )

    def test_the_value_tag_is_spelled_in_one_module(self):
        package = Path(repro.__file__).resolve().parent
        sources = [
            (path.relative_to(package).as_posix(), path.read_text(encoding="utf-8"))
            for path in package.rglob("*.py")
        ]
        assert len(sources) > 50
        assert modules_spelling_the_tag(sources) == ["core/provenance.py"]

    def test_the_guard_catches_a_second_copy_of_the_tag(self):
        seeded = [
            ("core/provenance.py", 'return {"__type__": "timestamp"}'),
            ("core/tupleset.py", "item = {'sensor_id': reading.sensor_id}"),
            ("core/pass_store.py", "kind = value.get('__type__')"),
            ("server/protocol.py", 'if value.get("__type__") == "list":'),
        ]
        assert modules_spelling_the_tag(seeded) == [
            "core/pass_store.py",
            "core/provenance.py",
            "server/protocol.py",
        ]


# ----------------------------------------------------------------------
# Readings received as JSON are stored in one walk: the same bytes the
# decode-then-encode pair wrote, and refused wherever that pair refused
# ----------------------------------------------------------------------
ABSENT = object()  # a reading without the key
wire_numbers = st.one_of(any_floats, any_ints)
wire_scalars = st.one_of(wire_numbers, st.booleans(), any_text)
latitudes = st.one_of(st.floats(min_value=-90, max_value=90), st.integers(-90, 90), st.sampled_from([0.0, -0.0, 0]))
longitudes = st.one_of(st.floats(min_value=-180, max_value=180), st.integers(-180, 180), st.sampled_from([-0.0, 1]))
bad_coordinates = st.sampled_from([True, False, 91, -180.5, float("nan"), float("inf"), "1", None, [1]])
extra_members = st.sampled_from([{}, {}, {"note": "dropped"}, {"note": None, "more": [1]}])


def tagged(kind, **members):
    """A tagged value's strategy; ``extra_members`` are what a re-tag drops."""
    return st.builds(lambda extra, **drawn: {TAG: kind, **drawn, **extra}, extra_members, **members)


timestamps_tagged = tagged("timestamp", seconds=wire_numbers)
places_tagged = tagged("geopoint", lat=latitudes, lon=longitudes)
list_items = st.one_of(wire_scalars, timestamps_tagged, places_tagged)
good_values = st.one_of(
    wire_scalars,
    timestamps_tagged,
    places_tagged,
    st.lists(wire_scalars, max_size=3),  # untagged: stored as a tagged list
    tagged("list", items=st.lists(list_items, max_size=3)),
)
bad_values = st.one_of(
    st.none(),
    tagged("timestamp", seconds=st.one_of(st.booleans(), any_text, st.none(), st.lists(wire_numbers, max_size=1))),
    tagged("geopoint", lat=bad_coordinates, lon=longitudes),
    tagged("geopoint", lat=latitudes, lon=bad_coordinates),
    st.lists(st.one_of(st.none(), timestamps_tagged, st.lists(wire_scalars, max_size=1)), min_size=1, max_size=2),
    tagged("list", items=st.one_of(any_text, st.dictionaries(names, wire_scalars, max_size=2))),
    tagged("list", items=st.lists(st.one_of(st.none(), tagged("list", items=st.just([]))), min_size=1, max_size=2)),
    st.sampled_from([{}, {TAG: "unknown"}, {TAG: 5}, {"seconds": 1}, {TAG: "timestamp"}]),
)
#: each breaks one reading in one way; the two walks refuse some, and used to store the rest
faults = st.one_of(
    st.tuples(st.just("sensor_id"), st.sampled_from(["", 1, True, None, ["s"]])),
    st.tuples(st.just("timestamp"), st.one_of(st.booleans(), any_text, st.none(), st.just([1.0]))),
    st.tuples(st.just("values"), st.sampled_from([[], None, "v", 1])),
    st.tuples(
        st.just("location"),
        st.one_of(
            st.tuples(bad_coordinates, longitudes).map(list),
            st.tuples(latitudes, bad_coordinates).map(list),
            st.sampled_from([[1.0, 2.0, 99], [1.0], [], None, "ab", {"lat": 1}]),
        ),
    ),
    st.tuples(st.sampled_from(["extra", "sensor", "place"]), wire_scalars),
    st.tuples(st.sampled_from(["sensor_id", "timestamp", "values"]), st.just(ABSENT)),
    st.tuples(st.just("value"), bad_values),
    st.tuples(st.just("value name"), st.just("")),
)


@st.composite
def wire_readings(draw):
    """A readings list as a peer may send it: what a client writes, and at times one fault."""
    sensors = draw(st.lists(names, min_size=1, max_size=3))
    places = draw(st.lists(st.one_of(st.just(ABSENT), st.tuples(latitudes, longitudes)), min_size=1, max_size=3))
    reading = st.fixed_dictionaries(
        {
            "sensor_id": st.sampled_from(sensors),
            "timestamp": wire_numbers,
            "values": st.dictionaries(names, good_values, max_size=4),
            # a list of its own per reading, as decoded JSON has: equal places, not shared ones
            "location": st.sampled_from(places).map(lambda place: place if place is ABSENT else list(place)),
        }
    )
    items = draw(st.lists(reading, max_size=5))
    if items and draw(st.booleans()):
        item = draw(st.sampled_from(items))
        key, value = draw(faults)
        if key == "value":
            item["values"][draw(names)] = value
        elif key == "value name":
            item["values"][value] = 1
        else:
            item[key] = value
        event(f"fault: {key}")
    items = [{key: value for key, value in item.items() if value is not ABSENT} for item in items]
    items = draw(st.one_of(st.just(items), st.just(items), st.sampled_from([{}, "", None, "ab", [None], [[]]])))
    # Through JSON text, as a frame body is: nan, -0.0 and big integers survive it.
    if draw(st.booleans()):
        items = json.loads(json.dumps(items))
    if draw(st.booleans()) and isinstance(items, list):
        items = [dict(reversed(item.items())) if isinstance(item, dict) else item for item in items]  # any key order
    return items


def spelled(readings) -> list:
    """The readings by ``repr``, values sorted by name: nan is no nan, and True == 1 == 1.0."""
    return [
        (reading.sensor_id, repr(reading.timestamp), sorted(map(repr, reading.values.items())), repr(reading.location))
        for reading in readings
    ]


def two_walks(items):
    """What the decode-then-encode pair stores for ``items``; None if it refuses."""
    try:
        return readings_to_bytes(readings_from_json(items))
    except Exception:
        return None


def one_walk(items):
    """What the one walk stores for ``items``; None if it refuses (typed)."""
    try:
        return readings_payload_from_json(items)
    except ProvenanceError:
        return None


class TestWireReadingsProperties:
    @settings(COMMON_SETTINGS, max_examples=400)
    @given(items=wire_readings())
    def test_the_one_walk_stores_what_the_two_walks_stored_and_refuses_what_they_refused(self, items):
        stored, before = one_walk(items), two_walks(items)
        event("accepted" if stored is not None else "refused by both" if before is None else "refused now")
        if before is None:
            assert stored is None
        if stored is None:
            return
        event(f"accepted {len(items)} readings, tagged values: {TAG.encode() in stored}")
        assert stored == before
        lazy = TupleSet.from_payload(stored, ProvenanceRecord({"domain": "x"}))
        assert lazy.payload is stored
        eager = readings_from_json(items)
        assert spelled(lazy.readings) == spelled(eager)
        assert spelled(lazy) == spelled(eager) and len(lazy) == len(eager)
        assert readings_to_bytes(lazy) == stored

    def test_the_one_walk_on_the_cases_a_shortcut_gets_wrong(self):
        items = [
            {
                "sensor_id": "s",
                "timestamp": 1,  # an int stays an int
                "location": [0.0, 1],
                "values": {"b": True, "a": 1, "l": {TAG: "list", "items": [1, {TAG: "timestamp", "seconds": 2, "x": 0}]}},
            },
            {"sensor_id": "s", "timestamp": 2.0, "location": [-0.0, 1.0], "values": {"u": [1.0, True, "a"], "n": -0.0}},
            {"values": {"g": {TAG: "geopoint", "lat": 1, "lon": 2.0, "alt": 9}}, "timestamp": 3, "sensor_id": "s"},
        ]
        expected = (
            b'[{"location":[0.0,1],"sensor_id":"s","timestamp":1,'
            b'"values":{"a":1,"b":true,"l":{"%(t)s":"list","items":[1,{"%(t)s":"timestamp","seconds":2}]}}},'
            b'{"location":[-0.0,1.0],"sensor_id":"s","timestamp":2.0,'
            b'"values":{"n":-0.0,"u":{"%(t)s":"list","items":[1.0,true,"a"]}}},'
            b'{"sensor_id":"s","timestamp":3,"values":{"g":{"%(t)s":"geopoint","lat":1,"lon":2.0}}}]'
        ) % {b"t": TAG.encode()}
        assert readings_payload_from_json(items) == expected
        assert readings_to_bytes(readings_from_json(items)) == expected

    def test_each_lazy_set_decodes_its_own_payload_once(self):
        record = ProvenanceRecord({"domain": "x"})
        first = [{"sensor_id": "a", "timestamp": 1.0, "values": {"v": 1}}]
        second = [{"sensor_id": "b", "timestamp": 2, "values": {"v": [2]}, "location": [1, 2]}]
        sets = [TupleSet.from_payload(readings_payload_from_json(items), record) for items in (first, second)]
        for tuple_set, items in zip(sets, (first, second)):
            assert tuple_set.readings == readings_from_json(items)
            assert tuple_set.readings == readings_from_json(items)  # the cached list, not another
            assert tuple_set._readings is tuple_set._readings
            assert PassStore._encode_readings(tuple_set) is tuple_set.payload
        built = TupleSet(readings_from_json(first), record)
        assert built.payload is None
        assert PassStore._encode_readings(built) == sets[0].payload


# ----------------------------------------------------------------------
# A request is written in one walk: the text the dict form dumps to
# ----------------------------------------------------------------------
@st.composite
def sent_tuple_sets(draw):
    """Tuple sets as a client sends them: any values (tagged timestamps, places and
    tuples included), readings with and without a place, any sensor ids (non-ASCII
    ones too), non-finite floats, and now and then a set rebuilt from its stored payload."""
    readings = draw(wide_readings())
    record = draw(wide_records)
    if draw(st.booleans()) and all(type(reading.sensor_id) is str for reading in readings):
        event("rebuilt from a stored payload")
        return TupleSet.from_payload(readings_to_bytes(readings), record)
    return TupleSet(readings, record)


traces = st.one_of(st.none(), st.fixed_dictionaries({"trace_id": any_text, "span_id": st.integers(0, 2**64)}))


class TestRequestWriterProperties:
    @settings(COMMON_SETTINGS, max_examples=300)
    @given(tuple_set=sent_tuple_sets())
    def test_a_tuple_set_is_written_as_its_dict_form_dumps(self, tuple_set):
        assert protocol.tuple_set_text(tuple_set) == protocol.compact_json(protocol.tuple_set_to_wire(tuple_set))

    @settings(COMMON_SETTINGS, max_examples=100)
    @given(
        tuple_sets=st.lists(sent_tuple_sets(), min_size=1, max_size=3),
        origin=st.one_of(st.none(), any_text),
        request_id=st.integers(1, 2**40),
        context=traces,
    )
    def test_a_publish_frame_is_the_frame_of_its_envelope(self, tuple_sets, origin, request_id, context):
        for op, values in (
            ("publish", {"tuple_set": tuple_sets[0], "origin": origin}),
            ("publish_many", {"tuple_sets": tuple_sets, "origin": origin}),
        ):
            row = ops.OPS[op]
            envelope = {"id": request_id, "op": op, "args": row.encode_args(values)}
            if context is not None:
                envelope["trace"] = context
            assert row.encode_request(request_id, values, context) == protocol.encode_frame(envelope)

    def test_the_writer_on_the_cases_a_shortcut_gets_wrong(self):
        here = GeoPoint(0.0, 1)
        record = ProvenanceRecord(
            {"b": True, "a": float("nan"), "é": (Timestamp(1), GeoPoint(-0.0, 2.0))},
            agents=[repro.Agent("sensor", "cam", metadata={"z": 1, "y": Ratio(0.5)})],
            annotations=[repro.Annotation("note", {"b": 1, "a": 2}, timestamp=float("inf"))],
        )
        readings = [
            SensorReading("s", Timestamp(1), {"b": Count(2), "a": float("-inf")}, here),
            SensorReading("s", Timestamp(2.0), {}, GeoPoint(-0.0, 1.0)),  # an equal place, spelled differently
            SensorReading("ß", Timestamp(3.0), {"t": Label("x")}),
            SensorReading(True, Timestamp(4.0), {}, here),  # True == 1: spelled apart
            SensorReading(1, Timestamp(5.0), {}, here),
        ]
        tuple_set = TupleSet(readings, record)
        assert protocol.tuple_set_text(tuple_set) == protocol.compact_json(protocol.tuple_set_to_wire(tuple_set))
        assert protocol.tuple_set_text(tuple_set).startswith(
            '{"provenance":{"attributes":{"b":true,"a":NaN,"\\u00e9":{"%s":"list","items":' % TAG
        )


# ----------------------------------------------------------------------
# The index checkpoint's column codec: packed little-endian columns behind
# one JSON header line (repro.index.sections)
# ----------------------------------------------------------------------
# (the extremes are drawn directly too: st.integers() and st.floats() reach them only now and then)
int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1])
float64s = st.floats() | st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")])
int64_columns = st.lists(int64s, max_size=12).map(lambda values: array("q", values))
float64_columns = st.lists(float64s, max_size=12).map(lambda values: array("d", values))
codec_keys = st.text(max_size=6).filter(lambda key: key != "columns")
codec_leaves = int64_columns | float64_columns | st.integers() | st.lists(st.text(max_size=4), max_size=3)
codec_sections = st.dictionaries(codec_keys, codec_leaves, max_size=4)
codec_states = st.dictionaries(codec_keys, codec_leaves | codec_sections, max_size=5)


def _bits(node):
    """``node`` with each column as its type code and bytes: equal means equal bit for bit."""
    if isinstance(node, array):
        return node.typecode, node.tobytes()
    return {key: _bits(value) for key, value in node.items()} if isinstance(node, dict) else node


class TestColumnCodecProperties:
    # (example counts left to the Hypothesis profile: see tests/conftest.py)
    @pytest.mark.parametrize("byte_order", ["little", "big"])
    @settings(COMMON_SETTINGS, max_examples=settings.default.max_examples)
    @given(state=codec_states)
    def test_columns_come_back_bit_for_bit_and_every_truncation_is_refused(self, byte_order, state):
        """Any state of int64 and float64 columns (the int64 extremes, -0.0,
        the infinities and nan included) comes back bit for bit, down either
        byte-order branch, which write the same bytes; every truncation of
        the body is refused with ``ValueError``, the refusal the open reports,
        and raises nothing else."""
        natural = pack(state)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.index.sections.BYTE_ORDER", byte_order)
            body = pack(state)
            assert body == natural
            assert _bits(read_columns(*read_header(body))) == _bits(state)
            for end in range(len(body)):
                with pytest.raises(ValueError):
                    read_columns(*read_header(body[:end]))


# ----------------------------------------------------------------------
# WAL entries round-trip
# ----------------------------------------------------------------------
class TestWalProperties:
    @COMMON_SETTINGS
    @given(attribute_sets=st.lists(attribute_maps, min_size=1, max_size=8))
    def test_replay_restores_every_logged_record(self, attribute_sets, tmp_path_factory):
        wal = WriteAheadLog(tmp_path_factory.mktemp("wal") / "log.wal")
        records = [ProvenanceRecord(attributes) for attributes in attribute_sets]
        for record in records:
            wal.log_put_record(record)
        backend = MemoryBackend()
        wal.replay(backend)
        for record in records:
            assert backend.has_record(record.pname())

    @COMMON_SETTINGS
    @given(
        sequence=st.integers(min_value=1, max_value=10**6),
        pname_seed=attribute_maps,
        payload=st.text(max_size=200),
    )
    def test_wal_entry_encode_decode_round_trip(self, sequence, pname_seed, payload):
        digest = ProvenanceRecord(pname_seed).pname().digest
        entry = WalEntry(sequence, "put_record", digest, payload)
        assert WalEntry.decode(entry.encode()) == entry
