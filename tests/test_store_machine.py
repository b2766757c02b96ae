"""One generated history for the store, checked against a plain-dict model.

A Hypothesis state machine drives a ``sqlite:///`` store and its ``memory://`` twin through publishes (a set twice in
one batch included), metadata-only records, annotations, removals, probes, lineage reads and helpers, clean and dirty
reopens, crashes, and every way an open refuses a checkpoint: a damaged section, another file's checkpoint, changed
indexed attributes, a record written under the store, an annotation that outlived a crashed session.  After every step
both answer like :class:`Model` -- dicts and sets, no store code -- which catches a fault in the indexes, planner or
closure they share; the twin answers what the model cannot (estimates, planner statistics, entry counts).  The façade
rules also run over ``pass://``.
"""

from __future__ import annotations

import itertools
import shutil
import sqlite3
import tempfile
import zlib
from contextlib import closing
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import HealthCheck, event, given, settings, stateful
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, multiple, precondition, rule

import repro
from repro import Annotation, GeoPoint, PassStore, PName, ProvenanceRecord, Q, SensorReading, Timestamp, TupleSet
from repro.api.client import LocalClient
from repro.errors import CrashInjectedError, DuplicateProvenanceError, UnknownEntityError
from repro.index.sections import pack, read_columns, read_header
from repro.server import PassDaemon
from repro.storage import SQLiteBackend, sqlite

#: London, Oxford, Cambridge: 50 km around one finds it alone, 200 km all three
PLACES = (GeoPoint(51.5, -0.12), GeoPoint(51.75, -1.26), GeoPoint(52.2, 0.12))
QUALITIES = ("good", "bad", "unknown")
LABELS = st.integers(0, 9)
PROBES = ("label", "range", "quality", "tags", "window", "near")
SECTIONS = ("attributes", "temporal", "spatial")  # (of the checkpoint: a reopen may find one damaged)
#: what a reopen may find besides a damaged section; each but a record written under the store refuses the checkpoint
REFUSALS = ("another file", "indexed", "under the store", "annotation")


@dataclass(frozen=True)
class Spec:
    """A data set the machine may publish: a label and the sets it is derived from."""

    label: int
    parents: tuple = ()

    @cached_property
    def pname(self) -> PName:
        return self.record().pname()

    @property
    def digest(self) -> str:
        return self.pname.digest

    def record(self) -> ProvenanceRecord:
        n = self.label
        attributes = {"domain": "x", "label": n, "tags": ("t", n % 2), "location": PLACES[n % 3]}
        attributes.update(window_start=Timestamp(60.0 * n), window_end=Timestamp(60.0 * n + 90.0))
        return ProvenanceRecord(attributes, ancestors=[parent.pname for parent in self.parents])

    def tuple_set(self, other: bool) -> TupleSet:
        """A new tuple set (each store gets objects of its own); ``other`` readings break P3."""
        readings = [SensorReading("s", Timestamp(float(self.label)), {"v": self.label + 0.5 * other})]
        return TupleSet(readings, self.record())


def section_probe(kind: str, n: int) -> tuple:
    """``(question, the one section it reads, the index's estimate, the model's test of (spec, latest quality))``;
    odd ``n`` asks wide, a window or a radius around every set."""
    start, end, quality = 60.0 * n, 60.0 * n + 100.0 + 900.0 * (n % 2), QUALITIES[n % 3]
    place, radius, tags = PLACES[n % 3], 50.0 if n % 2 == 0 else 200.0, ("t", n % 2)
    return {
        "label": (Q.attr("label") == n, "attributes:label",
                  lambda store: store.attribute_index.count("label", n), lambda spec, latest: spec.label == n),
        "range": (Q.attr("label").between(n, n + 3), "attributes:label",
                  lambda store: store.attribute_index.estimate_range("label", n, n + 3),
                  lambda spec, latest: n <= spec.label <= n + 3),
        "quality": (Q.attr("annotation:quality") == quality, "attributes:annotation:quality",
                    lambda store: store.attribute_index.count("annotation:quality", quality),
                    lambda spec, latest: latest == quality),
        "tags": (Q.attr("tags") == tags, "attributes:tags",
                 lambda store: store.attribute_index.count("tags", tags), lambda spec, latest: spec.label % 2 == n % 2),
        "window": (Q.between(start, end), "temporal",
                   lambda store: store.temporal_index.estimate_overlapping(Timestamp(start), Timestamp(end)),
                   lambda spec, latest: 60.0 * spec.label <= end and 60.0 * spec.label + 90.0 >= start),
        "near": (Q.near(place, radius), "spatial", lambda store: store.spatial_index.estimate_within(place, radius),
                 lambda spec, latest: radius == 200.0 or spec.label % 3 == n % 3),
    }[kind]


class Model:
    """What every store must answer, in plain dicts and sets."""

    def __init__(self) -> None:
        self.stored = {}  # digest -> Spec of every stored set
        self.other = {}  # digest -> whether it holds the other readings (None: none, metadata only)
        self.qualities = {}  # digest -> its quality annotations, oldest first
        self.removed = set()

    def fresh(self, entries) -> dict:
        """``{digest: (spec, other)}`` of the sets a batch of ``(spec, other)`` stores or gives their first readings;
        raises, storing nothing, when a set comes with readings other than those it holds (P3).  A metadata-only set
        takes the first readings it is published with, unless its data was removed: a removed set holds none, and
        stays removed (P4)."""
        fresh = {}
        for spec, other in entries:
            digest = spec.digest
            if digest in self.removed:
                continue
            if digest not in fresh and self.other.get(digest) is None:
                fresh[digest] = (spec, other)
            elif (fresh[digest][1] if digest in fresh else self.other[digest]) != other:
                raise DuplicateProvenanceError(digest)
        return fresh

    def parents(self, digest: str) -> list:
        """The digests ``digest``'s stored record names as its parents (a set known only as a parent has none)."""
        return [parent.digest for parent in self.stored[digest].parents] if digest in self.stored else []

    def known(self, digest: str) -> bool:
        """Whether the graph has the node: a stored set, or the parent of one."""
        return digest in self.stored or bool(self.walk(digest, up=False))

    def readings(self, spec: Spec):
        """What ``get_readings`` answers: the readings a set holds, none once removed or if it has none."""
        if spec.digest not in self.stored:
            return UnknownEntityError
        other = self.other[spec.digest]
        return [] if spec.digest in self.removed or other is None else spec.tuple_set(other).readings

    def walk(self, digest: str, up: bool) -> set:
        """``digest``'s ancestors (``up``) or descendants: what a walk over the parents stored sets name reaches."""
        step = {}
        for child, parent in ((child, p.digest) for child, spec in self.stored.items() for p in spec.parents):
            step.setdefault(child if up else parent, []).append(parent if up else child)
        seen, frontier = set(), [digest]
        while frontier:
            found = set(step.get(frontier.pop(), ())) - seen
            seen |= found
            frontier += found
        return seen

    def hops(self, digest: str, ancestor: str) -> Optional[int]:
        """The fewest parent links from ``digest`` up to ``ancestor``; None when it is no ancestor."""
        frontier, seen = {digest}, {digest}
        for hops in itertools.count():
            if ancestor in frontier:
                return hops
            if not frontier:
                return None
            frontier = {parent for node in frontier for parent in self.parents(node)} - seen
            seen |= frontier


def attempt(call):
    """What ``call`` answers, or the type of the error it raised if a rule may expect one."""
    try:
        return call()
    except (DuplicateProvenanceError, UnknownEntityError) as error:
        return type(error)


def spoil(path: Path, section: str) -> None:
    """Put one position of ``section`` past the records in the stored checkpoint (every reopen leaves one)."""
    with sqlite3.connect(path) as connection:
        (body,) = connection.execute("SELECT body FROM index_blobs WHERE name = 'index:checkpoint'").fetchone()
        state = read_columns(*read_header(zlib.decompress(body)))
        columns = state["attributes"]["postings"]["label"] if section == "attributes" else state[section]
        columns["positions"][0] = state["count"] + 5
        spoiled = zlib.compress(pack(state))
        connection.execute("UPDATE index_blobs SET body = ? WHERE name = 'index:checkpoint'", (spoiled,))


def copy_in_another_files_checkpoint(path: Path) -> None:
    """Replace the stored checkpoint with one of another file whose records reach the same rowid, as many: only
    their names tell the two apart."""
    with closing(sqlite3.connect(path)) as connection:
        count, marker = connection.execute("SELECT COUNT(*), MAX(rowid) FROM records").fetchone()
    other = path.with_name("other.db")
    specs = [Spec(label) for label in range(100, 100 + count)]
    with repro.connect(f"sqlite:///{other}") as client:
        client.publish_many([spec.tuple_set(False) for spec in specs])
        for spec in itertools.islice(itertools.cycle(specs), marker - count):  # (a rewrite takes the next rowid)
            client.store.annotate(spec.pname, Annotation("quality", "good"))
    with closing(sqlite3.connect(other)) as source, closing(sqlite3.connect(path)) as target, target:
        (body,) = source.execute("SELECT body FROM index_blobs WHERE name = 'index:checkpoint'").fetchone()
        target.execute("UPDATE index_blobs SET body = ? WHERE name = 'index:checkpoint'", (body,))
    for leftover in other.parent.glob("other.db*"):
        leftover.unlink()


class StoreMachine(RuleBasedStateMachine):
    """A ``sqlite:///`` store and its ``memory://`` twin -- or one ``pass://`` tenant -- against :class:`Model`."""

    drafts = Bundle("drafts")
    new = st.builds(Spec, LABELS, st.lists(drafts, max_size=2, unique_by=lambda spec: spec.digest).map(tuple))

    def __init__(self, remote_url: Optional[str] = None) -> None:
        super().__init__()
        self.model, self.local, self.changed = Model(), remote_url is None, False
        if not self.local:
            self.clients = {"pass": repro.connect(remote_url)}
            return
        # (the record cache evicts and refills all the time at this bound)
        self.capacity, sqlite.RECORD_CACHE_CAPACITY = sqlite.RECORD_CACHE_CAPACITY, 4
        self.path = Path(tempfile.mkdtemp(prefix="store-machine-")) / "pass.db"
        self.clients = {"sqlite": repro.connect(f"sqlite:///{self.path}"), "memory": repro.connect("memory://")}
        self.armed = False  # whether the sqlite session's backend dies at its n-th write

    def teardown(self) -> None:
        try:
            for client in self.clients.values():
                client.close()
        finally:  # (a close that raised has failed the history already)
            if self.local:
                sqlite.RECORD_CACHE_CAPACITY = self.capacity
                shutil.rmtree(self.path.parent)

    def each(self, call, expected, clients=None) -> None:
        """``call(client)`` answers ``expected`` on every client.  A crash cuts the op short: the next session,
        opened over what the dead one committed, retries it (so a rule tells the model of its op only afterwards)."""
        for name in clients or self.clients:
            try:
                answer = attempt(lambda: call(self.clients[name]))
            except CrashInjectedError:
                event("a crash cut an op short")
                self.reopen(crashed=True)
                answer = attempt(lambda: call(self.clients[name]))
            assert answer == expected, (name, answer, expected)

    def publish_entries(self, entries, many: bool) -> None:
        try:
            fresh, expected = self.model.fresh(entries), [spec.digest for spec, _ in entries]
        except DuplicateProvenanceError:
            fresh, expected = {}, DuplicateProvenanceError
            event("P3 refused a publish")

        def call(client):
            sets = [spec.tuple_set(other) for spec, other in entries]
            return [pname.digest for pname in (client.publish_many(sets) if many else client.publish(sets[0])).records]

        self.each(call, expected)
        self.changed = self.changed or not fresh.keys() <= self.model.stored.keys()
        for digest, (spec, other) in fresh.items():
            self.model.stored[digest], self.model.other[digest] = spec, other

    @initialize(target=drafts)
    def six_sets(self):
        """Three roots and three sets derived from them, then a reopen: every history starts from an adopted open."""
        roots = [Spec(n) for n in range(3)]
        specs = roots + [Spec(n, (roots[n % 3],)) for n in range(3, 6)]
        self.publish_entries([(spec, False) for spec in specs], many=True)
        if self.local:
            self.reopen()
        return multiple(*specs)

    @rule(target=drafts, spec=new)
    def draft(self, spec):
        """A set named before it is published: later sets may derive from it first."""
        return spec

    @rule(target=drafts, specs=st.lists(st.one_of(new, drafts), min_size=1, max_size=4), many=st.booleans(),
          other=st.sampled_from((False, False, True)), again=st.none() | st.booleans())
    def publish(self, specs, other, many, again):
        """One ``publish_many``, or a ``publish`` per set: first publishes, repeats (idempotent), or the same
        provenance with other readings (P3, which refuses the whole batch).  A batch may hold its first set ``again``:
        with the same readings (idempotent) or with the other ones (P3)."""
        batches = [[(spec, other) for spec in specs]] if many else [[(spec, other)] for spec in specs]
        if many and again is not None:
            batches[0].append((specs[0], other != again))
        for batch in batches:
            self.publish_entries(batch, many)
        return multiple(*specs)

    @precondition(lambda self: self.local)
    @rule(target=drafts, spec=st.one_of(drafts, new), removed=st.booleans(), other=st.booleans())
    def ingest_record(self, spec, removed, other):
        """The provenance alone, metadata only, perhaps its data ``removed``, then a publish: the publish attaches the
        readings, once (P3), unless the data was removed first (P4)."""
        self.each(lambda client: client.store.ingest_record(spec.record()).digest, spec.digest)
        if spec.digest not in self.model.stored:
            self.model.stored[spec.digest], self.model.other[spec.digest], self.changed = spec, None, True
        if removed:
            self.remove_data(spec)
        self.publish_entries([(spec, other)], many=False)
        self.each(lambda client: client.store.get_readings(spec.pname), self.model.readings(spec))
        return spec

    @precondition(lambda self: self.local)
    @rule(spec=drafts, quality=st.sampled_from(QUALITIES))
    def annotate(self, spec, quality):
        stored, annotation = spec.digest in self.model.stored, Annotation("quality", quality)
        self.each(lambda client: client.store.annotate(spec.pname, annotation), None if stored else UnknownEntityError)
        if stored:
            self.model.qualities.setdefault(spec.digest, []).append(quality)
            self.changed = True

    @precondition(lambda self: self.local)
    @rule(spec=drafts)
    def remove_data(self, spec):
        stored = spec.digest in self.model.stored
        self.each(lambda client: client.store.remove_data(spec.pname), None if stored else UnknownEntityError)
        if stored:
            self.model.removed.add(spec.digest)

    @rule(probes=st.lists(st.tuples(st.sampled_from(PROBES), LABELS), min_size=1, max_size=3))
    def probe(self, probes, clients=None):
        """One-section probes: each answers like the model, estimates like the twin, and builds at most its section."""
        latest = {digest: qualities[-1] for digest, qualities in self.model.qualities.items()}
        twins = self.local and clients is None
        for question, section, estimate, test in itertools.starmap(section_probe, probes):
            unbuilt = set(self.clients["sqlite"].store.unbuilt_sections()) if twins else set()
            expected = sorted(digest for digest, spec in self.model.stored.items() if test(spec, latest.get(digest)))
            self.each(lambda client: sorted(p.digest for p in client.query(question)), expected, clients)
            if twins:
                durable, twin = self.clients["sqlite"].store, self.clients["memory"].store
                assert unbuilt - set(durable.unbuilt_sections()) <= {section}
                assert estimate(durable) == estimate(twin)

    @rule(spec=st.one_of(drafts, new), up=st.booleans(), query=st.booleans(), include_self=st.booleans(),
          limit=st.none() | st.integers(0, 6), offset=st.integers(0, 6))
    def lineage(self, spec, up, query, include_self, limit, offset):
        """A page of ``ancestors`` / ``descendants`` -- or of ``Q.ancestor_of`` / ``Q.derived_from``, which name
        stored sets only -- is a slice of the sorted answer, with its true total."""
        found = self.model.walk(spec.digest, up)
        if query:
            found = (found | {spec.digest} if include_self else found) & self.model.stored.keys()
        rest = sorted(found)[offset:]
        known = query or self.model.known(spec.digest)
        expected = ((rest if limit is None else rest[:limit]), len(found)) if known else UnknownEntityError

        def call(client):
            if query:
                predicate = (Q.ancestor_of if up else Q.derived_from)(spec.pname, include_self=include_self)
                answer = client.query(predicate, limit=limit, offset=offset)
            else:
                answer = (client.ancestors if up else client.descendants)(spec.pname, limit=limit, offset=offset)
            return [pname.digest for pname in answer.records], answer.total

        self.each(call, expected)

    @precondition(lambda self: self.local)
    @rule(spec=st.one_of(drafts, new), other=st.one_of(drafts, new))
    def lineage_helpers(self, spec, other):
        """``is_ancestor``, ``raw_sources`` and ``derivation_path`` (one shortest path, checked link by link) answer
        from the model's walk; a name the graph does not know is no ancestor, and has no sources and no path."""
        model, digest = self.model, spec.digest
        ancestors, known = model.walk(digest, up=True), model.known(digest) and model.known(other.digest)
        sources = sorted({digest} if not model.parents(digest) else {a for a in ancestors if not model.parents(a)})
        hops = model.hops(digest, other.digest)
        expected = (known and other.digest in ancestors, sources if model.known(digest) else UnknownEntityError,
                    UnknownEntityError if not known else None if hops is None else (digest, other.digest, hops + 1))

        def path(store):
            found = [pname.digest for pname in store.derivation_path(spec.pname, other.pname) or ()]
            assert all(parent in model.parents(child) for child, parent in zip(found, found[1:])), found
            return (found[0], found[-1], len(found)) if found else None

        self.each(lambda client: (client.store.is_ancestor(other.pname, spec.pname),
                                  attempt(lambda: sorted(p.digest for p in client.store.raw_sources(spec.pname))),
                                  attempt(lambda: path(client.store))), expected)

    @rule(spec=st.one_of(drafts, new))
    def describe_and_locate(self, spec):
        """The whole record, annotations in order, where its data is (P4: a removed set keeps its record) and, on a
        local store, its readings."""
        record, expected = spec.record(), (None, [], ["unknown pname"])
        if spec.digest in self.model.stored:
            for quality in self.model.qualities.get(spec.digest, ()):
                record.annotate(Annotation("quality", quality))
            notes = ["data removed; provenance retained"] if spec.digest in self.model.removed else []
            expected = (record.to_json(), [spec.digest], notes)
        expected += (self.model.readings(spec),) if self.local else ()

        def call(client):
            record, located = client.describe_record(spec.pname), client.locate(spec.pname)
            answer = None if record is None else record.to_json(), [p.digest for p in located.records], located.notes
            return answer + ((attempt(lambda: client.store.get_readings(spec.pname)),) if self.local else ())

        self.each(call, expected)

    @precondition(lambda self: self.local)
    @rule(crash_after=st.none() | st.integers(1, 5),
          damage=st.none() | st.sampled_from(SECTIONS) | st.sampled_from(REFUSALS))
    def reopen(self, crash_after: Optional[int] = None, damage: Optional[str] = None, crashed: bool = False,
               refused: Optional[str] = None) -> None:
        """Close the sqlite session and open the next one, whose backend dies at its ``crash_after``-th write.  The
        four properties are checked on both sides of the close, the whole closure and every set's readings before it:
        too slow for every step.
        ``damage`` is what the open finds: one position past the records in a checkpoint section, another file's
        checkpoint, one written for other indexed attributes, or a covered row that an annotation moved in a session
        that then died -- each refused with its reason, and replayed -- or a record written under the store, which no
        checkpoint may claim."""
        durable, twin = self.clients["sqlite"], self.clients["memory"]
        nodes = {*self.model.stored.values()}.union(*(spec.parents for spec in self.model.stored.values()))
        for store in (twin.store,) if crashed else (durable.store, twin.store):
            assert store.verify_invariants() == []
            for spec in nodes:  # (the closure, node by node)
                found = set(store.ancestor_digests(spec.pname)), set(store.descendant_digests(spec.pname))
                assert found == (self.model.walk(spec.digest, True), self.model.walk(spec.digest, False))
            for spec in self.model.stored.values():  # (what each set holds: P3, P4)
                assert store.get_readings(spec.pname) == self.model.readings(spec), spec
        if not crashed:  # (every attribute section, probed in the session or not, counts what the twin's does)
            assert durable.store.attribute_index.entry_count() == twin.store.attribute_index.entry_count()
        unclaimed = damage == "under the store" and self.write_under_the_store()
        backend, puts = durable.store.backend, durable.store.backend.stats.puts
        durable.close()  # (on a dead backend: writes nothing)
        assert self.changed or backend.stats.puts == puts, "a close after a session that changed no index wrote"
        if damage in SECTIONS:
            spoil(self.path, damage)
        elif damage == "another file":
            copy_in_another_files_checkpoint(self.path)
            refused = "checkpoint describes another file's records"
        elif self.armed:  # (an armed session's close may have left an older checkpoint: of other indexed attributes)
            pass
        elif damage == "indexed":
            refused = "indexed attributes changed since the checkpoint"
            self.open_narrowed(refused)
        elif damage == "annotation":  # (the close left a checkpoint of every stored set)
            refused = self.annotate_then_die()
        backend = SQLiteBackend(self.path, crash_after_writes=crash_after)
        durable = self.clients["sqlite"] = LocalClient(PassStore(backend))
        report = durable.store.storage_snapshot()["index_restore"]
        event(f"opened: {report['mode']}, tail {'> 0' if report['tail'] else '0'}, deferred {len(report['deferred'])}")
        if damage in SECTIONS:  # (an armed session's close may leave a checkpoint refused first for its age)
            assert report["mode"] == "replayed" and (self.armed or report["reason"].startswith("malformed checkpoint"))
        if refused is not None:
            assert (report["mode"], report["reason"]) == ("replayed", refused), report
        assert not unclaimed or report["tail"] > 0, report
        assert report["mode"] == "adopted" or report["deferred"] == [], report
        assert report["covered"] + report["tail"] == len(self.model.stored) == len(durable.store), report
        assert durable.store.verify_invariants() == []
        self.armed, self.changed = crash_after is not None, report["tail"] > 0
        if refused is not None and not self.armed:  # (the replay answers like the model)
            self.probe([(kind, len(self.model.stored) % 10) for kind in PROBES])

    def write_under_the_store(self) -> bool:
        """Put the record of a set no rule names straight into the sqlite backend, as another program might; the
        twin ingests it.  False when the backend died at the write."""
        spec, durable = Spec(10 + len(self.model.stored)), self.clients["sqlite"].store
        try:
            durable.backend.put_record(spec.record())
        except CrashInjectedError:
            return False
        assert durable.verify_invariants() == [f"stored record {spec.pname.short} is not a graph node"]
        self.clients["memory"].store.ingest_record(spec.record())
        self.model.stored[spec.digest], self.model.other[spec.digest] = spec, None
        return True

    def open_narrowed(self, refused: str) -> None:
        """Two sessions for other indexed attributes: the first refuses the checkpoint and leaves one of its own, the
        second adopts that; both answer like the model.  The next (default) open refuses it in turn."""
        for mode, reason in (("replayed", refused), ("adopted", None)):
            narrowed = self.clients["narrowed"] = LocalClient(PassStore(SQLiteBackend(self.path), ["label", "tags"]))
            try:
                report = narrowed.store.storage_snapshot()["index_restore"]
                assert (report["mode"], report["reason"]) == (mode, reason), report
                self.probe([(kind, len(self.model.stored) % 10) for kind in PROBES], clients=["narrowed"])
            finally:
                del self.clients["narrowed"]
                narrowed.close()

    def annotate_then_die(self) -> str:
        """A session that annotates a set, its one write, and dies writing the checkpoint at its close: the annotated
        row moves past every row the checkpoint covers.  The reason the next open refuses the checkpoint for."""
        covered = sorted(self.model.stored)
        self.clients["sqlite"] = LocalClient(PassStore(SQLiteBackend(self.path, crash_after_writes=1)))
        self.annotate(self.model.stored[covered[len(self.model.qualities) % len(covered)]], "good")
        self.clients["sqlite"].close()
        return f"covered row rewritten: {len(covered) - 1} of {len(covered)} covered records remain"

    @precondition(lambda self: self.local)
    @invariant()
    def the_stores_agree(self):
        """Removed sets keep their records (P4), the cache its bound, and the planner sees what the twin's sees."""
        durable, twin = self.clients["sqlite"].store, self.clients["memory"].store
        for store, pname in itertools.product((durable, twin), map(PName, self.model.removed)):
            assert pname in store and store.is_removed(pname) and store.graph.is_removed(pname)
        cache = durable.backend.record_cache_stats()
        assert cache["entries"] <= cache["capacity"] == 4
        assert durable.planner_statistics() == twin.planner_statistics()


# (examples scale with the profile: five times as many under "thorough", tests/conftest.py)
MACHINE_SETTINGS = settings(max_examples=70 * settings.default.max_examples // 100, stateful_step_count=30,
                            deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


def test_sqlite_and_its_twin_answer_like_the_model():
    stateful.run_state_machine_as_test(StoreMachine, settings=MACHINE_SETTINGS)


@pytest.mark.parametrize("section", SECTIONS)
@settings(MACHINE_SETTINGS, max_examples=3)
@given(label=LABELS)
def test_a_damaged_open_then_a_crash_cut_publish(section, label):
    """The rarest endings, pinned: a damaged section refused at the open, and a publish cut short by a crash."""
    machine = StoreMachine()
    try:
        roots = machine.six_sets().values
        machine.reopen(crash_after=1, damage=section)  # (refused at the open; the session dies at its first write)
        machine.publish([Spec(label, roots[:2])], other=False, many=False, again=None)  # (no set of six_sets: it writes)
        assert not machine.armed, "no crash cut the publish short"
        machine.reopen()  # (the retried publish, held to the model on both stores)
        machine.probe([(kind, label) for kind in PROBES])
    finally:
        machine.teardown()


def test_pass_answers_like_the_model():
    tenants = itertools.count()
    with PassDaemon(backend_url="memory://", sample_interval_s=None) as daemon:
        stateful.run_state_machine_as_test(
            lambda: StoreMachine(f"{daemon.address.url}?tenant=machine-{next(tenants)}"),
            # (half the rules, so fewer examples cover them)
            settings=settings(MACHINE_SETTINGS, max_examples=30 * settings.default.max_examples // 100),
        )
