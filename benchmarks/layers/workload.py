"""Seeded input generator and its independent oracle for ``benchmarks/layers``.

One :class:`Stream` turns ``(seed, stream id)`` into sensor tuple sets and
the read operations issued against them; the program under test receives
only these generated inputs.  Beside every stream runs an :class:`Oracle`
-- plain dicts and sets holding attribute postings, time windows, points
and DAG adjacency -- that is fed the same sets in the same order and
answers the same questions without touching the store, so a sampled
answer can be checked after the timed section.

Tuple sets carry 8 readings and the attributes ``domain``, ``city`` (of
8), ``sensor`` (of 256, drawn Zipf-like), ``sequence``, ``stage``,
``window_start``/``window_end`` and ``location``.  They arrive as a
derivation DAG: raw -> 5-min aggregate -> hourly -> report (fan-in 8,
depth 3, each aggregate right after its last parent), plus reprocessing
chains in which every link derives from the previous one.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from collections import defaultdict, deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro import GeoPoint, ProvenanceRecord, Q, SensorReading, Timestamp, TupleSet

# -- op codes (the one vocabulary every workload mixes) ------------------
PUBLISH, PUBLISH_MANY, QUERY, ANCESTORS, DESCENDANTS, DERIVED = range(6)
#: op code -> the end-to-end metric family it is timed under
KIND_OF = ("publish", "publish_many", "query", "lineage", "lineage", "lineage")

CITIES = (
    ("london", 51.5074, -0.1278),
    ("boston", 42.3601, -71.0589),
    ("tokyo", 35.6762, 139.6503),
    ("geneva", 46.2044, 6.1432),
    ("nairobi", -1.2921, 36.8219),
    ("lima", -12.0464, -77.0428),
    ("sydney", -33.8688, 151.2093),
    ("oslo", 59.9139, 10.7522),
)
DOMAINS = ("traffic", "weather", "air-quality", "noise")
SENSORS = 256
#: the 32 most data-heavy sensors double as the "hot" query constants: they
#: fit the 64-entry result cache, the uniform draw over all 256 does not
HOT_SENSORS = 32
READINGS_PER_SET = 8
FAN_IN = 8
STAGES = ("raw", "agg5", "hourly", "report")
WINDOW_S = 300.0
#: raw sets sharing one 5-minute window
RAWS_PER_WINDOW = 16
PAGE = 20
NEAR_RADIUS_KM = 5.0
BATCH = 100
#: one op in this many has its answer verified against the oracle
SAMPLE_EVERY = 50
QUERY_KINDS = ("eq_hot", "eq_cold", "range", "window", "near", "conj")
LINEAGE_KINDS = ("ancestors_aggregate", "descendants_raw", "derived_from", "ancestors_chain")


class Op(NamedTuple):
    """One generated operation; ``expected`` is set on sampled reads only."""

    code: int
    arg: object
    #: acknowledged digests (writes) or ``(total, members)`` (reads)
    expected: Optional[tuple] = None


def _haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, l1, p2, l2 = map(math.radians, (lat1, lon1, lat2, lon2))
    a = math.sin((p2 - p1) / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin((l2 - l1) / 2.0) ** 2
    return 2.0 * 6371.0 * math.asin(min(1.0, math.sqrt(a)))


class Oracle:
    """What the store should answer, kept in plain dicts and sets."""

    def __init__(self) -> None:
        self.postings: Dict[str, Dict[object, Set[str]]] = defaultdict(lambda: defaultdict(set))
        self.sequences: List[Tuple[int, str]] = []  # ascending within a stream
        self.windows: List[Tuple[float, float, str]] = []
        self.points: Dict[str, Tuple[float, float]] = {}
        self.parents: Dict[str, Tuple[str, ...]] = {}
        self.children: Dict[str, List[str]] = defaultdict(list)
        #: digest -> what the user handed over: (attributes, parents, readings)
        self.documents: Dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self.parents)

    def add(self, digest: str, plain: dict, parents: Tuple[str, ...], readings: list) -> None:
        for name in ("domain", "city", "sensor", "stage"):
            self.postings[name][plain[name]].add(digest)
        self.sequences.append((plain["sequence"], digest))
        self.windows.append((plain["window_start"], plain["window_end"], digest))
        self.points[digest] = plain["location"]
        self.parents[digest] = parents
        for parent in parents:
            self.children[parent].append(digest)
        self.documents[digest] = (plain, parents, readings)

    def user_bytes(self, digests: Sequence[str]) -> int:
        """Records + payloads as canonical JSON: the base of ``bytes_stored_per_user_byte``."""
        total = 0
        for digest in digests:
            plain, parents, readings = self.documents[digest]
            document = {"attributes": plain, "ancestors": parents, "readings": readings}
            total += len(json.dumps(document, sort_keys=True, separators=(",", ":")))
        return total

    # -- attribute / time / place ---------------------------------------
    def eq(self, name: str, value) -> Set[str]:
        return set(self.postings[name].get(value, ()))

    def sequence_range(self, low: int, high: int) -> Set[str]:
        begin = bisect.bisect_left(self.sequences, (low, ""))
        end = bisect.bisect_left(self.sequences, (high + 1, ""))
        return {digest for _, digest in self.sequences[begin:end]}

    def window(self, start: float, end: float) -> Set[str]:
        return {d for s, e, d in self.windows if s <= end and e >= start}

    def near(self, lat: float, lon: float, radius_km: float) -> Set[str]:
        return {
            d for d, (plat, plon) in self.points.items()
            if _haversine_km(plat, plon, lat, lon) <= radius_km
        }

    # -- lineage --------------------------------------------------------
    def _walk(self, start: str, up: bool) -> Set[str]:
        seen: Set[str] = set()
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for nxt in (self.parents.get(node, ()) if up else self.children.get(node, ())):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def ancestors(self, digest: str) -> Set[str]:
        return self._walk(digest, up=True)

    def descendants(self, digest: str) -> Set[str]:
        return self._walk(digest, up=False)


class Stream:
    """The inputs of one client: sets to publish and reads to issue.

    Streams with different ids share nothing a read can see (sensor
    names and sequence numbers carry the stream id, lineage stays inside
    the stream), so two connections running concurrently each have a
    deterministic oracle however their requests interleave.
    """

    def __init__(self, seed: int, stream: int = 0, chains: int = 32) -> None:
        self.rng = random.Random(f"{seed}/{stream}")
        self.stream = stream
        self.oracle = Oracle()
        self._sequence = stream * 10_000_000
        self._first_sequence = self._sequence
        self._raws = 0
        # Zipf-like popularity: weight 1/sqrt(rank), so the top sensor owns
        # ~3% of the sets (its answer fits the result cache's 1024-row cap)
        # and the rarest ~0.2%.
        self._sensor_cum = []
        total = 0.0
        for rank in range(SENSORS):
            total += 1.0 / math.sqrt(rank + 1.0)
            self._sensor_cum.append(total)
        #: open aggregation groups per stage: the PNames waiting for a parent
        self._pending: List[list] = [[] for _ in STAGES]
        self._chains = chains
        self._chain_links = 0
        self._chain_tails: list = []  # one PName per started chain
        # what reads draw from
        self.raws: list = []
        self.aggregates: list = []
        self.acknowledged: List[str] = []

    # -- names ------------------------------------------------------------
    def sensor_name(self, rank: int) -> str:
        return f"s{self.stream}-{rank:03d}"

    @staticmethod
    def sensor_place(rank: int) -> Tuple[str, float, float]:
        city, lat, lon = CITIES[rank % len(CITIES)]
        cell = rank // len(CITIES)  # 32 sensors per city on a 0.02-degree grid
        return city, lat + 0.02 * (cell % 6 - 3), lon + 0.02 * (cell // 6 - 3)

    # -- tuple sets ---------------------------------------------------------
    def _build(self, rank: int, stage: str, window: Tuple[float, float], parents: Sequence) -> TupleSet:
        city, lat, lon = self.sensor_place(rank)
        sensor = self.sensor_name(rank)
        sequence = self._sequence
        self._sequence += 1
        start, end = window
        plain = {
            "domain": DOMAINS[rank % len(DOMAINS)],
            "city": city,
            "sensor": sensor,
            "sequence": sequence,
            "stage": stage,
            "window_start": start,
            "window_end": end,
            "location": (lat, lon),
        }
        attributes = dict(plain)
        attributes["window_start"] = Timestamp(start)
        attributes["window_end"] = Timestamp(end)
        attributes["location"] = place = GeoPoint(lat, lon)
        record = ProvenanceRecord(attributes, ancestors=[p for p in parents])
        step = (end - start) / READINGS_PER_SET
        level = self.rng.random()
        readings_plain = [
            {"sensor_id": sensor, "timestamp": start + step * i, "value": round(level + 0.01 * i, 4), "count": i}
            for i in range(READINGS_PER_SET)
        ]
        readings = [
            SensorReading(sensor, Timestamp(r["timestamp"]), {"value": r["value"], "count": r["count"]}, place)
            for r in readings_plain
        ]
        tuple_set = TupleSet(readings, record)
        digest = record.pname().digest
        self.oracle.add(digest, plain, tuple(p.digest for p in parents), readings_plain)
        self.acknowledged.append(digest)
        return tuple_set

    def _window_of(self, raw_index: int) -> Tuple[float, float]:
        start = WINDOW_S * (raw_index // RAWS_PER_WINDOW)
        return start, start + WINDOW_S

    def next_set(self) -> TupleSet:
        """The next arrival: a due aggregate if one is waiting, else a raw set."""
        for level in range(1, len(STAGES)):
            waiting = self._pending[level - 1]
            if len(waiting) >= FAN_IN:
                parents = waiting[:FAN_IN]
                del waiting[:FAN_IN]
                window = (min(w[0] for _, w, _ in parents), max(w[1] for _, w, _ in parents))
                rank = parents[-1][2]
                tuple_set = self._build(rank, STAGES[level], window, [p for p, _, _ in parents])
                pname = tuple_set.pname
                if level + 1 < len(STAGES):
                    self._pending[level].append((pname, window, rank))
                self.aggregates.append(pname)
                return tuple_set
        rank = bisect.bisect_left(self._sensor_cum, self.rng.random() * self._sensor_cum[-1])
        window = self._window_of(self._raws)
        self._raws += 1
        tuple_set = self._build(rank, "raw", window, ())
        self._pending[0].append((tuple_set.pname, window, rank))
        self.raws.append(tuple_set.pname)
        return tuple_set

    def next_chain_link(self) -> TupleSet:
        """Extend the reprocessing chains round-robin by one link."""
        chain = self._chain_links % self._chains
        self._chain_links += 1
        started = chain < len(self._chain_tails)
        parents = (self._chain_tails[chain],) if started else ()
        tuple_set = self._build(chain % SENSORS, "reprocess", self._window_of(chain), parents)
        if started:
            self._chain_tails[chain] = tuple_set.pname
        else:
            self._chain_tails.append(tuple_set.pname)
        return tuple_set

    def sets(self, count: int, chain_links: int = 0) -> List[TupleSet]:
        """``count`` arrivals, ``chain_links`` of them chain links spread evenly."""
        out = []
        every = count // chain_links if chain_links else 0
        for index in range(count):
            if every and index % every == every - 1 and chain_links > 0:
                chain_links -= 1
                out.append(self.next_chain_link())
            else:
                out.append(self.next_set())
        return out

    # -- operations ---------------------------------------------------------
    def _sampled(self) -> bool:
        """True for the 1 op in ``SAMPLE_EVERY`` whose answer is verified."""
        return self.rng.random() * SAMPLE_EVERY < 1.0

    def publish_op(self, chain: bool = False) -> Op:
        tuple_set = self.next_chain_link() if chain else self.next_set()
        return Op(PUBLISH, tuple_set, (tuple_set.pname.digest,) if self._sampled() else None)

    def publish_many_op(self, size: int = BATCH, chain_links: int = 0) -> Op:
        batch = self.sets(size, chain_links)
        return Op(PUBLISH_MANY, batch, tuple(ts.pname.digest for ts in batch) if self._sampled() else None)

    def query_op(self, kind: str, check: Optional[bool] = None) -> Op:
        """One query of the named kind: hot/cold ``sensor ==``, ``sequence``
        range, time window, ``Q.near`` or conjunction + ``order_by``."""
        rng, oracle = self.rng, self.oracle
        check = self._sampled() if check is None else check
        if kind in ("eq_hot", "eq_cold"):
            sensor = self.sensor_name(rng.randrange(HOT_SENSORS if kind == "eq_hot" else SENSORS))
            query = Q.attr("sensor") == sensor
            answer = oracle.eq("sensor", sensor) if check else None
        elif kind == "range":
            low = rng.randrange(self._first_sequence, max(self._first_sequence + 1, self._sequence - 40))
            high = low + rng.randrange(8, 40)
            query = Q.attr("sequence").between(low, high)
            answer = oracle.sequence_range(low, high) if check else None
        elif kind == "window":
            start = WINDOW_S * rng.randrange(max(1, self._raws // RAWS_PER_WINDOW)) + 1.0
            query = Q.between(start, start + WINDOW_S)
            answer = oracle.window(start, start + WINDOW_S) if check else None
        elif kind == "near":
            _, lat, lon = self.sensor_place(rng.randrange(SENSORS))
            query = Q.near(GeoPoint(lat, lon), NEAR_RADIUS_KM)
            answer = oracle.near(lat, lon, NEAR_RADIUS_KM) if check else None
        elif kind == "conj":
            city = CITIES[rng.randrange(len(CITIES))][0]
            query = Q.find((Q.attr("city") == city) & (Q.attr("stage") == "agg5")).order_by("sequence")
            answer = (oracle.eq("city", city) & oracle.eq("stage", "agg5")) if check else None
        else:
            raise ValueError(f"unknown query kind {kind!r}")
        return Op(QUERY, query, _expectation(answer))

    def lineage_op(self, kind: str, check: Optional[bool] = None) -> Op:
        """``ancestors`` of an aggregate or a chain tail, ``descendants`` of a
        raw set, or the ``Q.derived_from`` query of a raw set."""
        rng, oracle = self.rng, self.oracle
        check = self._sampled() if check is None else check
        if kind in ("ancestors_aggregate", "ancestors_chain"):
            pool = self.aggregates if kind == "ancestors_aggregate" else self._chain_tails
            pname = pool[rng.randrange(len(pool))]
            return Op(ANCESTORS, pname, _expectation(oracle.ancestors(pname.digest) if check else None))
        pname = self.raws[rng.randrange(len(self.raws))]
        expected = _expectation(oracle.descendants(pname.digest) if check else None)
        if kind == "descendants_raw":
            return Op(DESCENDANTS, pname, expected)
        if kind == "derived_from":
            return Op(DERIVED, Q.derived_from(pname), expected)
        raise ValueError(f"unknown lineage kind {kind!r}")

    def oracle_queries(self, count: int, query_kinds: Sequence[str] = QUERY_KINDS) -> List[Op]:
        """The end-of-run check: ``count`` reads across the kinds, all verified."""
        ops = []
        for index in range(count):
            if index % 4 == 3:
                ops.append(self.lineage_op(LINEAGE_KINDS[(index // 4) % len(LINEAGE_KINDS)], check=True))
            else:
                ops.append(self.query_op(query_kinds[index % len(query_kinds)], check=True))
        return ops


def _expectation(answer: Optional[Set[str]]):
    return None if answer is None else (len(answer), frozenset(answer))


def answer_matches(op: Op, result) -> bool:
    """Does the store's ``Result`` for a sampled op agree with the oracle?

    A publish must acknowledge exactly the PNames handed in.  A read's
    total must be exact and its page ``min(PAGE, total)`` distinct members
    of the oracle's answer; lineage pages (whose order the façade documents
    as ascending digest) must be the oracle's first page.
    """
    page = [pname.digest for pname in result.records]
    if op.code in (PUBLISH, PUBLISH_MANY):
        return page == list(op.expected)
    total, members = op.expected
    if result.total != total or len(page) != min(PAGE, total) or len(set(page)) != len(page):
        return False
    if op.code in (ANCESTORS, DESCENDANTS):
        return page == sorted(members)[:PAGE]
    return all(digest in members for digest in page)
