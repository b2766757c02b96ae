"""Tests for connect() URL parsing, the scheme registry and client construction."""

from __future__ import annotations

import pytest

from repro.api import ConnectionSpec, connect, known_schemes, parse_url
from repro.api.client import LocalClient, ModelClient, PassClient, wrap
from repro.api.topologies import synthetic_sites, topology_from_spec
from repro.core import PassStore
from repro.distributed import CentralizedWarehouse
from repro.errors import ConfigurationError
from repro.eval.scenario import standard_topology
from repro.storage.sqlite import SQLiteBackend


class TestParseUrl:
    def test_scheme_path_and_params(self):
        spec = parse_url("sqlite:///pass.db?site=gateway")
        assert spec.scheme == "sqlite"
        assert spec.path == "/pass.db"
        assert spec.params == {"site": "gateway"}

    def test_missing_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_url("just-a-string")

    def test_duplicate_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_url("dht://?sites=4&sites=8")

    def test_typed_accessors_and_errors(self):
        spec = parse_url("dht://?sites=8&rate=2.5&index=a,b")
        assert spec.integer("sites") == 8
        assert spec.number("rate") == 2.5
        assert spec.listing("index") == ["a", "b"]
        bad = parse_url("dht://?sites=eight")
        with pytest.raises(ConfigurationError):
            bad.integer("sites")
        with pytest.raises(ConfigurationError):
            parse_url("dht://?rate=fast").number("rate")
        with pytest.raises(ConfigurationError):
            parse_url("dht://?index=,,").listing("index")

    def test_database_path_conventions(self):
        assert parse_url("sqlite://").database_path() == ":memory:"
        assert parse_url("sqlite:///pass.db").database_path() == "pass.db"
        assert parse_url("sqlite:////var/lib/pass.db").database_path() == "/var/lib/pass.db"

    def test_unconsumed_tracking(self):
        spec = parse_url("memory://?site=gateway&bogus=1")
        spec.text("site")
        assert spec.unconsumed() == ["bogus"]


class TestConnectStrictness:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="unknown connection scheme"):
            connect("bogus://")

    def test_unknown_parameter(self):
        with pytest.raises(ConfigurationError, match="unknown parameter"):
            connect("memory://?sties=32")

    @pytest.mark.parametrize("url", ["memory://?closure=interval", "sqlite:///{}?closure=labelled"])
    def test_a_closure_choice_is_an_unknown_parameter(self, tmp_path, monkeypatch, url):
        """Every store runs the interval closure; a SQLite file opened for the URL is closed again."""
        opened = []
        init = SQLiteBackend.__init__

        def spy(backend, *args, **kwargs):
            opened.append(backend)
            init(backend, *args, **kwargs)

        monkeypatch.setattr(SQLiteBackend, "__init__", spy)
        with pytest.raises(ConfigurationError, match=r"unknown parameter\(s\) \['closure'\]"):
            connect(url.format(tmp_path / "pass.db"))
        assert [backend._closed for backend in opened] == ([True] if url.startswith("sqlite") else [])

    def test_bad_parameter_value(self):
        with pytest.raises(ConfigurationError):
            connect("dht://?sites=thirty-two")

    def test_path_on_pathless_scheme(self):
        with pytest.raises(ConfigurationError, match="takes no path"):
            connect("centralized://sites=8")

    def test_both_sites_and_cities_rejected(self):
        with pytest.raises(ConfigurationError):
            connect("dht://?sites=4&cities=london,boston")

    def test_unknown_city_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown city"):
            connect("dht://?cities=atlantis")

    def test_known_schemes_cover_all_targets(self):
        schemes = known_schemes()
        for expected in (
            "memory",
            "sqlite",
            "centralized",
            "distributed-db",
            "federated",
            "soft-state",
            "hierarchical",
            "dht",
            "locale-aware-pass",
        ):
            assert expected in schemes


class TestConnectConstruction:
    def test_memory_returns_local_client(self):
        client = connect("memory://")
        assert isinstance(client, LocalClient)
        assert client.target == "local"

    def test_memory_options(self):
        client = connect("memory://?site=gateway&indexed=city,domain")
        assert client.store.site == "gateway"
        assert client.store.closure.name == "interval"
        assert client.store.attribute_index.covers("city")
        assert not client.store.attribute_index.covers("patient")

    def test_sqlite_file_persists_across_connections(self, tmp_path, sample_tuple_set):
        url = f"sqlite:///{tmp_path}/pass.db"
        with connect(url) as client:
            assert isinstance(client.store.backend, SQLiteBackend)
            client.publish(sample_tuple_set)
        with connect(url) as reopened:
            assert len(reopened.locate(sample_tuple_set)) == 1

    def test_model_schemes_return_model_clients(self):
        for scheme, name in (
            ("centralized://", "centralized"),
            ("distributed-db://", "distributed-db"),
            ("federated://", "federated"),
            ("soft-state://", "soft-state"),
            ("hierarchical://", "hierarchical"),
            ("dht://", "dht"),
            ("locale-aware-pass://", "locale-aware-pass"),
        ):
            client = connect(scheme)
            assert isinstance(client, ModelClient)
            assert client.target == name

    def test_scheme_aliases(self):
        assert connect("ddb://").target == "distributed-db"
        assert connect("locale://").target == "locale-aware-pass"

    def test_sites_parameter_sizes_topology(self):
        client = connect("dht://?sites=12")
        # 12 storage sites plus the warehouse.
        assert len(client.topology) == 13

    def test_cities_parameter(self):
        client = connect("centralized://?cities=london,boston")
        assert "london-site" in client.topology
        assert "boston-site" in client.topology

    def test_origin_parameter_validated(self):
        with pytest.raises(ConfigurationError):
            connect("centralized://?origin=atlantis-site")
        client = connect("centralized://?origin=tokyo-site")
        assert client.default_origin == "tokyo-site"


class TestTopologyHelpers:
    def test_synthetic_sites_are_deterministic_and_distinct(self):
        a = synthetic_sites(16)
        b = synthetic_sites(16)
        assert [site.name for site in a] == [site.name for site in b]
        assert len({site.name for site in a}) == 16

    def test_synthetic_sites_requires_positive_count(self):
        with pytest.raises(ConfigurationError):
            synthetic_sites(0)

    def test_topology_from_spec_default_cities(self):
        topology = topology_from_spec(parse_url("dht://"))
        assert "london-site" in topology and "warehouse" in topology


class TestWrap:
    def test_wrap_store_and_model_and_client(self):
        store_client = wrap(PassStore())
        assert isinstance(store_client, LocalClient)
        model = CentralizedWarehouse(standard_topology(), warehouse_site="warehouse")
        model_client = wrap(model)
        assert isinstance(model_client, ModelClient)
        assert wrap(model_client) is model_client

    def test_wrap_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            wrap(object())

    def test_wrap_does_not_close_a_caller_owned_store(self, sample_tuple_set):
        store = PassStore()
        with wrap(store) as client:
            client.publish(sample_tuple_set)
        # The caller's store stays usable after the client context exits...
        assert sample_tuple_set.pname in store
        assert len(store.get_readings(sample_tuple_set.pname)) == len(sample_tuple_set)
        # ... whereas connect() clients own (and close) their backend.
        owned = connect("memory://")
        owned.close()
        from repro.errors import StorageError

        with pytest.raises(StorageError):
            owned.store.backend.record_count()

    def test_clients_are_pass_clients(self):
        assert isinstance(connect("memory://"), PassClient)
        assert isinstance(connect("dht://"), PassClient)
