"""repro.server -- the provenance service daemon and its wire protocol.

Everything before this package ran in one process: the façade, the
planner, the stream engine and the simulated architectures all share an
interpreter with their caller.  The paper's provenance-aware sensor
store is meant to be a *service* -- many independent clients publishing
into and querying one store concurrently -- and this package makes that
real:

* :mod:`repro.server.protocol` -- a length-prefixed JSON wire protocol
  carrying the complete :class:`~repro.api.client.PassClient` surface
  (publish/query/explain, lineage, locate, stats, subscriptions as a
  streaming push feed) with stable error codes mapped from
  :mod:`repro.errors`,
* :mod:`repro.server.daemon` -- :class:`PassDaemon`, an asyncio socket
  server with token auth, per-tenant namespaces (isolated stores and
  subscription registries) and an async build/rebuild-closure job
  endpoint (``task_id`` + status polling),
* :mod:`repro.server.ops` -- the op table: every wire op declared once
  (arguments, codecs, who serves it); remote stubs, daemon dispatch,
  argument checks and the docs table all derive from it,
* :mod:`repro.server.monitor` -- the daemon's monitoring half
  (telemetry, sampler, OpenMetrics/health/alerts, ``/metrics`` HTTP),
* :mod:`repro.server.remote` -- :class:`RemoteClient`, the thin client
  registered under ``pass://host:port`` in the :func:`repro.api.connect`
  URL registry, so every existing test, bench and example runs unchanged
  against a live daemon.

Start a daemon from Python::

    from repro.server import PassDaemon

    daemon = PassDaemon(backend_url="memory://")
    address = daemon.start()            # background thread + asyncio loop
    client = connect(f"pass://{address.host}:{address.port}")

or from a terminal with ``repro serve --port 7100``.
"""

__all__ = ["DaemonAddress", "PassDaemon", "RemoteClient"]

#: loaded on first use: ``repro.api.client`` reads the op table
#: (:mod:`repro.server.ops`) while ``repro.server.remote`` subclasses
#: ``PassClient``, so importing this package must not import either end
_LAZY_NAMES = {
    "DaemonAddress": "repro.server.daemon",
    "PassDaemon": "repro.server.daemon",
    "RemoteClient": "repro.server.remote",
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        from importlib import import_module

        return getattr(import_module(_LAZY_NAMES[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
