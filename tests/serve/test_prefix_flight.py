"""Prefix-aware single-flight and resume points over the server."""

import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.flow import (
    CompileCache,
    CompileJob,
    PassManager,
)
from repro.flow.cache import _dumps
from repro.flow.core import FlowContext
from repro.rtl.builder import ModuleBuilder
from repro.serve import CompileServer, ServeClient, SingleFlight
from repro.serve.backends import RemoteBackend


def build_rom_module(scale=3, name="m"):
    b = ModuleBuilder(name)
    addr = b.input("addr", 4)
    rom = b.rom("t", 8, 16, [(scale * i + 1) % 256 for i in range(16)])
    b.output("data", rom.read(addr))
    return b.build()


def record_signature(ctx):
    return [
        (r.name, r.stage, r.before, r.after, r.messages, r.skipped,
         r.rejected, r.failed)
        for r in ctx.records
    ]


# ---------------------------------------------------------------------
# SingleFlight prefix keys.
# ---------------------------------------------------------------------

def test_prefix_sharer_waits_once_then_leads():
    flights = SingleFlight()
    release = threading.Event()
    order = []

    def leader_fn():
        order.append("leader")
        release.wait(timeout=10.0)
        return "lead-result"

    outcomes = {}

    def leader():
        outcomes["a"] = flights.do(
            "full-a", leader_fn, prefix_keys=("p1", "p2")
        )

    thread = threading.Thread(target=leader)
    thread.start()
    deadline = time.monotonic() + 10.0
    while flights.inflight() == 0 and time.monotonic() < deadline:
        time.sleep(0.001)

    def sharer():
        # Distinct full key, shared prefix: waits for the leader once,
        # then executes itself.
        outcomes["b"] = flights.do(
            "full-b", lambda: order.append("sharer") or "share-result",
            prefix_keys=("p1", "p3"),
        )

    share = threading.Thread(target=sharer)
    share.start()
    # The sharer must be parked on the leader, not executing.
    time.sleep(0.05)
    assert "sharer" not in order
    release.set()
    thread.join(timeout=10.0)
    share.join(timeout=10.0)

    assert order == ["leader", "sharer"]
    assert outcomes["a"].leader and outcomes["b"].leader
    stats = flights.stats.to_json()
    assert stats["started"] == 2
    assert stats["deduped"] == 0
    assert stats["prefix_waits"] == 1
    assert flights.inflight() == 0


def test_unrelated_prefixes_run_concurrently():
    flights = SingleFlight()
    release = threading.Event()

    def slow():
        release.wait(timeout=10.0)
        return "slow"

    results = {}

    def run_slow():
        results["a"] = flights.do("ka", slow, prefix_keys=("pa",))

    thread = threading.Thread(target=run_slow)
    thread.start()
    deadline = time.monotonic() + 10.0
    while flights.inflight() == 0 and time.monotonic() < deadline:
        time.sleep(0.001)
    # No prefix overlap: executes immediately, no wait.
    results["b"] = flights.do("kb", lambda: "fast", prefix_keys=("pb",))
    release.set()
    thread.join(timeout=10.0)
    assert results["b"].value == "fast"
    assert flights.stats.to_json()["prefix_waits"] == 0


def test_prefix_table_entries_are_cleaned_up():
    flights = SingleFlight()
    flights.do("k", lambda: 1, prefix_keys=("p1", "p2"))
    assert flights.inflight() == 0
    with flights._lock:
        assert not flights._prefixes


# ---------------------------------------------------------------------
# Server end to end.
# ---------------------------------------------------------------------

@pytest.fixture()
def server(tmp_path):
    cache = CompileCache(tmp_path / "cache")
    with CompileServer(cache=cache, workers=2) as srv:
        yield srv


def test_server_batch_resumes_shared_prefix(server):
    """Two jobs sharing everything up to ``map`` submitted as one
    batch: the second must resume from the first one's resume points (or
    wait on its flight), never recompute the shared prefix -- and the
    results must equal local from-scratch compiles."""
    module = build_rom_module()
    # size's clock target must differ *from the default*: a default
    # parameter renders out of the spec and the jobs would collapse to
    # one fingerprint.
    specs = {
        "fast": "elaborate,optimize,map,size{clock_period_ns=4.0}",
        "slow": "elaborate,optimize,map,size{clock_period_ns=40.0}",
    }
    jobs = [
        CompileJob(key, spec, module=module, seed=7)
        for key, spec in specs.items()
    ]
    results = ServeClient(server.url).compile(jobs)
    assert set(results) == set(specs)

    stats = ServeClient(server.url).stats()
    assert stats["compiles"] == 2
    assert stats["prefix_resumes"] >= 1
    for key, spec in specs.items():
        local = PassManager.parse(spec).compile(module=module, seed=7)
        assert record_signature(results[key]) == record_signature(local)
        assert results[key].area.total == local.area.total


def test_snapshot_endpoint_roundtrip(server):
    """Resume points travel over ``/cache/<fp>`` like entries: the key
    is the prefix fingerprint, the body the pickled context."""
    pipeline = PassManager.parse("elaborate,optimize")
    module = build_rom_module()
    fp = pipeline.prefix_fingerprints(module=module, seed=7)[0]
    ctx = FlowContext(module=module, seed=7)
    pipeline.passes[0].execute(ctx)
    blob = _dumps(ctx)
    url = f"{server.url}/cache/{fp}"

    # A missing point 404s (the best-effort miss remote backends read).
    with pytest.raises(urllib.error.HTTPError) as missing:
        urllib.request.urlopen(url)
    assert missing.value.code == 404

    put = urllib.request.Request(url, data=blob, method="PUT")
    with urllib.request.urlopen(put) as response:
        assert response.status in (200, 201, 204)
    with urllib.request.urlopen(url) as response:
        assert response.read() == blob

    # The stored point is live: the server's own cache restores it.
    restored = server.cache.get_prefix_entry(fp)
    assert restored is not None
    assert restored.aig.canonical_hash() == ctx.aig.canonical_hash()


def test_snapshot_endpoint_rejects_malformed_keys(server):
    for bad in ("nothex", "abc", "../../etc/passwd", "snap/" + "a" * 64):
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(f"{server.url}/cache/{bad}")
        assert exc.value.code == 404


def test_remote_client_resumes_from_a_point_the_server_holds():
    """A memory-only server stores a resume point of its own compile;
    a client cache over a RemoteBackend resumes past it without a
    route of its own."""
    module = build_rom_module()
    with CompileServer(cache=CompileCache(), workers=1) as srv:
        ServeClient(srv.url).compile(
            [CompileJob("prefix", "elaborate,optimize", module=module)]
        )
        assert srv.cache.snapshot_stores == 1  # after elaborate

        client = CompileCache(backend=RemoteBackend(srv.url))
        spec = "elaborate,resub"
        resumed = PassManager.parse(spec).compile(
            module=module, cache=client
        )
    assert resumed.meta["passes_skipped"] == 1
    assert resumed.meta["resumed_at"] == "elaborate"
    scratch = PassManager.parse(spec).compile(module=module)
    assert record_signature(resumed) == record_signature(scratch)
    assert resumed.aig.canonical_hash() == scratch.aig.canonical_hash()
    # The client wrote its result back through the same endpoint.
    assert client.backend.stats()["store_calls"] == 1
