"""Tests for the ``repro serve`` subsystem (ISSUE 7 tentpole).

Three layers of coverage:

* **unit** -- coalesce keys are content-addressed (cosmetic spec changes
  coalesce, result-changing ones split) and pinned to fixed digests, the
  coalescer shares exactly one task per key and survives waiter
  cancellation, the error envelope has the agreed shape;
* **integration** -- a real server on a real socket, driven by the real
  :class:`~repro.serve.client.ServeClient`: the acceptance bar (8
  concurrent identical requests -> 1 computation, 7 coalesce hits,
  telemetry-proven), distinct requests not blocking each other, a client
  disconnect mid-stream not poisoning the shared computation, streaming
  event order, progress ticks scheduled only for stream subscribers,
  warm repeats answered from the network cache tier;
* **identity** -- served rows are byte-identical (as JSON) to what the
  CLI path (:meth:`Session.run`) produces for the same spec.

Concurrency tests are made deterministic with a ``GatedSession`` whose
``run`` blocks on a per-spec-name event: the test holds the gate until
telemetry proves every request has arrived (and coalesced), then
releases -- no sleeps, no timing races.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import string
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.api import ExperimentSpec, Session
from repro.baselines.registry import baseline_names
from repro.dse.evaluate import (
    DESIGN_FINGERPRINT_VERSION,
    design_fingerprint,
    parse_design,
)
from repro.errors import (
    ERROR_ENVELOPE_VERSION,
    envelope_from_exception,
    error_envelope,
    format_error,
)
from repro.runtime.runner import network_tasks
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient, ServeError
from repro.serve.coalescer import Computation, RequestCoalescer
from repro.serve.protocol import (
    RequestError,
    parse_search_request,
    run_coalesce_key,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
TINYCNN = str(REPO_ROOT / "examples" / "workloads" / "tinycnn.json")
FIG8 = REPO_ROOT / "examples" / "experiments" / "fig8.json"

#: Milliseconds-fast spec all integration tests share (TinyCNN, smoke
#: sampling).  ``dict(SPEC_DICT)`` copies are mutated per test.
SPEC_DICT = {
    "name": "serve-test",
    "designs": ["Dense"],
    "categories": ["DNN.B"],
    "networks": [TINYCNN],
    "options": {"passes_per_gemm": 1, "max_t_steps": 8},
}


def make_spec(**overrides) -> dict:
    spec = json.loads(json.dumps(SPEC_DICT))
    spec.update(overrides)
    return spec


# ---------------------------------------------------------------------------
# Error envelope (shared CLI/server shape)


class TestErrorEnvelope:
    def test_shape_and_version(self):
        envelope = error_envelope("invalid-request", "boom", detail={"x": 1})
        assert envelope == {
            "error": {
                "v": ERROR_ENVELOPE_VERSION,
                "kind": "invalid-request",
                "message": "boom",
                "detail": {"x": 1},
            }
        }

    def test_detail_omitted_when_none(self):
        assert "detail" not in error_envelope("k", "m")["error"]

    def test_exception_kind_mapping(self):
        assert envelope_from_exception(ValueError("v"))["error"]["kind"] == \
            "invalid-request"
        assert envelope_from_exception(OSError("o"))["error"]["kind"] == "io-error"
        assert envelope_from_exception(RuntimeError("r"))["error"]["kind"] == \
            "internal-error"

    def test_keyerror_message_is_unwrapped(self):
        envelope = envelope_from_exception(KeyError("designs"))
        assert envelope["error"]["message"] == "missing key: designs"

    def test_format_keeps_historical_cli_prefix(self):
        assert format_error(error_envelope("k", "boom")) == "error: boom"


# ---------------------------------------------------------------------------
# Coalesce keys


class TestCoalesceKey:
    def test_cosmetic_differences_coalesce(self):
        a = ExperimentSpec.from_dict(make_spec())
        b = ExperimentSpec.from_dict(make_spec(name="other", title="Other run"))
        assert run_coalesce_key(a) == run_coalesce_key(b)

    def test_design_alias_coalesces(self):
        # Baseline is an alias of Dense: same resolved design fingerprint.
        a = ExperimentSpec.from_dict(make_spec(designs=["Dense"]))
        b = ExperimentSpec.from_dict(make_spec(designs=["Baseline"]))
        assert run_coalesce_key(a) == run_coalesce_key(b)

    def test_result_changing_fields_split(self):
        base = ExperimentSpec.from_dict(make_spec())
        for overrides in (
            {"designs": ["Griffin"]},
            {"categories": ["DNN.dense"]},
            {"options": {"passes_per_gemm": 2, "max_t_steps": 8}},
            {"networks": ["AlexNet"]},
        ):
            other = ExperimentSpec.from_dict(make_spec(**overrides))
            assert run_coalesce_key(base) != run_coalesce_key(other), overrides

    def test_quick_override_resolving_identically_coalesces(self):
        spec = ExperimentSpec.from_dict(make_spec())
        quick_spec = ExperimentSpec.from_dict(make_spec(
            options={"passes_per_gemm": 1, "max_t_steps": 16}
        ))
        # quick=True forces (1 pass, 16 steps): identical resolved settings.
        assert run_coalesce_key(spec, quick=True) == \
            run_coalesce_key(quick_spec, quick=None)


#: Fingerprints of every fig8 design and Table V baseline, and the fig8
#: coalesce keys, as computed when every request rebuilt and re-hashed its
#: designs.  Building each design once and keeping its fingerprint must
#: not move a digest (``DESIGN_FINGERPRINT_VERSION`` stays 1).
PINNED_FINGERPRINTS = {
    "Baseline": "bef6d7e7d00b5d93c48ee22d0d1aa6ec452448e652a3831f035ac7695852c5cd",
    "Sparse.B*": "88c9cb09488cea17c8b0561cb9e5d0f8a43294bec521737a35c7941f03a5b894",
    "Sparse.A*": "d7c0e29f5fa000798449c9cf4bf103c44ac37f0e876c4b7d1920708abd1228c6",
    "Sparse.AB*": "3faa22fdceb18045e7900262059e8ee687b306d19695820971d112ba9c4f0052",
    "Griffin": "39be5bf10219b0b57946dc4fbee4b0a6ee5ce3e0fb4f2f054eb2666bd550ff84",
    "BitTactical": "52e68e311395f6f26445f1e560cb866010aef49167a34d645a0ac18e24408c7d",
    "TensorDash": "070e4d788d645a51825fe88f88c683d340ebf499a3053c62245f38db9ebb79c1",
    "SparTen": "3a833e0551421811140bc256561efbf79f7f2e5ca519b318af77c573b65e10c8",
    "Cnvlutin": "6e811d285328f7e27d9c470e7221cc286bd11a14a7a30384cf79fa2fbd1a52f3",
    "Cambricon-X": "03a2c2ff4706fc677d96ef35106182b7938674d72f05920bc6c360ef947bd268",
}
FIG8_KEY = "1dbb728c1ea6a06a15cc077bb0fa1585865e2ac673303c38038828dfe2b8de85"
FIG8_QUICK_KEY = "0bbbddca74aed7eb1b8649fc73a3a05382c8dfd7543379283477a7a6a814b829"


class TestPinnedKeys:
    def test_design_fingerprints_are_pinned_and_kept_on_the_design(self):
        assert DESIGN_FINGERPRINT_VERSION == 1
        names = set(ExperimentSpec.load(FIG8).designs) | set(baseline_names())
        assert names == set(PINNED_FINGERPRINTS)
        for name, digest in PINNED_FINGERPRINTS.items():
            assert design_fingerprint(name) == digest, name
            design = parse_design(name)
            assert parse_design(name) is design, "one design object per token"
            assert vars(design)["fingerprint"] == digest, "kept on the object"
            assert design_fingerprint(design) == digest

    def test_fig8_coalesce_key_is_pinned(self):
        spec = ExperimentSpec.load(FIG8)
        assert run_coalesce_key(spec) == FIG8_KEY
        assert run_coalesce_key(spec) == FIG8_KEY  # from the kept designs
        assert run_coalesce_key(spec, quick=True) == FIG8_QUICK_KEY
        first, second = spec.resolve_designs(), spec.resolve_designs()
        assert all(a is b for a, b in zip(first, second, strict=True))


#: Result-changing spec fields, one parametrized case per field: each
#: override below MUST split the coalesce key (a collision would hand one
#: requester another experiment's rows).
RESULT_CHANGING_OVERRIDES = [
    ("design", {"designs": ["Griffin"]}),
    ("design-list", {"designs": ["Dense", "Griffin"]}),
    ("category", {"categories": ["DNN.dense"]}),
    ("workload-token", {"networks": ["AlexNet"]}),
    ("workload-override", {"networks": [TINYCNN + ":weight_density=0.25"]}),
    ("options-passes", {"options": {"passes_per_gemm": 2, "max_t_steps": 8}}),
    ("options-max-t", {"options": {"passes_per_gemm": 1, "max_t_steps": 16}}),
    ("options-seed",
     {"options": {"passes_per_gemm": 1, "max_t_steps": 8, "seed": 9}}),
    ("options-stalls",
     {"options": {"passes_per_gemm": 1, "max_t_steps": 8,
                  "include_stalls": False}}),
    ("options-drain",
     {"options": {"passes_per_gemm": 1, "max_t_steps": 8,
                  "pipeline_drain": 0}}),
]


class TestCoalesceKeyProperties:
    """Property-style: the key is a function of result-relevant content
    only.  Seeded random cosmetic re-dressings (names, titles, JSON key
    order, serialization whitespace) can never move it; every
    result-changing field provably splits it."""

    COSMETIC_TRIALS = 32

    def _cosmetic_variant(self, rng: random.Random, spec: dict) -> dict:
        """A randomly re-dressed copy with identical evaluation content."""
        letters = string.ascii_letters + string.digits + " -_."
        mutated = dict(spec)
        mutated["name"] = "".join(
            rng.choice(letters) for _ in range(rng.randint(0, 24))
        )
        if rng.random() < 0.7:
            mutated["title"] = "".join(
                rng.choice(letters) for _ in range(rng.randint(0, 40))
            )
        else:
            mutated.pop("title", None)
        # Shuffle key order at both nesting levels, then round-trip the
        # document through a randomly-formatted JSON serialization: key
        # order and whitespace are exactly what a content-addressed
        # identity must ignore.
        items = list(mutated.items())
        rng.shuffle(items)
        mutated = dict(items)
        if "options" in mutated:
            options = list(dict(mutated["options"]).items())
            rng.shuffle(options)
            mutated["options"] = dict(options)
        text = json.dumps(
            mutated,
            indent=rng.choice([None, 1, 2, 4]),
            separators=rng.choice([None, (",", ":"), (", ", ": ")]),
        )
        return json.loads(text)

    def test_cosmetic_mutations_never_change_the_key(self):
        rng = random.Random(2022)
        base = run_coalesce_key(ExperimentSpec.from_dict(make_spec()))
        for trial in range(self.COSMETIC_TRIALS):
            variant = self._cosmetic_variant(rng, make_spec())
            spec = ExperimentSpec.from_dict(variant)
            assert run_coalesce_key(spec) == base, (trial, variant)

    @pytest.mark.parametrize(
        "field,overrides",
        RESULT_CHANGING_OVERRIDES,
        ids=[field for field, _ in RESULT_CHANGING_OVERRIDES],
    )
    def test_each_result_changing_field_splits_the_key(self, field, overrides):
        base = run_coalesce_key(ExperimentSpec.from_dict(make_spec()))
        changed = ExperimentSpec.from_dict(make_spec(**overrides))
        split = run_coalesce_key(changed)
        assert split != base, field
        # The split is intrinsic to the content, not to this spelling:
        # cosmetic re-dressings of the changed spec stay on its key.
        rng = random.Random(hash(field) & 0xFFFF)
        for _ in range(4):
            variant = self._cosmetic_variant(rng, make_spec(**overrides))
            assert run_coalesce_key(ExperimentSpec.from_dict(variant)) == \
                split, field


# ---------------------------------------------------------------------------
# Served search specs must not drive server-side file writes


class TestSearchCheckpointRejection:
    def test_parse_rejects_checkpoint_field(self):
        body = json.dumps({"space": "b", "checkpoint": "evil.json"}).encode()
        with pytest.raises(RequestError, match="checkpoint"):
            parse_search_request(body, {})

    def test_checkpoint_free_spec_parses(self):
        body = json.dumps({"space": "b"}).encode()
        spec, quick, stream = parse_search_request(body, {})
        assert spec.checkpoint is None
        assert quick is None and stream is False


# ---------------------------------------------------------------------------
# Coalescer semantics (pure asyncio, no HTTP)


class TestCoalescer:
    def test_identical_keys_share_one_start(self):
        starts = []

        async def scenario():
            coalescer = RequestCoalescer()
            release = asyncio.Event()

            async def factory(computation):
                starts.append(computation.key)
                await release.wait()
                return "answer"

            joins = [coalescer.join("k", factory) for _ in range(5)]
            assert [c for _, c in joins] == [False, True, True, True, True]
            assert len({id(comp) for comp, _ in joins}) == 1
            release.set()
            results = await asyncio.gather(
                *(coalescer.wait(comp) for comp, _ in joins)
            )
            assert results == ["answer"] * 5
            assert len(coalescer) == 0  # done-callback cleaned up

        asyncio.run(scenario())
        assert starts == ["k"]

    def test_distinct_keys_run_independently(self):
        async def scenario():
            coalescer = RequestCoalescer()
            release_a = asyncio.Event()

            async def slow(_comp):
                await release_a.wait()
                return "slow"

            async def fast(_comp):
                return "fast"

            comp_a, _ = coalescer.join("a", slow)
            comp_b, coalesced = coalescer.join("b", fast)
            assert not coalesced
            assert await coalescer.wait(comp_b) == "fast"  # b never waits on a
            release_a.set()
            assert await coalescer.wait(comp_a) == "slow"

        asyncio.run(scenario())

    def test_cancelled_waiter_does_not_poison_shared_computation(self):
        async def scenario():
            coalescer = RequestCoalescer()
            release = asyncio.Event()

            async def factory(_comp):
                await release.wait()
                return 42

            comp, _ = coalescer.join("k", factory)
            doomed = asyncio.ensure_future(coalescer.wait(comp))
            survivor = asyncio.ensure_future(coalescer.wait(comp))
            await asyncio.sleep(0)  # let both attach
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            assert not comp.task.cancelled()
            release.set()
            assert await survivor == 42

        asyncio.run(scenario())

    def test_failure_reaches_every_waiter(self):
        async def scenario():
            coalescer = RequestCoalescer()

            async def factory(_comp):
                raise ValueError("bad spec")

            comp, _ = coalescer.join("k", factory)
            for _ in range(2):
                with pytest.raises(ValueError, match="bad spec"):
                    await coalescer.wait(comp)
            # The failed computation is no longer in flight: a retry with
            # the same key starts fresh instead of replaying the error.
            async def ok(_comp):
                return "recovered"

            comp2, coalesced = coalescer.join("k", ok)
            assert not coalesced
            assert await coalescer.wait(comp2) == "recovered"

        asyncio.run(scenario())

    def test_progress_fans_out_to_every_subscriber(self):
        async def scenario():
            coalescer = RequestCoalescer()
            release = asyncio.Event()

            async def factory(comp):
                comp.publish({"event": "progress", "done": 1, "total": 2})
                await release.wait()
                return "x"

            comp, _ = coalescer.join("k", factory)
            q1, q2 = comp.subscribe(), comp.subscribe()
            release.set()
            await coalescer.wait(comp)
            for queue in (q1, q2):
                assert (await queue.get())["event"] == "progress"
                assert (await queue.get())["event"] == "done"

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Integration: a real server on a real socket


class GatedSession(Session):
    """A session whose ``run`` blocks on a per-spec-name gate.

    Lets a test hold a computation open until telemetry proves every
    concurrent request has arrived, making coalescing assertions
    deterministic.  ``run_calls`` records every *actual* evaluation --
    the ground truth the coalesce counters are checked against.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gates: dict[str, threading.Event] = {}
        self.run_calls: list[str] = []
        self._calls_lock = threading.Lock()

    def run(self, spec, quick=None, progress=None):
        spec = ExperimentSpec.coerce(spec)
        with self._calls_lock:
            self.run_calls.append(spec.name)
        gate = self.gates.get(spec.name)
        if gate is not None:
            assert gate.wait(timeout=30.0), f"gate {spec.name!r} never released"
        return super().run(spec, quick=quick, progress=progress)


class ServerFixture:
    """A ServeApp on its own event-loop thread, bound to a free port."""

    def __init__(self, app: ServeApp) -> None:
        self.app = app
        self.loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._main, daemon=True)
        self._thread.start()
        assert self._started.wait(timeout=10.0), "server failed to start"
        self.client = ServeClient(port=self.app.port, timeout=60.0)

    def _main(self) -> None:
        asyncio.set_event_loop(self.loop)

        async def body():
            await self.app.start(port=0)
            self._started.set()
            await self.app.wait_for_shutdown_request()
            await self.app.shutdown()

        self.loop.run_until_complete(body())
        self.loop.close()

    def stop(self) -> None:
        try:
            self.loop.call_soon_threadsafe(self.app.request_shutdown)
        except RuntimeError:
            pass  # loop already closed: the server shut itself down
        self._thread.join(timeout=30.0)
        assert not self._thread.is_alive(), "server failed to shut down"


@pytest.fixture
def server(tmp_path):
    session = GatedSession(cache_dir=str(tmp_path / "cache"), keep_pool=True)
    fixture = ServerFixture(ServeApp(session, compute_threads=4))
    yield fixture
    fixture.stop()


def poll_until(predicate, timeout=20.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestServerBasics:
    def test_health_and_version(self, server):
        from repro import __version__

        health = server.client.health()
        assert health["ok"] is True
        assert health["version"] == __version__

    def test_unknown_endpoint_is_enveloped_404(self, server):
        with pytest.raises(ServeError) as excinfo:
            server.client._json("GET", "/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.kind == "not-found"

    def test_malformed_body_is_enveloped_400(self, server):
        with pytest.raises(ServeError) as excinfo:
            server.client._json("POST", "/run", b"not json")
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "invalid-request"

    def test_unknown_spec_keys_are_enveloped_400(self, server):
        with pytest.raises(ServeError) as excinfo:
            server.client.run({"designs": ["Dense"], "bogus": 1})
        assert excinfo.value.status == 400
        assert "bogus" in excinfo.value.envelope["error"]["message"]

    def test_search_checkpoint_is_enveloped_400_and_writes_nothing(
        self, server, tmp_path
    ):
        target = tmp_path / "client-chosen.json"
        with pytest.raises(ServeError) as excinfo:
            server.client.search({"space": "b", "checkpoint": str(target)})
        assert excinfo.value.status == 400
        assert excinfo.value.kind == "invalid-request"
        assert "checkpoint" in excinfo.value.envelope["error"]["message"]
        assert not target.exists()

    def _raw(self, server, request_text: str) -> bytes:
        sock = socket.create_connection(
            ("127.0.0.1", server.app.port), timeout=30.0
        )
        try:
            sock.sendall(request_text.encode())
            received = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    return received
                received += chunk
        finally:
            sock.close()

    def test_malformed_content_length_is_enveloped_400(self, server):
        for bad in ("abc", "-5", "1e3", "+2"):
            response = self._raw(
                server,
                f"POST /run HTTP/1.1\r\nHost: t\r\n"
                f"Content-Length: {bad}\r\n\r\n",
            )
            assert response.startswith(b"HTTP/1.1 400"), (bad, response[:64])
            assert b"invalid-request" in response

    def test_header_line_flood_is_enveloped_400(self, server):
        flood = "".join(f"X-Header-{i}: {i}\r\n" for i in range(80))
        response = self._raw(
            server, f"GET /healthz HTTP/1.1\r\n{flood}\r\n"
        )
        assert response.startswith(b"HTTP/1.1 400")
        assert b"header lines" in response

    def test_run_and_warm_repeat_hits_network_tier(self, server):
        first = server.client.run(make_spec())
        assert first["serve"]["coalesced"] is False
        assert first["rows"]
        second = server.client.run(make_spec())
        cache = second["cache"]
        # The warm repeat is served entirely from the network tier.
        assert cache["network_hits"] > 0
        layer_lookups = (cache["hits"] - cache["network_hits"]) + \
            (cache["misses"] - cache["network_misses"])
        assert layer_lookups == 0
        assert second["rows"] == first["rows"]

    def test_stats_counts_requests_and_latency(self, server):
        server.client.run(make_spec())
        stats = server.client.stats()
        assert stats["requests"]["by_endpoint"]["POST /run"] == 1
        assert stats["coalesce"]["computations"] == 1
        assert stats["latency"]["compute"]["count"] == 1
        assert stats["latency"]["compute"]["max_ms"] > 0

    def test_streaming_events_and_result_match_unary(self, server):
        unary = server.client.run(make_spec())
        events = list(server.client.run_stream(make_spec()))
        kinds = [e.get("event") for e in events]
        assert kinds[0] == "accepted"
        assert kinds[-1] == "result"
        assert all(k == "progress" for k in kinds[1:-1])
        assert events[-1]["rows"] == unary["rows"]


@pytest.fixture
def scheduled(monkeypatch):
    """Every progress event a computation schedules onto the event loop."""
    events = []
    real = Computation.publish_threadsafe

    def counted(self, event):
        events.append(event)
        real(self, event)

    monkeypatch.setattr(Computation, "publish_threadsafe", counted)
    return events


class TestProgressTicks:
    """A computation wakes the event loop with progress only for streams."""

    def test_unary_run_schedules_no_progress_callback(self, server, scheduled):
        result = server.client.run(make_spec(designs=["Dense", "Griffin"]))
        assert len(result["rows"]) == 2
        assert scheduled == []

    def test_stream_coalesced_onto_unary_run_gets_ticks(self, server, scheduled):
        session = server.app.session
        gate = session.gates["serve-test"] = threading.Event()
        spec = make_spec(designs=["Dense", "Griffin"])
        pool = ThreadPoolExecutor(max_workers=2)
        unary = pool.submit(server.client.run, spec)
        assert poll_until(lambda: "serve-test" in session.run_calls)
        stream = pool.submit(lambda: list(server.client.run_stream(spec)))
        assert poll_until(
            lambda: server.client.stats()["coalesce"]["hits"] == 1
        )
        gate.set()
        events = stream.result(timeout=60)
        kinds = [e.get("event") for e in events]
        assert kinds[0] == "accepted" and events[0]["coalesced"] is True
        assert kinds[-1] == "result"
        assert kinds[1:-1] and all(k == "progress" for k in kinds[1:-1])
        assert [e["done"] for e in scheduled] == [1, 2]
        assert events[-1]["rows"] == unary.result(timeout=60)["rows"]
        assert session.run_calls == ["serve-test"]


class TestCoalescingUnderConcurrency:
    def test_eight_identical_requests_one_computation(self, server):
        """The ISSUE 7 acceptance bar, telemetry-proven."""
        session = server.app.session
        gate = session.gates["serve-test"] = threading.Event()
        pool = ThreadPoolExecutor(max_workers=8)
        futures = [
            pool.submit(server.client.run, make_spec()) for _ in range(8)
        ]
        arrived = poll_until(lambda: (
            server.client.stats()["coalesce"]["hits"] == 7
            and server.client.stats()["coalesce"]["in_flight"] == 1
        ))
        gate.set()
        results = [f.result(timeout=60) for f in futures]
        assert arrived, "requests never coalesced onto one computation"
        assert session.run_calls == ["serve-test"]  # exactly one evaluation
        stats = server.client.stats()
        assert stats["coalesce"]["computations"] == 1
        assert stats["coalesce"]["hits"] == 7
        rows = {json.dumps(r["rows"], sort_keys=True) for r in results}
        assert len(rows) == 1
        assert sorted(r["serve"]["coalesced"] for r in results) == \
            [False] + [True] * 7

    def test_coalesced_waiter_sees_its_own_spec_name(self, server):
        """The key ignores name/title, but each response must carry the
        name/title of the spec that was actually posted -- the
        bitwise-identity contract holds per waiter, not per owner."""
        session = server.app.session
        gate = session.gates["owner"] = threading.Event()
        pool = ThreadPoolExecutor(max_workers=2)
        owner = pool.submit(
            server.client.run, make_spec(name="owner", title="Owner's run")
        )
        assert poll_until(lambda: "owner" in session.run_calls)
        waiter = pool.submit(
            server.client.run, make_spec(name="waiter", title="Waiter's run")
        )
        assert poll_until(
            lambda: server.client.stats()["coalesce"]["hits"] == 1
        )
        gate.set()
        owner_result = owner.result(timeout=60)
        waiter_result = waiter.result(timeout=60)
        assert session.run_calls == ["owner"]  # one shared evaluation
        assert owner_result["experiment"] == "owner"
        assert waiter_result["experiment"] == "waiter"
        assert waiter_result["serve"]["coalesced"] is True
        assert waiter_result["rows"] == owner_result["rows"]

    def test_distinct_requests_do_not_block_each_other(self, server):
        session = server.app.session
        gate = session.gates["blocked"] = threading.Event()
        pool = ThreadPoolExecutor(max_workers=2)
        slow = pool.submit(server.client.run, make_spec(name="blocked"))
        assert poll_until(lambda: "blocked" in session.run_calls)
        try:
            # A different request completes while "blocked" holds its gate.
            fast = server.client.run(make_spec(designs=["Griffin"]))
            assert fast["rows"]
            assert not slow.done()
        finally:
            gate.set()
        assert slow.result(timeout=60)["rows"]

    def test_client_disconnect_does_not_poison_shared_future(self, server):
        session = server.app.session
        gate = session.gates["serve-test"] = threading.Event()
        body = json.dumps(make_spec()).encode()

        # Client A: a raw socket so the disconnect is a genuine TCP close
        # mid-stream, not a polite HTTP shutdown.
        sock = socket.create_connection(("127.0.0.1", server.app.port),
                                        timeout=30.0)
        sock.sendall(
            (f"POST /run?stream=1 HTTP/1.1\r\nHost: t\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(body)}\r\n\r\n").encode() + body
        )
        received = b""
        while b'"accepted"' not in received:
            chunk = sock.recv(4096)
            assert chunk, "connection closed before the accepted event"
            received += chunk
        sock.close()  # hard disconnect mid-computation

        # Client B joins the same in-flight computation...
        pool = ThreadPoolExecutor(max_workers=1)
        survivor = pool.submit(server.client.run, make_spec())
        assert poll_until(
            lambda: server.client.stats()["coalesce"]["hits"] == 1
        )
        gate.set()
        # ...and still gets the full result.
        result = survivor.result(timeout=60)
        assert result["rows"]
        assert result["serve"]["coalesced"] is True
        assert session.run_calls == ["serve-test"]

    def test_draining_server_finishes_old_work_and_rejects_new(self, server):
        """Graceful shutdown: in-flight requests drain, new ones get 503."""
        session = server.app.session
        gate = session.gates["hold"] = threading.Event()
        pool = ThreadPoolExecutor(max_workers=1)
        held = pool.submit(server.client.run, make_spec(name="hold"))
        assert poll_until(lambda: "hold" in session.run_calls)
        server.client.shutdown()
        with pytest.raises(ServeError) as excinfo:
            server.client.run(make_spec())
        assert excinfo.value.status == 503
        assert excinfo.value.kind == "draining"
        gate.set()
        # The in-flight request was drained, not dropped.
        assert held.result(timeout=60)["rows"]


class TestBitwiseIdentity:
    def test_served_rows_equal_cli_rows(self, tmp_path):
        """The served payload is the `repro run --json` payload, bit for bit."""
        spec = make_spec(designs=["Dense", "Griffin"],
                         categories=["DNN.B", "DNN.dense"])
        cli_session = Session(cache_dir=str(tmp_path / "cli-cache"))
        cli_result = cli_session.run(ExperimentSpec.from_dict(spec))
        cli_payload = cli_result.to_dict()

        session = Session(cache_dir=str(tmp_path / "serve-cache"),
                          keep_pool=True)
        fixture = ServerFixture(ServeApp(session, compute_threads=2))
        try:
            served = fixture.client.run(spec)
        finally:
            fixture.stop()
        assert json.dumps(served["rows"], sort_keys=True) == \
            json.dumps(cli_payload["rows"], sort_keys=True)
        assert served["categories"] == cli_payload["categories"]
        assert served["experiment"] == cli_payload["experiment"]


class TestRunnerChunks:
    def test_search_pool_chunks_count_in_stats(self, tmp_path):
        """``runner.chunks`` counts the pool tasks of ``/search`` as it does
        those of ``/run``; a warm repeat sends none."""
        spec = {
            "name": "serve-chunks",
            "space": {"name": "tiny-b", "db1": [1, 2], "db2": [0], "db3": [0, 1],
                      "shuffle": [False]},
            "strategy": {"kind": "exhaustive"},
            "objectives": [{"category": "DNN.B", "metric": "speedup"}],
            "networks": [TINYCNN],
            "options": {"passes_per_gemm": 1, "max_t_steps": 8},
        }
        session = Session(workers=2, cache_dir=str(tmp_path / "cache"), keep_pool=True)
        fixture = ServerFixture(ServeApp(session, compute_threads=2))
        try:
            cold = fixture.client.search(spec)
            chunks = fixture.client.stats()["runner"]["chunks"]
            warm = fixture.client.search(spec)
            stats = fixture.client.stats()
        finally:
            fixture.stop()
        # One batch of four designs on one network: two workers cut it in
        # two slices.
        assert cold["fresh_evaluations"] == 4
        assert chunks == len(network_tasks(4, 1, 2)) == 2
        assert stats["runner"]["chunks"] == chunks
        assert warm["front"] == cold["front"]


class TestMetricsEndpoint:
    """``GET /metrics`` (Prometheus text) and the widened ``/stats``."""

    PROM_SAMPLE_RE = __import__("re").compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (\+Inf|-?[0-9.eE+-]+)$"
    )

    def _get_metrics(self, server) -> str:
        import http.client

        conn = http.client.HTTPConnection(
            "127.0.0.1", server.app.port, timeout=30.0
        )
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            body = response.read().decode()
            assert response.status == 200
            assert response.getheader("Content-Type", "").startswith("text/plain")
            return body
        finally:
            conn.close()

    def test_metrics_parses_as_prometheus_text(self, server):
        server.client.run(make_spec())
        text = self._get_metrics(server)
        for line in text.rstrip("\n").splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert self.PROM_SAMPLE_RE.match(line), f"bad line: {line!r}"
        assert "# TYPE repro_serve_requests_received_total counter" in text
        assert 'repro_serve_requests_received_total{endpoint="POST /run"} 1' in text
        assert "# TYPE repro_serve_compute_ms histogram" in text
        assert 'repro_serve_compute_ms_bucket{le="+Inf"} 1' in text
        # The session's cache counters render too (the /metrics scrape in
        # CI asserts the cold run put results into the network tier).
        assert 'repro_cache_events_total{tier="network",event="puts"}' in text

    def test_metrics_exposes_the_coalesce_counter(self, server):
        server.client.run(make_spec())
        text = self._get_metrics(server)
        # Eagerly rendered at zero: the serve-smoke scrape can always
        # assert its presence, hit or not.
        assert "repro_serve_coalesce_hits_total 0" in text
        assert "repro_serve_computations_total 1" in text

    def test_stats_keeps_legacy_keys_and_adds_schema_version(self, server):
        server.client.run(make_spec())
        stats = server.client.stats()
        # Legacy shape, pinned since the serve PR.
        assert stats["v"] == 1
        assert stats["requests"]["by_endpoint"]["POST /run"] == 1
        assert stats["coalesce"]["computations"] == 1
        assert stats["latency"]["compute"]["count"] == 1
        assert set(stats["latency"]["compute"]) == {
            "count", "total_ms", "max_ms", "mean_ms",
        }
        # Additive schema revisions 2, 3 and 4.
        assert stats["schema_version"] == 4
        assert stats["runner"] == {"chunks": 0}  # a serial session uses no pool
        assert stats["cache"]["memo_hits"] >= 0
        assert stats["cache"]["hits"] + stats["cache"]["misses"] > 0
        assert stats["uptime_s"] >= 0
        endpoint = stats["latency"]["endpoints"]["POST /run"]
        assert endpoint["count"] == 1
        assert endpoint["max_ms"] > 0
        assert 0 <= endpoint["p50_ms"] <= endpoint["p90_ms"]

    def test_request_spans_stitch_to_compute_spans(self, server):
        from repro.obs import trace as obs_trace
        from repro.obs.report import span_structure

        tracer = obs_trace.Tracer()
        previous = obs_trace.set_tracer(tracer)
        try:
            server.client.run(make_spec())
            # The request span closes just after the response is written,
            # so the client can return first: wait for the record.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and not any(
                rec["name"] == "serve.request" for rec in tracer.export()
            ):
                time.sleep(0.01)
        finally:
            obs_trace.set_tracer(previous)
        spans = tracer.export()
        by_name = {rec["name"]: rec for rec in spans}
        assert by_name["serve.request"]["parent"] is None
        assert by_name["serve.request"]["attrs"]["endpoint"] == "/run"
        assert by_name["serve.request"]["attrs"]["coalesced"] is False
        # The compute span ran on an executor thread but is stitched
        # under its request span by explicit parent id.
        assert by_name["serve.compute"]["parent"] == by_name["serve.request"]["id"]
        structure = span_structure(spans)
        assert structure[0][0] == "serve.request"
