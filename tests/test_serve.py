"""Tests for the estimation daemon: engine, coalescer, JSON AST, HTTP.

Everything runs in-process (``asyncio.run`` + a server bound to an
ephemeral localhost port), so the suite exercises the real wire
protocol without external processes.  The recurring assertion is
*bit-exact parity*: whatever path a query takes into the daemon —
XPath text, JSON AST, coalesced batch, ``/batch`` — the float coming
back must equal ``CompiledEstimator.estimate`` on the same synopsis.
"""

import asyncio

import pytest

from repro.core import build_xcluster
from repro.core.builder import BuildConfig
from repro.core.estimation import CompiledEstimator
from repro.query import parse_twig
from repro.query.jsonast import (
    QueryFormatError,
    twig_from_dict,
    twig_to_dict,
)
from repro.serve import (
    PlanCoalescer,
    ServeClient,
    ServeEngine,
    ServingStats,
    SynopsisServer,
)
from repro.serve.engine import LATENCY_WINDOW


@pytest.fixture(scope="module")
def synopsis(request):
    imdb_small = request.getfixturevalue("imdb_small")
    return build_xcluster(
        imdb_small.tree,
        structural_budget=3000,
        value_budget=20000,
        value_paths=imdb_small.value_paths,
        config=BuildConfig(pool_max=500, pool_min=250),
    )


PROBES = (
    "//movie/title",
    "//movie[./year >= 1990]/cast/actor",
    "//movie/title[. contains(St)]",
    "//movie/plot[. ftcontains(be)]",
    "//show/season/episode",
    "//movie[./year in [1985, 1999]]/title",
)


class TestJsonAst:
    @pytest.mark.parametrize("text", PROBES)
    def test_roundtrip_preserves_estimates(self, synopsis, text):
        query = parse_twig(text)
        restored = twig_from_dict(twig_to_dict(query))
        estimator = CompiledEstimator(synopsis)
        assert estimator.estimate(restored) == estimator.estimate(query)

    @pytest.mark.parametrize("text", PROBES)
    def test_roundtrip_is_json_plain(self, text):
        import json

        data = twig_to_dict(parse_twig(text))
        assert json.loads(json.dumps(data)) == data

    def test_atleast_roundtrip(self):
        query = parse_twig("//movie/plot[. ftatleast(2, be, star, war)]")
        restored = twig_from_dict(twig_to_dict(query))
        assert twig_to_dict(restored) == twig_to_dict(query)

    @pytest.mark.parametrize(
        "data",
        [
            "not a dict",
            {},
            {"name": 7},
            {"name": "a", "predicate": {"kind": "mystery"}},
            {"name": "a", "edge": [["child", "b"]]},  # root takes no edge
            {"name": "a", "children": [{"name": "b"}]},  # child needs edge
            {"name": "a", "predicate": {"kind": "range"}},
        ],
    )
    def test_malformed_ast_rejected(self, data):
        with pytest.raises(QueryFormatError):
            twig_from_dict(data)

    def test_depth_bomb_rejected(self):
        deep = {"name": "x"}
        for _ in range(100):
            deep = {
                "name": "x",
                "children": [
                    dict(deep, edge=[["child", "x"]])
                ],
            }
        with pytest.raises(QueryFormatError):
            twig_from_dict(deep)


class TestServeEngine:
    def test_parse_xpath_request(self, synopsis):
        engine = ServeEngine(synopsis)
        query = engine.parse_request_query({"query": PROBES[0]})
        assert query.to_xpath() == parse_twig(PROBES[0]).to_xpath()

    def test_parse_ast_request(self, synopsis):
        engine = ServeEngine(synopsis)
        ast = twig_to_dict(parse_twig(PROBES[1]))
        query = engine.parse_request_query({"ast": ast})
        assert twig_to_dict(query) == ast

    @pytest.mark.parametrize(
        "payload",
        [{}, {"query": 5}, {"query": "//a", "ast": {"name": "a"}}],
    )
    def test_bad_request_payloads_rejected(self, synopsis, payload):
        engine = ServeEngine(synopsis)
        with pytest.raises(ValueError):
            engine.parse_request_query(payload)

    def test_batch_parity(self, synopsis):
        engine = ServeEngine(synopsis)
        queries = [parse_twig(text) for text in PROBES]
        estimator = CompiledEstimator(synopsis)
        expected = [estimator.estimate(query) for query in queries]
        assert engine.estimate_batch(queries) == expected

    def test_coalesced_estimate_parity(self, synopsis):
        engine = ServeEngine(synopsis)
        estimator = CompiledEstimator(synopsis)

        async def run():
            return await asyncio.gather(
                *(engine.estimate(parse_twig(text)) for text in PROBES)
            )

        results = asyncio.run(run())
        assert results == [estimator.estimate(parse_twig(t)) for t in PROBES]

    def test_identical_inflight_plans_coalesce(self, synopsis):
        engine = ServeEngine(synopsis)
        query = parse_twig(PROBES[0])

        async def run():
            return await asyncio.gather(
                *(engine.estimate(query) for _ in range(8))
            )

        results = asyncio.run(run())
        assert len(set(results)) == 1
        stats = engine.stats.snapshot()
        # 8 identical requests must not dispatch 8 plans.
        assert stats["coalescing"]["coalesced_requests"] > 0
        assert (
            stats["coalescing"]["batched_plans_total"]
            < stats["requests_total"]
        )

    def test_plan_cache_is_shared_across_requests(self, synopsis):
        engine = ServeEngine(synopsis)
        query = parse_twig(PROBES[0])

        async def run():
            await engine.estimate(query)
            await engine.estimate(query)

        asyncio.run(run())
        stats = engine.stats.snapshot()
        assert stats["estimator"]["plan_cache_hits"] >= 1


class TestServingStats:
    def test_percentiles_from_known_samples(self):
        stats = ServingStats(None)
        for ms in range(1, 101):  # 1ms .. 100ms
            stats.observe_latency(ms / 1000.0)
        assert stats.p50_ms == pytest.approx(50.0)
        assert stats.p99_ms == pytest.approx(99.0)

    def test_empty_window_reports_zero(self):
        stats = ServingStats(None)
        assert stats.p50_ms == 0.0
        assert stats.p99_ms == 0.0

    def test_window_is_bounded(self):
        stats = ServingStats(None)
        for _ in range(LATENCY_WINDOW + 100):
            stats.observe_latency(0.001)
        assert len(stats._latencies) == LATENCY_WINDOW
        assert stats.requests_total == LATENCY_WINDOW + 100

    def test_batch_occupancy_is_requests_per_batch(self):
        stats = ServingStats(None)
        stats.record_batch(requests=6, plans=2)
        stats.record_batch(requests=2, plans=2)
        assert stats.mean_batch_occupancy == pytest.approx(4.0)


class TestHttpServer:
    def _run(self, synopsis, scenario):
        async def main():
            engine = ServeEngine(synopsis)
            async with SynopsisServer(engine) as server:
                client = ServeClient(server.host, server.port)
                try:
                    return await scenario(server, client)
                finally:
                    await client.close()

        return asyncio.run(main())

    def test_healthz(self, synopsis):
        async def scenario(server, client):
            return await client.request("GET", "/healthz")

        status, body = self._run(synopsis, scenario)
        assert status == 200
        assert body == {"status": "ok"}

    def test_estimate_parity_over_http(self, synopsis):
        estimator = CompiledEstimator(synopsis)

        async def scenario(server, client):
            results = []
            for text in PROBES:
                status, body = await client.estimate({"query": text})
                assert status == 200
                results.append(body["estimate"])
            return results

        results = self._run(synopsis, scenario)
        expected = [estimator.estimate(parse_twig(t)) for t in PROBES]
        assert results == expected

    def test_ast_and_xpath_agree(self, synopsis):
        async def scenario(server, client):
            _, by_text = await client.estimate({"query": PROBES[1]})
            ast = twig_to_dict(parse_twig(PROBES[1]))
            _, by_ast = await client.estimate({"ast": ast})
            return by_text["estimate"], by_ast["estimate"]

        text_estimate, ast_estimate = self._run(synopsis, scenario)
        assert text_estimate == ast_estimate

    def test_user_tag_is_echoed(self, synopsis):
        async def scenario(server, client):
            return await client.estimate(
                {"query": PROBES[0], "user": "alice"}
            )

        _status, body = self._run(synopsis, scenario)
        assert body["user"] == "alice"

    def test_batch_endpoint_parity(self, synopsis):
        estimator = CompiledEstimator(synopsis)

        async def scenario(server, client):
            body = {"queries": [{"query": text} for text in PROBES]}
            return await client.request("POST", "/batch", body)

        status, body = self._run(synopsis, scenario)
        assert status == 200
        expected = [estimator.estimate(parse_twig(t)) for t in PROBES]
        assert body["estimates"] == expected

    def test_malformed_query_is_400(self, synopsis):
        async def scenario(server, client):
            return await client.estimate({"query": "///[[["})

        status, body = self._run(synopsis, scenario)
        assert status == 400
        assert "error" in body

    def test_bad_ast_is_400(self, synopsis):
        async def scenario(server, client):
            return await client.estimate({"ast": {"kind": "nope"}})

        status, _body = self._run(synopsis, scenario)
        assert status == 400

    def test_unknown_route_is_404(self, synopsis):
        async def scenario(server, client):
            return await client.request("GET", "/nope")

        status, _body = self._run(synopsis, scenario)
        assert status == 404

    def test_stats_endpoint_shape(self, synopsis):
        async def scenario(server, client):
            await client.estimate({"query": PROBES[0]})
            return await client.stats()

        stats = self._run(synopsis, scenario)
        assert stats["requests_total"] >= 1
        assert {"p50_ms", "p99_ms", "window"} <= set(stats["latency"])
        assert "plan_cache_hit_rate" in stats["estimator"]
        assert "mean_batch_occupancy" in stats["coalescing"]

    def test_shutdown_endpoint_stops_server(self, synopsis):
        async def main():
            engine = ServeEngine(synopsis)
            server = SynopsisServer(engine)
            await server.start()
            runner = asyncio.ensure_future(server.serve_until_shutdown())
            client = ServeClient(server.host, server.port)
            status, _body = await client.request("POST", "/shutdown")
            await client.close()
            await asyncio.wait_for(runner, timeout=5.0)
            return status

        assert asyncio.run(main()) == 200

    def test_concurrent_clients_coalesce(self, synopsis):
        async def main():
            engine = ServeEngine(synopsis)
            async with SynopsisServer(engine) as server:

                async def one_client():
                    client = ServeClient(server.host, server.port)
                    try:
                        _, body = await client.estimate({"query": PROBES[0]})
                        return body["estimate"]
                    finally:
                        await client.close()

                results = await asyncio.gather(
                    *(one_client() for _ in range(6))
                )
                return results, engine.stats.snapshot()

        results, stats = asyncio.run(main())
        assert len(set(results)) == 1
        assert stats["requests_total"] == 6


async def _raw_exchange(server, data):
    """Send raw bytes on a fresh connection; everything read until EOF."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    try:
        writer.write(data)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=5.0)
    finally:
        writer.close()
        await writer.wait_closed()


def _run_raw(synopsis, data):
    async def main():
        async with SynopsisServer(ServeEngine(synopsis)) as server:
            return await _raw_exchange(server, data)

    return asyncio.run(main())


class TestHttpFraming:
    def test_transfer_encoding_gets_one_501_and_close(self, synopsis):
        received = _run_raw(
            synopsis,
            b"POST /estimate HTTP/1.1\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"1d\r\n{\"query\": \"//movie/title\"}\r\n0\r\n\r\n",
        )
        assert received.count(b"HTTP/1.1 ") == 1
        assert received.startswith(b"HTTP/1.1 501 ")
        assert b"Connection: close" in received

    @pytest.mark.parametrize("length", [b"1_9", b"+19", b" 19x", b""])
    def test_content_length_must_be_ascii_digits(self, synopsis, length):
        body = b'{"query": "//a"}'.ljust(19)
        received = _run_raw(
            synopsis,
            b"POST /estimate HTTP/1.1\r\nContent-Length: " + length
            + b"\r\n\r\n" + body,
        )
        assert received.startswith(b"HTTP/1.1 400 ")
        assert b"content-length" in received


class TestConnectionDeadlines:
    def test_half_request_line_is_disconnected(self, synopsis, monkeypatch):
        from repro.serve import http

        monkeypatch.setattr(http, "REQUEST_TIMEOUT_SECONDS", 0.2)
        monkeypatch.setattr(http, "IDLE_TIMEOUT_SECONDS", 30.0)
        # No response at all: the connection is dropped, not answered.
        assert _run_raw(synopsis, b"GET /hea") == b""

    def test_idle_keep_alive_is_disconnected(self, synopsis, monkeypatch):
        from repro.serve import http

        monkeypatch.setattr(http, "REQUEST_TIMEOUT_SECONDS", 30.0)
        monkeypatch.setattr(http, "IDLE_TIMEOUT_SECONDS", 0.2)
        received = _run_raw(
            synopsis,
            b"GET /healthz HTTP/1.1\r\nConnection: keep-alive\r\n\r\n",
        )
        # The request is answered, then the idle connection is closed.
        assert received.startswith(b"HTTP/1.1 200 ")
        assert received.endswith(b'{"status": "ok"}')


class TestMemos:
    """The request memo and the estimate memo answer exactly."""

    def _serve(self, engine, scenario):
        async def main():
            async with SynopsisServer(engine) as server:
                client = ServeClient(server.host, server.port)
                try:
                    return await scenario(server, client)
                finally:
                    await client.close()

        return asyncio.run(main())

    def test_pool_asked_twice_in_both_forms_matches_fresh(
        self, synopsis, imdb_small
    ):
        from repro.workload.generator import generate_workload

        pool = [wq.query for wq in generate_workload(imdb_small, 4, 11).queries]
        expected = [CompiledEstimator(synopsis).estimate(q) for q in pool]

        async def scenario(server, client):
            answers = []
            for _ in range(2):
                for query in pool:
                    for body in (
                        {"query": query.to_xpath()},
                        {"ast": twig_to_dict(query)},
                    ):
                        status, response = await client.estimate(body)
                        assert status == 200, response
                        answers.append(response["estimate"])
            return answers, await client.stats()

        answers, stats = self._serve(ServeEngine(synopsis), scenario)
        assert answers == [e for e in expected for _ in range(2)] * 2
        memo = stats["memo"]
        assert memo["requests"]["hits"] == 2 * len(pool)
        assert memo["requests"]["entries"] == 2 * len(pool)
        distinct = len({CompiledEstimator(synopsis).compile(q).signature
                        for q in pool})
        assert memo["estimates"]["entries"] == distinct
        assert memo["estimates"]["hits"] == 4 * len(pool) - distinct
        assert stats["requests_total"] == 4 * len(pool)

    def test_malformed_body_is_never_stored(self, synopsis):
        async def scenario(server, client):
            first = await client.estimate({"query": "///[[["})
            second = await client.estimate({"query": "///[[["})
            return first, second, await client.stats()

        first, second, stats = self._serve(ServeEngine(synopsis), scenario)
        assert first[0] == 400
        assert first == second
        assert stats["errors"] == 2
        assert stats["memo"]["requests"] == {"hits": 0, "entries": 0, "bytes": 0}

    def test_request_memo_bytes_stay_bounded(self, synopsis):
        from repro.serve.http import MEMO_MAX_BODY_BYTES, MEMO_MAX_TOTAL_BYTES

        pad = "x" * 1000
        count = MEMO_MAX_TOTAL_BYTES // 1000 + 100

        async def scenario(server, client):
            for user in range(count):
                body = {"query": PROBES[0], "user": f"{user}-{pad}"}
                assert (await client.estimate(body))[0] == 200
            big = {"query": PROBES[0], "user": "y" * MEMO_MAX_BODY_BYTES}
            for _ in range(2):
                assert (await client.estimate(big))[0] == 200
            return await client.stats()

        stats = self._serve(ServeEngine(synopsis), scenario)
        requests = stats["memo"]["requests"]
        assert 0 < requests["bytes"] <= MEMO_MAX_TOTAL_BYTES
        assert requests["entries"] < count
        assert requests["hits"] == 0  # the oversized body was never kept
        assert stats["memo"]["estimates"]["hits"] == count + 1

    def test_in_process_callers_execute_every_estimate(self, synopsis):
        engine = ServeEngine(synopsis)
        query = parse_twig(PROBES[1])
        signature = engine.plan_signature(query)

        async def run():
            plain = [await engine.estimate(query) for _ in range(3)]
            signed = [await engine.estimate(query, signature) for _ in range(2)]
            return plain, signed

        plain, signed = asyncio.run(run())
        expected = CompiledEstimator(synopsis).estimate(query)
        assert plain == [expected] * 3 and signed == [expected] * 2
        estimator = engine.stats.snapshot()["estimator"]
        # Without a signature each request reaches the estimator; with
        # one the repeats are answered from the estimate memo.
        assert estimator["queries_estimated"] == 3
        assert estimator["plans_compiled"] + estimator["plan_cache_hits"] == 4
        assert engine.coalescer.memo_snapshot() == {"hits": 2, "entries": 1}
        assert engine.stats.requests_total == 5


#: element indexes (preorder):  0 root, 1 item, 2 name, 3 qty,
#: 4 item, 5 name, 6 qty, 7 note (TEXT at two words and up)
UPDATE_BASE = (
    "<root>"
    "<item><name>alphaword</name><qty>7</qty></item>"
    "<item><name>betaword</name><qty>9</qty></item>"
    "<note>term one two</note>"
    "</root>"
)

UPDATE_PROBES = (
    "//item/name",
    "//item/qty[. >= 20]",
    "//item/name[. contains(gamma)]",
    "//note[. ftcontains(other)]",
)


class TestMemoAcrossUpdates:
    @pytest.mark.parametrize(
        "op_dict, counter",
        [
            ({"op": "insert", "parent": 0, "position": 0,
              "xml": "<item><name>gammaword</name><qty>30</qty></item>"},
             "inserts"),
            ({"op": "delete", "index": 1}, "deletes"),
            ({"op": "set_value", "index": 3, "text": "42"},
             "fast_path_updates"),
            ({"op": "set_value", "index": 7, "text": "other words here"},
             "text_reencodes"),
        ],
    )
    def test_update_invalidates_the_memo(self, op_dict, counter):
        from repro.core.reference import build_reference_synopsis
        from repro.update import (
            IncrementalMaintainer,
            apply_update_tree,
            update_from_dict,
        )
        from repro.values.summary import SummaryConfig
        from repro.xmltree.columnar import freeze, ingest_string
        from repro.xmltree.parser import parse_string

        maintainer = IncrementalMaintainer(
            ingest_string(UPDATE_BASE, text_word_threshold=2), None,
            text_word_threshold=2,
        )
        twin = parse_string(UPDATE_BASE, text_word_threshold=2)
        engine = ServeEngine(maintainer=maintainer)

        async def ask_all(client):
            answers = []
            for text in UPDATE_PROBES:
                for body in (
                    {"query": text},
                    {"ast": twig_to_dict(parse_twig(text))},
                ):
                    for _ in range(2):
                        status, response = await client.estimate(body)
                        assert status == 200, response
                        answers.append(response["estimate"])
            return answers

        async def scenario(server, client):
            before = await ask_all(client)
            status, applied = await client.request(
                "POST", "/update", {"updates": [op_dict]}
            )
            assert status == 200, applied
            return before, await ask_all(client), await client.stats()

        before, after, stats = TestMemos()._serve(engine, scenario)
        assert stats["maintenance"]["updates_applied"] == 1
        assert stats["maintenance"][counter] == 1
        apply_update_tree(twin, update_from_dict(op_dict), 2)
        rebuilt = CompiledEstimator(
            build_reference_synopsis(freeze(twin), None, SummaryConfig())
        )
        expected = [
            rebuilt.estimate(parse_twig(text))
            for text in UPDATE_PROBES
            for _ in range(4)
        ]
        assert after == expected
        assert after != before
        # Each version answered its repeats from the memos.
        assert stats["memo"]["estimates"]["hits"] > 0
        assert stats["memo"]["requests"]["hits"] > 0


def _raw_request(method, path, body=b"", close=False):
    """One HTTP/1.1 request's bytes around a raw body."""
    head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n"
    if close:
        head += "Connection: close\r\n"
    return head.encode("ascii") + b"\r\n" + body


def _responses(received):
    """``(status, decoded body)`` per response in a raw byte stream."""
    import json
    import re

    out = []
    while received:
        head, _, rest = received.partition(b"\r\n\r\n")
        length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
        out.append((int(head.split()[1]), json.loads(rest[:length])))
        received = rest[length:]
    return out


def _estimate_request(text, close=False):
    import json

    body = json.dumps({"query": text}).encode()
    return _raw_request("POST", "/estimate", body, close)


class TestProtocolFraming:
    """Framing on the protocol front end: pipelining, half-close,
    backpressure and oversized heads."""

    def test_pipelined_requests_are_answered_in_order(self, synopsis):
        estimator = CompiledEstimator(synopsis)
        # The first estimate misses both memos and waits for the
        # coalescer; the requests behind it must not overtake it.
        received = _run_raw(
            synopsis,
            _estimate_request(PROBES[1])
            + _raw_request("GET", "/healthz")
            + _estimate_request(PROBES[4])
            + _estimate_request(PROBES[1], close=True),
        )
        assert _responses(received) == [
            (200, {"estimate": estimator.estimate(parse_twig(PROBES[1]))}),
            (200, {"status": "ok"}),
            (200, {"estimate": estimator.estimate(parse_twig(PROBES[4]))}),
            (200, {"estimate": estimator.estimate(parse_twig(PROBES[1]))}),
        ]

    def test_two_requests_in_one_write_get_two_responses(self, synopsis):
        received = _run_raw(
            synopsis,
            _raw_request("GET", "/healthz")
            + _raw_request("GET", "/nope", close=True),
        )
        assert [status for status, _ in _responses(received)] == [200, 404]

    @pytest.mark.parametrize("probe", [None, PROBES[2]])
    def test_half_closed_client_still_gets_its_response(self, synopsis, probe):
        # ``None`` asks /healthz; a probe's estimate suspends on the
        # coalescer after the client has already half-closed.
        if probe is None:
            request, expected = _raw_request("GET", "/healthz"), {"status": "ok"}
        else:
            request = _estimate_request(probe)
            expected = {"estimate": CompiledEstimator(synopsis).estimate(
                parse_twig(probe)
            )}

        async def main():
            async with SynopsisServer(ServeEngine(synopsis)) as server:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                try:
                    writer.write(request)
                    writer.write_eof()
                    return await asyncio.wait_for(reader.read(), timeout=5.0)
                finally:
                    writer.close()
                    await writer.wait_closed()

        assert _responses(asyncio.run(main())) == [(200, expected)]

    def test_client_that_never_reads_pauses_reading(self, synopsis):
        import socket

        count = 400
        # /stats answers are about 1 KB; each request carries 4 KB of
        # padding, so the client sends far more than the server answers.
        request = (
            b"GET /stats HTTP/1.1\r\nX-Pad: " + b"p" * 4096 + b"\r\n\r\n"
        )

        async def main():
            async with SynopsisServer(ServeEngine(synopsis)) as server:
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(
                    sock, (server.host, server.port)
                )
                reader, writer = await asyncio.open_connection(sock=sock)
                try:
                    while not server._connections:
                        await asyncio.sleep(0)
                    (connection,) = server._connections
                    transport = connection.transport
                    # Small kernel buffers on both ends, so the server's
                    # own write buffer is what fills up.
                    transport.get_extra_info("socket").setsockopt(
                        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
                    )
                    writer.write(request * count)
                    for _ in range(500):
                        await asyncio.sleep(0.01)
                        if not transport.is_reading():
                            break
                    await asyncio.sleep(0.2)
                    paused = not transport.is_reading()
                    buffered = transport.get_write_buffer_size()
                    high = transport.get_write_buffer_limits()[1]
                    unread = len(connection._buffer)
                    # Once the client reads, every request is answered.
                    received = b""
                    while received.count(b"HTTP/1.1 200 ") < count:
                        chunk = await asyncio.wait_for(reader.read(1 << 16), 5.0)
                        assert chunk
                        received += chunk
                    return paused, buffered, high, unread, received
                finally:
                    writer.transport.abort()

        paused, buffered, high, unread, received = asyncio.run(main())
        assert paused
        assert buffered <= high + 2048
        assert unread < len(request) * count // 2
        assert received.count(b"HTTP/1.1 ") == count

    def test_trickled_request_parses_its_head_once(self, synopsis, monkeypatch):
        import json
        from repro.serve import http

        parsed = []
        scanned = []
        parse_head = http._parse_head
        head_end = http._HEAD_END

        class CountingHeadEnd:
            def search(self, buffer, pos, endpos):
                scanned.append(min(endpos, len(buffer)) - pos)
                return head_end.search(buffer, pos, endpos)

        monkeypatch.setattr(
            http, "_parse_head", lambda head: parsed.append(head) or parse_head(head)
        )
        monkeypatch.setattr(http, "_HEAD_END", CountingHeadEnd())

        class Transport:
            def __init__(self):
                self.written = b""

            def write(self, data):
                self.written += data

            def pause_reading(self):
                pass

            def resume_reading(self):
                pass

            def close(self):
                pass

        body = json.dumps({"queries": [{"query": PROBES[0]}] * 20}).encode()
        head = (
            b"POST /batch HTTP/1.1\r\nX-Pad: " + b"p" * (60 * 1024)
            + b"\r\nContent-Length: %d\r\n\r\n" % len(body)
        )

        async def main():
            server = SynopsisServer(ServeEngine(synopsis))
            connection = http._HttpProtocol(server)
            transport = Transport()
            connection.connection_made(transport)
            # One byte per receive: every byte of the head and of the
            # body arrives in its own data_received call.
            for index in range(len(head + body)):
                connection.data_received((head + body)[index : index + 1])
            return transport.written

        (status, response), = _responses(asyncio.run(main()))
        estimate = CompiledEstimator(synopsis).estimate(parse_twig(PROBES[0]))
        assert (status, response) == (200, {"estimates": [estimate] * 20})
        assert parsed == [head]
        # Each head byte is searched for the end of the head about once.
        assert sum(scanned) <= 3 * len(head)

    @pytest.mark.parametrize("terminated", [True, False])
    def test_header_line_over_64_kib_gets_one_400(self, synopsis, terminated):
        line = b"X-Pad: " + b"a" * (64 * 1024)
        received = _run_raw(
            synopsis,
            b"GET /healthz HTTP/1.1\r\n" + line
            + (b"\r\n\r\n" if terminated else b""),
        )
        assert received.count(b"HTTP/1.1 ") == 1
        assert received.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in received


class TestBoundedInputs:
    @pytest.mark.parametrize("path", ["/estimate", "/batch", "/update"])
    def test_deeply_nested_json_is_400(self, synopsis, path):
        for body in (
            b"[" * 5000 + b"]" * 5000,
            b'{"queries": ' + b"[" * 5000 + b"]" * 5000 + b"}",
        ):
            (status, response), = _responses(
                _run_raw(synopsis, _raw_request("POST", path, body, close=True))
            )
            assert status == 400
            assert response["error"].startswith("bad JSON body")

    def test_deeply_nested_xpath_is_400(self, synopsis):
        (status, response), = _responses(
            _run_raw(
                synopsis,
                _estimate_request(
                    "//a" + "[./b" * 500 + "]" * 500, close=True
                ),
            )
        )
        assert status == 400
        assert "deeper than" in response["error"]

    def test_batch_over_the_cap_is_413_before_parsing(self, synopsis):
        from repro.serve.http import MAX_BATCH_QUERIES

        async def scenario(server, client):
            over = await client.request(
                "POST",
                "/batch",
                {"queries": [{"query": "///[[["}] * (MAX_BATCH_QUERIES + 1)},
            )
            at_cap = await client.request(
                "POST",
                "/batch",
                {"queries": [{"query": PROBES[0]}] * MAX_BATCH_QUERIES},
            )
            return over, at_cap, await client.stats()

        over, at_cap, stats = TestMemos()._serve(ServeEngine(synopsis), scenario)
        assert over[0] == 413
        assert stats["errors"] == 0  # no query of the refused batch was parsed
        assert at_cap[0] == 200
        assert len(at_cap[1]["estimates"]) == MAX_BATCH_QUERIES
