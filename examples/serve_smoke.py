"""End-to-end smoke of the estimation daemon, over a real subprocess.

This is both the serving quickstart and the CI smoke driver: it builds
a synopsis, saves it as a binary snapshot, launches ``python -m repro
serve`` as a child process, drives it with a mixed XPath/JSON-AST
workload over plain HTTP (stdlib ``urllib``, no client library), checks
every estimate bit-for-bit against an in-process estimator, sends two
pipelined ``/estimate`` requests in one write on a raw keep-alive
socket and checks both answers arrive in order, scrapes ``/stats``, and
shuts the daemon down cleanly.

Run with::

    python examples/serve_smoke.py [scale]

Exit code 0 means: daemon served the whole workload with exact parity
and exited cleanly on ``POST /shutdown``.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import urllib.request

from repro import build_xcluster, parse_twig
from repro.core.estimation import CompiledEstimator
from repro.core.snapshot import save_snapshot
from repro.datasets import generate_xmark
from repro.query.jsonast import twig_to_dict
from repro.workload.generator import generate_workload


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _pipelined_estimates(base_url, queries):
    """Estimates for ``queries``, all sent in one write on one raw
    keep-alive socket, read back in arrival order."""
    host, port = base_url.split("//", 1)[1].rsplit(":", 1)
    requests = b""
    for query in queries:
        body = json.dumps({"query": query.to_xpath()}).encode("utf-8")
        requests += (
            f"POST /estimate HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii") + body
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(requests)
        reader = sock.makefile("rb")
        estimates = []
        for _ in queries:
            status_line = reader.readline()
            if not status_line:
                raise ConnectionError("daemon closed the connection early")
            status = int(status_line.split()[1])
            length = 0
            while True:
                line = reader.readline()
                if line == b"\r\n":
                    break
                if not line:
                    raise ConnectionError("daemon closed mid-response head")
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            data = reader.read(length)
            if len(data) < length:
                raise ConnectionError("daemon closed mid-response body")
            body = json.loads(data)
            estimates.append(body["estimate"] if status == 200 else body)
        return estimates


def main() -> int:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.1
    dataset = generate_xmark(scale, seed=7)
    synopsis = build_xcluster(
        dataset.tree, 16384, 65536, value_paths=dataset.value_paths
    )
    workload = generate_workload(dataset, queries_per_class=10, seed=7)
    queries = [wq.query for wq in workload.queries]
    estimator = CompiledEstimator(synopsis)

    with tempfile.TemporaryDirectory() as tmpdir:
        snapshot_path = os.path.join(tmpdir, "synopsis.snap")
        save_snapshot(synopsis, snapshot_path)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", snapshot_path,
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            # The daemon prints its bound address once ready.
            base_url = None
            for line in daemon.stdout:
                line = line.strip()
                print(f"[daemon] {line}")
                if "serving on " in line:
                    base_url = line.split("serving on ", 1)[1]
                    break
            if base_url is None:
                print("daemon exited before announcing its address")
                return 1

            drift = 0
            # Two pipelined requests in one write: the daemon must answer
            # both, in order, while the first (a fresh plan) waits on the
            # coalescer.
            pair = [queries[0], queries[1]]
            pipelined = _pipelined_estimates(base_url, pair)
            expected_pair = [estimator.estimate(query) for query in pair]
            if pipelined != expected_pair:
                drift += 1
                print(f"DRIFT: pipelined {pipelined!r}, expected {expected_pair!r}")
            else:
                print(f"pipelined pair answered in order: {pipelined!r}")

            for index, query in enumerate(queries):
                # Alternate the two wire formats.
                if index % 2:
                    payload = {"ast": twig_to_dict(query)}
                else:
                    payload = {"query": query.to_xpath()}
                body = _post(f"{base_url}/estimate", payload)
                expected = estimator.estimate(query)
                if body["estimate"] != expected:
                    drift += 1
                    print(
                        f"DRIFT: {query.to_xpath()} -> {body['estimate']!r}, "
                        f"expected {expected!r}"
                    )

            with urllib.request.urlopen(
                f"{base_url}/stats", timeout=10
            ) as response:
                stats = json.loads(response.read().decode("utf-8"))
            print(
                f"served {stats['requests_total']} requests, "
                f"p50 {stats['latency']['p50_ms']:.2f}ms / "
                f"p99 {stats['latency']['p99_ms']:.2f}ms, "
                f"plan cache hit rate "
                f"{stats['estimator']['plan_cache_hit_rate']:.2f}"
            )

            _post(f"{base_url}/shutdown", {})
            exit_code = daemon.wait(timeout=15)
            print(f"daemon exited with code {exit_code}")

            if drift:
                print(f"FAIL: {drift}/{len(queries)} estimates diverged")
                return 1
            if exit_code != 0:
                print("FAIL: daemon did not exit cleanly")
                return 1
            if stats["errors"]:
                print(f"FAIL: daemon recorded {stats['errors']} errors")
                return 1
            print(
                f"OK: {len(queries)} queries, exact parity, clean shutdown"
            )
            return 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()


if __name__ == "__main__":
    sys.exit(main())
