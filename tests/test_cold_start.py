"""``import repro`` and the CLI start without loading the check harness
or ``multiprocessing``, and each entry point loads only the modules its
command runs (the module budgets below)."""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def test_import_repro_does_not_load_check():
    out = _run("import sys, repro; print('repro.check' in sys.modules)")
    assert out.strip() == "False"


def test_cli_help_does_not_load_check():
    code = (
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
        "print('LOADED' if 'repro.check' in sys.modules else 'NOT LOADED')\n"
    )
    assert _run(code).strip().endswith("NOT LOADED")


def test_check_names_still_importable_from_package():
    out = _run(
        "from repro import audit_synopsis, run_differential_check\n"
        "import repro.check\n"
        "print(audit_synopsis is repro.check.audit_synopsis,"
        " run_differential_check is repro.check.run_differential_check)"
    )
    assert out.strip() == "True True"


def test_cli_serve_and_collection_do_not_import_multiprocessing():
    """Only a parallel collection build imports ``multiprocessing``."""
    out = _run(
        "import sys, repro.__main__\n"
        "from repro.serve import *\n"
        "from repro.collection import *\n"
        "print('multiprocessing' in sys.modules)"
    )
    assert out.strip() == "False"


# -- module budgets -----------------------------------------------------------
#
# Each entry point runs its command in a fresh interpreter and reports
# the ``repro`` modules it loaded.  Without a bytecode cache every one of
# them is compiled at start, so a module an entry point starts importing
# shows up in its cold start (docs/DESIGN.md D7).

XML = (
    "<library><book year='1999'><title>Data on the Web</title>"
    "<price>39</price><abstract>semistructured data and XML query "
    "languages for the web of documents</abstract></book>"
    "<book year='2006'><title>XCluster synopses</title><price>65</price>"
    "</book></library>"
)


def _loaded(code):
    """The ``repro`` modules loaded after running ``code``."""
    out = _run(
        code + "\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'repro']))"
    )
    return json.loads(out.strip().splitlines()[-1])


def _under(modules, prefixes):
    return sorted(
        module
        for module in modules
        for prefix in prefixes
        if module == prefix or module.startswith(prefix + ".")
    )


@pytest.fixture(scope="module")
def document(tmp_path_factory):
    """``(doc.xml, doc.snap)``: the document and its saved snapshot."""
    from repro.core import build_xcluster, save_snapshot
    from repro.xmltree import ingest_string

    directory = tmp_path_factory.mktemp("cold")
    xml = directory / "doc.xml"
    xml.write_text(XML, encoding="utf-8")
    snap = directory / "doc.snap"
    save_snapshot(build_xcluster(ingest_string(XML), 64, 64), str(snap))
    return xml, snap


def test_help_loads_no_library_layer():
    loaded = _loaded(
        "import runpy, sys\n"
        "sys.argv = ['repro', '--help']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit:\n"
        "    pass\n"
    )
    assert "repro.errors" in loaded
    assert _under(loaded, ["repro.core", "repro.values", "repro.xmltree",
                           "repro.query"]) == []


def test_build_path_loads_only_the_build(document, tmp_path):
    xml, _ = document
    snap = tmp_path / "built.snap"
    loaded = _loaded(
        "import sys\n"
        "from repro.core import build_xcluster, save_snapshot\n"
        "from repro.xmltree import ingest_file\n"
        f"doc = ingest_file({str(xml)!r})\n"
        f"save_snapshot(build_xcluster(doc, 64, 64), {str(snap)!r})\n"
    )
    assert "repro.core.builder" in loaded and snap.exists()
    assert _under(loaded, [
        "repro.core.estimation", "repro.core.serialization",
        "repro.query.xpath", "repro.query.ast", "repro.query.jsonast",
        "repro.query.evaluator", "repro.query.interval",
        "repro.xmltree.tree", "repro.xmltree.parser", "repro.xmltree.stats",
        "repro.update", "repro.serve", "repro.check",
    ]) == []


def test_snapshot_daemon_loads_no_build_ingest_or_update(document):
    """``repro serve SNAPSHOT`` through one estimate and a shutdown."""
    _, snap = document
    loaded = _loaded(
        "import http.client, json, socket, sys, threading, time\n"
        "from repro.__main__ import main\n"
        "with socket.socket() as probe:\n"
        "    probe.bind(('127.0.0.1', 0))\n"
        "    port = probe.getsockname()[1]\n"
        f"argv = ['serve', {str(snap)!r}, '--port', str(port)]\n"
        "daemon = threading.Thread(target=main, args=(argv,))\n"
        "daemon.start()\n"
        "for _ in range(400):\n"
        "    try:\n"
        "        conn = http.client.HTTPConnection('127.0.0.1', port, timeout=10)\n"
        "        conn.connect()\n"
        "        break\n"
        "    except OSError:\n"
        "        time.sleep(0.025)\n"
        "for path, body in (('/estimate', {'query': '//book[./price >= 50]/title'}),\n"
        "                   ('/shutdown', {})):\n"
        "    conn.request('POST', path, json.dumps(body))\n"
        "    reply = conn.getresponse()\n"
        "    assert reply.status == 200, reply.read()\n"
        "    reply.read()\n"
        "daemon.join(30)\n"
        "assert not daemon.is_alive()\n"
    )
    assert {"repro.serve.http", "repro.core.snapshot"} <= set(loaded)
    assert _under(loaded, [
        "repro.update", "repro.core.builder", "repro.core.pool",
        "repro.core.scoring", "repro.core.reference", "repro.xmltree.events",
        "repro.xmltree.columnar", "repro.xmltree.parser", "repro.xmltree.tree",
        "repro.core.serialization", "repro.values.kernels",
    ]) == []
