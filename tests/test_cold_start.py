"""``import repro`` and the CLI start without loading the check harness
or ``multiprocessing``."""

import os
import subprocess
import sys

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
        "import sys, repro.__main__, repro.serve, repro.collection; "
        "print('multiprocessing' in sys.modules)"
    )
    assert out.strip() == "False"
