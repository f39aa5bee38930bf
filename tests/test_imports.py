"""What each entry point loads.

Importing the package loads no submodule, ``hh`` and ``--help`` run
without numpy, and no command but ``adversary`` and ``no-sparse-fd`` loads
``dataclasses``; each case runs in a fresh interpreter, since this one has
long since loaded everything.
"""
import json
import subprocess
import sys

import pytest

import fdsketch


def _fresh(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; the JSON of its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# prints what the interpreter has loaded, and the exit code ``rc``
_REPORT = (
    "print(json.dumps({'rc': rc, 'numpy': 'numpy' in sys.modules, 'fdsketch': "
    "sorted(m for m in sys.modules if m.startswith('fdsketch.')), "
    "'dataclasses': 'dataclasses' in sys.modules}))"
)


def test_importing_the_package_loads_no_submodule():
    loaded = _fresh(f"import json, sys\nimport fdsketch\nrc = 0\n{_REPORT}")
    assert loaded == {"rc": 0, "numpy": False, "fdsketch": [], "dataclasses": False}


def _cli_loads(argv: list[str]) -> dict:
    """What a fresh interpreter has loaded after ``cli.main(argv)``."""
    return _fresh(
        "import contextlib, io, json, sys\n"
        "from fdsketch.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        f"        rc = main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        rc = exc.code\n"
        + _REPORT
    )


def test_hh_and_help_run_without_numpy(tmp_path):
    stream = tmp_path / "items.txt"
    stream.write_text("".join(f"{i % 7}\n" for i in range(1000)))
    for argv in (
        ["hh", "--input", str(stream), "--ell", "4"],
        ["hh", "--input", str(stream), "--ell", "4", "--k", "2", "--json"],
        ["hh", "--input", str(stream), "--k", "2", "--eps", "0.5"],
        ["--help"],
        ["hh", "--help"],
    ):
        loaded = _cli_loads(argv)
        assert loaded["rc"] == 0, argv
        assert loaded["numpy"] is False, argv
        assert "fdsketch.sketch" not in loaded["fdsketch"], argv


@pytest.mark.filterwarnings("ignore:sketch rows")
def test_no_command_of_the_sketch_pipeline_loads_dataclasses(tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("".join(f"{i % 5}.5,{i % 3}.0,-{i % 7}.25\n" for i in range(40)))
    items = tmp_path / "items.txt"
    items.write_text("".join(f"{i % 7}\n" for i in range(1000)))
    one, two, merged = (str(tmp_path / f"{name}.fdsk") for name in ("one", "two", "merged"))
    sketch = ["sketch", "--input", str(rows), "--k", "1", "--eps", "0.5"]
    for argv in (
        [*sketch, "--out", one],
        [*sketch, "--c", "2", "--out", two],
        ["merge", one, two, "--out", merged],
        ["verify", "--input", str(rows), "--sketch", one],
        ["hh", "--input", str(items), "--ell", "4"],
        ["hh", "--input", str(items), "--k", "2", "--eps", "0.5"],
        ["--help"],
    ):
        loaded = _cli_loads(argv)
        assert loaded["rc"] == 0, argv
        assert loaded["dataclasses"] is False, argv


def test_module_entry_point_help_imports_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "fdsketch", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert "fdsketch.cli" in imported
    assert "numpy" not in imported
    assert "dataclasses" not in imported


def test_matrix_commands_load_what_they_run(tmp_path):
    loaded = _cli_loads(["no-sparse-fd", "--ell", "3", "--c", "1.0"])
    assert loaded["rc"] == 0
    assert "fdsketch.counterexamples" in loaded["fdsketch"]
    assert "fdsketch.io" not in loaded["fdsketch"]


def test_every_public_name_resolves():
    for name in fdsketch.__all__:
        assert getattr(fdsketch, name) is not None, name
    assert set(fdsketch.__all__) <= set(dir(fdsketch))
    namespace: dict = {}
    exec("from fdsketch import *", namespace)
    assert set(fdsketch.__all__) <= set(namespace)


def test_the_audit_is_one_function_object_wherever_it_is_bound():
    import fdsketch.bounds as fb
    import fdsketch.cli as fcli
    import fdsketch.sketch as fsk
    import fdsketch.verify as fv

    assert fdsketch.error_report is fb.error_report
    assert fsk.error_report is fb.error_report
    assert fcli.error_report is fb.error_report
    assert fv.error_report is fb.error_report
    assert fsk.ErrorReport is fb.ErrorReport
    assert fsk.sketch_rows_for is fb.sketch_rows_for
