"""numpy is loaded on first use: the exact commands never import it.

Only the float helpers (`exact.to_numpy`, `matrix_exp_numeric`,
`numeric_rank`, the float weight search, the coadjoint flow and the -1
probe) and the groupoid index tables import numpy, inside the functions that
use it.  A fresh interpreter shows which commands load it; a `symtable` scan
shows that no function can read `np` before it is bound.
"""
import json
import os
import subprocess
import symtable
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liegrpd"

CHILD = r"""
import contextlib, io, json, sys
import liegrpd.cli as cli

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return [argv, code, "numpy" in sys.modules]

results = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps(results))
"""

EXACT = [
    ["lie", "census", "--name", "axb"],
    ["lie", "exptest", "--name", "axb"],
    ["lie", "roots", "--name", "axb"],
    ["lie", "stratify", "--name", "filiform4"],
    ["cascade", "--table", "--max-rank", "4"],
]
NUMERIC = [
    ["lie", "probe-minus-one", "--name", "axb"],
    ["grpd", "pullback-verify", "--in", "corpus/s3_natural.json"],
]


def test_exact_commands_never_load_numpy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(EXACT + NUMERIC)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    for argv, code, loaded in results[:len(EXACT)]:
        assert code == 0, argv
        assert not loaded, f"{argv} loaded numpy"
    for argv, code, loaded in results[len(EXACT):]:
        assert code == 0, argv
        assert loaded, f"{argv} ran without numpy"


def _np_readers(table, path=()):
    """Qualified names of the function scopes under `table` that read `np`
    as a global name."""
    for child in table.get_children():
        name = path + (child.get_name(),)
        if child.get_type() == "function":
            try:
                if child.lookup("np").is_global():
                    yield ".".join(name)
            except KeyError:
                pass
        yield from _np_readers(child, name)


def test_numpy_is_imported_inside_the_functions_that_use_it():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    for path in modules:
        top = symtable.symtable(path.read_text(), str(path), "exec")
        imported = [s.get_name() for s in top.get_symbols() if s.is_imported()]
        assert "np" not in imported and "numpy" not in imported, \
            f"{path.name} imports numpy at module level"
        readers = list(_np_readers(top))
        assert not readers, f"{path.name}: {readers} read np as a global name"
