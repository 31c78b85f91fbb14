"""numpy and the package's own modules are loaded on first use.

Only the float helpers (`exact.to_numpy` and the float weight search) and
the groupoid index tables import numpy, inside the functions that use it;
the -1 probe is exact.  `import liegrpd.cli` loads only `cli` and
the kernel `exact`; each command imports the rest of its own side.  A fresh
interpreter shows which commands load what; a `symtable` scan shows that no
function can read `np` before it is bound.
"""
import importlib
import json
import os
import subprocess
import symtable
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liegrpd"

CHILD = r"""
import contextlib, io, json, sys
import liegrpd.cli as cli

def modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "liegrpd")

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return [argv, code, "numpy" in sys.modules, modules()]

imported = modules()
results = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([imported, results]))
"""

EXACT = [
    ["lie", "census", "--name", "axb"],
    ["lie", "exptest", "--name", "axb"],
    ["lie", "roots", "--name", "axb"],
    ["lie", "stratify", "--name", "filiform4"],
    ["cascade", "--table", "--max-rank", "4"],
    ["lie", "probe-minus-one", "--name", "axb"],
]
NUMERIC = [
    ["grpd", "pullback-verify", "--in", "corpus/s3_natural.json"],
]
KERNEL = ["liegrpd", "liegrpd.cli", "liegrpd.exact"]
GROUPOID_SIDE = {"liegrpd.groupoids", "liegrpd.groupoid_ids"}
LIE_SIDE = {f"liegrpd.{m}" for m in
            ("lie", "weights", "coadjoint", "strata", "rootsystems", "catalog")}


def _child(argvs):
    """Run `argvs` in turn in one fresh interpreter.  Returns the liegrpd
    modules loaded by `import liegrpd.cli`, and after each run
    [argv, exit code, numpy loaded, liegrpd modules loaded]."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(argvs)],
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    imported, results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [r[1] for r in results] == [0] * len(argvs), results
    return imported, results


def test_exact_commands_never_load_numpy():
    _, results = _child(EXACT + NUMERIC)
    for argv, _, loaded, _ in results[:len(EXACT)]:
        assert not loaded, f"{argv} loaded numpy"
    for argv, _, loaded, _ in results[len(EXACT):]:
        assert loaded, f"{argv} ran without numpy"


def test_each_command_loads_only_its_own_side():
    # a fresh interpreter per side: a module once loaded stays in sys.modules
    lie = [argv for argv in EXACT + NUMERIC if argv[0] == "lie"]
    imported, results = _child([["cascade", "--table", "--max-rank", "4"]] + lie)
    assert imported == KERNEL
    assert results[0][3] == sorted(KERNEL + ["liegrpd.rootsystems"])
    for argv, _, _, loaded in results[1:]:
        assert not GROUPOID_SIDE & set(loaded), f"{argv} loaded {loaded}"
    imported, [(argv, _, _, loaded)] = _child(
        [["grpd", "pullback-verify", "--in", "corpus/s3_natural.json"]])
    assert imported == KERNEL
    assert not LIE_SIDE & set(loaded), f"{argv} loaded {loaded}"


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


def test_the_package_root_resolves_every_name_from_its_submodule():
    import liegrpd

    exports = liegrpd._EXPORTS
    assert sorted(liegrpd.__all__) == sorted(n for names in exports.values() for n in names)
    for module, names in exports.items():
        sub = importlib.import_module(f"liegrpd.{module}")
        assert getattr(liegrpd, module) is sub
        for name in names:
            assert getattr(liegrpd, name) is getattr(sub, name), name
    assert set(liegrpd.__all__) <= set(dir(liegrpd))
    with pytest.raises(AttributeError, match="no attribute 'LieAlgbra'"):
        liegrpd.LieAlgbra
