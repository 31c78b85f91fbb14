import os
import sys


def pytest_configure(config):
    """Let subprocesses started by tests import the package from this checkout,
    as `pythonpath` in pyproject.toml does for the test process itself."""
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print the acceptance checklist (one line per criterion) after the run."""
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None)
    if not results:
        return
    terminalreporter.section("acceptance checklist")
    for num, desc, ok in sorted(results):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{verdict}] {num:>2}. {desc}")
