"""Repository hygiene: the bugfix-sweep regressions, pinned.

Three classes of rot this PR cleaned out stay out:

* **Tracked bytecode** — 84 ``__pycache__/*.pyc`` files were committed
  alongside the sources; interpreter-specific, diff-noisy, and a stale
  copy shadows nothing but confuses everything.  ``git ls-files`` is the
  oracle (the CI lint job runs the same check shell-side).
* **Example lifecycle** — every example that opens a ``Session`` must
  scope it in a ``with`` block; ``segmented_portfolio.py`` used to leak
  its worker pool on any exception before ``close()``.
* **Process leaks in practice** — an example run as a real subprocess
  exits cleanly and leaves no orphaned worker process scavenging CPU
  after the parent is gone.
"""

import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXAMPLES_DIR = os.path.join(REPO_ROOT, "examples")


def _git_ls_files():
    try:
        proc = subprocess.run(
            ["git", "ls-files"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        pytest.skip("git not available")
    if proc.returncode != 0:
        pytest.skip("not a git checkout (sdist/installed tree)")
    return proc.stdout.splitlines()


class TestNoTrackedBytecode:

    def test_no_pyc_or_pycache_in_the_index(self):
        offenders = [path for path in _git_ls_files()
                     if path.endswith(".pyc") or "__pycache__" in path]
        assert offenders == [], (
            "compiled bytecode is tracked; `git rm --cached` it "
            f"(.gitignore already covers it): {offenders[:10]}")

    def test_gitignore_covers_the_usual_suspects(self):
        with open(os.path.join(REPO_ROOT, ".gitignore")) as handle:
            ignored = handle.read()
        for pattern in ("__pycache__/", "*.pyc", "BENCH_*.json"):
            assert pattern in ignored


class TestExampleLifecycle:

    def _sources(self):
        for name in sorted(os.listdir(EXAMPLES_DIR)):
            if name.endswith(".py"):
                with open(os.path.join(EXAMPLES_DIR, name)) as handle:
                    yield name, handle.read()

    def test_every_session_example_uses_a_with_block(self):
        """Textual guard: any example that opens a session scopes it.
        (That the ``with`` actually reaps workers and segments is the
        subprocess test below; this one keeps a future example from
        reintroducing the bare-``Session()`` leak pattern.)"""
        offenders = []
        for name, source in self._sources():
            opens_session = "Session(" in source or \
                ".build_session(" in source
            if opens_session and "with " not in source:
                offenders.append(name)
        assert offenders == []
        # The sweep's poster child really is covered, not vacuously.
        assert any("with" in source and "Session" in source
                   for name, source in self._sources()
                   if name == "segmented_portfolio.py")

    @pytest.mark.slow
    def test_example_subprocess_leaves_no_workers(self):
        """Run the once-leaky example for real under the process backend:
        clean exit, no orphaned worker processes."""
        script = os.path.join(EXAMPLES_DIR, "segmented_portfolio.py")
        env = dict(os.environ,
                   MCDBR_BACKEND="process", MCDBR_N_JOBS="2",
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, script], env=env, capture_output=True,
            text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        orphans = _processes_running(script)
        assert orphans == [], (
            f"worker processes outlived the example: {orphans}")


def _processes_running(script: str) -> list[int]:
    """PIDs (not ours) whose cmdline mentions ``script`` — /proc scan,
    no psutil dependency."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                cmdline = handle.read().decode(errors="replace")
        except OSError:
            continue  # raced an exit, or not ours to read
        if script in cmdline:
            found.append(int(entry))
    return found
