"""Running ``python -m godspell`` as a user does, and the facts of a run."""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
import tomllib
from dataclasses import dataclass
from pathlib import Path

LAUNCHER = Path(__file__).with_name("launcher.py")


@dataclass
class Outcome:
    argv: list[str]
    code: int
    wall_s: float
    max_rss_kb: int


class Subprocesses:
    """Each command in a fresh interpreter, started by ``launcher.py``.

    The launcher times each command from spawn to reap, reports the child's
    own max RSS, and kills a command that outlives the deadline, so a hung
    run still ends. ``close`` stops the launcher.
    """

    def __init__(self, root: Path, log_path: Path, deadline: float):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.log_path = log_path
        self.deadline = deadline
        self._launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def run(self, argv: list[str]) -> Outcome:
        return self.exec([sys.executable, "-m", "godspell", *argv])

    def exec(self, cmd: list[str]) -> Outcome:
        request = {"cmd": cmd, "log": str(self.log_path),
                   "timeout": max(1.0, self.deadline - time.monotonic())}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        return Outcome(cmd, reply["code"], reply["wall_s"], reply["max_rss_kb"])

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait(timeout=60)
        self._launcher.stdout.close()


class InProcess:
    """Each command through ``godspell.cli.main`` in this interpreter, with
    its standard output and error kept out of the benchmark's own."""

    def __init__(self, cli, log_path: Path):
        self.cli = cli
        self.log_path = log_path

    def run(self, argv: list[str]) -> Outcome:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = self.cli.main(list(argv))
            wall = time.perf_counter() - start
        with self.log_path.open("a", encoding="utf-8") as log:
            log.write(sink.getvalue())
        return Outcome(list(argv), code, wall, 0)


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_facts(root: Path) -> dict:
    """Versions, machine size and code size, recorded with every result."""
    import numpy
    import scipy

    with (root / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in (root / "src").rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "src_lines": src_lines,
        "runtime_dependencies": len(project.get("dependencies", [])),
    }
