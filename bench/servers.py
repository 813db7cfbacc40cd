"""The servers under test, started the way an operator starts them.

``python -m repro serve|fabric`` with default tunables on a unix
socket, in a child process of its own session so the whole tree (the
fabric's spawned workers included) can be accounted from ``/proc`` and
is certain to be gone when the run ends.  Stdout and stderr go to a log
in the run's scratch directory; the log is shown when something fails.
"""

from __future__ import annotations

import asyncio
import ctypes
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from bench import host
from bench.loadgen import request

__all__ = ["Server", "ServerError", "wait_for_pong", "SRC_DIR",
           "MODEL_NAME"]

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
MODEL_NAME = "fleet"


class ServerError(RuntimeError):
    """A server under test did not start, answer or stop."""


def _short(path: Path) -> str:
    """``path`` relative to the working directory when that is shorter:
    unix-socket addresses are capped near 100 bytes and a checkout can
    sit under a long prefix."""
    relative = os.path.relpath(path)
    return relative if len(relative) < len(str(path)) else str(path)


async def wait_for_pong(socket_path: str,
                        exit_code: Callable[[], Optional[int]],
                        timeout: float = 60.0) -> None:
    """Ping ``socket_path`` until it answers ``pong``.  ``exit_code``
    returns the server process's exit code once it has one."""
    deadline = time.perf_counter() + timeout
    while True:
        code = exit_code()
        if code is not None:
            raise ServerError(f"exited with code {code} during start-up")
        try:
            reply = await request(socket_path, {"op": "ping"}, 5.0)
            if reply.get("kind") == "pong":
                return
        except (OSError, asyncio.TimeoutError):
            pass
        if time.perf_counter() > deadline:
            raise ServerError(f"not ready within {timeout} s")
        await asyncio.sleep(0.01)


def _adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants
    (``PR_SET_CHILD_SUBREAPER``), so a killed fabric's workers can be
    waited for here instead of lingering as zombies under init."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: kill() falls back to polling /proc


class Server:
    """One ``repro serve`` or ``repro fabric`` process tree."""

    def __init__(self, kind: str, registry: Path, work: Path,
                 workers: int = 2) -> None:
        if kind not in ("serve", "fabric"):
            raise ValueError(f"unknown server kind {kind!r}")
        self.kind = kind
        self.socket = _short(work / f"{kind}.sock")
        self.log_path = work / f"{kind}.log"
        self.run_dir = work / "fabric-run"
        self.argv = [
            sys.executable, "-m", "repro", kind,
            "--registry", _short(registry), "--name", MODEL_NAME,
            "--socket", self.socket,
        ]
        if kind == "fabric":
            self.argv += ["--run-dir", _short(self.run_dir),
                          "--workers", str(workers)]
        self.process: Optional[subprocess.Popen] = None
        self.launched_at = 0.0

    # ------------------------------------------------------------------
    async def start(self, timeout: float = 60.0) -> float:
        """Launch and wait for the first ``pong``; returns the seconds
        from launch to that pong."""
        if os.path.exists(self.socket):
            os.unlink(self.socket)
        _adopt_orphans()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.launched_at = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                self.argv, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, env=env, start_new_session=True)
        try:
            await wait_for_pong(self.socket, self.process.poll, timeout)
        except ServerError as exc:
            self.kill()
            raise ServerError(
                f"repro {self.kind}: {exc}\n{self.log()}") from None
        return time.perf_counter() - self.launched_at

    async def control(self, op: str) -> Dict:
        return await request(self.socket, {"op": op})

    # ------------------------------------------------------------------
    def cpu(self) -> Tuple[float, float]:
        """``(router or service, its children)`` CPU seconds so far."""
        return host.tree_cpu_seconds(self.process.pid)

    def peak_rss_mb(self) -> float:
        return host.tree_peak_rss_mb(host.process_tree(self.process.pid))

    def log(self) -> str:
        try:
            text = self.log_path.read_text(errors="replace")
        except OSError:
            return "(no server log)"
        return f"--- {self.log_path.name} ---\n{text[-4000:]}"

    # ------------------------------------------------------------------
    def stop(self, grace: float = 15.0) -> None:
        """SIGTERM (the graceful drain an operator would trigger), then
        make sure nothing of the tree survives."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(grace)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL the server's whole process group and wait for every
        member to end."""
        if self.process is None:
            return
        group = self.process.pid
        orphans = [pid for pid in host.group_members(group) if pid != group]
        try:
            os.killpg(group, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process = None
        # The fabric's workers were its children; with their parent
        # gone they are ours to reap (see _adopt_orphans).
        for pid in orphans:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass  # not adopted: init reaps it
        deadline = time.monotonic() + 5.0
        while host.group_members(group) and time.monotonic() < deadline:
            time.sleep(0.01)
