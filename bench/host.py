"""Host calibration and ``/proc`` accounting of the system under test.

The calibration kernels are fixed work, so their times say how fast
this host was while a workload ran; they are recorded beside every
result so numbers from different hosts (or different minutes on a
drifting one) can be normalised.  CPU and memory of the servers are
read from ``/proc`` — from outside, with no help from the program.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

__all__ = ["calibrate", "host_info", "process_tree", "group_members",
           "tree_cpu_seconds", "cpu_seconds", "tree_peak_rss_mb",
           "self_peak_rss_mb"]

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_CALIB_REPEATS = 9


def _best_ms(fn) -> float:
    best = float("inf")
    for _ in range(_CALIB_REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1e3 * best


def _numpy_kernel() -> None:
    a = np.full((24, 64, 64), 0.5)
    dist = np.full((24, 8, 64), 0.25)
    for _ in range(12):
        dist = np.einsum("asc,acx->asx", dist, a)
        dist /= dist.sum()


def _python_kernel() -> None:
    total = 0
    table = {}
    for i in range(60_000):
        table[i & 255] = total
        total += i * 3 % 7
    if total < 0:  # keep the loop from being optimised away
        raise AssertionError


_JSON_DOC = {"op": "sample", "vm": "vm000", "id": 1,
             "values": [50.0 + 0.125 * i for i in range(13)]}


def _json_kernel() -> None:
    for _ in range(1500):
        json.loads(json.dumps(_JSON_DOC, sort_keys=True))


def calibrate() -> Dict[str, float]:
    """Best-of-nine wall time of three fixed kernels, milliseconds.

    The stacked einsum is the scorer's hot contraction, the Python loop
    is interpreter speed, the JSON round trip is the wire format.
    """
    return {
        "calib_numpy_ms": _best_ms(_numpy_kernel),
        "calib_python_ms": _best_ms(_python_kernel),
        "calib_json_ms": _best_ms(_json_kernel),
    }


def host_info() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count() or 1,
        "load1": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# /proc
# ----------------------------------------------------------------------
def _stat_fields(pid: int) -> List[str]:
    """``/proc/<pid>/stat`` fields after the command name."""
    raw = Path(f"/proc/{pid}/stat").read_text()
    # The command may hold spaces and parentheses; fields start after
    # the last ')'.  Index 0 here is field 3 (state) of proc(5).
    return raw[raw.rindex(")") + 2:].split()


def _all_stat_fields() -> Iterator[Tuple[int, List[str]]]:
    """``(pid, stat fields)`` of every process in ``/proc``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            yield int(entry), _stat_fields(int(entry))
        except (OSError, ValueError):
            continue  # exited while we were scanning


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant."""
    children: Dict[int, List[int]] = {}
    for pid, fields in _all_stat_fields():
        children.setdefault(int(fields[1]), []).append(pid)
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def group_members(pgid: int) -> List[int]:
    """Live (non-zombie) processes of a process group."""
    return [pid for pid, fields in _all_stat_fields()
            if fields[0] != "Z" and int(fields[2]) == pgid]


def cpu_seconds(pid: int, with_reaped_children: bool = False) -> float:
    """User + system CPU seconds of one process (0 if it is gone)."""
    try:
        fields = _stat_fields(pid)
    except OSError:
        return 0.0
    ticks = int(fields[11]) + int(fields[12])
    if with_reaped_children:
        ticks += int(fields[13]) + int(fields[14])
    return ticks / _CLK_TCK


def tree_cpu_seconds(root: int) -> Tuple[float, float]:
    """``(root, descendants)`` CPU seconds.  Children the root already
    reaped are counted with the descendants."""
    own = cpu_seconds(root)
    rest = cpu_seconds(root, with_reaped_children=True) - own
    for pid in process_tree(root):
        if pid != root:
            rest += cpu_seconds(pid, with_reaped_children=True)
    return own, rest


def _status_kb(pid: int, key: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the processes' resident-set high-water marks, MB."""
    return sum(_status_kb(pid, "VmHWM:") for pid in pids) / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
