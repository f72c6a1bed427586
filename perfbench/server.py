"""Launch ``repro serve --tcp`` as a child process, and read ``/proc``.

The server is started through the CLI entry point (``python -m repro
serve --tcp 127.0.0.1:0``), or through ``traced_serve.py``, which
installs the layer spans and then calls the same entry point.  Set-up
time runs from the launch to the last priming response: interpreter
boot, the listening line, the stand-in builds the first query on each
graph triggers, and the priming queries themselves.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Set, Tuple

from loadgen import Connection

_LISTENING = re.compile(r"listening on tcp://([^:]+):(\d+)")
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def split_cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """``(server CPUs, client CPUs)``: the first allowed CPU for the
    server, the rest for this process; ``(None, None)`` on one CPU.

    The client then never takes the server's CPU, and the server's
    threads hand the GIL to each other on one CPU instead of waking one
    another across CPUs; host steal on the client's CPU no longer stalls
    the server.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, set(cpus[1:])


def _pin(cpus: Optional[Set[int]]):
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


class Server:
    def __init__(
        self,
        root: Path,
        args: List[str],
        server_cpus: Optional[Set[int]],
        traced: bool = False,
    ):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        # A fixed string-hash seed keeps set/dict layouts, and with them
        # the server's own cost, the same from launch to launch.
        env["PYTHONHASHSEED"] = "0"
        if traced:
            entry = [str(root / "perfbench" / "traced_serve.py")]
        else:
            entry = ["-m", "repro"]
        command = [sys.executable, *entry, "serve", "--tcp", "127.0.0.1:0", *args]
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            preexec_fn=_pin(server_cpus),
            cwd=str(root),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )
        try:
            self.address = self._await_listening()
            self.control = Connection(self.address, (), 0)
        except BaseException:
            self.kill()
            raise

    def _await_listening(self) -> Tuple[str, int]:
        for raw in self.proc.stdout:
            match = _LISTENING.search(raw.decode("utf-8", "replace"))
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError(f"server exited with {self.proc.wait()} before listening")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def metrics(self) -> dict:
        return json.loads(self.control.request(b"metrics json\n"))

    def shutdown(self, timeout: float = 60.0) -> bytes:
        """Graceful stop; returns whatever the server printed after
        its listening line."""
        try:
            self.control.request(b"shutdown\n")
        except OSError:
            pass  # the server may hang up before its reply is read
        self.control.close()
        rest, _ = self.proc.communicate(timeout=timeout)
        return rest

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


class Calibrator:
    """``calibrate.py`` running on the server's CPUs for the load."""

    def __init__(self, root: Path, cpus: Optional[Set[int]]):
        self.proc = subprocess.Popen(
            [sys.executable, str(root / "perfbench" / "calibrate.py")],
            preexec_fn=_pin(cpus),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
        )

    def stop(self) -> List[Tuple[float, float]]:
        self.proc.terminate()
        out, _ = self.proc.communicate(timeout=30)
        return [tuple(sample) for sample in json.loads(out)]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def cpu_seconds(pid: int) -> float:
    """User + system CPU of a process, all threads included."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def rss_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", "r") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmRSS line")


def host_ticks() -> Tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs, from ``/proc/stat``."""
    with open("/proc/stat", "r") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user, so the total stops at steal.
    return values[7], sum(values[:8])


def client_cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


def sample(pid: int) -> dict:
    steal, total = host_ticks()
    return {
        "wall": time.perf_counter(),
        "server_cpu": cpu_seconds(pid),
        "client_cpu": client_cpu_seconds(),
        "steal": steal,
        "ticks": total,
    }


def shares(first: dict, last: dict) -> dict:
    wall = last["wall"] - first["wall"]
    ticks = max(last["ticks"] - first["ticks"], 1)
    return {
        "server.busy_share": (last["server_cpu"] - first["server_cpu"]) / wall,
        "client.cpu_share": (last["client_cpu"] - first["client_cpu"]) / wall,
        "host.steal_share": (last["steal"] - first["steal"]) / ticks,
    }


def diff_metrics(before: dict, after: dict) -> dict:
    """Counters moved between two ``metrics json`` documents."""

    def delta(path):
        a, b = before, after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    sources = {
        source: delta(("by_source", source))
        for source in ("cache", "extended", "cold", "coalesced")
    }
    return {
        "sources": sources,
        "served": sum(sources.values()),
        "batches": delta(("server", "batches")),
        "batched_queries": delta(("server", "batched_queries")),
        "compactions": delta(("live", "compactions")),
    }
