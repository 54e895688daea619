"""Run one :class:`~repro.serving.Gateway` in a process of its own.

The gateway workload drives the fleet from a client in the benchmark
process; the gateway's event loop gets its own interpreter so that it
shares no lock with it.  Run as a script, this module starts a
2-worker gateway with the library's default model recipe and an L1 of
``L1_ENTRIES`` regions per worker, prints one JSON line (``port``,
``pid``, ``worker_pids``) and serves until its standard input closes::

    python3 perfbench/fleet.py --l2-dir DIR

:class:`FleetProcess` is the benchmark's side: it launches the script,
reads the ready line, and on :meth:`FleetProcess.stop` closes the pipe
and waits for the gateway and every worker to exit.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Worker processes of the gateway.
N_WORKERS = 2
#: Regions each worker's private L1 holds (``Gateway(max_entries=)``),
#: far fewer than the benchmark's anchors, so the shared L2 serves
#: the requests the L1 cannot.
L1_ENTRIES = 16
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set size of ``pid`` in MiB (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


class FleetProcess:
    """A gateway host process and its worker fleet."""

    def __init__(self, l2_dir: Path):
        self.l2_dir = Path(l2_dir)
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.worker_pids: list[int] = []

    def start(self) -> "FleetProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()),
             "--l2-dir", str(self.l2_dir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        try:
            ready, _, _ = select.select(
                [self.proc.stdout], [], [], READY_TIMEOUT_S
            )
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise RuntimeError(
                    f"gateway host exited or stalled before its ready line "
                    f"(exit code {self.proc.poll()})"
                )
            info = json.loads(line)
        except BaseException:
            self.stop()
            raise
        self.port = int(info["port"])
        self.worker_pids = [int(p) for p in info["worker_pids"]]
        return self

    def peak_rss_mib(self) -> float:
        """Summed peak RSS of the gateway host and its workers."""
        return sum(
            vm_hwm_mib(pid) for pid in [self.proc.pid, *self.worker_pids]
        )

    def stop(self) -> None:
        """Close the host's stdin and wait for it and every worker to
        exit; kill whatever is still running after the timeout."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.stdin is not None:
            proc.stdin.close()
        try:
            proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=STOP_TIMEOUT_S)
        if proc.stdout is not None:
            proc.stdout.close()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in self.worker_pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
            if _alive(pid):
                os.kill(pid, 9)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--l2-dir", required=True)
    args = parser.parse_args(argv)

    from repro.serving import Gateway

    gateway = Gateway(
        n_workers=N_WORKERS, l2_dir=args.l2_dir, max_entries=L1_ENTRIES
    )
    gateway.start()
    try:
        print(json.dumps({
            "port": gateway.port,
            "pid": os.getpid(),
            "worker_pids": gateway.worker_pids(),
        }), flush=True)
        sys.stdin.read()
    finally:
        gateway.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
