"""The process runtime's pipe pool neither deadlocks nor leaks workers.

Replies to chunks a squash abandoned are never consumed.  Left in the
socket, they fill it in both directions until the parent blocks sending
to a worker that is blocked sending back.  Tier-1 workload sizes never
fill a default-sized socket, so the first test shrinks every pool
socket to 4 KB.  Both tests run their program in a subprocess under a
timeout, so a regression fails instead of hanging the suite.
"""

import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))

#: One process-runtime engine over mispredict at 1/8 size: 24 of its 54
#: judged tasks squash, so every episode abandons chunks in flight.
ENGINE = """
from repro.config import MsspConfig
from repro.experiments.harness import prepare
from repro.mssp import create_engine
from repro.workloads import get_workload

spec = get_workload("mispredict")
ready = prepare(spec, size=spec.default_size // 8)
program, distillation = ready.instance.program, ready.distillation
config = MsspConfig(exec_tier="decoded", runtime="process", num_slaves=2)
reference = create_engine(
    program, distillation, MsspConfig(exec_tier="decoded", runtime="eager")
).run()
"""

SMALL_BUFFERS = ENGINE + """
import socket
from repro.mssp.runtime import procpool

original_init = procpool._PipePool.__init__

def shrunk_init(self, *args, **kwargs):
    original_init(self, *args, **kwargs)
    ends = list(self._conns) + [child for _, child in self._procs]
    for conn in ends:
        sock = socket.socket(fileno=conn.fileno())
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.detach()

procpool._PipePool.__init__ = shrunk_init
with create_engine(program, distillation, config) as engine:
    for _ in range(3):
        result = engine.run()
        assert result.records == reference.records
        assert result.counters == reference.counters
        assert result.counters.dispatch.adopted > 0
print("ok")
"""

ORPHANS = ENGINE + """
import multiprocessing, os, sys
engine = create_engine(program, distillation, config)
result = engine.run()
assert result.counters.dispatch.adopted > 0
print(" ".join(str(p.pid) for p in multiprocessing.active_children()))
sys.stdout.flush()
os._exit(0)
"""


def run_script(source, timeout):
    """Run ``source`` in its own session and return (exit code, stdout,
    stderr).  On timeout kill the session, workers included, and fail.
    Output goes through files, so a worker outliving the script cannot
    hold the wait open."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("REPRO_RUNTIME", None)
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        child = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(source)],
            cwd=ROOT, env=env, stdout=out, stderr=err, text=True,
            start_new_session=True,
        )
        try:
            child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            pytest.fail(f"still running after {timeout} s")
        out.seek(0)
        err.seek(0)
        return child.returncode, out.read(), err.read()


def alive(pid):
    """True while ``pid`` runs (a zombie awaiting its reaper is gone)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_full_sockets_do_not_deadlock():
    code, out, err = run_script(SMALL_BUFFERS, timeout=60)
    assert code == 0, err
    assert out.strip() == "ok"


def test_workers_exit_with_their_parent():
    code, out, err = run_script(ORPHANS, timeout=60)
    assert code == 0, err
    pids = [int(pid) for pid in out.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 5.0
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    survivors = [pid for pid in pids if alive(pid)]
    for pid in survivors:  # do not leak them into the rest of the run
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    assert survivors == []
