"""The process runtime's pipe pool neither deadlocks nor leaks workers.

Replies to chunks a squash abandoned are never consumed, and the
run-ahead window keeps several chunks in flight per worker.  If the
parent blocked sending a chunk while the worker blocked sending back a
reply, each would wait for the other.  Tier-1 workload sizes never fill
a default-sized socket, so the first two tests shrink every pool socket
to 4 KB; the second also sends chunk messages and replies of about
120 KB each.  The next two kill the parent, of one pool and of two
pools, and check that no worker outlives it.  Each of these four runs
its program in a subprocess under a timeout, so a regression fails
instead of hanging the suite.  The next checks that workers run as
batch tasks, which never preempt the parent that wakes them.  The last
two shut a pool down before or while its workers start: the executor
starts them from a background thread, so an engine closed right after
it began a run must neither raise nor leave a worker behind.
"""

import multiprocessing
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

#: Every pool socket shrunk to 4 KB.
SHRINK = """
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
"""

SMALL_BUFFERS = ENGINE + SHRINK + """
with create_engine(program, distillation, config) as engine:
    for _ in range(3):
        result = engine.run()
        assert result.records == reference.records
        assert result.counters == reference.counters
        assert result.counters.dispatch.adopted > 0
print("ok")
"""

#: Four chunks in flight to one worker, each chunk message and each
#: reply far larger than a socket: the parent sends the next chunk while
#: the worker sends back the last one's results.
BIG_MESSAGES = SHRINK + """
from repro.isa.asm import assemble
from repro.isa.registers import NUM_REGS
from repro.mssp.runtime.procpool import _PipePool, program_wire_digest

CELLS = 20_000
program = assemble(
    f"main: li r2, {CELLS}\\n"
    "loop: lw r3, 4096(r1)\\n"
    "      add r4, r4, r3\\n"
    "      addi r1, r1, 1\\n"
    "      bne r1, r2, loop\\n"
    "      halt\\n"
)
digest = program_wire_digest(program)
pool = _PipePool(1, digest, program)
pool.start()
memory = {4096 + i: i + 1 for i in range(CELLS)}
task = (0, program.entry, None, 1, (0,) * NUM_REGS, memory, None)
payload = (digest, (), 10 ** 6, (0, 0), {}, [task], "decoded")
tickets = [pool.submit(pool.next_worker(), payload) for _ in range(4)]
for ticket in tickets:
    (result,) = pool.get(ticket)
    assert len(result[2]) == CELLS  # every load is a recorded live-in
pool.shutdown()
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

#: Two engines, so two pools, in one process.  The later pool's workers
#: are stopped before the parent dies: a worker that still held the
#: earlier pool's parent ends would keep that pool's workers waiting.
TWO_POOLS = ENGINE + """
import os, signal, sys
engines = [create_engine(program, distillation, config) for _ in range(2)]
pids = []
for engine in engines:
    result = engine.run()
    assert result.counters.dispatch.adopted > 0
    pids.append([proc.pid for proc, _ in engine._executor._pool._procs])
for pid in pids[1]:
    os.kill(pid, signal.SIGSTOP)
print(" ".join(map(str, pids[0])))
print(" ".join(map(str, pids[1])))
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


def test_large_messages_with_chunks_in_flight_do_not_deadlock():
    code, out, err = run_script(BIG_MESSAGES, timeout=60)
    assert code == 0, err
    assert out.strip() == "ok"


def wait_for_exit(pids, seconds=5.0):
    """The pids still running after ``seconds``."""
    deadline = time.monotonic() + seconds
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if alive(pid)]


def kill(pids):
    """Do not leak workers into the rest of the run."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass


def test_workers_exit_with_their_parent():
    code, out, err = run_script(ORPHANS, timeout=60)
    assert code == 0, err
    pids = [int(pid) for pid in out.split()]
    assert len(pids) == 2
    survivors = wait_for_exit(pids)
    kill(survivors)
    assert survivors == []


def test_each_pool_exits_with_the_parent_on_its_own():
    code, out, err = run_script(TWO_POOLS, timeout=60)
    assert code == 0, err
    earlier, later = ([int(pid) for pid in line.split()]
                      for line in out.strip().splitlines())
    assert len(earlier) == len(later) == 2
    try:
        survivors = wait_for_exit(earlier)
        assert survivors == [], "a later pool's worker held them open"
        for pid in later:
            os.kill(pid, signal.SIGCONT)
        assert wait_for_exit(later) == []
    finally:
        kill(earlier + later)


@pytest.mark.skipif(
    not hasattr(os, "SCHED_BATCH"), reason="Linux scheduling policies"
)
def test_workers_run_as_batch_tasks():
    """A worker woken by a chunk must not preempt the parent's core."""
    from repro.isa.asm import assemble
    from repro.isa.registers import NUM_REGS
    from repro.mssp.runtime.procpool import _PipePool, program_wire_digest

    program = assemble("main: li r1, 7\n      halt\n")
    digest = program_wire_digest(program)
    pool = _PipePool(1, digest, program)
    pool.start()
    try:
        task = (0, program.entry, None, 1, (0,) * NUM_REGS, {}, None)
        payload = (digest, (), 100, (0, 0), {}, [task], "decoded")
        (result,) = pool.get(pool.submit(pool.next_worker(), payload))
        assert result[3] == {1: 7}  # live-out registers
        (proc, _), = pool._procs
        assert os.sched_getscheduler(proc.pid) == os.SCHED_BATCH
    finally:
        pool.shutdown(wait=True)


def test_shutdown_before_start_starts_no_worker():
    from repro.isa.asm import assemble
    from repro.mssp.runtime.procpool import _PipePool, program_wire_digest

    program = assemble("main: halt\n")
    pool = _PipePool(2, program_wire_digest(program), program)
    pool.shutdown()
    pool.start()
    assert [proc.pid for proc, _ in pool._procs] == [None, None]


def test_close_right_after_begin_run_leaves_no_worker():
    from repro.mssp import create_engine
    from tests.mssp.test_runtime_core import PROCESS_CONFIG, prepared

    baseline = set(multiprocessing.active_children())
    ready = prepared("fib_memo")
    engine = create_engine(
        ready.instance.program, ready.distillation, PROCESS_CONFIG
    )
    for _ in range(20):
        executor = engine._make_executor()
        executor.begin_run()
        executor.close()
    deadline = time.monotonic() + 5.0
    while (set(multiprocessing.active_children()) - baseline
           and time.monotonic() < deadline):
        time.sleep(0.05)
    assert set(multiprocessing.active_children()) <= baseline
