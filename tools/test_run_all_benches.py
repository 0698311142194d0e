#!/usr/bin/env python3
"""Check run_all_benches.sh against stub harnesses in a temp build dir.

Usage: test_run_all_benches.py path/to/run_all_benches.sh

Three cases:
  - every stub runs, in order, and one failing stub makes the script
    report it and exit 1;
  - SIGTERM sent to the script's pid alone ends the script by SIGTERM
    and takes the harness in flight with it;
  - SIGINT sent to the process group (a ^C) ends the script by SIGINT,
    and the harness in flight with it, although a background child of
    a non-interactive sh ignores SIGINT itself.
Exits 0 when all three hold, 1 with a message otherwise.
"""

import os
import signal
import subprocess
import sys
import tempfile
import time

BENCHES = ("bench_table1 bench_table2 bench_table3 bench_table4 "
           "bench_table5 bench_table6 bench_fig3 bench_fig4 bench_fig5 "
           "bench_fig6 bench_fig7 bench_fig8 bench_fig9 bench_fig10 "
           "bench_ablation bench_hybrid").split()

# Writes its pid beside itself; then sleeps (STUB_SLEEP set) or exits,
# with status 3 for bench_fig5 and 0 for the others.
STUB = """#!/bin/sh
echo $$ > "$0.pid"
if [ -n "${STUB_SLEEP:-}" ]; then exec sleep 30; fi
case "$0" in */bench_fig5) exit 3 ;; esac
exit 0
"""


def fail(msg):
    print("test_run_all_benches: " + msg, file=sys.stderr)
    sys.exit(1)


def make_build(root):
    bench = os.path.join(root, "bench")
    os.mkdir(bench)
    for b in BENCHES:
        path = os.path.join(bench, b)
        with open(path, "w") as f:
            f.write(STUB)
        os.chmod(path, 0o755)
    return bench


def alive(pid):
    """True while @pid exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_for(pred, seconds):
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        if pred():
            return True
        time.sleep(0.01)
    return pred()


def run_to_end(script, root):
    p = subprocess.run(["sh", script, root], capture_output=True,
                       text=True, timeout=60)
    heads = [l for l in p.stdout.splitlines() if l.startswith("==== ")]
    if heads != ["==== %s ====" % b for b in BENCHES]:
        fail("harnesses ran out of order or not at all: %r" % heads)
    if p.returncode != 1:
        fail("a failing harness gave exit %d, not 1" % p.returncode)
    if "bench_fig5 exited with status 3" not in p.stderr:
        fail("the failing harness was not reported: %r" % p.stderr)


def read_pid(path):
    try:
        with open(path) as f:
            return int(f.read())
    except (OSError, ValueError):
        return None


def interrupt(script, root, bench, sig, group):
    pidfile = os.path.join(bench, "bench_table1.pid")
    if os.path.exists(pidfile):
        os.unlink(pidfile)
    to = "group" if group else "pid"
    env = dict(os.environ, STUB_SLEEP="1")
    p = subprocess.Popen(["sh", script, root], env=env,
                         stdout=subprocess.DEVNULL,
                         stderr=subprocess.DEVNULL,
                         start_new_session=True)
    harness = None
    try:
        if not wait_for(lambda: read_pid(pidfile) is not None, 20):
            fail("the first stub harness never started")
        harness = read_pid(pidfile)
        if group:
            os.killpg(p.pid, sig)
        else:
            os.kill(p.pid, sig)
        try:
            rc = p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            fail("%s to the %s: the script outlived it by 10 s"
                 % (sig.name, to))
        if rc != -sig:
            fail("%s to the %s: the script exited %d, not by the signal"
                 % (sig.name, to, rc))
        if not wait_for(lambda: not alive(harness), 5):
            fail("%s to the %s: the harness in flight outlived the script"
                 % (sig.name, to))
    finally:
        if p.poll() is None:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
        if harness is not None and alive(harness):
            os.kill(harness, signal.SIGKILL)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    script = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as root:
        bench = make_build(root)
        run_to_end(script, root)
        interrupt(script, root, bench, signal.SIGTERM, group=False)
        interrupt(script, root, bench, signal.SIGINT, group=True)
    print("test_run_all_benches: all cases passed")


if __name__ == "__main__":
    main()
