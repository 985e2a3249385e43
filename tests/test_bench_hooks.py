"""The benchmark hooks the program by name from outside (bench/probe.py).

Installing its tracer in a fresh process fails if any hooked name was
renamed or removed, so such a change fails here instead of in a traced
benchmark run.  Nothing is written under bench/ (no bytecode cache).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_probe_and_tracer_install():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "from probe import Probe, Tracer; Tracer(Probe())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
