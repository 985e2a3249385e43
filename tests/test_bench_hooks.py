"""The benchmark hooks the program by name from outside (bench/probe.py).

Installing its tracer in a fresh process fails if any hooked name was
renamed or removed, so such a change fails here instead of in a traced
benchmark run.  A traced agreement's counts are checked against a count
that does not go through those hooks, so a simulator that sends past
``_dispatch_sends``, or keeps its queue outside ``_counter`` and ``_heap``,
fails here too.  Nothing is written under bench/ (no bytecode cache).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from bftvss.consensus import MsgKind

ROOT = Path(__file__).resolve().parent.parent

# Counts one traced agreement twice: by the tracer, and by wrapping what the
# hooks do not touch, Replica.drain (every message a replica sends, before
# any transport) and the run's until (called once before each event).
TRACED_AGREEMENT = """
import json
from collections import Counter
from bftvss import consensus, netsim, scenarios
from probe import Probe, Tracer

probe = Probe()
Tracer(probe)
sent, size, popped = Counter(), Counter(), [0]
drain = consensus.Replica.drain

def counting_drain(replica):
    out, timers = drain(replica)
    for _dst, m in out:
        sent[m.kind.name] += 1
        size[m.kind.name] += len(m.to_bytes())
    return out, timers

run = netsim.Simulator.run

def counting_run(sim, until=None):
    def counted():
        stop = until()
        popped[0] += not stop
        return stop
    return run(sim, counted)

consensus.Replica.drain = counting_drain
netsim.Simulator.run = counting_run
probe.begin()
out = scenarios.run_consensus(7, "silent-primary", 0, gst=100, delta=2)
rec = probe.end()
print(json.dumps({"correct": out["all_committed"] and out["safety_ok"],
                  "traced": [rec.msgs, rec.bytes, rec.events],
                  "counted": [sent, size, popped[0]]}))
"""


# Counts the tracer's spans per hooked name of dpml over one defended round:
# a name the program calls through anything but its module or class
# attribute (say, a table of function objects built at import) counts 0.
TRACED_ROUND = """
import json
from collections import Counter
from bftvss import dpml
from probe import TARGETS, Probe, Tracer

tracer = Tracer(Probe())
dpml.run(dpml.TrainingConfig(mode="ebyftves+acumpa", attackers=(3,), rounds=1,
                             attacker_reads="every-share"))
spans = Counter(tracer.names[nid] for nid in tracer.name)
print(json.dumps({name: spans[name] for name, owner, _, _ in TARGETS
                  if owner in (dpml, dpml.WorkflowParticipant)}))
"""


def run_with_bench(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    return subprocess.run([sys.executable, "-B", "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)


def test_probe_and_tracer_install():
    proc = run_with_bench("from probe import Probe, Tracer; Tracer(Probe())")
    assert proc.returncode == 0, proc.stderr


def test_traced_counts_match_an_independent_count():
    proc = run_with_bench(TRACED_AGREEMENT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    # a silent primary forces a view change, so every kind is sent
    assert sorted(result["traced"][0]) == sorted(kind.name for kind in MsgKind)
    assert result["traced"] == result["counted"]


def test_every_dpml_hook_is_reached():
    proc = run_with_bench(TRACED_ROUND)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts and all(counts.values()), counts
