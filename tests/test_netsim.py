import random

import pytest

from bftvss.consensus import Replica
from bftvss.crypto import KeyRing
from bftvss.netsim import (
    AdversaryPolicy,
    LivelockError,
    SimConfig,
    Simulator,
)


def build_sim(seed=0, gst=0, delta=1, trace_messages=False, max_events=2_000_000,
              adversary=None):
    keyring = KeyRing(range(4), random.Random(7))
    replicas = {i: Replica(i, 4, 1, keyring, delta=delta) for i in range(4)}
    config = SimConfig(n=4, f=1, gst=gst, delta=delta, seed=seed,
                       max_events=max_events)
    sim = Simulator(config, replicas, adversary or AdversaryPolicy(),
                    trace_messages=trace_messages)
    return sim, replicas


class TestConfig:
    def test_requires_n_3f_plus_1(self):
        with pytest.raises(ValueError):
            SimConfig(n=5, f=1)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            SimConfig(n=4, f=1, delta=0)

    def test_rejects_negative_seed(self):
        # random.Random(-1) would replay seed 1's delivery schedule
        with pytest.raises(ValueError, match="seed must be non-negative"):
            SimConfig(n=4, f=1, seed=-1)

    def test_adversary_corruption_budget(self):
        config = SimConfig(n=4, f=1)
        with pytest.raises(ValueError):
            Simulator(config, {}, AdversaryPolicy(corrupt=frozenset({0, 1})))


class TestDeterminism:
    def run_once(self, seed):
        # delta = 2 so delivery delays actually depend on the seed
        sim, replicas = build_sim(seed=seed, delta=2, trace_messages=True)
        commits = {}
        for i, rep in replicas.items():
            rep.commit_listener = (
                lambda rid, sq, view, digest: commits.setdefault(rid, digest.hex()))
        for rep in replicas.values():
            rep.broadcast_update(0, b"req-%d" % rep.rid)
        trace = sim.run()
        return commits, trace.records

    def test_identical_seeds_identical_traces(self):
        a = self.run_once(5)
        b = self.run_once(5)
        assert a == b

    def test_different_seeds_differ(self):
        # same commits, but the message schedule differs
        _, ra = self.run_once(1)
        _, rb = self.run_once(2)
        assert ra != rb


class TestDeliveryModel:
    def test_post_gst_bound_is_asserted(self):
        # a policy returning delays above delta after GST trips the built-in
        # post-GST assertion rather than silently corrupting an experiment
        class BadPolicy(AdversaryPolicy):
            def schedule(self, src, dst, now, config, rng):
                return config.delta + 5

        sim, replicas = build_sim(adversary=BadPolicy())
        replicas[0].broadcast_update(0, b"req")
        with pytest.raises(AssertionError):
            sim.run()

    def test_pre_gst_drops(self):
        # a policy returning None drops the message and the trace records it
        class DropsZeroPreGst(AdversaryPolicy):
            def schedule(self, src, dst, now, config, rng):
                if now < config.gst and 0 in (src, dst):
                    return None
                return super().schedule(src, dst, now, config, rng)

        sim, replicas = build_sim(gst=1000, adversary=DropsZeroPreGst())
        replicas[0].broadcast_update(0, b"req")
        sim.run(until=lambda: sim.clock >= 50)
        drops = [r for r in sim.trace.records if r["kind"] == "drop"]
        assert drops, "messages touching participant 0 should be dropped pre-GST"

    @pytest.mark.parametrize("delta", range(1, 13))
    @pytest.mark.parametrize("now", [0, 10], ids=["before-gst", "after-gst"])
    def test_delay_draw_is_randint(self, delta, now):
        # the draw, and the rng state it leaves, are random.Random.randint's
        # over 1..delta after GST (10) and 1..4*delta before it
        config = SimConfig(n=4, f=1, gst=10, delta=delta)
        width = delta if now >= config.gst else 4 * delta
        ours, ref = random.Random(delta), random.Random(delta)
        for _ in range(200):
            assert AdversaryPolicy().schedule(0, 1, now, config, ours) == ref.randint(1, width)
        assert ours.getstate() == ref.getstate()

    def test_schedule_call_runs_at_time(self):
        sim, replicas = build_sim()
        fired = []
        sim.schedule_call(10, lambda: fired.append(sim.clock))
        sim.run()
        assert fired == [10]

    def test_livelock_guard(self):
        sim, replicas = build_sim(max_events=10)
        for rep in replicas.values():
            rep.broadcast_update(0, b"req-%d" % rep.rid)
        with pytest.raises(LivelockError):
            sim.run()

    def test_livelock_guard_with_huge_clock(self):
        # a clock past str(int)'s 4300-digit limit still raises LivelockError
        sim, _ = build_sim(max_events=0)
        sim.schedule_call(10**5000, lambda: None)
        with pytest.raises(LivelockError):
            sim.run()
