import dataclasses
import json
from itertools import product
from pathlib import Path

import pytest

from bftvss import dpml, scenarios
from bftvss.cli import main

ROOT = Path(__file__).resolve().parent.parent

FAST_CONFIG = {"mode": "ebyftves", "rounds": 3, "dim": 8}


def write_scenario(path, **overrides):
    scenario = {
        "name": "unit",
        "kind": "training",
        "config": dict(FAST_CONFIG),
        "assertions": {"completes": True},
    }
    scenario.update(overrides)
    path.write_text(json.dumps(scenario))
    return path


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        p = write_scenario(tmp_path / "s.json")
        assert main(["validate", str(p)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_unknown_top_level_key(self, tmp_path):
        p = write_scenario(tmp_path / "s.json", surprise=1)
        assert main(["validate", str(p)]) == 2

    def test_unknown_config_key(self, tmp_path):
        p = write_scenario(tmp_path / "s.json",
                           config=dict(FAST_CONFIG, optimizer="adam"))
        assert main(["validate", str(p)]) == 2

    def test_unknown_assertion_key(self, tmp_path):
        p = write_scenario(tmp_path / "s.json", assertions={"always_wins": True})
        assert main(["validate", str(p)]) == 2

    def test_bad_name(self, tmp_path):
        p = write_scenario(tmp_path / "s.json", name="has spaces!")
        assert main(["validate", str(p)]) == 2

    def test_bad_kind(self, tmp_path):
        p = write_scenario(tmp_path / "s.json", kind="quantum")
        assert main(["validate", str(p)]) == 2

    def test_invalid_config_values(self, tmp_path):
        p = write_scenario(tmp_path / "s.json",
                           config=dict(FAST_CONFIG, n=5))
        assert main(["validate", str(p)]) == 2

    def test_threshold_f_colluders_meet(self, tmp_path):
        p = write_scenario(tmp_path / "s.json", config=dict(FAST_CONFIG, th=1))
        assert main(["validate", str(p)]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("{not json")
        assert main(["validate", str(p)]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.json")]) == 2

    def test_consensus_scenario(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "name": "c", "kind": "consensus", "n": 4, "script": "none",
            "assertions": {"safety": True},
        }))
        assert main(["validate", str(p)]) == 0

    def test_consensus_bad_script(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "name": "c", "kind": "consensus", "n": 4, "script": "meteor",
        }))
        assert main(["validate", str(p)]) == 2


# each passed validate, then crashed run with a traceback, failed its
# workflow (dim 0) or ran to a NaN accuracy
UNRUNNABLE = {
    "consensus-delta-0": {"kind": "consensus", "n": 4, "script": "none", "delta": 0},
    "consensus-gst-null": {"kind": "consensus", "n": 4, "script": "none", "gst": None},
    "consensus-delta-null": {"kind": "consensus", "n": 4, "script": "none",
                             "delta": None},
    "training-delta-0": {"kind": "training", "config": dict(FAST_CONFIG, delta=0)},
    "training-dim-str": {"kind": "training", "config": dict(FAST_CONFIG, dim="16")},
    "training-attacker_reads": {"kind": "training",
                                "config": dict(FAST_CONFIG, attacker_reads="keys")},
    "training-attacker_reads-baseline": {
        "kind": "training", "config": dict(FAST_CONFIG, mode="baseline-vss+acumpa",
                                           attackers=[3], attacker_reads="every-share")},
    "training-fallback": {"kind": "training",
                          "config": dict(FAST_CONFIG, mode="ebyftves+acumpa",
                                         attackers=[3], fallback="wait")},
    "training-max_it-str": {"kind": "training", "config": FAST_CONFIG,
                            "assertions": {"max_it": "6"}},
    "training-min_final_accuracy-str": {"kind": "training", "config": FAST_CONFIG,
                                        "assertions": {"min_final_accuracy": "0.9"}},
    "training-bits_q-3": {"kind": "training", "config": dict(FAST_CONFIG, bits_q=3)},
    "training-bits-512-128": {"kind": "training",
                              "config": dict(FAST_CONFIG, bits_p=512, bits_q=128)},
    "training-bits_q-bits_p": {"kind": "training",
                               "config": dict(FAST_CONFIG, bits_p=96, bits_q=96)},
    "training-seed-negative": {"kind": "training", "config": dict(FAST_CONFIG, seed=-1)},
    "training-dim-0": {"kind": "training", "config": dict(FAST_CONFIG, dim=0)},
    "consensus-commit_within-str": {"kind": "consensus", "n": 4, "script": "none",
                                    "assertions": {"commit_within": "40"}},
    "consensus-max_view-str": {"kind": "consensus", "n": 4, "script": "none",
                               "assertions": {"max_view": "3"}},
}
# settings that are constants now, and the share transport switch that
# attacker_reads replaced: a scenario that sets one, even to its former
# default, is rejected as unknown before anything runs
REMOVED_CONFIG = {"error_threshold": 0.05, "learning_rate": 0.1, "samples": 400,
                  "test_samples": 1000, "flip_rate": 0.02, "theta_cos": 0.8,
                  "tau": 0.9, "asdp_delta": 1.0, "fraction_bits": 16,
                  "encryption": "hybrid"}
UNRUNNABLE.update({f"training-{key}-removed": {"kind": "training",
                                               "config": dict(FAST_CONFIG, **{key: value})}
                   for key, value in REMOVED_CONFIG.items()})
UNRUNNABLE["consensus-request_time-removed"] = {"kind": "consensus", "n": 4,
                                                "script": "none", "request_time": None}


@pytest.mark.parametrize("case", sorted(UNRUNNABLE))
def test_validate_rejects_what_run_cannot_run(tmp_path, case):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"name": "bad", **UNRUNNABLE[case]}))
    assert main(["validate", str(p)]) == 2
    assert main(["run", str(p), "--out-dir", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


# sizes past their caps: validate passed each, and run then died in numpy
# (dim), would run for ever (rounds) or would build 10**30 replicas (n)
TOO_BIG = {
    "training-dim-1e30": {"kind": "training", "config": dict(FAST_CONFIG, dim=10**30)},
    "training-rounds-1e30": {"kind": "training",
                             "config": dict(FAST_CONFIG, rounds=10**30)},
    "consensus-n-3e29": {"kind": "consensus", "n": 3 * 10**29 + 1, "script": "none"},
}


@pytest.mark.parametrize("case", sorted(TOO_BIG))
def test_sizes_past_their_caps_build_nothing(tmp_path, monkeypatch, case):
    def build(*args, **kwargs):
        raise AssertionError("run started building")

    monkeypatch.setattr(dpml, "run", build)
    monkeypatch.setattr(scenarios, "run_consensus", build)
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"name": "big", **TOO_BIG[case]}))
    assert main(["validate", str(p)]) == 2
    assert main(["run", str(p), "--out-dir", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


class TestRun:
    def test_writes_named_result(self, tmp_path):
        p = write_scenario(tmp_path / "s.json")
        out = tmp_path / "out"
        assert main(["run", str(p), "--out-dir", str(out)]) == 0
        result = out / "unit_ebyftves_0.json"
        assert result.exists()
        payload = json.loads(result.read_text())
        assert payload["assertions_ok"] is True
        assert payload["mode"] == "ebyftves"

    def test_seed_and_mode_override_in_filename(self, tmp_path):
        p = write_scenario(tmp_path / "s.json")
        out = tmp_path / "out"
        assert main(["run", str(p), "--seed", "7", "--mode", "fedavg-plain",
                     "--out-dir", str(out)]) == 0
        assert (out / "unit_fedavg-plain_7.json").exists()

    def test_failed_assertion_exit_code(self, tmp_path):
        p = write_scenario(tmp_path / "s.json",
                           assertions={"min_final_accuracy": 1.01})
        assert main(["run", str(p), "--out-dir", str(tmp_path / "o")]) == 1

    def test_incompatible_mode_override(self, tmp_path):
        p = write_scenario(tmp_path / "s.json")
        assert main(["run", str(p), "--mode", "ebyftves+acumpa",
                     "--out-dir", str(tmp_path / "o")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        p = write_scenario(tmp_path / "s.json")
        out = tmp_path / "out"
        main(["run", str(p), "--out-dir", str(out)])
        first = (out / "unit_ebyftves_0.json").read_bytes()
        main(["run", str(p), "--out-dir", str(out)])
        assert (out / "unit_ebyftves_0.json").read_bytes() == first

    def test_trace_flag_writes_jsonl(self, tmp_path):
        p = write_scenario(tmp_path / "s.json")
        out = tmp_path / "out"
        assert main(["run", str(p), "--trace", "--out-dir", str(out)]) == 0
        trace = out / "unit_ebyftves_0.trace.jsonl"
        assert trace.exists()
        first_line = trace.read_text().splitlines()[0]
        json.loads(first_line)

    def test_workflow_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def stalled(config, collect_trace=False):
            raise dpml.WorkflowError("training stalled in round 1")

        monkeypatch.setattr(dpml, "run", stalled)
        p = write_scenario(tmp_path / "s.json")
        assert main(["run", str(p), "--out-dir", str(tmp_path / "o")]) == 1
        assert "workflow failed" in capsys.readouterr().err

    def test_consensus_run(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "name": "c", "kind": "consensus", "n": 4, "script": "silent-primary",
            "gst": 50, "delta": 2,
            "assertions": {"safety": True, "all_committed": True},
        }))
        out = tmp_path / "out"
        assert main(["run", str(p), "--out-dir", str(out)]) == 0
        payload = json.loads((out / "c_silent-primary_0.json").read_text())
        assert payload["safety_ok"] is True

    def test_negative_seed_rejected_for_consensus(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(ROOT / "scenarios" / "liveness_silent_primary.json"),
                     "--seed", "-5", "--out-dir", str(out)]) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_flag_rejected_for_consensus(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "name": "c", "kind": "consensus", "n": 4, "script": "none",
        }))
        assert main(["run", str(p), "--mode", "ebyftves",
                     "--out-dir", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("scenario, mode", [
        (ROOT / "scenarios" / "liveness_silent_primary.json", None),
        (None, "fedavg-plain"),
        (None, "baseline-vss"),
    ])
    def test_trace_flag_rejected_outside_ebyftves(self, tmp_path, capsys, scenario, mode):
        scenario = scenario or write_scenario(tmp_path / "s.json")
        out = tmp_path / "out"
        args = ["run", str(scenario), "--trace", "--out-dir", str(out)]
        assert main(args + (["--mode", mode] if mode else [])) == 2
        assert capsys.readouterr().err.startswith("error: --trace applies only")
        assert not out.exists()


# the fewest keys a result of each kind needs for report's tables
READABLE_RESULTS = {
    "training": {"schema_version": 1, "kind": "training", "scenario": "s",
                 "mode": "fedavg-plain", "seed": 0, "final_accuracy": 0.9, "it": 3,
                 "config": {"n": 4, "f": 1, "th": 3, "rounds": 30, "dim": 16}},
    "consensus": {"schema_version": 1, "kind": "consensus", "n": 4, "script": "none",
                  "safety_ok": True, "all_committed": True, "commit_span": 10,
                  "max_view": 0},
}


class TestReport:
    def make_results(self, tmp_path):
        p = write_scenario(tmp_path / "s.json")
        out = tmp_path / "out"
        for seed in ("0", "1"):
            main(["run", str(p), "--seed", seed, "--out-dir", str(out)])
            main(["run", str(p), "--seed", seed, "--mode", "fedavg-plain",
                  "--out-dir", str(out)])
        return out

    def test_table(self, tmp_path, capsys):
        out = self.make_results(tmp_path)
        assert main(["report", str(out / "*.json")]) == 0
        text = capsys.readouterr().out
        assert "ebyftves" in text and "fedavg-plain" in text

    def test_csv(self, tmp_path):
        out = self.make_results(tmp_path)
        csv = tmp_path / "summary.csv"
        assert main(["report", str(out / "*.json"), "--csv", str(csv)]) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "mode,runs,acc,it"
        assert len(lines) == 3

    def test_incompatible_configs_rejected(self, tmp_path):
        out = self.make_results(tmp_path)
        other = write_scenario(tmp_path / "other.json", name="other",
                               config=dict(FAST_CONFIG, rounds=5))
        main(["run", str(other), "--out-dir", str(out)])
        assert main(["report", str(out / "*.json")]) == 2

    @pytest.mark.parametrize("kind", sorted(READABLE_RESULTS))
    def test_hand_written_result(self, tmp_path, kind):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(READABLE_RESULTS[kind]))
        assert main(["report", str(path)]) == 0

    def test_csv_needs_a_training_result(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(READABLE_RESULTS["consensus"]))
        csv = tmp_path / "summary.csv"
        assert main(["report", str(path), "--csv", str(csv)]) == 2
        assert capsys.readouterr().err.startswith("error: --csv needs")
        assert not csv.exists()

    def test_no_matches(self, tmp_path):
        assert main(["report", str(tmp_path / "nothing_*.json")]) == 2

    @pytest.mark.parametrize("bad", ["directory", "not-json", "training-scenario",
                                     "consensus-scenario", "training-incomplete",
                                     "consensus-incomplete", "training-str-accuracy",
                                     "consensus-str-n", "unknown-kind", "list-kind",
                                     "no-kind"])
    def test_unreadable_input(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        if bad.endswith("-kind"):
            result = dict(READABLE_RESULTS["training"],
                          kind=["training"] if bad == "list-kind" else "trainng")
            if bad == "no-kind":
                del result["kind"]
            path.write_text(json.dumps(result))
        elif bad == "training-str-accuracy":
            path.write_text(json.dumps(dict(READABLE_RESULTS["training"],
                                            final_accuracy="high")))
        elif bad == "consensus-str-n":
            path.write_text(json.dumps(dict(READABLE_RESULTS["consensus"], n="4")))
        elif bad == "directory":
            path.mkdir()
        elif bad == "not-json":
            path.write_text("mode,runs\n")
        elif bad == "training-scenario":
            write_scenario(path)
        elif bad.endswith("-incomplete"):
            kind = bad.split("-")[0]
            path.write_text(json.dumps({"schema_version": 1, "kind": kind}))
        else:
            path.write_text(json.dumps({"name": "c", "kind": "consensus", "n": 4,
                                        "script": "none"}))
        # a readable result beside it is not reported alone
        readable = tmp_path / "good.json"
        readable.write_text(json.dumps(READABLE_RESULTS["training"]))
        assert main(["report", str(readable), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(path) in captured.err
        assert not captured.out


def test_compare_output_is_readable_by_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", "--seeds", "1", "--rounds", "2",
                 "--out-dir", str(out)]) == 0
    compared = capsys.readouterr().out.splitlines()
    assert len(list(out.glob("compare_*_0.json"))) == 5
    assert main(["report", str(out / "*.json")]) == 0
    reported = capsys.readouterr().out.splitlines()
    assert reported == compared
    assert len(compared) == 6  # header plus one row per mode


@pytest.mark.parametrize("rounds", ["0", str(dpml.MAX_ROUNDS + 1)])
def test_compare_rejects_rounds_past_the_cap(tmp_path, capsys, rounds):
    out = tmp_path / "out"
    assert main(["compare", "--rounds", rounds, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --rounds must lie in")
    assert not out.exists()


def test_grid_output_is_readable_by_report(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["grid", "--seeds", "1", "--out-dir", str(out)]) == 0
    gridded = capsys.readouterr().out.splitlines()
    assert len(list(out.glob("grid_*_0.json"))) == 8
    assert main(["report", str(out / "*.json")]) == 0
    assert capsys.readouterr().out.splitlines() == gridded
    assert len(gridded) == 9  # header plus one row per n and script


def test_report_reads_consensus_scenario_result(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(ROOT / "scenarios" / "liveness_silent_primary.json"),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out / "*.json")]) == 0
    assert "silent-primary" in capsys.readouterr().out



# a scenario of each kind with every key and assertion set: with the readable
# results, the files the no-crash sweep starts from
FULL_SCENARIOS = {
    "training": {"name": "sweep", "kind": "training",
                 "config": dataclasses.asdict(dpml.TrainingConfig(**FAST_CONFIG)),
                 "assertions": {"completes": True, "max_it": 3, "min_final_accuracy": 0.5,
                                "adaptive_never": True, "adaptive_every_round": False}},
    "consensus": {"name": "sweep", "kind": "consensus", "n": 4, "script": "none",
                  "gst": 0, "delta": 1,
                  "assertions": {"safety": True, "all_committed": True,
                                 "commit_within": 40, "max_view": 0}},
}
SWEEP_VALUES = [None, True, 0, -1, 2.5, "x", [], [3], {}, 10**30]


def test_no_input_crashes_validate_or_report(tmp_path):
    """Each key of each start file, top-level, config or assertion, set in
    turn to each of SWEEP_VALUES: validate reads the scenarios and report the
    results, and each exits 0 or 2 without raising."""
    path = tmp_path / "f.json"
    crashes = []
    for verb, doc in ([("validate", d) for d in FULL_SCENARIOS.values()]
                      + [("report", d) for d in READABLE_RESULTS.values()]):
        keys = [(k,) for k in doc] + [(k, sub) for k in ("config", "assertions")
                                      if k in doc for sub in doc[k]]
        for key, value in product(keys, SWEEP_VALUES):
            changed = json.loads(json.dumps(doc))
            (changed[key[0]] if len(key) == 2 else changed)[key[-1]] = value
            path.write_text(json.dumps(changed))
            try:
                status = main([verb, str(path)])
            except Exception as exc:  # any raise is a crash
                status = repr(exc)
            if status not in (0, 2):
                crashes.append((verb, doc["kind"], key, value, status))
    assert not crashes
