import json
from pathlib import Path

import pytest

from bftvss.cli import main

ROOT = Path(__file__).resolve().parent.parent

FAST_CONFIG = {"mode": "ebyftves", "rounds": 3, "samples": 100,
               "test_samples": 200, "dim": 8}


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
# workflow (dim 0) or ran to a NaN accuracy (test_samples 0)
UNRUNNABLE = {
    "consensus-delta-0": {"kind": "consensus", "n": 4, "script": "none", "delta": 0},
    "consensus-gst-null": {"kind": "consensus", "n": 4, "script": "none", "gst": None},
    "consensus-delta-null": {"kind": "consensus", "n": 4, "script": "none",
                             "delta": None},
    "consensus-request_time-negative": {"kind": "consensus", "n": 4, "script": "none",
                                        "request_time": -50},
    "training-delta-0": {"kind": "training", "config": dict(FAST_CONFIG, delta=0)},
    "training-dim-str": {"kind": "training", "config": dict(FAST_CONFIG, dim="16")},
    "training-encryption": {"kind": "training",
                            "config": dict(FAST_CONFIG, encryption="rot13")},
    "training-fallback": {"kind": "training",
                          "config": dict(FAST_CONFIG, mode="ebyftves+acumpa",
                                         attackers=[3], fallback="wait")},
    "training-max_it-str": {"kind": "training", "config": FAST_CONFIG,
                            "assertions": {"max_it": "6"}},
    "training-min_final_accuracy-str": {"kind": "training", "config": FAST_CONFIG,
                                        "assertions": {"min_final_accuracy": "0.9"}},
    "training-theta_cos-2": {"kind": "training",
                             "config": dict(FAST_CONFIG, mode="ebyftves+acumpa",
                                            attackers=[3], theta_cos=2.0)},
    "training-asdp_delta-0": {"kind": "training",
                              "config": dict(FAST_CONFIG, mode="ebyftves+acumpa",
                                             attackers=[3], asdp_delta=0)},
    "training-bits_q-3": {"kind": "training", "config": dict(FAST_CONFIG, bits_q=3)},
    "training-bits-512-128": {"kind": "training",
                              "config": dict(FAST_CONFIG, bits_p=512, bits_q=128)},
    "training-bits_q-bits_p": {"kind": "training",
                               "config": dict(FAST_CONFIG, bits_p=96, bits_q=96)},
    "training-seed-negative": {"kind": "training", "config": dict(FAST_CONFIG, seed=-1)},
    "training-fraction_bits-negative": {"kind": "training",
                                        "config": dict(FAST_CONFIG, fraction_bits=-1)},
    "training-samples-0": {"kind": "training", "config": dict(FAST_CONFIG, samples=0)},
    "training-test_samples-0": {"kind": "training",
                                "config": dict(FAST_CONFIG, test_samples=0)},
    "training-dim-0": {"kind": "training", "config": dict(FAST_CONFIG, dim=0)},
    "consensus-commit_within-str": {"kind": "consensus", "n": 4, "script": "none",
                                    "assertions": {"commit_within": "40"}},
    "consensus-max_view-str": {"kind": "consensus", "n": 4, "script": "none",
                               "assertions": {"max_view": "3"}},
}


@pytest.mark.parametrize("case", sorted(UNRUNNABLE))
def test_validate_rejects_what_run_cannot_run(tmp_path, case):
    p = tmp_path / "s.json"
    p.write_text(json.dumps({"name": "bad", **UNRUNNABLE[case]}))
    assert main(["validate", str(p)]) == 2
    assert main(["run", str(p), "--out-dir", str(tmp_path / "o")]) == 2


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

    def test_fraction_bits_too_large_is_a_workflow_error(self, tmp_path, capsys):
        # validates, since whether a value fits depends on the data
        p = write_scenario(tmp_path / "s.json",
                           config=dict(FAST_CONFIG, fraction_bits=60))
        assert main(["run", str(p), "--out-dir", str(tmp_path / "o")]) == 1
        assert "fraction_bits" in capsys.readouterr().err

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

    def test_mode_flag_rejected_for_consensus(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "name": "c", "kind": "consensus", "n": 4, "script": "none",
        }))
        assert main(["run", str(p), "--mode", "ebyftves",
                     "--out-dir", str(tmp_path / "o")]) == 2


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

    def test_no_matches(self, tmp_path):
        assert main(["report", str(tmp_path / "nothing_*.json")]) == 2

    @pytest.mark.parametrize("bad", ["directory", "not-json", "training-scenario",
                                     "consensus-scenario"])
    def test_unreadable_input(self, tmp_path, capsys, bad):
        path = tmp_path / "bad.json"
        if bad == "directory":
            path.mkdir()
        elif bad == "not-json":
            path.write_text("mode,runs\n")
        elif bad == "training-scenario":
            write_scenario(path)
        else:
            path.write_text(json.dumps({"name": "c", "kind": "consensus", "n": 4,
                                        "script": "none"}))
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


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
