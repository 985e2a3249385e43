import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record",
                                               ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = bench_record.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def fake_metrics(scale):
    return {m["name"]: {"value": scale * (i + 1), "unit": m["unit"]}
            for i, m in enumerate(SPEC["end_to_end"])}


def make(rev, scales):
    runs = {w: [fake_metrics(s) for s in scales] for w in WORKLOADS}
    return bench_record.make_record(rev, False, SPEC, runs, 2, 8.0, len(scales), None)


def test_record_has_one_row_per_metric_and_workload():
    rec = make("a" * 40, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert bench_record.check_record(json.loads(json.dumps(rec))) == []
    assert len(rec["rows"]) == len(WORKLOADS) * len(SPEC["end_to_end"])
    row = rec["rows"][0]
    assert (row["workload"], row["metric"]) == (WORKLOADS[0], SPEC["end_to_end"][0]["name"])
    assert (row["median"], row["iqr"], row["repeats"]) == (3.0, 2.0, 5)


def test_single_repeat_has_no_spread():
    rec = make("a" * 40, [1.0])
    assert bench_record.check_record(rec) == []
    assert all(row["iqr"] == 0.0 for row in rec["rows"])


@pytest.mark.parametrize("breakage, problem", [
    (lambda r: r.pop("rev"), "record: missing 'rev'"),
    (lambda r: r.update(dirty="no"), "record: 'dirty' is str"),
    (lambda r: r.update(repeats=True), "record: 'repeats' is bool"),
    (lambda r: r.update(seconds=False), "record: 'seconds' is bool"),
    (lambda r: r["rows"][0].update(median=True), "row 0: 'median' is bool"),
    (lambda r: r["rows"][2].update(iqr=False), "row 2: 'iqr' is bool"),
    (lambda r: r.update(rows=[]), "record: no rows"),
    (lambda r: r["rows"][0].pop("median"), "row 0: missing 'median'"),
    (lambda r: r["rows"][1]["values"].pop(), "row 1: 4 values for 5 repeats"),
])
def test_check_names_each_schema_fault(breakage, problem):
    rec = make("a" * 40, [1.0, 2.0, 3.0, 4.0, 5.0])
    breakage(rec)
    assert problem in bench_record.check_record(rec)


def test_compare_flags_rows_past_their_bound():
    before = make("a" * 40, [1.0, 1.0, 1.0])
    after = make("b" * 40, [1.0, 1.0, 1.0])
    lines, worse = bench_record.compare(before, after, SPEC)
    assert not worse and not any("bound" in line for line in lines)
    for row, scale in zip(after["rows"], (1.3, 0.7)):
        row["median"] *= scale
    lines, worse = bench_record.compare(before, after, SPEC)
    assert worse
    assert "x1.300  WORSE past bound 0.25" in lines[1]
    assert "x0.700  better past bound 0.25" in lines[2]


def test_compare_counts_pairs_won_when_recorded_together():
    before = make("a" * 40, [1.0, 2.0, 3.0])
    after = make("b" * 40, [0.5, 2.0, 4.0])
    after["paired_with"] = before["rev"]
    lines, _ = bench_record.compare(before, after, SPEC)
    assert all("won 1/3 pairs" in line for line in lines[1:])


@pytest.mark.parametrize("before, after, label", [
    ([1.0] * 9 + [1.1], [0.8] * 9 + [1.2], "gain"),  # 9 of 10 won, the IQR is 0
    ([1.0] * 8 + [1.1] * 2, [0.8] * 8 + [1.2] * 2, None),  # 8 of 10 won
    ([1.0, 1.5, 2.0, 2.5, 3.0], [0.9, 1.4, 1.9, 2.4, 3.5], "unresolved"),  # IQR 1.0, 4 of 5
    ([1.0, 1.5, 2.0, 2.5, 3.0], [0.4, 0.6, 0.8, 1.0, 1.2], "gain"),  # IQR 1.0, all won
    ([1.0, 1.5, 2.0, 2.5, 3.0], [0.5, 0.8, 1.1, 1.4, 1.7], None),  # gap 0.9 < IQR 1.0
], ids=["gain", "too-few-pairs-won", "unresolved", "spread-but-every-pair-won",
        "gap-within-the-iqr"])
def test_compare_labels_paired_rows(before, after, label):
    a, b = make("a" * 40, before), make("b" * 40, after)
    b["paired_with"] = a["rev"]
    lines, _ = bench_record.compare(a, b, SPEC)
    for line in lines[1:]:
        labels = [word for word in ("gain", "unresolved") if f"pairs  {word}" in line]
        assert labels == ([label] if label else []), line


def test_compare_names_inputs_that_differ(tmp_path, capsys):
    before = make("a" * 40, [1.0, 1.0, 1.0])
    before.update(python="3.11.7", cpu_count=2)
    after = dict(before, rev="b" * 40)
    lines, _ = bench_record.compare(before, after, SPEC)
    assert not any("like for like" in line for line in lines)
    after.update(seed=4, seconds=1.0, repeats=5, python="3.10.14", cpu_count=8)
    lines, worse = bench_record.compare(before, after, SPEC)
    assert lines[1] == ("not like for like: seed 2 -> 4, seconds 8.0 -> 1.0, "
                        "repeats 3 -> 5, python 3.11.7 -> 3.10.14, cpu_count 2 -> 8")
    assert not worse and len(lines) == 2 + len(after["rows"])
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, rec in zip(paths, (before, after)):
        path.write_text(json.dumps(rec))
    # differing inputs are reported, not failed: only a worse row exits 1
    assert bench_record.main(["--compare", *map(str, paths)]) == 0
    assert lines[1] in capsys.readouterr().out


def test_record_interleaves_checkouts(monkeypatch, tmp_path):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload))
        return fake_metrics(1.0)

    monkeypatch.setattr(bench_record, "run_bench", fake_run)
    monkeypatch.setattr(bench_record, "git_state",
                        lambda c: (c.name * 40, c.name == "b"))
    paths = bench_record.record([Path("a"), Path("b")], WORKLOADS[:1], 2, 1.0, 2,
                                tmp_path)
    assert calls == [("a", WORKLOADS[0]), ("b", WORKLOADS[0]),
                     ("b", WORKLOADS[0]), ("a", WORKLOADS[0])]
    a, b = (json.loads(p.read_text()) for p in paths)
    assert [p.name for p in paths] == ["BENCH_aaaaaaa.json", "BENCH_bbbbbbb-dirty.json"]
    assert (a["paired_with"], b["paired_with"], a["dirty"], b["dirty"]) == (
        "b" * 40, "a" * 40, False, True)
    assert bench_record.check_record(a) == bench_record.check_record(b) == []


def test_dirty_checkout_of_the_same_rev_writes_its_own_record(monkeypatch, tmp_path):
    # an uncommitted change recorded against a clean clone of its HEAD
    monkeypatch.setattr(bench_record, "run_bench", lambda *args: fake_metrics(1.0))
    monkeypatch.setattr(bench_record, "git_state", lambda c: ("a" * 40, c.name == "b"))
    paths = bench_record.record([Path("b"), Path("a")], WORKLOADS[:1], 2, 1.0, 1,
                                tmp_path)
    assert [p.name for p in paths] == ["BENCH_aaaaaaa-dirty.json", "BENCH_aaaaaaa.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)
    assert [json.loads(p.read_text())["dirty"] for p in paths] == [True, False]


@pytest.mark.parametrize("dirty", [False, True])
def test_checkouts_that_would_share_a_record_are_a_usage_error(monkeypatch, tmp_path,
                                                               capsys, dirty):
    def no_run(*args):
        raise AssertionError("ran the benchmark")

    monkeypatch.setattr(bench_record, "run_bench", no_run)
    monkeypatch.setattr(bench_record, "git_state", lambda c: ("a" * 40, dirty))
    with pytest.raises(SystemExit) as exc:
        bench_record.main(["--against", str(tmp_path), "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "would all write BENCH_aaaaaaa" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def kernel_metrics(scale):
    return {name: {"value": scale * (i + 1), "unit": "s"}
            for i, name in enumerate(bench_record.KERNELS)}


def test_kernel_rows_pass_the_check():
    runs = {w: [kernel_metrics(s) for s in (1.0, 2.0, 3.0)]
            for w in bench_record.KERNEL_SIZES}
    rec = bench_record.make_record("a" * 40, False, SPEC, runs, 2, 8.0, 3, None)
    assert bench_record.check_record(json.loads(json.dumps(rec))) == []
    assert [(r["workload"], r["metric"], r["unit"]) for r in rec["rows"]] == [
        (w, name, "s") for w in bench_record.KERNEL_SIZES for name in bench_record.KERNELS]


@pytest.mark.parametrize("scale, shown", [(10.0, "x10.000  won 0/10 pairs"),
                                          (0.1, "x0.100  won 10/10 pairs  gain")])
def test_compare_prints_kernel_rows_and_never_fails_on_them(scale, shown):
    # a kernel row has no bound in BENCHMARK.json: ten times slower is
    # shown and paired, but fails nothing
    before, after = make("a" * 40, [1.0] * 10), make("b" * 40, [1.0] * 10)
    after["paired_with"] = before["rev"]
    for rec, s in ((before, 1.0), (after, scale)):
        rec["rows"] += bench_record.make_record(rec["rev"], False, SPEC, {
            "kernels-96/48": [kernel_metrics(s)] * 10}, 2, 8.0, 10, None)["rows"]
    lines, worse = bench_record.compare(before, after, SPEC)
    assert not worse
    kernel_lines = [line for line in lines if line.startswith("kernels-96/48")]
    assert len(kernel_lines) == len(bench_record.KERNELS)
    assert all(line.endswith(shown) for line in kernel_lines), kernel_lines


def test_kernel_timing_imports_the_checkouts_own_source():
    metrics = bench_record.run_bench(ROOT, "kernels-96/48", 0, 0.001)
    assert sorted(metrics) == sorted(bench_record.KERNELS)
    assert all(m["unit"] == "s" and m["value"] > 0 for m in metrics.values())
