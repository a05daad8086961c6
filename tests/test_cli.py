import json
import shutil

import numpy as np
import pytest

from nsp.cli import (EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA,
                     EXIT_USAGE, _counts_to_events, main)
from nsp.decode import load_decoded, load_decoder, run_filter, store_decoded
from nsp.sim import parse_sim_config, reference_ez, run_simulation
from nsp.sort_offline import TREE_MODEL_BITS, load_models
from nsp.synthdata import (PayloadError, TraceConfig, gen_spike_trace,
                           load_session, load_trace, store_trace)


def run(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full experiment directory: gen -> detect -> train -> decode -> sim."""
    d = tmp_path_factory.mktemp("exp")
    trace, labels = d / "trace.bin", d / "labels.jsonl"
    assert run("gen", "--kind", "trace", "--tier", "easy", "--channels", 2,
               "--duration", 6.0, "--seed", 42,
               "--trace", trace, "--labels", labels) == EXIT_OK
    assert run("detect", "--trace", trace, "--out", d / "tokens.jsonl") == EXIT_OK
    assert run("train-sorter", "--mode", "offline", "--trace", trace,
               "--labels", labels, "--out", d / "sorters.json") == EXIT_OK
    assert run("sort", "--tokens", d / "tokens.jsonl",
               "--models", d / "sorters.json",
               "--out", d / "sorted.jsonl") == EXIT_OK
    assert run("eval-sort", "--trace", trace, "--labels", labels,
               "--models", d / "sorters.json",
               "--out", d / "eval.json") == EXIT_OK
    assert run("gen", "--kind", "session", "--units", 30,
               "--trials-per-target", 3, "--seed", 9,
               "--out", d / "session.csv") == EXIT_OK
    assert run("train-decoder", "--session", d / "session.csv",
               "--filter", "eokf", "--seed", 9,
               "--out", d / "decoder.json") == EXIT_OK
    assert run("decode", "--model", d / "decoder.json",
               "--session", d / "session.csv", "--trials", "test",
               "--out", d / "decoded.csv", "--ops", d / "ops.json",
               "--metrics", d / "metrics.json") == EXIT_OK
    assert run("bench", "--filter", "both", "--neurons", "20",
               "--out", d / "bench.json") == EXIT_OK
    (d / "sim.cfg").write_text(
        "n_channels = 2\ngroup_size = 2\nconveyor_slots = 8\n")
    assert run("simulate", "--trace", trace, "--models", d,
               "--config", d / "sim.cfg",
               "--counters", d / "sim.json",
               "--decoded", d / "sim_decoded.csv") == EXIT_OK
    assert run("report", "--dir", d, "--out", d / "report.json",
               "--csv", d / "report.csv") == EXIT_OK
    return d


# --- artifacts -----------------------------------------------------------------


def test_every_artifact_lands_with_provenance(pipeline):
    d = pipeline
    for name in ("trace.bin", "labels.jsonl", "tokens.jsonl", "sorters.json",
                 "sorted.jsonl", "eval.json", "session.csv", "decoder.json",
                 "decoded.csv", "ops.json", "metrics.json", "bench.json",
                 "sim.json", "sim_decoded.csv", "report.json", "report.csv"):
        assert (d / name).exists(), name
    meta = json.loads((d / "trace.bin.meta.json").read_text())
    assert meta["provenance"]["seed"] == 42
    assert len(meta["provenance"]["config_hash"]) >= 8
    assert meta["provenance"]["tool"].startswith("nsp ")


def test_eval_report_scores_the_easy_tier_high(pipeline):
    report = json.loads((pipeline / "eval.json").read_text())
    assert report["kind"] == "sort-eval"
    assert report["mean_accuracy"] >= 0.9
    for row in report["rows"]:
        assert row["model"] == "tree"
        assert row["footprint_bits"] == TREE_MODEL_BITS


def test_sorted_stream_is_jsonl(pipeline):
    lines = (pipeline / "sorted.jsonl").read_text().splitlines()
    assert len(lines) > 100
    first = json.loads(lines[0])
    assert set(first) == {"t", "ch", "label"}


def test_decoder_records_its_split(pipeline):
    bundle = load_decoder(str(pipeline / "decoder.json"))
    assert bundle.kind == "eokf"
    assert len(bundle.meta["train_trials"]) + len(bundle.meta["test_trials"]) == 24
    assert 20 <= len(bundle.observation.selected) <= 50


def test_decode_metrics_and_ops(pipeline):
    metrics = json.loads((pipeline / "metrics.json").read_text())
    assert metrics["kind"] == "reconstruction"
    assert metrics["metrics"]["mse"] > 0
    ops = json.loads((pipeline / "ops.json").read_text())
    assert ops["filter"] == "eokf"
    assert ops["ops"]["step_total"]["div"] == 4 * ops["n_steps"]


def test_bench_json_carries_both_filters(pipeline):
    bench = json.loads((pipeline / "bench.json").read_text())
    kinds = {(r["kind"], r["n_neurons"]) for r in bench["rows"]}
    assert kinds == {("kf", 20), ("eokf", 20)}
    eokf = next(r for r in bench["rows"] if r["kind"] == "eokf")
    assert eokf["ops"]["step_total"] == {"mult": 42, "add": 37, "div": 4,
                                         "total": 83}


def test_bench_prints_the_step_total_ratio(capsys):
    assert run("bench", "--filter", "both", "--neurons", "20") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "n=20: eokf/kf step ratio = 83/7826 = 1.061%" in lines


def test_sim_counters_schema(pipeline):
    sim = json.loads((pipeline / "sim.json").read_text())
    c = sim["counters"]
    assert c["detections"] > 0
    assert c["input_bits"] == 2 * 6 * 30000 * 8
    assert sim["config"]["n_channels"] == 2
    decoded = load_decoded(str(pipeline / "sim_decoded.csv"))
    assert decoded.shape[1] == 2


def test_report_aggregates_and_cross_checks(pipeline):
    report = json.loads((pipeline / "report.json").read_text())
    assert report["kind"] == "report"
    assert report["accuracy_tables"] and report["op_tables"]
    assert report["reconstruction"] and report["sim_counters"]
    assert set(report["provenance"]["inputs"].values()) == {
        "sort-eval", "op-bench", "decode-ops", "reconstruction", "sim-counters"}
    csv = (pipeline / "report.csv").read_text().splitlines()
    assert csv[0] == "table,source,key,value"
    assert any(line.startswith("ops,bench.json,eokf_n20_step_total,42+37+4")
               for line in csv)


@pytest.fixture(scope="module")
def windows(pipeline, tmp_path_factory):
    d = tmp_path_factory.mktemp("windows")
    assert run("detect", "--trace", pipeline / "trace.bin", "--out", d / "tokens.jsonl",
               "--windows", d / "windows.jsonl") == EXIT_OK
    return d / "windows.jsonl"


@pytest.mark.parametrize("mode", ["offline", "l1", "online"])
def test_every_model_kind_runs_every_command(pipeline, windows, tmp_path, mode):
    d, m = pipeline, tmp_path
    if mode == "online":
        train = ("--tokens", d / "tokens.jsonl")
    else:
        train = ("--trace", d / "trace.bin", "--labels", d / "labels.jsonl")
    assert run("train-sorter", "--mode", mode, *train,
               "--out", m / "sorters.json") == EXIT_OK
    if mode != "online":
        # training from stored windows is the same computation as from the trace
        assert run("train-sorter", "--mode", mode, "--windows", windows,
                   "--labels", d / "labels.jsonl",
                   "--out", m / "sorters_w.json") == EXIT_OK
        assert (m / "sorters_w.json").read_bytes() == (m / "sorters.json").read_bytes()
    assert run("sort", "--tokens", d / "tokens.jsonl", "--models", m / "sorters.json",
               "--out", m / "sorted.jsonl") == EXIT_OK
    assert run("eval-sort", "--trace", d / "trace.bin", "--labels", d / "labels.jsonl",
               "--models", m / "sorters.json", "--out", m / "eval.json") == EXIT_OK
    models = load_models(str(m / "sorters.json"))
    rows = json.loads((m / "eval.json").read_text())["rows"]
    assert [r["footprint_bits"] for r in rows] == [models[r["channel"]].footprint_bits()
                                                   for r in rows]
    shutil.copy(d / "decoder.json", m / "decoder.json")
    assert run("simulate", "--trace", d / "trace.bin", "--models", m,
               "--config", d / "sim.cfg", "--counters", m / "sim.json",
               "--decoded", m / "sim_decoded.csv") == EXIT_OK

    counters = json.loads((m / "sim.json").read_text())["counters"]
    assert counters["decoder_accepts"] > 0
    assert counters["tokens_lost"] == 0 and counters["late_tokens"] == 0
    # lossless run: the decoded output is the filter over the reference ez
    bundle = load_decoder(str(m / "decoder.json"))
    cfg = parse_sim_config((d / "sim.cfg").read_text())
    res = run_simulation(load_trace(str(d / "trace.bin")),
                         load_models(str(m / "sorters.json")), bundle.observation, cfg)
    assert res.counters.as_dict() == counters
    ez = reference_ez(res.accepted_events, bundle.observation, res.n_bins, cfg.bin_len)
    states, _ = run_filter(bundle.transition, bundle.observation, ez,
                           x0=bundle.x0, P0=bundle.P0)
    store_decoded(str(m / "ref_decoded.csv"), states)
    assert (m / "ref_decoded.csv").read_bytes() == (m / "sim_decoded.csv").read_bytes()

    # the report re-derives every kind's footprint and rejects a tampered one
    report = ("report", "--dir", m, "--out", m / "report.json", "--csv", m / "report.csv")
    assert run(*report) == EXIT_OK
    tampered = json.loads((m / "eval.json").read_text())
    tampered["rows"][0]["footprint_bits"] += 1
    (m / "eval.json").write_text(json.dumps(tampered))
    assert run(*report) == EXIT_NUMERICAL


@pytest.mark.parametrize("kind", ["kf", "eokf", "eokf-fixed"])
def test_every_decoder_kind_runs_every_command(pipeline, tmp_path, capfd, kind):
    d, m = pipeline, tmp_path
    flags = {"kf": ("--filter", "kf"), "eokf": ("--filter", "eokf"),
             "eokf-fixed": ("--filter", "eokf", "--fixed")}[kind]
    assert run("train-decoder", "--session", d / "session.csv", *flags, "--seed", 9,
               "--out", m / "decoder.json") == EXIT_OK
    bundle = load_decoder(str(m / "decoder.json"))
    assert bundle.kind == kind.split("-")[0]
    assert (bundle.fixed is not None) == (kind == "eokf-fixed")
    for split in ("monolithic", "implant"):
        assert run("decode", "--model", m / "decoder.json", "--session", d / "session.csv",
                   "--trials", "test", "--split", split, "--out", m / f"{split}.csv",
                   "--ops", m / f"{split}_ops.json") == EXIT_OK
        ops = json.loads((m / f"{split}_ops.json").read_text())
        assert ops["filter"] == bundle.kind
    assert (m / "monolithic.csv").read_bytes() == (m / "implant.csv").read_bytes()
    shutil.copy(d / "sorters.json", m / "sorters.json")
    events = ("decode", "--model", m / "decoder.json", "--events", d / "sorted.jsonl",
              "--out", m / "ev.csv")
    simulate = ("simulate", "--trace", d / "trace.bin", "--models", m,
                "--config", d / "sim.cfg", "--counters", m / "sim.json",
                "--decoded", m / "sim_decoded.csv")
    capfd.readouterr()
    if kind == "kf":
        assert run(*events) == EXIT_SCHEMA
        assert run(*simulate) == EXIT_SCHEMA
        err = capfd.readouterr().err
        assert err.count("ensemble (eokf) decoder") == 2 and "Traceback" not in err
        assert not (m / "ev.csv").exists() and not (m / "sim.json").exists()
    else:
        assert run(*events) == EXIT_OK
        assert run(*simulate) == EXIT_OK
        assert np.isfinite(load_decoded(str(m / "ev.csv"))).all()
        assert json.loads((m / "sim.json").read_text())["counters"]["decoder_accepts"] > 0


def test_train_sorter_ignores_the_row_order_of_a_windows_file(pipeline, windows, tmp_path):
    lines = windows.read_text().splitlines(keepends=True)
    shuffled = [lines[i] for i in np.random.default_rng(0).permutation(len(lines))]
    assert shuffled != lines
    (tmp_path / "shuffled.jsonl").write_text("".join(shuffled))
    sets = []
    for path in (windows, tmp_path / "shuffled.jsonl"):
        assert run("train-sorter", "--mode", "offline", "--windows", path,
                   "--labels", pipeline / "labels.jsonl",
                   "--out", tmp_path / "sorters.json") == EXIT_OK
        sets.append((tmp_path / "sorters.json").read_bytes())
    assert sets[0] == sets[1]


# --- determinism ------------------------------------------------------------------


def test_report_rerun_is_byte_identical(pipeline):
    d = pipeline
    before = (d / "report.json").read_bytes(), (d / "report.csv").read_bytes()
    assert run("report", "--dir", d, "--out", d / "report.json",
               "--csv", d / "report.csv") == EXIT_OK
    assert ((d / "report.json").read_bytes(),
            (d / "report.csv").read_bytes()) == before


def test_decode_rerun_is_byte_identical(pipeline):
    d = pipeline
    before = (d / "decoded.csv").read_bytes()
    assert run("decode", "--model", d / "decoder.json",
               "--session", d / "session.csv", "--trials", "test",
               "--out", d / "decoded.csv") == EXIT_OK
    assert (d / "decoded.csv").read_bytes() == before


def test_gen_rerun_is_byte_identical(pipeline, tmp_path):
    again = tmp_path / "trace.bin"
    assert run("gen", "--kind", "trace", "--tier", "easy", "--channels", 2,
               "--duration", 6.0, "--seed", 42,
               "--trace", again, "--labels", tmp_path / "labels.jsonl") == EXIT_OK
    assert again.read_bytes() == (pipeline / "trace.bin").read_bytes()


def test_implant_split_decode_matches_monolithic(pipeline, tmp_path):
    d = pipeline
    for split in ("monolithic", "implant"):
        assert run("decode", "--model", d / "decoder.json",
                   "--session", d / "session.csv", "--trials", "test",
                   "--split", split, "--out", tmp_path / f"{split}.csv") == EXIT_OK
    assert ((tmp_path / "monolithic.csv").read_bytes()
            == (tmp_path / "implant.csv").read_bytes())


def test_events_decode_accepts_the_sorted_stream(pipeline, tmp_path):
    d = pipeline
    assert run("decode", "--model", d / "decoder.json",
               "--events", d / "sorted.jsonl",
               "--out", tmp_path / "ev.csv") == EXIT_OK
    states = load_decoded(str(tmp_path / "ev.csv"))
    assert states.shape[1] == 2 and np.isfinite(states).all()


@pytest.mark.parametrize("split", ["monolithic", "implant"])
def test_negative_session_count_exits_4(pipeline, tmp_path, capfd, split):
    d = pipeline
    lines = (d / "session.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = "-3"
    lines[5] = ",".join(cells)
    (tmp_path / "session.csv").write_text("\n".join(lines) + "\n")
    shutil.copy(d / "session.csv.json", tmp_path / "session.csv.json")
    with pytest.raises(PayloadError, match="negative unit count"):
        load_session(str(tmp_path / "session.csv"))
    assert run("decode", "--model", d / "decoder.json",
               "--session", tmp_path / "session.csv", "--split", split,
               "--out", tmp_path / "decoded.csv") == EXIT_SCHEMA
    assert not (tmp_path / "decoded.csv").exists()
    assert "Traceback" not in capfd.readouterr().err


# --- exit codes ---------------------------------------------------------------------


def test_usage_errors_exit_2():
    assert run("no-such-command") == EXIT_USAGE
    assert run("detect") == EXIT_USAGE          # missing required flags
    assert run("gen", "--kind", "nonsense") == EXIT_USAGE


def test_missing_input_exits_3(tmp_path):
    assert run("detect", "--trace", tmp_path / "nope.bin",
               "--out", tmp_path / "t.jsonl") == EXIT_IO


def test_corrupt_input_exits_4(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a trace at all")
    assert run("detect", "--trace", bad, "--out", tmp_path / "t.jsonl") == EXIT_SCHEMA


def test_out_of_range_window_sample_exits_4(tmp_path, pipeline, capfd):
    windows = tmp_path / "windows.jsonl"
    windows.write_text(json.dumps({"t": 100, "ch": 0, "s": [300] + [0] * 31}) + "\n")
    assert run("train-sorter", "--mode", "offline", "--windows", windows,
               "--labels", pipeline / "labels.jsonl",
               "--out", tmp_path / "sorters.json") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "windows.jsonl:1: bad window record" in err
    assert "Traceback" not in err
    assert not (tmp_path / "sorters.json").exists()


def test_negative_token_channel_exits_4_before_training(tmp_path, capfd):
    tokens = tmp_path / "tokens.jsonl"
    tokens.write_text(json.dumps({"t": 5, "ch": 0, "f1": 3, "f2": -4}) + "\n"
                      + json.dumps({"t": 50, "ch": -1, "f1": 3, "f2": -4}) + "\n")
    assert run("train-sorter", "--mode", "online", "--tokens", tokens,
               "--out", tmp_path / "online.json") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "negative channel -1" in err and "Traceback" not in err
    assert not (tmp_path / "online.json").exists()


@pytest.mark.parametrize("f1,f2", [(1000, -4), (3, -129)])
def test_token_features_outside_int8_exit_4(tmp_path, pipeline, capfd, f1, f2):
    tokens = tmp_path / "tokens.jsonl"
    tokens.write_text(json.dumps({"t": 5, "ch": 0, "f1": 3, "f2": -4}) + "\n"
                      + json.dumps({"t": 50, "ch": 1, "f1": f1, "f2": f2}) + "\n")
    assert run("train-sorter", "--mode", "online", "--tokens", tokens,
               "--out", tmp_path / "online.json") == EXIT_SCHEMA
    assert run("sort", "--tokens", tokens, "--models", pipeline / "sorters.json",
               "--out", tmp_path / "sorted.jsonl") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert err.count(f"features span {min(f2, -4)}..{max(f1, 3)}, outside int8") == 2
    assert "Traceback" not in err
    assert not (tmp_path / "online.json").exists()
    assert not (tmp_path / "sorted.jsonl").exists()


def test_semantic_misuse_exits_4(tmp_path, pipeline):
    # session and events are mutually exclusive inputs
    assert run("decode", "--model", pipeline / "decoder.json",
               "--out", tmp_path / "x.csv") == EXIT_SCHEMA
    assert run("bench", "--neurons", "0") == EXIT_SCHEMA


def test_unknown_model_set_kind_exits_4(tmp_path, pipeline):
    bogus = tmp_path / "models.json"
    bogus.write_text('{"kind": "bogus-set"}')
    assert run("sort", "--tokens", pipeline / "tokens.jsonl",
               "--models", bogus, "--out", tmp_path / "s.jsonl") == EXIT_SCHEMA


def _online_set(cuts: str, cam: str) -> str:
    return ('{"kind": "online-set", "channels": {"0": '
            f'{{"kind": "online", "boundaries": {cuts}, "cam": {cam}}}}}}}')


def _tree_set(pattern_id="2", boundaries="[-5, 10, 100]", valid_mask="7") -> str:
    return ('{"kind": "tree-set", "channels": {"0": {"kind": "tree", '
            f'"pattern_id": {pattern_id}, "boundaries": {boundaries}, '
            f'"valid_mask": {valid_mask}}}}}}}')


def _l1_set(templates: str, labels: str) -> str:
    return ('{"kind": "l1-set", "channels": {"0": '
            f'{{"kind": "l1", "templates": {templates}, "labels": {labels}}}}}}}')


@pytest.mark.parametrize("text", [
    "[1]",
    _tree_set(boundaries="[-5, 10]"),           # two boundaries, not three
    _tree_set(boundaries="[-5, 10, 100, 4]"),
    _tree_set(boundaries="[-5, 1.7, 100]"),     # not an int
    _tree_set(boundaries="[-5, 10, 300]"),      # outside int8
    _tree_set(valid_mask="99"),                 # more than four leaves
    _tree_set(valid_mask="-1"),
    _tree_set(pattern_id="true"),
    _tree_set(pattern_id="11"),                 # eleven patterns: 0..10
    _l1_set("[[0, 0], [50, -50]]", "[1]"),      # one label for two templates
    _l1_set("[[0, 0]]", "[1, 2]"),
    _l1_set("[[0, 300]]", "[1]"),               # outside int8
    _l1_set("[[0.5, 0]]", "[1]"),
    _l1_set("[[0, 0]]", "[1.5]"),               # not an integer label
    _l1_set("[[0, 0]]", "[true]"),
    '{"kind": "tree-set"}',
    '{"kind": "l1-set", "channels": {"0": {"kind": "l1", "templates": [[0, 0]]}}}',
    '{"kind": "l1-set", "channels": {"0": 5}}',
    '{"kind": "tree-set", "channels": '
    '{"0": {"kind": "l1", "templates": [[0, 0]], "labels": [1]}}}',
    *(_online_set(cuts, cam) for cuts, cam in [
        ('[["a"], []]', '[]'),                  # a cut that is not an int
        ('[[1.5], []]', '[]'),
        ('[[true], []]', '[]'),
        ('[[0], [200]]', '[]'),                 # outside int8
        ('[[-129], []]', '[]'),
        ('[[5, 3], []]', '[]'),                 # not ascending
        ('[[4, 4], []]', '[]'),
        ('[[1, 2, 3, 4], []]', '[]'),           # more than MAX_BOUNDARIES
        ('[[0]]', '[]'),                        # one axis only
        ('[[0], []]', '[{"i": 2, "j": 0, "status": 3}]'),   # CAM cell off the grid
        ('[[0], []]', '[{"i": 0, "j": -1, "status": 3}]'),
        ('[[0], []]', '[{"i": "0", "j": 0, "status": 3}]'),
        ('[[0], []]', '[{"i": 0, "j": 0, "status": 9}]'),   # not a CAM status
        ('[[0], []]', '[{"i": 0, "j": 0, "status": 0}]'),   # vacant is never stored
        ('[[0], []]', '[{"i": 0, "j": 0, "status": true}]'),
        ('[[0], []]', '[{"i": 0, "j": 0, "status": 3}, '    # one cell twice
                      '{"i": 0, "j": 0, "status": 2}]'),
    ]),
])
def test_malformed_model_set_is_a_typed_error(tmp_path, pipeline, capfd, text):
    bad = tmp_path / "sorters.json"
    bad.write_text(text)
    with pytest.raises(PayloadError):
        load_models(str(bad))
    assert run("sort", "--tokens", pipeline / "tokens.jsonl",
               "--models", bad, "--out", tmp_path / "s.jsonl") == EXIT_SCHEMA
    assert "Traceback" not in capfd.readouterr().err


def _tree_set_with_spec(pipeline, d, spec):
    """*d* holding the pipeline's tree set with *spec* written into every
    model, as sets stored before peak-trough was the only feature rule carry
    it, next to the pipeline's decoder."""
    obj = json.loads((pipeline / "sorters.json").read_text())
    assert all("feature_spec" not in m for m in obj["channels"].values())
    for m in obj["channels"].values():
        m["feature_spec"] = spec
    (d / "sorters.json").write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    shutil.copy(pipeline / "decoder.json", d / "decoder.json")
    return d


def test_tree_set_naming_peak_trough_sorts_as_a_fresh_set(tmp_path, pipeline):
    d = _tree_set_with_spec(pipeline, tmp_path,
                            {"mode": "peak-trough", "idx_a": 0, "idx_b": 0})
    assert load_models(str(d / "sorters.json")) == load_models(str(pipeline / "sorters.json"))
    assert run("sort", "--tokens", pipeline / "tokens.jsonl",
               "--models", d / "sorters.json", "--out", d / "sorted.jsonl") == EXIT_OK
    assert (d / "sorted.jsonl").read_bytes() == (pipeline / "sorted.jsonl").read_bytes()


@pytest.mark.parametrize("command", ["sort", "eval-sort", "simulate"])
def test_tree_set_on_indexed_features_exits_4(tmp_path, pipeline, capfd, command):
    d = _tree_set_with_spec(pipeline, tmp_path, {"mode": "indexed", "idx_a": 3, "idx_b": 17})
    p = pipeline
    argv = {"sort": ("--tokens", p / "tokens.jsonl", "--models", d / "sorters.json",
                     "--out", d / "out"),
            "eval-sort": ("--trace", p / "trace.bin", "--labels", p / "labels.jsonl",
                          "--models", d / "sorters.json", "--out", d / "out"),
            "simulate": ("--trace", p / "trace.bin", "--models", d,
                         "--config", p / "sim.cfg", "--counters", d / "out")}[command]
    assert run(command, *argv) == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "peak-trough" in err and "Traceback" not in err
    assert not (d / "out").exists()


def _tree_set_on_channel(pipeline, d, channel):
    """*d* holding the pipeline's tree set with channel 0's model moved to
    *channel*, next to the pipeline's decoder."""
    obj = json.loads((pipeline / "sorters.json").read_text())
    obj["channels"][str(channel)] = obj["channels"].pop("0")
    (d / "sorters.json").write_text(json.dumps(obj, sort_keys=True))
    shutil.copy(pipeline / "decoder.json", d / "decoder.json")
    return d


@pytest.mark.parametrize("command", ["eval-sort", "simulate"])
def test_model_on_a_channel_the_trace_lacks_exits_4(tmp_path, pipeline, capfd, command):
    d = _tree_set_on_channel(pipeline, tmp_path, 7)     # the trace has 2 channels
    p = pipeline
    argv = {"eval-sort": ("--trace", p / "trace.bin", "--labels", p / "labels.jsonl",
                          "--models", d / "sorters.json", "--out", d / "out"),
            "simulate": ("--trace", p / "trace.bin", "--models", d,
                         "--config", p / "sim.cfg", "--counters", d / "out")}[command]
    assert run(command, *argv) == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "[7]" in err and "2 channels" in err and "Traceback" not in err
    assert not (d / "out").exists()


def test_negative_model_channel_is_a_typed_error(tmp_path, pipeline, capfd):
    d = _tree_set_on_channel(pipeline, tmp_path, -1)
    with pytest.raises(PayloadError, match="negative channel"):
        load_models(str(d / "sorters.json"))
    assert run("eval-sort", "--trace", pipeline / "trace.bin",
               "--labels", pipeline / "labels.jsonl",
               "--models", d / "sorters.json", "--out", d / "out") == EXIT_SCHEMA
    assert "Traceback" not in capfd.readouterr().err
    assert not (d / "out").exists()


@pytest.mark.parametrize("bad", ["fractional start_bin", "short unit_channels",
                                 "fractional bin_ms", "boolean bin_ms", "zero bin_ms"])
def test_malformed_session_sidecar_exits_4(tmp_path, pipeline, capfd, bad):
    d = pipeline
    shutil.copy(d / "session.csv", tmp_path / "session.csv")
    sidecar = json.loads((d / "session.csv.json").read_text())
    if bad == "fractional start_bin":
        sidecar["trials"][0]["start_bin"] = 1.5
    elif bad == "short unit_channels":
        sidecar["unit_channels"].pop()
    else:
        sidecar["bin_ms"] = {"fractional bin_ms": 100.9, "boolean bin_ms": True,
                             "zero bin_ms": 0}[bad]
    (tmp_path / "session.csv.json").write_text(json.dumps(sidecar))
    assert run("train-decoder", "--session", tmp_path / "session.csv",
               "--out", tmp_path / "decoder.json") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "malformed session sidecar" in err and "Traceback" not in err
    assert not (tmp_path / "decoder.json").exists()
    assert run("decode", "--model", d / "decoder.json",
               "--session", tmp_path / "session.csv",
               "--out", tmp_path / "decoded.csv") == EXIT_SCHEMA
    assert not (tmp_path / "decoded.csv").exists()


@pytest.mark.parametrize("edit", [{"bin_ms": 99.7}, {"bin_ms": True}, {"bin_ms": -100},
                                  {"fixed_point": {"bits": 100, "frac_bits": 90}},
                                  {"fixed_point": {"bits": 16, "frac_bits": 2.5}},
                                  {"fixed_point": {"bits": 1, "frac_bits": 0}},
                                  {"kind": "ukf"},
                                  {"kind": "kf"},           # an eokf file has no H
                                  {"E": None},              # None drops the key
                                  {"E": [0.5, 0.25]}])
@pytest.mark.parametrize("split", ["monolithic", "implant"])
def test_malformed_decoder_exits_4(tmp_path, pipeline, capfd, edit, split):
    obj = {**json.loads((pipeline / "decoder.json").read_text()), **edit}
    obj = {k: v for k, v in obj.items() if v is not None}
    (tmp_path / "decoder.json").write_text(json.dumps(obj))
    assert run("decode", "--model", tmp_path / "decoder.json",
               "--session", pipeline / "session.csv", "--split", split,
               "--out", tmp_path / "decoded.csv") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "bad decoder model" in err and "Traceback" not in err
    assert not (tmp_path / "decoded.csv").exists()


def test_decoder_without_bin_ms_loads_as_100(tmp_path, pipeline):
    obj = json.loads((pipeline / "decoder.json").read_text())
    assert obj.pop("bin_ms") == 100
    (tmp_path / "decoder.json").write_text(json.dumps(obj))
    assert load_decoder(str(tmp_path / "decoder.json")).bin_ms == 100


def test_simulate_clocks_the_fabric_at_the_trace_rate(tmp_path, pipeline):
    d = pipeline
    trace, _ = gen_spike_trace(TraceConfig(n_channels=32, duration_s=1.0,
                                           sample_rate=20000), seed=3)
    store_trace(trace, str(tmp_path / "t20k.bin"))
    assert run("simulate", "--trace", tmp_path / "t20k.bin", "--models", d,
               "--counters", tmp_path / "sim.json",
               "--decoded", tmp_path / "sim.csv") == EXIT_OK
    out = json.loads((tmp_path / "sim.json").read_text())
    assert out["config"]["clock_hz"] == 20000
    assert out["counters"]["bins_emitted"] == 10          # 2000-cycle bins
    meta = json.loads((tmp_path / "sim.csv.meta.json").read_text())
    assert meta["n_bins"] == 10
    (tmp_path / "30k.cfg").write_text("n_channels = 32\nclock_hz = 30000\n")
    assert run("simulate", "--trace", tmp_path / "t20k.bin", "--models", d,
               "--config", tmp_path / "30k.cfg",
               "--counters", tmp_path / "sim30.json") == EXIT_SCHEMA
    assert not (tmp_path / "sim30.json").exists()


def test_simulate_without_config_groups_a_small_trace(tmp_path, pipeline):
    # the default group of 32 channels does not divide a 2-channel trace
    d = pipeline
    assert run("simulate", "--trace", d / "trace.bin", "--models", d,
               "--counters", tmp_path / "sim.json",
               "--decoded", tmp_path / "sim.csv") == EXIT_OK
    out = json.loads((tmp_path / "sim.json").read_text())
    assert (out["config"]["n_channels"], out["config"]["group_size"]) == (2, 2)
    assert out["counters"]["decoder_accepts"] > 0


def test_simulate_bins_at_the_decoder_bin_width(tmp_path, pipeline):
    d = pipeline
    assert run("gen", "--kind", "session", "--units", 30, "--trials-per-target", 3,
               "--bin-ms", 50, "--seed", 9, "--out", tmp_path / "s50.csv") == EXIT_OK
    assert run("train-decoder", "--session", tmp_path / "s50.csv", "--seed", 9,
               "--out", tmp_path / "decoder.json") == EXIT_OK
    shutil.copy(d / "sorters.json", tmp_path / "sorters.json")
    assert run("simulate", "--trace", d / "trace.bin", "--models", tmp_path,
               "--counters", tmp_path / "sim.json",
               "--decoded", tmp_path / "sim.csv") == EXIT_OK
    out = json.loads((tmp_path / "sim.json").read_text())
    assert out["config"]["bin_ms"] == 50
    assert out["counters"]["bins_emitted"] == 120          # 6 s in 50 ms bins
    assert json.loads((tmp_path / "sim.csv.meta.json").read_text())["n_bins"] == 120


def test_simulate_config_bin_width_must_match_the_decoder(tmp_path, pipeline, capfd):
    d = pipeline
    (tmp_path / "sim.cfg").write_text(
        "n_channels = 2\ngroup_size = 2\nconveyor_slots = 8\nbin_ms = 50\n")
    assert run("simulate", "--trace", d / "trace.bin", "--models", d,
               "--config", tmp_path / "sim.cfg",
               "--counters", tmp_path / "sim.json") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "50 ms" in err and "100 ms" in err and "Traceback" not in err
    assert not (tmp_path / "sim.json").exists()


@pytest.mark.parametrize("flag", ["--k", "--pre"])
@pytest.mark.parametrize("command", ["detect", "train-sorter", "eval-sort"])
def test_detector_settings_are_not_options(tmp_path, pipeline, command, flag):
    d = pipeline
    argv = {"detect": ("detect", "--trace", d / "trace.bin"),
            "train-sorter": ("train-sorter", "--mode", "offline", "--trace",
                             d / "trace.bin", "--labels", d / "labels.jsonl"),
            "eval-sort": ("eval-sort", "--trace", d / "trace.bin", "--labels",
                          d / "labels.jsonl", "--models", d / "sorters.json")}[command]
    assert run(*argv, flag, 5, "--out", tmp_path / "out") == EXIT_USAGE
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line,message", [
    ("pre_samples = 6", "pre_samples = 6"),
    ("channel_gating = false", "channel_gating = false"),
    ("output_width_bits = 32", "output_width_bits = 32"),
    ("n_channels = 2", "key 'n_channels' given twice"),
])
def test_sim_config_line_the_fabric_cannot_honour_exits_4(tmp_path, pipeline, capfd,
                                                          line, message):
    d = pipeline
    (tmp_path / "sim.cfg").write_text(
        f"n_channels = 2\ngroup_size = 2\nconveyor_slots = 8\n{line}\n")
    assert run("simulate", "--trace", d / "trace.bin", "--models", d,
               "--config", tmp_path / "sim.cfg",
               "--counters", tmp_path / "sim.json") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "sim.json").exists()


def test_counts_expand_to_bin_major_event_rows():
    rng = np.random.default_rng(4)
    counts = rng.poisson(1.5, size=(7, 5))
    counts[2] = 0
    selected = [(0, 0), (0, 2), (3, 1), (9, 4), (11, 0)]
    rows = []
    for k in range(counts.shape[0]):
        for j, (ch, un) in enumerate(selected):
            rows.extend([[k * 300, ch, un]] * int(counts[k, j]))
    events = _counts_to_events(counts, 300, selected)
    assert events.dtype == np.int64
    assert events.tolist() == rows
    assert _counts_to_events(counts[:, :0], 300, []).shape == (0, 3)


def test_numerical_failure_exits_5_without_partial_outputs(tmp_path):
    trace = tmp_path / "clip.bin"
    rc = run("gen", "--kind", "trace", "--channels", 1, "--duration", 1.0,
             "--snr", -6.0, "--trace", trace, "--labels", tmp_path / "l.jsonl")
    assert rc == EXIT_NUMERICAL
    assert not trace.exists()
    assert not (tmp_path / "l.jsonl").exists()


def test_report_on_empty_dir_fails_without_partial_outputs(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "report.json"
    assert run("report", "--dir", empty, "--out", out,
               "--csv", tmp_path / "report.csv") == EXIT_IO
    assert not out.exists()


def test_tampered_bench_fails_report_crosscheck(pipeline, tmp_path):
    d = tmp_path / "tampered"
    d.mkdir()
    bench = json.loads((pipeline / "bench.json").read_text())
    bench["rows"][0]["ops"]["step_total"]["mult"] += 1
    (d / "bench.json").write_text(json.dumps(bench))
    out = d / "report.json"
    assert run("report", "--dir", d, "--out", out,
               "--csv", d / "report.csv") == EXIT_NUMERICAL
    assert not out.exists()


def test_version_flag():
    assert run("--version") == EXIT_OK


def test_sorter_set_loader_dispatches_on_kind(pipeline):
    models = load_models(str(pipeline / "sorters.json"))
    assert set(models) == {0, 1}
