import hashlib
import json
import os
import shutil
from dataclasses import replace

import numpy as np
import pytest

from nsp.cli import (EXIT_IO, EXIT_NUMERICAL, EXIT_OK, EXIT_SCHEMA,
                     EXIT_USAGE, _load_sorted_events, main)
from nsp.decode import (FilterState, StepOps, ensemble_ez, eokf_step, kf_step,
                        load_decoded, load_decoder, run_eokf, run_eokf_split, run_filter,
                        selection_columns, store_decoded, within_channel_ranks)
from nsp.evaluation import calibrate, train_channels
from nsp.sim import bin_length, bins_spanning, parse_sim_config, reference_ez, run_simulation
from nsp.sort_offline import (MODEL_KINDS, TREE_MODEL_BITS, L1TemplateModel,
                              load_models, store_models, train_channel_model)
from nsp.synthdata import (GroundTruthLabels, PayloadError, RawTrace, SessionConfig,
                           TraceConfig, gen_reach_session, gen_spike_trace, load_session,
                           load_trace, store_labels, store_records, store_session,
                           store_trace, tier_config, trials_to_bins)


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
    assert run("train-sorter", "--mode", "offline", "--tokens", d / "tokens.jsonl",
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


@pytest.mark.parametrize("mode", ["offline", "l1", "online"])
def test_every_model_kind_runs_every_command(pipeline, tmp_path, mode):
    d, m = pipeline, tmp_path
    labels = () if mode == "online" else ("--labels", d / "labels.jsonl")
    assert run("train-sorter", "--mode", mode, "--tokens", d / "tokens.jsonl", *labels,
               "--out", m / "sorters.json") == EXIT_OK
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
    assert run("decode", "--model", m / "decoder.json", "--session", d / "session.csv",
               "--trials", "test", "--out", m / "decoded.csv",
               "--ops", m / "ops.json") == EXIT_OK
    assert json.loads((m / "ops.json").read_text())["filter"] == bundle.kind
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
        # simulate decodes E z in the decoder's own number format
        res = run_simulation(load_trace(str(d / "trace.bin")),
                             load_models(str(m / "sorters.json")), bundle.observation,
                             parse_sim_config((d / "sim.cfg").read_text()))
        states, _ = run_filter(bundle.transition, bundle.observation,
                               ensemble_ez(bundle.observation, res.counts, bundle.fixed),
                               x0=bundle.x0, P0=bundle.P0)
        store_decoded(str(m / "ref.csv"), states)
        assert (m / "ref.csv").read_bytes() == (m / "sim_decoded.csv").read_bytes()


@pytest.mark.parametrize("kind", ["kf", "eokf"])
def test_session_decode_writes_the_counted_per_row_loop(pipeline, tmp_path, kind):
    """The held-out trials run well past the bin where the posterior P
    repeats, and decode writes the bytes of one counted step per bin from the
    bundle's x0 and P0."""
    d, m = pipeline, tmp_path
    assert run("train-decoder", "--session", d / "session.csv", "--filter", kind,
               "--seed", 9, "--out", m / "decoder.json") == EXIT_OK
    assert run("decode", "--model", m / "decoder.json", "--session", d / "session.csv",
               "--trials", "test", "--out", m / "decoded.csv") == EXIT_OK
    bundle, session = load_decoder(str(m / "decoder.json")), load_session(str(d / "session.csv"))
    obs = bundle.observation
    stream = session.counts[trials_to_bins(session, bundle.meta["test_trials"])]
    if kind == "eokf":
        stream = ensemble_ez(obs, stream[:, selection_columns(obs.selected,
                                                              session.unit_channels)])
    step = kf_step if kind == "kf" else eokf_step
    fs, seen, states = FilterState(x=bundle.x0, P=bundle.P0), set(), []
    for row in stream:
        fs = step(fs, bundle.transition, obs, row, StepOps())
        states.append(fs.x)
        seen.add(fs.P.tobytes())
    assert len(seen) < len(stream) - 20      # over 20 bins repeat an earlier P
    store_decoded(str(m / "want.csv"), np.array(states))
    assert (m / "want.csv").read_bytes() == (m / "decoded.csv").read_bytes()


def test_train_sorter_ignores_the_row_order_of_a_token_file(pipeline, tmp_path):
    tokens = pipeline / "tokens.jsonl"
    lines = tokens.read_text().splitlines(keepends=True)
    shuffled = [lines[i] for i in np.random.default_rng(0).permutation(len(lines))]
    assert shuffled != lines
    (tmp_path / "shuffled.jsonl").write_text("".join(shuffled))
    sets = []
    for path in (tokens, tmp_path / "shuffled.jsonl"):
        assert run("train-sorter", "--mode", "offline", "--tokens", path,
                   "--labels", pipeline / "labels.jsonl",
                   "--out", tmp_path / "sorters.json") == EXIT_OK
        sets.append((tmp_path / "sorters.json").read_bytes())
    assert sets[0] == sets[1]


# --- the CLI chain against the library chain ----------------------------------------


def test_the_cli_chain_writes_the_library_chains_bytes(tmp_path):
    """An 8-channel, 4 s medium trace, split into a calibration and a stream
    half, goes detect -> train-sorter -> train-decoder (float and fixed) ->
    simulate --config, and through calibrate -> train_channels ->
    run_simulation -> run_eokf. The sorter sets, the counters and the
    decoded CSVs are equal byte for byte. Channel 5 is silent and unlabeled,
    and channel 2 keeps one matched event: both routes leave both
    unmodeled."""
    m, silent, sparse = tmp_path, 5, 2
    trace, labels = gen_spike_trace(tier_config("medium", 8, 4.0), seed=5)
    trace.data[silent] = 0
    half = trace.n_samples // 2
    cal = RawTrace(trace.data[:, :half], sample_rate=trace.sample_rate)
    ev = labels.events[(labels.ch != silent) & (labels.t < half)]
    ev = ev[(ev[:, 1] != sparse) | (ev[:, 0] == ev[ev[:, 1] == sparse][0, 0])]   # its first
    cal_labels = GroundTruthLabels(ev)
    store_trace(cal, str(m / "cal.bin"))
    store_labels(cal_labels, str(m / "cal.jsonl"))
    store_trace(RawTrace(trace.data[:, half:], sample_rate=trace.sample_rate),
                str(m / "stream.bin"))
    store_session(gen_reach_session(SessionConfig(n_units=24, trials_per_target=2), seed=9),
                  str(m / "session.csv"))
    (m / "sim.cfg").write_text("n_channels = 8\ngroup_size = 4\nconveyor_slots = 8\n")

    assert run("detect", "--trace", m / "cal.bin", "--out", m / "tokens.jsonl") == EXIT_OK
    assert run("train-sorter", "--mode", "offline", "--tokens", m / "tokens.jsonl",
               "--labels", m / "cal.jsonl", "--out", m / "sorters.json") == EXIT_OK
    channels = calibrate(cal, cal_labels)[2]
    models = train_channels(train_channel_model, dict(enumerate(channels)))
    assert channels[silent][2] == 0 and channels[sparse][0].shape[0] == 1
    assert sorted(models) == [0, 1, 3, 4, 6, 7]
    store_models(models, str(m / "library-sorters.json"))
    assert (m / "sorters.json").read_bytes() == (m / "library-sorters.json").read_bytes()

    stream = load_trace(str(m / "stream.bin"))
    cfg = parse_sim_config((m / "sim.cfg").read_text())
    for flags in ((), ("--fixed",)):
        d = m / ("fixed" if flags else "float")
        d.mkdir()
        shutil.copy(m / "sorters.json", d / "sorters.json")
        assert run("train-decoder", "--session", m / "session.csv", "--seed", 9, *flags,
                   "--out", d / "decoder.json") == EXIT_OK
        assert run("simulate", "--trace", m / "stream.bin", "--models", d,
                   "--config", m / "sim.cfg", "--counters", d / "sim.json",
                   "--decoded", d / "sim.csv") == EXIT_OK
        bundle = load_decoder(str(d / "decoder.json"))
        assert (bundle.fixed is not None) == bool(flags)
        sim = run_simulation(stream, models, bundle.observation, cfg)
        assert json.loads((d / "sim.json").read_text())["counters"] == sim.counters.as_dict()
        assert sim.counters.decoder_accepts > 0
        states, _, _ = run_eokf(bundle.transition, bundle.observation, sim.counts,
                                x0=bundle.x0, P0=bundle.P0, fmt=bundle.fixed)
        store_decoded(str(d / "library.csv"), states)
        assert (d / "sim.csv").read_bytes() == (d / "library.csv").read_bytes()


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


@pytest.mark.parametrize("fixed", [False, True])
def test_events_decode_of_the_session_counts_matches_session_decode(pipeline, tmp_path,
                                                                    fixed):
    """The implant split on the session's own spikes, one event per count at
    each bin's last sample, writes the bytes of the binned session route."""
    d = pipeline
    assert run("train-decoder", "--session", d / "session.csv", "--seed", 9,
               *(("--fixed",) if fixed else ()), "--out", tmp_path / "decoder.json") == EXIT_OK
    session = load_session(str(d / "session.csv"))
    assert session.counts[-1].any()             # so the events span every bin
    pairs = within_channel_ranks(session.unit_channels)
    bin_len = session.bin_ms * 30
    store_records(({"ch": pairs[j][0], "label": pairs[j][1], "t": (k + 1) * bin_len - 1}
                   for k, j in np.argwhere(session.counts).tolist()
                   for _ in range(session.counts[k, j])), str(tmp_path / "events.jsonl"))
    decode = ("decode", "--model", tmp_path / "decoder.json")
    assert run(*decode, "--session", d / "session.csv", "--out", tmp_path / "s.csv") == EXIT_OK
    assert run(*decode, "--events", tmp_path / "events.jsonl",
               "--out", tmp_path / "e.csv") == EXIT_OK
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "e.csv").read_bytes()


def test_events_decode_accepts_the_sorted_stream(pipeline, tmp_path):
    d = pipeline
    assert run("decode", "--model", d / "decoder.json",
               "--events", d / "sorted.jsonl",
               "--out", tmp_path / "ev.csv") == EXIT_OK
    states = load_decoded(str(tmp_path / "ev.csv"))
    assert states.shape[1] == 2 and np.isfinite(states).all()


def test_events_decode_bins_at_the_recorded_sample_rate(pipeline, tmp_path):
    """detect records a 20 kHz trace's rate, sort carries it to the sorted
    stream's sidecar, and decode --events bins at it: 2000-sample bins, as
    run_eokf_split gives them. The same stream without a sidecar bins at the
    30 kHz default."""
    m = tmp_path
    trace, labels = gen_spike_trace(replace(tier_config("easy", 2, 6.0), sample_rate=20000),
                                    seed=42)
    store_trace(trace, str(m / "trace.bin"))
    store_labels(labels, str(m / "labels.jsonl"))
    assert run("detect", "--trace", m / "trace.bin", "--out", m / "tokens.jsonl") == EXIT_OK
    assert run("train-sorter", "--mode", "offline", "--tokens", m / "tokens.jsonl",
               "--labels", m / "labels.jsonl", "--out", m / "sorters.json") == EXIT_OK
    assert run("sort", "--tokens", m / "tokens.jsonl", "--models", m / "sorters.json",
               "--out", m / "sorted.jsonl") == EXIT_OK
    assert json.loads((m / "sorted.jsonl.meta.json").read_text())["sample_rate"] == 20000
    shutil.copy(m / "sorted.jsonl", m / "bare.jsonl")
    bundle = load_decoder(str(pipeline / "decoder.json"))
    events = _load_sorted_events(str(m / "sorted.jsonl"))
    for name, rate, n_bins in (("sorted", 20000, 60), ("bare", 30000, 40)):
        assert run("decode", "--model", pipeline / "decoder.json",
                   "--events", m / f"{name}.jsonl", "--out", m / f"{name}.csv") == EXIT_OK
        states, *_ = run_eokf_split(bundle.transition, bundle.observation, events, n_bins,
                                    bundle.bin_ms * rate // 1000, fmt=bundle.fixed,
                                    x0=bundle.x0, P0=bundle.P0)
        store_decoded(str(m / "want.csv"), states)
        assert (m / "want.csv").read_bytes() == (m / f"{name}.csv").read_bytes(), name


@pytest.mark.parametrize("rate,n_samples", [(30000, 300000),     # 100 bins exactly
                                             (30000, 297001),     # 99 bins + 1 sample
                                             (25007, 250070)])    # 99 bins + 2,471
def test_simulate_and_events_decode_bin_alike(pipeline, tmp_path, rate, n_samples):
    """A 4-channel trace of up to 10 s goes detect -> sort -> decode --events
    and through simulate --decoded; both bin at the trace's rate by one rule,
    so they write the same CSV, of bins_spanning rows: 100 for an exact
    multiple of the bin and for one sample over a multiple, and one row for
    a recording of no samples. At 25,007 Hz a 100 ms bin is 2,501 samples,
    where the decoder used to floor it to 2,500."""
    m = tmp_path
    trace, labels = gen_spike_trace(replace(tier_config("easy", 4, 10.0), sample_rate=rate),
                                    seed=42)
    trace = RawTrace(trace.data[:, :n_samples], sample_rate=rate)
    store_trace(trace, str(m / "trace.bin"))
    store_labels(labels, str(m / "labels.jsonl"))
    assert run("detect", "--trace", m / "trace.bin", "--out", m / "tokens.jsonl") == EXIT_OK
    assert run("train-sorter", "--mode", "offline", "--tokens", m / "tokens.jsonl",
               "--labels", m / "labels.jsonl", "--out", m / "sorters.json") == EXIT_OK
    assert run("sort", "--tokens", m / "tokens.jsonl", "--models", m / "sorters.json",
               "--out", m / "sorted.jsonl") == EXIT_OK
    shutil.copy(pipeline / "decoder.json", m / "decoder.json")
    assert run("decode", "--model", m / "decoder.json", "--events", m / "sorted.jsonl",
               "--out", m / "events.csv") == EXIT_OK
    assert run("simulate", "--trace", m / "trace.bin", "--models", m,
               "--counters", m / "sim.json", "--decoded", m / "sim.csv") == EXIT_OK
    assert json.loads((m / "sim.json").read_text())["counters"]["tokens_lost"] == 0
    assert (m / "events.csv").read_bytes() == (m / "sim.csv").read_bytes()
    bin_len = bin_length(rate, 100)
    assert load_decoded(str(m / "sim.csv")).shape[0] == bins_spanning(n_samples, bin_len) == 100
    (m / "none.jsonl").write_text("")
    (m / "none.jsonl.meta.json").write_text(json.dumps({"sample_rate": rate, "n_samples": 0}))
    assert run("decode", "--model", m / "decoder.json", "--events", m / "none.jsonl",
               "--out", m / "none.csv") == EXIT_OK
    assert load_decoded(str(m / "none.csv")).shape[0] == bins_spanning(0, bin_len) == 1


def test_events_decode_bins_the_whole_recording(pipeline, tmp_path):
    """A 4-channel, 10 s trace whose last 0.5 s is silent: detect records its
    length, sort carries it on, and decode --events bins the whole recording,
    100 rows as simulate --decoded writes them, where it used to stop at the
    bin of the last event (95 rows). Without the length the stream keeps the
    last-event rule."""
    m = tmp_path
    trace, labels = gen_spike_trace(tier_config("easy", 4, 10.0), seed=42)
    trace.data[:, -trace.sample_rate // 2:] = 0
    store_trace(trace, str(m / "trace.bin"))
    store_labels(labels, str(m / "labels.jsonl"))
    assert run("detect", "--trace", m / "trace.bin", "--out", m / "tokens.jsonl") == EXIT_OK
    assert json.loads((m / "tokens.jsonl.meta.json").read_text())["n_samples"] == 300000
    assert run("train-sorter", "--mode", "offline", "--tokens", m / "tokens.jsonl",
               "--labels", m / "labels.jsonl", "--out", m / "sorters.json") == EXIT_OK
    assert run("sort", "--tokens", m / "tokens.jsonl", "--models", m / "sorters.json",
               "--out", m / "sorted.jsonl") == EXIT_OK
    assert json.loads((m / "sorted.jsonl.meta.json").read_text())["n_samples"] == 300000
    shutil.copy(pipeline / "decoder.json", m / "decoder.json")
    assert run("decode", "--model", m / "decoder.json", "--events", m / "sorted.jsonl",
               "--out", m / "events.csv") == EXIT_OK
    assert run("simulate", "--trace", m / "trace.bin", "--models", m,
               "--counters", m / "sim.json", "--decoded", m / "sim.csv") == EXIT_OK
    assert json.loads((m / "sim.json").read_text())["counters"]["tokens_lost"] == 0
    assert load_decoded(str(m / "events.csv")).shape[0] == 100
    assert (m / "events.csv").read_bytes() == (m / "sim.csv").read_bytes()
    shutil.copy(m / "sorted.jsonl", m / "bare.jsonl")
    assert run("decode", "--model", m / "decoder.json", "--events", m / "bare.jsonl",
               "--out", m / "bare.csv") == EXIT_OK
    bare = load_decoded(str(m / "bare.csv"))
    assert bare.shape[0] == 95
    assert np.array_equal(bare, load_decoded(str(m / "events.csv"))[:95])


@pytest.mark.parametrize("t", [30000, 2 ** 63 - 1, -5])
def test_events_decode_rejects_a_time_outside_the_recording(pipeline, tmp_path, capfd, t):
    """An event at or past the n_samples = 30000 its sidecar records, even at
    the largest int64 time, whose + 1 used to wrap past the check, fails the
    check, and a negative time fails the stream's table: each exits 4 naming
    the time and writes nothing, where the last two used to be dropped with
    exit 0."""
    store_records([{"ch": 0, "label": 0, "t": 100}, {"ch": 0, "label": 0, "t": t}],
                  str(tmp_path / "events.jsonl"))
    (tmp_path / "events.jsonl.meta.json").write_text(json.dumps({"n_samples": 30000}))
    capfd.readouterr()
    assert run("decode", "--model", pipeline / "decoder.json",
               "--events", tmp_path / "events.jsonl",
               "--out", tmp_path / "d.csv") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert str(t) in err and "Traceback" not in err and "Warning" not in err
    assert (t >= 0) == ("n_samples = 30000" in err)
    assert not (tmp_path / "d.csv").exists()


def test_events_decode_of_a_bin_under_one_sample_exits_4(pipeline, tmp_path, capfd):
    """A sidecar rate of 5 Hz makes a 100 ms bin half a sample: decode names
    bin_ms and the rate and exits 4, where it used to divide by zero."""
    shutil.copy(pipeline / "sorted.jsonl", tmp_path / "sorted.jsonl")
    (tmp_path / "sorted.jsonl.meta.json").write_text(json.dumps({"sample_rate": 5}))
    capfd.readouterr()
    assert run("decode", "--model", pipeline / "decoder.json",
               "--events", tmp_path / "sorted.jsonl",
               "--out", tmp_path / "d.csv") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "bin_ms" in err and "5 Hz" in err and "Traceback" not in err
    assert not (tmp_path / "d.csv").exists()


def test_events_decode_checks_the_implant_32_bit_accumulator(pipeline, tmp_path, capfd):
    """A fixed decoder whose largest quantized E entry is about 2**30: two
    events on that column in one bin leave the implant's 32-bit range."""
    obj = json.loads((pipeline / "decoder.json").read_text())
    E = np.array(obj["E"])
    i, j = np.unravel_index(np.abs(E).argmax(), E.shape)
    frac_bits = int(np.floor(np.log2(2.0 ** 31 / abs(E[i, j]))))
    assert 2 ** 30 <= round(abs(E[i, j]) * 2.0 ** frac_bits) < 2 ** 31
    obj["fixed_point"] = {"bits": 32, "frac_bits": frac_bits}
    (tmp_path / "decoder.json").write_text(json.dumps(obj))
    ch, unit = obj["selected"][j]
    store_records([{"ch": ch, "label": unit, "t": t} for t in (0, 1)],
                  str(tmp_path / "events.jsonl"))
    assert run("decode", "--model", tmp_path / "decoder.json",
               "--events", tmp_path / "events.jsonl",
               "--out", tmp_path / "decoded.csv") == EXIT_NUMERICAL
    err = capfd.readouterr().err
    assert "32-bit" in err and "Traceback" not in err
    assert not (tmp_path / "decoded.csv").exists()


def test_decode_rejects_a_session_narrower_than_the_kf_decoder(tmp_path, capfd):
    """A kf decoder trained on 8 units, given a 1-unit or 3-unit session,
    exits 4 naming both widths and writes nothing; a 1-unit stream used to
    broadcast through the filter and decode."""
    assert run("gen", "--kind", "session", "--units", 8, "--trials-per-target", 2,
               "--seed", 1, "--out", tmp_path / "s8.json") == EXIT_OK
    assert run("train-decoder", "--session", tmp_path / "s8.json", "--filter", "kf",
               "--out", tmp_path / "kf8.json") == EXIT_OK
    for units in (1, 3):
        session = tmp_path / f"s{units}.json"
        assert run("gen", "--kind", "session", "--units", units,
                   "--trials-per-target", 2, "--seed", 2, "--out", session) == EXIT_OK
        capfd.readouterr()
        assert run("decode", "--model", tmp_path / "kf8.json", "--session", session,
                   "--out", tmp_path / "d.csv") == EXIT_SCHEMA
        err = capfd.readouterr().err
        assert f", {units});" in err and "width 8" in err and "Traceback" not in err
        assert not (tmp_path / "d.csv").exists()


def test_each_command_has_one_input_route(pipeline, tmp_path):
    d = pipeline
    train = ("train-sorter", "--mode", "offline", "--tokens", d / "tokens.jsonl",
             "--labels", d / "labels.jsonl")
    decode = ("decode", "--model", d / "decoder.json", "--session", d / "session.csv")
    for argv in ((*train, "--trace", d / "trace.bin"), (*train, "--windows", d / "w.jsonl"),
                 (*decode, "--split", "implant")):
        assert run(*argv, "--out", tmp_path / "out") == EXIT_USAGE
    assert run(*train[:-2], "--out", tmp_path / "out") == EXIT_SCHEMA   # no --labels
    assert not (tmp_path / "out").exists()


def test_negative_session_count_exits_4(pipeline, tmp_path, capfd):
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
               "--session", tmp_path / "session.csv",
               "--out", tmp_path / "decoded.csv") == EXIT_SCHEMA
    assert not (tmp_path / "decoded.csv").exists()
    assert "Traceback" not in capfd.readouterr().err


def _data_digest(path) -> str:
    """sha256 prefix of a data output; of an ops file, its step_total block."""
    data = path.read_bytes()
    if path.name.startswith("ops-"):
        data = json.dumps(json.loads(data)["ops"]["step_total"], sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def pinned_run(tmp_path_factory):
    """The command pipeline for every sorter and decoder kind, run with
    relative paths in a fresh directory; returns that directory."""
    d = tmp_path_factory.mktemp("pinned")
    cwd = os.getcwd()
    os.chdir(d)
    try:
        assert run("gen", "--kind", "trace", "--tier", "easy", "--channels", 2,
                   "--duration", 6.0, "--seed", 42,
                   "--trace", "trace.bin", "--labels", "labels.jsonl") == EXIT_OK
        assert run("detect", "--trace", "trace.bin", "--out", "tokens.jsonl") == EXIT_OK
        for mode, name in (("offline", "tree"), ("l1", "l1"), ("online", "online")):
            labels = () if mode == "online" else ("--labels", "labels.jsonl")
            assert run("train-sorter", "--mode", mode, "--tokens", "tokens.jsonl", *labels,
                       "--out", f"sorters-{name}.json") == EXIT_OK
            assert run("sort", "--tokens", "tokens.jsonl", "--models", f"sorters-{name}.json",
                       "--out", f"sorted-{name}.jsonl") == EXIT_OK
            assert run("eval-sort", "--trace", "trace.bin", "--labels", "labels.jsonl",
                       "--models", f"sorters-{name}.json",
                       "--out", f"eval-{name}.json") == EXIT_OK
        assert run("gen", "--kind", "session", "--units", 30, "--trials-per-target", 3,
                   "--seed", 9, "--out", "session.csv") == EXIT_OK
        for kind, flags in (("kf", ("--filter", "kf")), ("eokf", ()),
                            ("eokf-fixed", ("--fixed",))):
            assert run("train-decoder", "--session", "session.csv", *flags, "--seed", 9,
                       "--out", f"decoder-{kind}.json") == EXIT_OK
            inputs = [("session", ("--session", "session.csv", "--trials", "test"))]
            if kind != "kf":
                inputs.append(("events", ("--events", "sorted-tree.jsonl")))
            for source, argv in inputs:
                assert run("decode", "--model", f"decoder-{kind}.json", *argv,
                           "--out", f"decoded-{kind}-{source}.csv",
                           "--ops", f"ops-{kind}-{source}.json") == EXIT_OK
            if kind != "kf":
                # the model directory holds copies of inputs, not outputs
                os.mkdir(kind)
                shutil.copy("sorters-tree.json", f"{kind}/sorters.json")
                shutil.copy(f"decoder-{kind}.json", f"{kind}/decoder.json")
                assert run("simulate", "--trace", "trace.bin", "--models", kind,
                           "--counters", f"sim-{kind}.json",
                           "--decoded", f"sim-decoded-{kind}.csv") == EXIT_OK
                shutil.rmtree(kind)
        assert run("report", "--dir", ".", "--out", "report.json",
                   "--csv", "report.csv") == EXIT_OK
    finally:
        os.chdir(cwd)
    return d


# sha256 prefixes of every data output of pinned_run. Meta, ops and metrics
# files hash the argument dict into their provenance, so of an ops file only
# the step_total block is pinned.
PINNED_OUTPUTS = {
    "decoded-eokf-events.csv": "0dce48f83e4f6036",
    "decoded-eokf-fixed-events.csv": "35d94b49454274bb",
    "decoded-eokf-fixed-session.csv": "c172d16089224240",
    "decoded-eokf-session.csv": "9cca6d952ce70b82",
    "decoded-kf-session.csv": "6616206fc58eb094",
    "decoder-eokf-fixed.json": "7edfbb4a2a565948",
    "decoder-eokf.json": "9321e00e12f056bc",
    "decoder-kf.json": "7b50fba05541a610",
    "eval-l1.json": "c19d11710e241b93",
    "eval-online.json": "fd5b7173ce5fae40",
    "eval-tree.json": "fe427d411c75792f",
    "ops-eokf-events.json": "d313f0a26229c1c9",
    "ops-eokf-fixed-events.json": "d313f0a26229c1c9",
    "ops-eokf-fixed-session.json": "ac7029c23529af7d",
    "ops-eokf-session.json": "ac7029c23529af7d",
    "ops-kf-session.json": "227f4a9348dbc3fa",
    "report.csv": "1420c13c983fa8ae",
    "report.json": "2573088921d02386",
    # the fabric loses no token here, so each simulate decode equals its
    # decoder's --events decode of the sorted stream
    "sim-decoded-eokf-fixed.csv": "35d94b49454274bb",
    "sim-decoded-eokf.csv": "0dce48f83e4f6036",
    "sim-eokf-fixed.json": "c2be0d51bcb97e70",
    "sim-eokf.json": "7aa307bcfbea04b8",
    "sorted-l1.jsonl": "05ca88bfb555d1e1",
    "sorted-online.jsonl": "c600afc52632e207",
    "sorted-tree.jsonl": "71ee28a3715b9db8",
    "sorters-l1.json": "a6cc01d8b9c40dbc",
    "sorters-online.json": "5da807612ff1b9b1",
    "sorters-tree.json": "21d39c2c307883e6",
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUTS))
def test_cli_data_outputs_are_pinned(pinned_run, name):
    assert _data_digest(pinned_run / name) == PINNED_OUTPUTS[name]


def test_cli_pins_cover_every_data_output(pinned_run):
    inputs = {"trace.bin", "labels.jsonl", "tokens.jsonl", "session.csv", "session.csv.json"}
    assert {p.name for p in pinned_run.iterdir()
            if not p.name.endswith(".meta.json")} - inputs == set(PINNED_OUTPUTS)


def test_simulate_checks_the_implant_32_bit_accumulator(pinned_run, tmp_path, capfd):
    """With 27 fraction bits the pinned eokf decoder's running sums leave 32
    bits: simulate --decoded fails as decode --events does, writing nothing."""
    obj = json.loads((pinned_run / "decoder-eokf.json").read_text())
    obj["fixed_point"] = {"bits": 32, "frac_bits": 27}
    models = tmp_path / "models"
    models.mkdir()
    (models / "decoder.json").write_text(json.dumps(obj))
    shutil.copy(pinned_run / "sorters-tree.json", models / "sorters.json")
    capfd.readouterr()
    assert run("decode", "--model", models / "decoder.json",
               "--events", pinned_run / "sorted-tree.jsonl",
               "--out", tmp_path / "decoded.csv") == EXIT_NUMERICAL
    decode_err = capfd.readouterr().err
    assert run("simulate", "--trace", pinned_run / "trace.bin", "--models", models,
               "--counters", tmp_path / "sim.json",
               "--decoded", tmp_path / "sim-decoded.csv") == EXIT_NUMERICAL
    err = capfd.readouterr().err
    assert err == decode_err and "32-bit" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["models"]


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_report_rebuilds_each_footprint_through_the_model_registry(pinned_run, tmp_path,
                                                                   capfd, kind):
    """A sort-eval row carries its model; the report rebuilds it by kind and
    fails, writing nothing, on a row it cannot rebuild or whose footprint
    disagrees."""
    d, src = pinned_run, tmp_path / "src"
    src.mkdir()
    assert run("eval-sort", "--trace", d / "trace.bin", "--labels", d / "labels.jsonl",
               "--models", d / f"sorters-{kind}.json", "--out", src / "eval.json") == EXIT_OK
    outputs = (tmp_path / "report.json", tmp_path / "report.csv")
    report = ("report", "--dir", src, "--out", outputs[0], "--csv", outputs[1])
    assert run(*report) == EXIT_OK
    good = (src / "eval.json").read_text()
    other = next(k for k in sorted(MODEL_KINDS) if k != kind)
    other_params = json.loads((d / f"eval-{other}.json").read_text())["rows"][0]["params"]
    edits = {"footprint + 1": (EXIT_NUMERICAL, lambda r: r.update(
                 footprint_bits=r["footprint_bits"] + 1)),
             "unknown kind": (EXIT_SCHEMA, lambda r: r.update(model="bogus")),
             "no params": (EXIT_SCHEMA, lambda r: r.pop("params")),
             f"{other} params": (EXIT_SCHEMA, lambda r: r.update(params=other_params))}
    for edit, (code, apply) in edits.items():
        for out in outputs:
            out.unlink(missing_ok=True)
        doc = json.loads(good)
        apply(doc["rows"][0])
        (src / "eval.json").write_text(json.dumps(doc))
        capfd.readouterr()
        assert run(*report) == code, edit
        err = capfd.readouterr().err
        assert "eval.json" in err and "Traceback" not in err, edit
        assert not any(out.exists() for out in outputs), edit


@pytest.mark.parametrize("source,edit", [
    ("metrics.json", lambda o: o.update(metrics=[1])),
    ("sim.json", lambda o: o.update(counters=[1])),
    ("sim.json", lambda o: o["counters"].update(sorts="12")),
    ("eval.json", lambda o: o["rows"][0].pop("accuracy")),
    ("eval.json", lambda o: o["rows"][0].update(accuracy=[0.9])),
    ("eval.json", lambda o: o["rows"][0].update(footprint_bits="28")),
    ("bench.json", lambda o: o["rows"][0]["ops"].update(step_total=[1])),
    ("ops.json", lambda o: o.pop("ops")),
], ids=["metrics-list", "counters-list", "counter-string", "no-accuracy",
        "accuracy-list", "footprint-string", "step-total-list", "no-ops"])
def test_malformed_artifact_fails_report_before_any_output(pipeline, tmp_path, capfd,
                                                           source, edit):
    src = tmp_path / "src"
    src.mkdir()
    for name in ("bench.json", "eval.json", "metrics.json", "ops.json", "sim.json"):
        shutil.copy(pipeline / name, src / name)
    doc = json.loads((src / source).read_text())
    edit(doc)
    (src / source).write_text(json.dumps(doc))
    assert run("report", "--dir", src, "--out", tmp_path / "report.json",
               "--csv", tmp_path / "report.csv") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert source in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists() and not (tmp_path / "report.csv").exists()


# --- exit codes ---------------------------------------------------------------------


def test_usage_errors_exit_2():
    assert run("no-such-command") == EXIT_USAGE
    assert run("detect") == EXIT_USAGE          # missing required flags
    assert run("gen", "--kind", "nonsense") == EXIT_USAGE


def test_missing_input_exits_3(tmp_path):
    assert run("detect", "--trace", tmp_path / "nope.bin",
               "--out", tmp_path / "t.jsonl") == EXIT_IO


def test_more_channels_than_the_trace_header_holds_exits_4(tmp_path, capfd):
    trace = tmp_path / "trace.bin"
    assert run("gen", "--kind", "trace", "--channels", 70000, "--duration", 0.02,
               "--trace", trace, "--labels", tmp_path / "labels.jsonl") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "n_channels must be at most 65535" in err and "Traceback" not in err
    assert not trace.exists()


def test_corrupt_input_exits_4(tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a trace at all")
    assert run("detect", "--trace", bad, "--out", tmp_path / "t.jsonl") == EXIT_SCHEMA


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


_TREE = '{"kind": "tree", "pattern_id": 2, "boundaries": [-5, 10, 100], "valid_mask": 7}'


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
    _tree_set(valid_mask='7, "train_accuracy": "0.5"'),    # read as 0.5
    _tree_set(valid_mask='7, "train_accuracy": true'),     # read as 1.0
    # channel 3 under two spellings, the later replacing the earlier; " 4" read as 4
    *('{"kind": "tree-set", "channels": {%s}}' % ", ".join(f'"{key}": {_TREE}' for key in keys)
      for keys in (("3", "03"), (" 4",))),
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
                                 "negative unit channel", "fractional bin_ms",
                                 "boolean bin_ms", "zero bin_ms"])
def test_malformed_session_sidecar_exits_4(tmp_path, pipeline, capfd, bad):
    d = pipeline
    shutil.copy(d / "session.csv", tmp_path / "session.csv")
    sidecar = json.loads((d / "session.csv.json").read_text())
    if bad == "fractional start_bin":
        sidecar["trials"][0]["start_bin"] = 1.5
    elif bad == "short unit_channels":
        sidecar["unit_channels"].pop()
    elif bad == "negative unit channel":
        sidecar["unit_channels"][0] = -1
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


def _pair_edit(i, pair):
    """An edit that puts *pair* in place of selected pair *i*; int() reads it
    as the very pair it replaces, so only a strict integer check rejects it."""
    return {"selected": lambda obj: obj["selected"][:i] + [pair] + obj["selected"][i + 1:]}


def _nan_at(key):
    """An edit that puts NaN in the first entry of matrix or vector *key*."""
    def edit(obj):
        a = np.array(obj[key], dtype=np.float64)
        a.flat[0] = np.nan
        return a.tolist()
    return {key: edit}


EYE3 = np.eye(3).tolist()
KF = {"kind": "kf", "H": [[0.1, 0.1]] * 30, "Q": np.eye(30).tolist()}  # 30 session units


@pytest.mark.parametrize("edit", [{"bin_ms": 99.7}, {"bin_ms": True}, {"bin_ms": -100},
                                  {"fixed_point": {"bits": 100, "frac_bits": 90}},
                                  {"fixed_point": {"bits": 16, "frac_bits": 2.5}},
                                  {"fixed_point": {"bits": 1, "frac_bits": 0}},
                                  {"kind": "ukf"},
                                  {"kind": "kf"},           # an eokf file has no H
                                  {"E": None},              # None drops the key
                                  {"E": [0.5, 0.25]},
                                  {"x0": [0.0, 0.0, 0.0]},
                                  {"A": [0.9, 0.9]},
                                  {"A": 0.9},
                                  {"P0": [1.0, 1.0]},
                                  {"W": EYE3},
                                  {"Qe": EYE3},
                                  {"E": lambda obj: obj["E"] + obj["E"][:1]},  # 3 rows
                                  {"state_dim": 3},
                                  {**KF, "H": [[0.1, 0.1, 0.1]] * 30},
                                  {**KF, "Q": np.eye(29).tolist()},
                                  _pair_edit(1, [0.5, 1]),        # (0, 1)
                                  _pair_edit(1, ["0", "1"]),
                                  _pair_edit(3, [True, 0]),       # (1, 0)
                                  _nan_at("E"), _nan_at("x0"), _nan_at("W"),
                                  _nan_at("Qe"), _nan_at("P0"),
                                  {"A": [[np.inf, 0.0], [0.0, 1.0]]},
                                  {"fixed_point": {"bits": 16, "frac_bits": 1024}},
                                  {"fixed_point": {"bits": 16, "frac_bits": -1024}},
                                  # strings and booleans read as numbers
                                  {"A": [["0.9", "0"], ["0", "0.9"]]},
                                  {"x0": ["0", "0"]},
                                  {"W": [[True, False], [False, True]]},
                                  {"meta": [["seed", 9]]}])     # read as a dict
def test_malformed_decoder_exits_4(tmp_path, pipeline, capfd, edit):
    """A callable edit value is applied to the stored decoder object."""
    obj = json.loads((pipeline / "decoder.json").read_text())
    obj = {**obj, **{k: v(obj) if callable(v) else v for k, v in edit.items()}}
    obj = {k: v for k, v in obj.items() if v is not None}
    (tmp_path / "decoder.json").write_text(json.dumps(obj))
    assert run("decode", "--model", tmp_path / "decoder.json",
               "--session", pipeline / "session.csv",
               "--out", tmp_path / "decoded.csv") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "bad decoder model" in err and "Traceback" not in err
    assert not (tmp_path / "decoded.csv").exists()


@pytest.mark.parametrize("ids", [[99], [-1], ["1"], [1, 1], []])
def test_decoder_trial_ids_must_be_distinct_session_trials(tmp_path, pipeline, capfd, ids):
    """A recorded test trial past the session's trials used to end in an
    IndexError traceback, -1 silently decoded the last trial, a repeated id
    decoded its trial twice and no id wrote an empty decode with NaN metrics."""
    obj = json.loads((pipeline / "decoder.json").read_text())
    obj["meta"]["test_trials"] = ids
    (tmp_path / "decoder.json").write_text(json.dumps(obj))
    assert run("decode", "--model", tmp_path / "decoder.json",
               "--session", pipeline / "session.csv", "--trials", "test",
               "--out", tmp_path / "decoded.csv") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "meta.test_trials" in err and "Traceback" not in err
    assert not (tmp_path / "decoded.csv").exists()


def test_decoder_converted_to_kf_decodes(tmp_path, pipeline):
    """The well-shaped kf edit above is a valid model: only its bad variants fail."""
    obj = {**json.loads((pipeline / "decoder.json").read_text()), **KF}
    (tmp_path / "decoder.json").write_text(json.dumps(obj))
    assert run("decode", "--model", tmp_path / "decoder.json",
               "--session", pipeline / "session.csv",
               "--out", tmp_path / "decoded.csv") == EXIT_OK


@pytest.mark.parametrize("command", ["decode-session", "decode-events", "simulate"])
def test_repeated_selected_pair_exits_4(tmp_path, pipeline, capfd, command):
    """A pair listed twice would address two E columns through the session's
    unit columns but one through the event lookup, so every command rejects it."""
    obj = json.loads((pipeline / "decoder.json").read_text())
    obj["selected"][1] = obj["selected"][0]
    (tmp_path / "decoder.json").write_text(json.dumps(obj))
    shutil.copy(pipeline / "sorters.json", tmp_path / "sorters.json")
    out = tmp_path / "out"
    argv = {"decode-session": ("decode", "--model", tmp_path / "decoder.json",
                               "--session", pipeline / "session.csv", "--out", out),
            "decode-events": ("decode", "--model", tmp_path / "decoder.json",
                              "--events", pipeline / "sorted.jsonl", "--out", out),
            "simulate": ("simulate", "--trace", pipeline / "trace.bin",
                         "--models", tmp_path, "--config", pipeline / "sim.cfg",
                         "--counters", out)}[command]
    assert run(*argv) == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "pair is repeated" in err and "Traceback" not in err
    assert not out.exists()


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


def test_simulate_group_wider_than_the_re_arm_period_exits_4(tmp_path, pipeline, capfd):
    """Channels 1-32 cross at sample 4 and channel 0 at samples 5 and 37: in
    a 33-tap group, channel 0's first token waits for a slot past its
    detector's re-arm."""
    n = 33
    data = np.zeros((n, 3000), dtype=np.int8)
    data[1:, 4] = 100
    data[0, [5, 37]] = 100
    store_trace(RawTrace(data=data), str(tmp_path / "t.bin"))
    store_models({ch: L1TemplateModel(((0, 0),), (0,)) for ch in range(n)},
                 str(tmp_path / "sorters.json"))
    decoder = json.loads((pipeline / "decoder.json").read_text())
    decoder.update(selected=[[ch, 0] for ch in range(n)], E=[[0.01] * n, [0.02] * n])
    (tmp_path / "decoder.json").write_text(json.dumps(decoder))
    (tmp_path / "sim.cfg").write_text(
        f"n_channels = {n}\ngroup_size = {n}\nconveyor_slots = {n}\n")
    assert run("simulate", "--trace", tmp_path / "t.bin", "--models", tmp_path,
               "--config", tmp_path / "sim.cfg",
               "--counters", tmp_path / "sim.json") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "group_size must be <= 32" in err and "Traceback" not in err
    assert not (tmp_path / "sim.json").exists()


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
            "train-sorter": ("train-sorter", "--mode", "offline", "--tokens",
                             d / "tokens.jsonl", "--labels", d / "labels.jsonl"),
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


@pytest.mark.parametrize("flag,value,setting", [
    ("--snr", "nan", "snr_db"), ("--spread", "nan,1", "amp_spread"),
    ("--spread", "0.5,inf", "amp_spread"), ("--spread", "2,3", "amp_spread"),
    ("--spread", "-1,-0.5", "amp_spread"), ("--rate", "inf", "firing_rate_hz"),
    ("--rate", "nan", "firing_rate_hz"), ("--duration", "inf", "duration_s"),
    ("--duration", "nan", "duration_s")])
def test_gen_rejects_trace_settings_out_of_range(tmp_path, capfd, flag, value, setting):
    trace = tmp_path / "t.bin"
    assert run("gen", "--kind", "trace", "--channels", 1, "--duration", 1.0,
               f"{flag}={value}", "--trace", trace,
               "--labels", tmp_path / "l.jsonl") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert setting in err and "Traceback" not in err
    assert not trace.exists() and not (tmp_path / "l.jsonl").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_session_velocity_exits_4(pipeline, tmp_path, capfd, cell):
    lines = (pipeline / "session.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[1] = cell
    lines[5] = ",".join(cells)
    (tmp_path / "session.csv").write_text("\n".join(lines) + "\n")
    shutil.copy(pipeline / "session.csv.json", tmp_path / "session.csv.json")
    assert run("train-decoder", "--session", tmp_path / "session.csv", "--filter", "kf",
               "--out", tmp_path / "decoder.json") == EXIT_SCHEMA
    err = capfd.readouterr().err
    assert "session.csv:6: non-finite velocity" in err and "Traceback" not in err
    assert not (tmp_path / "decoder.json").exists()


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
