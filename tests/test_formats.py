"""Every on-disk format fails with a DatasetFormatError, never a bare exception.

The four JSONL streams share one record codec, so one table of malformed
fields covers them all; the corruption suite then mutates a small valid file
of every loader and requires a typed error or a successful load.
"""

import copy
import json
import os
import shutil
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nsp.cli import EXIT_OK, EXIT_SCHEMA, SORTED_EVENT_FIELDS, _load_sorted_events, main
from nsp.decode import (DECODER_SCHEMAS, DecoderBundle, FixedPointFormat, load_decoded,
                        load_decoder, store_decoded, store_decoder,
                        train_ensemble, train_transition)
from nsp.detect import (TOKEN_FIELDS, WINDOW_FIELDS, Completion, Tokens, load_tokens,
                        load_windows, store_tokens, store_windows)
from nsp.sort_offline import (MODEL_KINDS, ChannelSorterModel, L1TemplateModel,
                              load_models, store_models)
from nsp.sim import SimConfig, parse_sim_config
from nsp.sort_online import STATUS_STRONG, STATUS_WEAK, OnlineSorterModel
from nsp.synthdata import (SESSION_SIDECAR, DatasetFormatError, GroundTruthLabels, Int,
                           List, Map, Obj, PayloadError, RawTrace, SessionConfig,
                           gen_reach_session, load_document, load_labels, load_session,
                           load_trace, store_labels, store_records, store_session,
                           store_trace)

# name -> (loader, one valid row, record word in the error message)
STREAMS = {
    "labels": (load_labels, {"t": 5, "ch": 0, "nid": 1}, "label"),
    "tokens": (load_tokens, {"t": 5, "ch": 0, "f1": 3, "f2": -4}, "token"),
    "windows": (lambda p: load_windows(p)[1], {"t": 5, "ch": 0, "s": [0] * 32},
                "window"),
    "sorted": (_load_sorted_events, {"ch": 0, "label": 1, "t": 5}, "sorted event"),
}

BAD_FIELDS = {
    "float": ("t", 1234.9),
    "whole-float": ("t", 1234.0),
    "string": ("t", "5"),
    "bool": ("ch", True),
    "list": ("t", [5]),
    "beyond-int64": ("t", 2 ** 63),
    "missing": ("t", None),
}


def _write_rows(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


@pytest.mark.parametrize("case", sorted(BAD_FIELDS))
@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_stream_rejects_mistyped_fields(tmp_path, stream, case):
    loader, row, what = STREAMS[stream]
    field, value = BAD_FIELDS[case]
    bad = dict(row)
    if value is None:
        del bad[field]
    else:
        bad[field] = value
    p = tmp_path / "s.jsonl"
    _write_rows(p, [row, bad])
    with pytest.raises(PayloadError, match=f":2: bad {what} record"):
        loader(str(p))


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_stream_rejects_undecodable_bytes(tmp_path, stream):
    loader, row, _ = STREAMS[stream]
    p = tmp_path / "s.jsonl"
    p.write_bytes(json.dumps(row).encode() + b"\n\xff\xfe\n")
    with pytest.raises(PayloadError, match="not UTF-8"):
        loader(str(p))


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_stream_skips_blank_lines_and_extra_keys(tmp_path, stream):
    loader, row, _ = STREAMS[stream]
    p = tmp_path / "s.jsonl"
    p.write_text("\n" + json.dumps({**row, "note": 1.5}) + "\n  \n")
    assert len(loader(str(p))) == 1


@pytest.mark.parametrize("stream", sorted(STREAMS))
def test_stream_rejects_a_negative_channel(tmp_path, stream):
    # a negative channel once loaded and trained into a set that sort rejects
    loader, row, _ = STREAMS[stream]
    p = tmp_path / "s.jsonl"
    _write_rows(p, [row, {**row, "ch": -1}])
    with pytest.raises(DatasetFormatError, match="negative channel"):
        loader(str(p))


@pytest.mark.parametrize("samples", [[300] + [0] * 31, [-129] + [0] * 31,
                                     [0] * 31, [0.5] * 32])
def test_window_samples_must_be_32_int8_integers(tmp_path, samples):
    p = tmp_path / "w.jsonl"
    _write_rows(p, [{"t": 5, "ch": 0, "s": samples}])
    with pytest.raises(PayloadError, match=":1: bad window record"):
        load_windows(str(p))


def test_record_writer_keeps_the_callers_key_order(tmp_path):
    p = tmp_path / "r.jsonl"
    store_records([{"t": 1, "ch": 2}, {"ch": 3, "label": 0, "t": 4}], str(p))
    assert p.read_text() == '{"t":1,"ch":2}\n{"ch":3,"label":0,"t":4}\n'
    store_records([], str(p))
    assert p.read_text() == ""


@pytest.mark.parametrize("text", ["[1, 2]", '"kind"', "{", "null"])
def test_document_reader_requires_a_json_object(tmp_path, text):
    p = tmp_path / "d.json"
    p.write_text(text)
    with pytest.raises(PayloadError):
        load_document(str(p))


def test_text_loaders_reject_undecodable_bytes(tmp_path):
    p = tmp_path / "d.json"
    p.write_bytes(b'{"kind": "\xff"}')
    for loader in (load_document, load_models, load_decoder):
        with pytest.raises(PayloadError, match="not UTF-8"):
            loader(str(p))
    csv = tmp_path / "x.csv"
    csv.write_bytes(b"bin,vx,vy\n0,1.0,\xff\n")
    with pytest.raises(PayloadError, match="not UTF-8"):
        load_decoded(str(csv))
    csv.write_bytes(b"bin,vx,vy,c0\n0,1.0,2.0,\xff\n")
    with pytest.raises(PayloadError, match="not UTF-8"):
        load_session(str(csv))


def test_decoded_csv_rejects_ragged_rows(tmp_path):
    p = tmp_path / "dec.csv"
    p.write_text("bin,vx,vy\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(PayloadError, match=":3: expected 3 columns"):
        load_decoded(str(p))


# --- corruption suite --------------------------------------------------------


def _valid_files(d):
    """One small valid file per loader: name -> (path to load, path to corrupt, loader)."""
    files = {}

    def add(name, path, loader):
        path = os.path.join(d, path)
        files[name] = (path, path, loader)
        return path

    store_trace(RawTrace(np.arange(-8, 8).reshape(2, 8)), add("trace", "t.nsp", load_trace))
    store_labels(GroundTruthLabels([[5, 0, 1], [40, 1, 0], [90, 0, 2]]),
                 add("labels", "l.jsonl", load_labels))
    store_tokens(Tokens.of([Completion(36, 0, 5, 12, -40), Completion(81, 1, 50, -3, 7)]),
                 add("tokens", "k.jsonl", load_tokens))
    store_windows(Tokens.of([Completion(36, 0, 5, 15, -16)]),
                  np.arange(-16, 16).reshape(1, 32),
                  add("windows", "w.jsonl", load_windows))
    session = gen_reach_session(SessionConfig(n_units=2, trials_per_target=1), seed=3)
    csv = add("session", "s.csv", load_session)
    store_session(session, csv)
    files["session-sidecar"] = (csv, csv + ".json", load_session)
    store_decoded(add("decoded", "dec.csv", load_decoded),
                  np.array([[0.5, -1.25], [3.0, 1e-3]]))
    tree = ChannelSorterModel(pattern_id=2,
                              boundaries=(-5, 10, 100), valid_mask=0b111)
    store_models({0: tree}, add("sorters-tree", "tree.json", load_models))
    store_models({1: L1TemplateModel(templates=((0, 0), (50, -50)), labels=(2, 0))},
                 add("sorters-l1", "l1.json", load_models))
    online = OnlineSorterModel(boundaries=([-10, 20], [0]),
                               cam_snapshot=[(0, 0, STATUS_STRONG), (2, 1, STATUS_WEAK)])
    store_models({0: online}, add("sorters-online", "on.json", load_models))
    ens = train_ensemble(session.counts, session.velocity, session.unit_channels)
    store_decoder(DecoderBundle(transition=train_transition(session.velocity),
                                observation=ens, fixed=FixedPointFormat.for_matrix(ens.E)),
                  add("decoder", "dec.json", load_decoder))
    store_records([{"ch": 0, "label": 1, "t": 5}, {"ch": 1, "label": 0, "t": 9}],
                  add("sorted-events", "e.jsonl", _load_sorted_events))
    return files


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    return _valid_files(str(tmp_path_factory.mktemp("valid")))


def test_every_valid_file_loads(valid_files):
    for path, _, loader in valid_files.values():
        loader(path)


@st.composite
def corruptions(draw, blob: bytes) -> bytes:
    """*blob* truncated at, or with one byte substituted or inserted at, a drawn offset."""
    pos = draw(st.integers(0, max(len(blob) - 1, 0)))
    op = draw(st.sampled_from(("truncate", "substitute", "insert")))
    if op == "truncate":
        return blob[:pos]
    byte = bytes([draw(st.integers(0, 255))])
    if op == "substitute":
        return blob[:pos] + byte + blob[pos + 1:]
    return blob[:pos] + byte + blob[pos:]


@pytest.mark.parametrize("name", ["trace", "labels", "tokens", "windows", "session",
                                  "session-sidecar", "decoded", "sorters-tree",
                                  "sorters-l1", "sorters-online", "decoder",
                                  "sorted-events"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_corrupted_file_loads_or_raises_a_format_error(valid_files, name, data):
    path, corrupt, loader = valid_files[name]
    with open(corrupt, "rb") as fh:
        bad = data.draw(corruptions(fh.read()))
    with tempfile.TemporaryDirectory() as d:
        for src in {path, corrupt}:
            shutil.copy(src, d)
        with open(os.path.join(d, os.path.basename(corrupt)), "wb") as fh:
            fh.write(bad)
        try:
            loader(os.path.join(d, os.path.basename(path)))
        except DatasetFormatError:
            pass


# --- structural fuzzer -------------------------------------------------------
# One edit drawn from a valid document's declared table, then the command that
# consumes the document: it exits 0 or 4 without a traceback, and on 0 the
# loaded object stores and reloads to the same bytes, with the edited value
# stored as the file held it (nothing silently coerced).


class _Pairs(list):
    """A JSON object written from its (key, value) pairs, so a key may repeat."""


def _dumps(v) -> str:
    if isinstance(v, dict):
        v = _Pairs(v.items())
    if isinstance(v, _Pairs):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dumps(x)}" for k, x in v) + "}"
    if isinstance(v, list):
        return "[" + ", ".join(map(_dumps, v)) + "]"
    return json.dumps(v)


def _nodes(doc, rule, parent=None, path=()):
    """(path, rule, parent's rule) of every value of *doc* its table declares."""
    yield path, rule, parent
    if type(rule) is List:
        rules = rule.item if type(rule.item) is tuple else [rule.item] * len(doc)
        for i, (x, r) in enumerate(zip(doc, rules)):
            yield from _nodes(x, r, rule, path + (i,))
    elif type(rule) is Obj:
        for key, r in {**rule.required, **rule.optional}.items():
            if key in doc:
                yield from _nodes(doc[key], r, rule, path + (key,))
    elif type(rule) is Map and rule.values is not None:
        for key, x in doc.items():
            yield from _nodes(x, rule.values, rule, path + (key,))


def _at(doc, path):
    for key in path:
        doc = (dict(doc) if isinstance(doc, _Pairs) else doc)[key]
    return doc


def _put(doc, path, value):
    """*doc* with the value at *path* replaced; the root is replaced whole."""
    if not path:
        return value
    _at(doc, path[:-1])[path[-1]] = value
    return doc


_OTHERS = ["x", 1.5, True, None, [], {}, 7]   # one value of each JSON type


@st.composite
def structural_edits(draw, doc, rule, depth=0):
    """(edited document, path of a value the file now holds, or None) for one
    edit of *doc*: swap a value's JSON type, wrap or unwrap one list level, drop or
    repeat a key (an int-keyed map repeats it as a non-canonical spelling),
    or push an integer past its range."""
    path, r, parent = draw(st.sampled_from([n for n in _nodes(doc, rule)
                                            if len(n[0]) >= depth]))
    value, new = _at(doc, path), copy.deepcopy(doc)
    ops = ["swap", "wrap"] + (["unwrap"] if isinstance(value, list) and value else [])
    ops += ["drop", "repeat"] if path and isinstance(path[-1], str) else []
    ops += ["push"] if type(r) is Int else []
    op = draw(st.sampled_from(ops))
    if op == "drop":
        del _at(new, path[:-1])[path[-1]]
        return new, None
    if op == "repeat":
        obj, key = _at(new, path[:-1]), path[-1]
        alias = "0" + key if type(parent) is Map and parent.int_keys else key
        return _put(new, path[:-1], _Pairs([*obj.items(), (alias, obj[key])])), \
            path[:-1] + (alias,)
    if op == "swap":
        value = draw(st.sampled_from([o for o in _OTHERS if type(o) is not type(value)]))
    elif op == "push":
        lo, hi = r
        value = draw(st.sampled_from([lo - 1 if type(lo) is int else -1,
                                      hi + 1 if type(hi) is int else 10 ** 6]))
    else:
        value = [value] if op == "wrap" else value[0]
    return _put(new, path, value), path


def _same(a, b) -> bool:
    """JSON equality that tells a bool from a number and a string from both."""
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or a is None:
        return type(a) is type(b) and a == b
    if isinstance(a, (int, float)):
        return isinstance(b, (int, float)) and not isinstance(b, bool) and a == b
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(map(_same, a, b))
    return (isinstance(b, dict) and a.keys() == b.keys()
            and all(_same(a[k], b[k]) for k in a))


@pytest.fixture(scope="module")
def fuzz_docs(tmp_path_factory):
    """name -> (file name, document, table, record depth, argv, load, store).

    *argv* builds the consuming command from the edited file's path; the
    windows stream has no command and is read by its loader."""
    d = tmp_path_factory.mktemp("fuzz")
    session = gen_reach_session(SessionConfig(n_units=6, trials_per_target=2), seed=3)
    store_session(session, str(d / "s.csv"))
    ens = train_ensemble(session.counts, session.velocity, session.unit_channels)
    store_decoder(DecoderBundle(transition=train_transition(session.velocity),
                                observation=ens, fixed=FixedPointFormat.for_matrix(ens.E)),
                  str(d / "dec.json"))
    tokens = Tokens.of([Completion(36, 0, 5, 12, -40), Completion(81, 1, 50, -3, 7)])
    store_tokens(tokens, str(d / "k.jsonl"))
    store_windows(tokens, np.arange(-32, 32).reshape(2, 32), str(d / "w.jsonl"))
    store_records([{"ch": 0, "label": 1, "t": 5}, {"ch": 1, "label": 0, "t": 9}],
                  str(d / "e.jsonl"))
    sets = {"tree": ChannelSorterModel(pattern_id=2, boundaries=(-5, 10, 100),
                                       valid_mask=0b111, train_accuracy=0.75),
            "l1": L1TemplateModel(templates=((0, 0), (50, -50)), labels=(2, 0)),
            "online": OnlineSorterModel(boundaries=([-10, 20], [0]), cam_snapshot=[
                (0, 0, STATUS_STRONG), (2, 1, STATUS_WEAK)])}
    for kind, model in sets.items():
        store_models({0: model, 1: model}, str(d / f"{kind}.json"))

    def doc(name):
        text = (d / name).read_text()
        return [json.loads(line) for line in text.splitlines()] if name.endswith("l") \
            else json.loads(text)

    def store_events(events, p):
        store_records(({"ch": c, "label": l, "t": t} for t, c, l in events.tolist()), p)

    docs = {f"sorters-{kind}": (f"{kind}.json", doc(f"{kind}.json"),
                                Obj({"kind": {f"{kind}-set"},
                                     "channels": Map(MODEL_KINDS[kind].SCHEMA, True)}),
                                0, lambda p: ("sort", "--tokens", d / "k.jsonl",
                                              "--models", p, "--out", p + ".out"),
                                load_models, store_models)
            for kind in sets}
    docs.update({
        "decoder": ("dec.json", doc("dec.json"), DECODER_SCHEMAS["eokf"], 0,
                    lambda p: ("decode", "--model", p, "--session", d / "s.csv",
                               "--out", p + ".out"), load_decoder, store_decoder),
        "session-sidecar": ("s.csv.json", doc("s.csv.json"), SESSION_SIDECAR, 0,
                            lambda p: ("train-decoder", "--session", p[:-5],
                                       "--out", p + ".out"),
                            lambda p: load_session(p[:-5]),
                            lambda s, p: store_session(s, p[:-5])),
        "tokens": ("k.jsonl", doc("k.jsonl"), List(Obj(TOKEN_FIELDS)), 1,
                   lambda p: ("sort", "--tokens", p, "--models", d / "tree.json",
                              "--out", p + ".out"), load_tokens, store_tokens),
        "windows": ("w.jsonl", doc("w.jsonl"), List(Obj(WINDOW_FIELDS)), 1, None,
                    load_windows, lambda wt, p: store_windows(wt[1], wt[0], p)),
        "sorted-events": ("e.jsonl", doc("e.jsonl"),
                          List(Obj(SORTED_EVENT_FIELDS)), 1,
                          lambda p: ("decode", "--model", d / "dec.json", "--events", p,
                                     "--out", p + ".out"),
                          _load_sorted_events, store_events)})
    return d, docs


@pytest.mark.parametrize("name", ["decoder", "sorters-tree", "sorters-l1", "sorters-online",
                                  "session-sidecar", "tokens", "windows", "sorted-events"])
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_structural_edit_exits_0_or_4_and_round_trips(fuzz_docs, capfd, name, data):
    src, docs = fuzz_docs
    file, doc, rule, depth, argv, load, store = docs[name]
    edited, path = data.draw(structural_edits(doc, rule, depth))
    with tempfile.TemporaryDirectory() as d:
        for other in os.listdir(src):
            shutil.copy(src / other, d)
        target = os.path.join(d, file)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write("".join(_dumps(r) + "\n" for r in edited) if depth else _dumps(edited))
        if argv is None:
            try:
                load(target)
            except PayloadError:
                return
        else:
            capfd.readouterr()
            code = main([str(a) for a in argv(target)])
            err = capfd.readouterr().err
            assert code in (EXIT_OK, EXIT_SCHEMA) and "Traceback" not in err, err
            if code == EXIT_SCHEMA:
                return
        once, twice = (os.path.join(d, f"{n}-{file}") for n in ("once", "twice"))
        store(load(target), once)
        store(load(once), twice)
        with open(once, encoding="utf-8") as a, open(twice, encoding="utf-8") as b:
            text = a.read()
            assert text == b.read()
    if path is not None:
        stored = [json.loads(line) for line in text.splitlines()] if depth else json.loads(text)
        assert _same(_at(edited, path), _at(stored, path)), (path, _at(stored, path))


# --- the flat simulator config -----------------------------------------------
# Not JSON, so not in the structural fuzzer above: one edit of a valid file's
# ``key = value`` lines, parsed and validated only. No Simulator is built, so
# a drawn size allocates nothing.

_SIM_FIELDS = [f.name for f in fields(SimConfig)]
_SIM_VALUES = st.one_of(st.integers(-10 ** 4, 10 ** 4).map(str),
                        st.sampled_from(["", "x", "1.5", "2e3", "0x10", "true", "YES", "16"]))


@st.composite
def sim_config_edits(draw) -> list:
    """(key, value) lines of a valid config with one line added, dropped,
    repeated or given another value."""
    lines = [("n_channels", "2"), ("group_size", "2"), ("conveyor_slots", "8"),
             ("bin_ms", "100"), ("channel_gating", "true")]
    i = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(["add", "drop", "repeat", "revalue"]))
    if op == "add":
        keys = _SIM_FIELDS + ["pre_samples", "channel_gating", "output_width_bits", "n_chans"]
        lines.insert(i, (draw(st.sampled_from(keys)), draw(_SIM_VALUES)))
    elif op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    else:
        lines[i] = (lines[i][0], draw(_SIM_VALUES))
    return lines


@settings(max_examples=300, deadline=None)
@given(lines=sim_config_edits())
def test_sim_config_edit_parses_to_a_valid_config_or_raises_a_value_error(lines):
    """Each edit either parses to a validated SimConfig that holds every
    value the file gives, or raises ValueError (PayloadError is one), never
    anything else."""
    try:
        cfg = parse_sim_config("".join(f"{key} = {value}\n" for key, value in lines))
    except ValueError:
        return
    cfg.validate()
    assert all(getattr(cfg, key) == int(value) for key, value in lines if key in _SIM_FIELDS)
