"""Every on-disk format fails with a DatasetFormatError, never a bare exception.

The four JSONL streams share one record codec, so one table of malformed
fields covers them all; the corruption suite then mutates a small valid file
of every loader and requires a typed error or a successful load.
"""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nsp.cli import _load_sorted_events
from nsp.decode import (DecoderBundle, FixedPointFormat, load_decoded,
                        load_decoder, store_decoded, store_decoder,
                        train_ensemble, train_transition)
from nsp.detect import (Completion, Tokens, load_tokens, load_windows,
                        store_tokens, store_windows)
from nsp.sort_offline import (ChannelSorterModel, L1TemplateModel, load_models,
                              store_models)
from nsp.sort_online import STATUS_STRONG, STATUS_WEAK, OnlineSorterModel
from nsp.synthdata import (DatasetFormatError, GroundTruthLabels, PayloadError,
                           RawTrace, SessionConfig, gen_reach_session,
                           load_document, load_labels, load_session,
                           load_trace, store_labels, store_records,
                           store_session, store_trace)

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
