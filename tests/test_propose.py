import hashlib
import json
import math
import multiprocessing
import os
import re
import sys
import threading
import zlib

import orjson
import pytest
import requests

import nlconcepts.propose.replay as replay_module
from nlconcepts.dsl import format_concept
from nlconcepts.propose import (
    ChatClient,
    CorruptEntry,
    MissingLogprobSupport,
    ProposalRequest,
    ReplayBackend,
    ReplayMiss,
    ReplayStore,
    StaticPoolBackend,
    TemplateMismatch,
    UnmigratedStore,
    build_prompt,
    fingerprint,
    parse_rule_lines,
    parse_rule_list,
    propose,
    round_robin_take,
    score_nl_prior,
    translate_nl_to_dsl,
)
from nlconcepts.propose.backends import TRANSLATION_PARAMS, EmptyPool, score_prompt, translation_prompt
from nlconcepts.propose.client import BackendUnavailable
from nlconcepts.propose.prompts import completion_rules, request_params
from nlconcepts.propose.replay import HEADER_LEN, LOG_NAME, LogReport
from nlconcepts.types import NumberExampleSet, ShapeObject, Trial

from conftest import log_record, v2_request_bytes, write_v2_store


# ---------------------------------------------------------------------------
# Prompt construction


def test_number_prompt_golden():
    req = ProposalRequest(
        domain="number", examples=NumberExampleSet([98, 81, 86, 93]), budget=10
    )
    expected = (
        "# Python 3\n"
        "# Here are a few example number concepts:\n"
        "# -- The number is even\n"
        "# -- The number is between 30 and 45\n"
        "# -- The number is a power of 3\n"
        "# -- The number is less than 10\n"
        "#\n"
        "# Here are some random examples of numbers belonging to a different number concept:\n"
        "# 98, 81, 86, 93\n"
        "# The above are examples of the following number concept:\n"
        "# -- The number is "
    )
    assert build_prompt(req) == expected


def test_ablation_prompt_has_no_examples():
    req = ProposalRequest(domain="ablation_unconditioned", examples=None, budget=10)
    prompt = build_prompt(req)
    assert "random examples" not in prompt
    assert prompt.endswith("# -- The number is ")


def _mini_batches():
    a = ShapeObject("triangle", "green", 1)
    b = ShapeObject("circle", "blue", 2)
    c = ShapeObject("rectangle", "yellow", 3)
    return [
        [Trial([a, b], a, True), Trial([a, b], b, False)],
        [Trial([c], c, False)],
    ]


def test_first_order_prompt_serializes_batches():
    req = ProposalRequest(
        domain="shape_first_order", examples=_mini_batches(), budget=10
    )
    prompt = build_prompt(req)
    assert (
        "    An Example of Concept #4:\n"
        "        POSITIVES: (small green triangle)\n"
        "        NEGATIVES: (medium blue circle)\n"
        "    Another Example of Concept #4:\n"
        "        POSITIVES: none\n"
        "        NEGATIVES: (large yellow rectangle)"
    ) in prompt
    assert prompt.rstrip().endswith("End each line with a period.")


def test_propositional_prompt_truth_table():
    req = ProposalRequest(
        domain="shape_propositional", examples=_mini_batches(), budget=10
    )
    prompt = build_prompt(req)
    assert "size | color | shape | positive" in prompt
    assert "small | green | triangle | yes" in prompt
    assert "medium | blue | circle | no" in prompt


def test_unknown_domain_rejected():
    with pytest.raises(TemplateMismatch):
        ProposalRequest(domain="poetry", examples=None, budget=10)


# ---------------------------------------------------------------------------
# Completion parsing


def test_parse_rule_list():
    text = (
        "1. Something is positive if it is green.\n"
        "not a rule line\n"
        "2. Something is positive if it is a triangle.\n"
        "10. Something is positive if it is small\n"
    )
    assert parse_rule_list(text) == [
        "Something is positive if it is green",
        "Something is positive if it is a triangle",
        "Something is positive if it is small",
    ]


def test_parse_rule_lines():
    text = "Rule: a triangle.\nchatter\nrule: not blue\nRule:\n"
    assert parse_rule_lines(text) == ["a triangle", "not blue"]


def test_round_robin_take():
    lists = [["a1", "a2", "a3"], ["b1"], ["c1", "c2"]]
    assert round_robin_take(lists, 5) == ["a1", "b1", "c1", "a2", "c2"]
    assert round_robin_take(lists, 2) == ["a1", "b1"]
    assert round_robin_take(lists, 99) == ["a1", "b1", "c1", "a2", "c2", "a3"]


# ---------------------------------------------------------------------------
# Reading a request's completions back as rules, per kind, with no store


def _texts(*texts, logprob=None):
    return [{"text": t, "logprob": logprob} for t in texts]


@pytest.mark.parametrize("kind,examples", [("number", NumberExampleSet([2, 4])), ("ablation_unconditioned", None)])
def test_number_completions_read_back_as_their_first_lines_with_their_logprobs(kind, examples):
    """One rule per completion, the first line behind "the number is",
    with the completion's log-prob; a completion whose first line is
    blank (an empty or blank text, or one that starts with a newline)
    proposes no rule, and the budget counts the rules kept."""
    req = ProposalRequest(kind, examples, budget=10)
    completions = [
        {"text": " a power of 2\nchatter", "logprob": -3.5},
        {"text": "", "logprob": -1.0},
        {"text": "  \n ", "logprob": None},
        {"text": "\nEVEN.", "logprob": -2.0},
        {"text": "Even.\n", "logprob": -1.5},
        {"text": " \t", "logprob": -0.5},
        {"text": "less than 10", "logprob": None},
    ]
    assert completion_rules(req, completions) == [
        ("the number is a power of 2", -3.5),
        ("the number is even", -1.5),
        ("the number is less than 10", None),
    ]
    assert completion_rules(ProposalRequest(kind, examples, budget=2), completions) == [
        ("the number is a power of 2", -3.5),
        ("the number is even", -1.5),
    ]


def test_first_order_completions_read_back_round_robin_within_the_budget():
    """Rule i of every list before rule i + 1 of any; the prefix each
    rule restates is stripped whatever its case, then put back once."""
    completions = _texts(
        "1. Something is positive if it is green.\n2. SOMETHING IS POSITIVE IF it is big.\n3. it is small.",
        "1. it is a circle.",
        "no list here",
        logprob=-9.0,
    )
    rules = completion_rules(ProposalRequest("shape_first_order", _mini_batches(), budget=10), completions)
    assert rules == [
        ("something is positive if it is green", None),
        ("something is positive if it is a circle", None),
        ("something is positive if it is big", None),
        ("something is positive if it is small", None),
    ]
    three = completion_rules(ProposalRequest("shape_first_order", _mini_batches(), budget=3), completions)
    assert three == rules[:3]


def test_propositional_completions_read_back_as_the_first_rule_of_each():
    completions = _texts("Rule: a triangle.\nRule: not blue.", "no rule at all", "rule: Green.", logprob=-1.0)
    rules = completion_rules(ProposalRequest("shape_propositional", _mini_batches(), budget=10), completions)
    assert rules == [
        ("something is positive if it is a triangle", None),
        ("something is positive if it is green", None),
    ]


def test_first_batch_completion_reads_back_its_rules_up_to_the_budget():
    completion = _texts("\n".join(f"Rule: size is {i}." for i in range(1, 8)))
    rules = completion_rules(ProposalRequest("shape_first_batch", None, budget=5), completion)
    assert rules == [(f"something is positive if it is size is {i}", None) for i in range(1, 6)]


@pytest.mark.parametrize("budget,n_lists", [(1, 1), (10, 1), (11, 2), (100, 10)])
def test_request_params_of_each_kind(budget, n_lists):
    """The sampling parameters each kind sends, pinned: they are part of
    every replay key, so a change would miss every recorded store."""
    number = {"temperature": 0.7, "n": budget, "max_tokens": 64, "stop": "\n", "logprobs": True, "seed": 3}
    want = [
        ("number", NumberExampleSet([2, 4]), number),
        ("ablation_unconditioned", None, number),
        ("shape_first_order", _mini_batches(), {"temperature": 0.7, "n": n_lists, "seed": 3}),
        ("shape_propositional", _mini_batches(), {"temperature": 0.7, "n": budget, "seed": 3}),
        ("shape_first_batch", None, {"temperature": 0.0, "n": 1, "seed": 3}),
    ]
    for kind, examples, params in want:
        req = ProposalRequest(kind, examples, budget=budget, temperature=0.7, seed=3)
        assert request_params(req) == params, kind


def test_shape_proposals_join_at_the_batch_after_those_their_prompt_shows():
    assert ProposalRequest("shape_first_batch", None, budget=3).source_batch == 1
    for kind in ("shape_first_order", "shape_propositional"):
        assert ProposalRequest(kind, _mini_batches(), budget=3).source_batch == 3
    assert ProposalRequest("number", NumberExampleSet([2]), budget=3).source_batch is None
    assert ProposalRequest("ablation_unconditioned", None, budget=3).source_batch is None


# ---------------------------------------------------------------------------
# Replay store


def test_fingerprint_sensitivity():
    base = fingerprint("prompt", {"n": 5})
    assert base == fingerprint("prompt", {"n": 5})
    assert base != fingerprint("prompt!", {"n": 5})
    assert base != fingerprint("prompt", {"n": 6})
    # key order does not matter
    assert fingerprint("p", {"a": 1, "b": 2}) == fingerprint("p", {"b": 2, "a": 1})


def test_the_v3_request_bytes_and_key_are_pinned(tmp_path):
    # a non-ASCII prompt; nested params, unsorted, of every JSON scalar type
    prompt = "Règle : le nombre est ≥ 10 — “pair”\n"
    params = {
        "temperature": 0.7,
        "n": 3,
        "stop": ["\n", "Rule:"],
        "logprobs": True,
        "extra": {"z": None, "a": -1.5e-7, "m": False},
    }
    request = (
        '{"params":{"extra":{"a":-1.5e-7,"m":false,"z":null},"logprobs":true,"n":3,'
        '"stop":["\\n","Rule:"],"temperature":0.7},'
        '"prompt":"Règle : le nombre est ≥ 10 — “pair”\\n"}'
    ).encode("utf-8")
    key = "ed4e3f934049c33cf7175847133f5c5f55c6a4aef0dc8c0acdd0bf922dd8a6ef"
    assert orjson.dumps({"params": params, "prompt": prompt}, option=orjson.OPT_SORT_KEYS) == request
    assert hashlib.sha256(request).hexdigest() == key
    assert fingerprint(prompt, params) == key
    store = ReplayStore(tmp_path / "rs")
    assert store.record(prompt, params, []) == key
    assert _log(tmp_path / "rs").read_bytes()[HEADER_LEN:] == request + b"[]"


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["top", "list", "nested"])
def test_a_non_finite_param_raises_before_anything_is_written(tmp_path, bad, where):
    params = {
        "top": {"n": 1, "temperature": bad},
        "list": {"n": 1, "stop": [None, bad]},
        "nested": {"n": 1, "extra": {"a": [{"b": bad}], "z": None}},
    }[where]
    root = tmp_path / "rs"
    store = ReplayStore(root)
    for use in (
        lambda: fingerprint("prompt", params),
        lambda: store.record("prompt", params, []),
        lambda: store.get("prompt", params),
        lambda: store.lookup("prompt", params),
        lambda: store.get_or_record("prompt", params, lambda: []),
    ):
        with pytest.raises(ValueError, match="NaN or an infinity"):
            use()
    assert not root.exists()
    # orjson would write it as null, the key of a None
    assert fingerprint("prompt", {"n": 1, "temperature": None}) != fingerprint("prompt", {"n": 1})


@pytest.mark.parametrize(
    "prompt, params",
    [
        ("prompt", {1: "a non-str key"}),
        ("prompt", {"nested": {("a", "tuple"): 1}}),
        ("a lone surrogate \ud800", {"n": 1}),
        ("prompt", {"stop": "\udfff"}),
    ],
)
def test_a_non_str_params_key_or_a_prompt_not_in_utf8_raises_type_error(tmp_path, prompt, params):
    root = tmp_path / "rs"
    store = ReplayStore(root)
    for use in (
        lambda: fingerprint(prompt, params),
        lambda: store.record(prompt, params, []),
        lambda: store.lookup(prompt, params),
    ):
        with pytest.raises(TypeError):
            use()
    assert not root.exists()


def test_verify_reports_a_record_no_lookup_reaches(tmp_path):
    root = tmp_path / "rs"
    store = ReplayStore(root)
    store.record("prompt 0", {"n": 1}, [])
    # a record in the v2 encoding: its request hashes to its key, but no
    # lookup of its prompt and params computes that key
    v2 = log_record(v2_request_bytes("prompt 1", {"n": 1}), b"[]")
    start = _log(root).stat().st_size
    with open(_log(root), "ab") as log:
        log.write(v2)
    report = store.verify()
    assert (report.records, report.duplicates, report.torn_bytes) == (2, 0, 0)
    (mismatch,) = report.mismatches
    assert mismatch.startswith(f"record at byte {start}: ")
    assert "not the v3 encoding of its prompt and params" in mismatch
    assert store.get("prompt 1", {"n": 1}) is None
    assert len(store.keys()) == 2  # the header still indexes it
    # repair drops it, and the prompt can be recorded under its v3 key
    assert store.repair() == (1, len(v2))
    store.record("prompt 1", {"n": 1}, [])
    assert ReplayStore(root).verify() == LogReport(records=2)


def test_replay_store_round_trip(tmp_path):
    store = ReplayStore(tmp_path / "rs")
    completions = [{"text": "even", "logprob": -1.0}]
    key = store.record("prompt", {"n": 1}, completions)
    assert store.get("prompt", {"n": 1}) == completions
    assert store.lookup("prompt", {"n": 1}) == completions
    assert store.keys() == [key]
    assert store.entry(key)["prompt"] == "prompt"
    with pytest.raises(ReplayMiss):
        store.lookup("other prompt", {"n": 1})
    # first write wins
    store.record("prompt", {"n": 1}, [{"text": "odd", "logprob": -2.0}])
    assert store.get("prompt", {"n": 1}) == completions


def _log(root):
    return root / LOG_NAME


def test_truncated_entry_raises_corrupt_entry(tmp_path):
    root = tmp_path / "rs"
    store = ReplayStore(root)
    key = store.record("prompt", {"n": 1}, [{"text": "even", "logprob": -1.0}])
    data = _log(root).read_bytes()
    _log(root).write_bytes(data[: len(data) // 2])  # the log cut off under an indexed entry
    for read in (
        lambda: store.get("prompt", {"n": 1}),
        lambda: store.lookup("prompt", {"n": 1}),
        lambda: store.entry(key),
    ):
        with pytest.raises(CorruptEntry) as err:
            read()
        assert isinstance(err.value, ValueError)
        assert key in str(err.value) and str(_log(root)) in str(err.value)
    # a store that indexes the cut log finds a torn tail and no entry
    assert ReplayStore(root).get("prompt", {"n": 1}) is None


def test_flipped_body_byte_raises_corrupt_entry(tmp_path):
    root = tmp_path / "rs"
    key = ReplayStore(root).record("prompt", {"n": 1}, [{"text": "even", "logprob": -1.0}])
    whole = _log(root).read_bytes()
    for at in (HEADER_LEN + 3, len(whole) - 3):  # in the request, in the completions
        flipped = bytearray(whole)
        flipped[at] ^= 0x01
        _log(root).write_bytes(bytes(flipped))
        store = ReplayStore(root)
        assert store.keys() == [key]  # the header still indexes it
        for read in (
            lambda: store.get("prompt", {"n": 1}),
            lambda: store.lookup("prompt", {"n": 1}),
            lambda: store.entry(key),
        ):
            with pytest.raises(CorruptEntry) as err:
                read()
            assert isinstance(err.value, ValueError)
            assert key in str(err.value) and str(_log(root)) in str(err.value)
        assert len(store.verify().mismatches) == 1


def test_the_crc_covers_the_key(tmp_path):
    root = tmp_path / "rs"
    key = ReplayStore(root).record("prompt", {"n": 1}, [{"text": "even", "logprob": -1.0}])
    data = bytearray(_log(root).read_bytes())
    data[0:1] = b"0" if data[0:1] != b"0" else b"1"  # another key, still a valid header
    _log(root).write_bytes(bytes(data))
    store = ReplayStore(root)
    (flipped,) = store.keys()
    assert flipped != key and store.get("prompt", {"n": 1}) is None
    with pytest.raises(CorruptEntry, match="fails its CRC check"):
        store.entry(flipped)
    assert len(store.verify().mismatches) == 1


def test_record_writes_one_compact_entry_and_fixture_entries_still_read(tmp_path, fixtures_dir):
    store = ReplayStore(tmp_path / "rs")
    entry = {"prompt": "prompt", "params": {"n": 1}, "completions": [{"text": "é", "logprob": -1.0}]}
    key = store.record(entry["prompt"], entry["params"], entry["completions"])
    assert os.listdir(tmp_path / "rs") == [LOG_NAME]
    # the request is stored as exactly the bytes its key hashes
    request = b'{"params":{"n":1},"prompt":"prompt"}'
    # the completions as compact JSON, non-ASCII text as raw UTF-8
    completions = '[{"text":"é","logprob":-1.0}]'.encode("utf-8")
    header = f"{key} {len(request):010d} {len(completions):010d} {zlib.crc32(key.encode() + request + completions):08x}\n"
    assert len(header) == HEADER_LEN
    assert _log(tmp_path / "rs").read_bytes() == header.encode() + request + completions
    assert hashlib.sha256(request).hexdigest() == key
    assert store.entry(key) == entry
    fixtures = ReplayStore(fixtures_dir / "replay")
    assert len(fixtures.keys()) == 5
    for key in fixtures.keys():
        raw = fixtures.entry(key)
        assert fingerprint(raw["prompt"], raw["params"]) == key
        assert fixtures.lookup(raw["prompt"], raw["params"]) == raw["completions"]


def _raw_record(prompt, params, completions: bytes) -> bytes:
    """A record of `completions` bytes, written the way the log lays one out."""
    request = orjson.dumps({"params": params, "prompt": prompt}, option=orjson.OPT_SORT_KEYS)
    return log_record(request, completions)


@pytest.mark.parametrize("bad", [float("nan"), float("-inf"), float("inf")])
def test_record_refuses_a_non_finite_number_and_leaves_the_log_unchanged(tmp_path, bad):
    store = ReplayStore(tmp_path / "rs")
    store.record("other", {"n": 1}, [{"text": "odd", "logprob": None}])
    before = _log(tmp_path / "rs").read_bytes()
    for completions in ([{"text": "even", "logprob": bad}], [{"text": "even", "logprob": None}, bad]):
        with pytest.raises(ValueError, match="NaN or infinity"):
            store.record("prompt", {"n": 1}, completions)
    assert _log(tmp_path / "rs").read_bytes() == before
    assert store.get("prompt", {"n": 1}) is None
    # a null that is a None is recorded as one
    store.record("prompt", {"n": 1}, [{"text": "even", "logprob": None}])
    assert ReplayStore(tmp_path / "rs").lookup("prompt", {"n": 1}) == [{"text": "even", "logprob": None}]


def test_a_record_in_the_stdlib_encoding_reads_back_equal(tmp_path):
    root = tmp_path / "rs"
    root.mkdir()
    # json.dumps(..., separators=(",", ":")) as an earlier version wrote it:
    # escaped non-ASCII, an exponent with its sign, and non-finite tokens
    old = rb'[{"text":"\u00e9","logprob":1e+16},{"text":"nan","logprob":NaN},{"text":"inf","logprob":-Infinity}]'
    _log(root).write_bytes(_raw_record("prompt", {"n": 1}, old))
    store = ReplayStore(root)
    for completions in (
        store.lookup("prompt", {"n": 1}),
        store.get("prompt", {"n": 1}),
        store.entry(fingerprint("prompt", {"n": 1}))["completions"],
    ):
        first, nan, inf = completions
        assert first == {"text": "é", "logprob": 1e16}
        assert nan["text"] == "nan" and math.isnan(nan["logprob"])
        assert inf == {"text": "inf", "logprob": -math.inf}
    assert store.verify() == LogReport(records=1)


def test_verify_reports_completions_that_do_not_decode(tmp_path):
    root = tmp_path / "rs"
    root.mkdir()
    # key and CRC match, but the completions are cut off
    _log(root).write_bytes(_raw_record("prompt", {"n": 1}, b'[{"text":"ev'))
    report = ReplayStore(root).verify()
    assert report.records == 1 and len(report.mismatches) == 1
    assert "record at byte 0: " in report.mismatches[0] and "do not decode" in report.mismatches[0]


def test_reading_a_missing_store_creates_nothing(tmp_path):
    root = tmp_path / "missing" / "rs"
    store = ReplayStore(root)
    with pytest.raises(ReplayMiss):
        store.lookup("prompt", {"n": 1})
    assert store.get("prompt", {"n": 1}) is None
    assert store.keys() == []
    assert store.verify() == LogReport()
    assert store.repair() == (0, 0)
    assert not (tmp_path / "missing").exists()
    # the first record creates it, parents included
    key = store.record("prompt", {"n": 1}, [])
    assert store.keys() == [key]


def test_a_store_of_the_earlier_layout_names_the_migrate_command(tmp_path, fixtures_dir):
    """A v2 log, or `<key>.json` entries, is refused by every entry point,
    and nothing in the directory is created or changed."""
    v2_log = tmp_path / "v2_log"
    v2_log.mkdir()
    (v2_log / "entries.log").write_bytes(log_record(v2_request_bytes("prompt", {"n": 1}), b"[]"))
    v2_entries = tmp_path / "v2_entries"
    write_v2_store(ReplayStore(fixtures_dir / "replay"), v2_entries)
    for root in (v2_log, v2_entries):
        before = {name: (root / name).read_bytes() for name in os.listdir(root)}
        store = ReplayStore(root)
        for use in (
            lambda: store.lookup("prompt", {"n": 1}),
            lambda: store.get("prompt", {"n": 1}),
            lambda: store.entry(fingerprint("prompt", {"n": 1})),
            store.keys,
            lambda: store.record("prompt", {"n": 1}, []),
            store.verify,
            store.repair,
        ):
            with pytest.raises(UnmigratedStore, match=re.escape(f"`nlconcepts replay migrate {root}` at commit 444a717")):
                use()
        assert {name: (root / name).read_bytes() for name in os.listdir(root)} == before
        assert LOG_NAME not in before


def test_verify_reports_an_earlier_layout_left_beside_the_log(tmp_path, fixtures_dir):
    """A one-record v2 `entries.log`, or a `<key>.json` entry, beside the
    fixture's v3 log: lookups read the v3 log alone, so verify reports
    each leftover as one mismatch, and every file stays byte for byte."""
    v3_log = (fixtures_dir / "replay" / LOG_NAME).read_bytes()
    v2_log = log_record(v2_request_bytes("prompt", {"n": 1}), b"[]")
    v2_entries = tmp_path / "v2_entries"
    write_v2_store(ReplayStore(fixtures_dir / "replay"), v2_entries)
    v2_entry = sorted(os.listdir(v2_entries))[0]
    for leftover, data in (("entries.log", v2_log), (v2_entry, (v2_entries / v2_entry).read_bytes())):
        root = tmp_path / f"mixed_{leftover}"
        root.mkdir()
        (root / LOG_NAME).write_bytes(v3_log)
        (root / leftover).write_bytes(data)
        store = ReplayStore(root)
        assert store.get("prompt", {"n": 1}) is None
        assert store.verify() == LogReport(
            records=5,
            mismatches=[
                f"{leftover}: an earlier layout beside {LOG_NAME}, which is the only one "
                "this version reads, so no lookup reaches its entries"
            ],
        )
        assert {name: (root / name).read_bytes() for name in os.listdir(root)} == {LOG_NAME: v3_log, leftover: data}


def test_a_replaced_log_is_indexed_again(tmp_path):
    root, other = tmp_path / "rs", tmp_path / "other"
    store = ReplayStore(root)
    store.record("first", {"n": 1}, [{"text": "first", "logprob": None}])
    ReplayStore(other).record("second", {"n": 1}, [{"text": "second", "logprob": None}])
    os.replace(_log(other), _log(root))
    # a hit reads the file the index was built from
    assert store.lookup("first", {"n": 1}) == [{"text": "first", "logprob": None}]
    # a miss finds the new file, whose index has only its own records
    assert store.lookup("second", {"n": 1}) == [{"text": "second", "logprob": None}]
    assert store.get("first", {"n": 1}) is None
    store.record("first", {"n": 1}, [{"text": "again", "logprob": None}])
    assert ReplayStore(root).lookup("first", {"n": 1}) == [{"text": "again", "logprob": None}]
    assert ReplayStore(root).verify() == LogReport(records=2)


def test_a_log_cut_inside_its_last_record_reads_back_every_earlier_entry(tmp_path):
    def completions(i):
        return [{"text": f"rule {i}", "logprob": -1.0}]

    whole = ReplayStore(tmp_path / "whole")
    for i in range(3):
        whole.record(f"prompt {i}", {"n": 1}, completions(i))
    data = _log(tmp_path / "whole").read_bytes()
    last = data.index(fingerprint("prompt 2", {"n": 1}).encode())  # the last record's start
    ReplayStore(tmp_path / "next").record("prompt 3", {"n": 1}, completions(3))
    next_record = _log(tmp_path / "next").read_bytes()
    earlier = sorted(fingerprint(f"prompt {i}", {"n": 1}) for i in range(2))
    for cut in range(last, len(data)):
        root = tmp_path / f"cut{cut}"
        root.mkdir()
        _log(root).write_bytes(data[:cut])
        store = ReplayStore(root)
        assert store.keys() == earlier
        for i in range(2):
            assert store.lookup(f"prompt {i}", {"n": 1}) == completions(i)
        assert store.get("prompt 2", {"n": 1}) is None
        assert store.verify() == LogReport(records=2, torn_bytes=cut - last)
        # the next record truncates the torn tail before it appends
        store.record("prompt 3", {"n": 1}, completions(3))
        assert _log(root).read_bytes() == data[:last] + next_record
        store.close()


def _three_records(root):
    store = ReplayStore(root)
    for i in range(3):
        store.record(f"prompt {i}", {"n": 1}, [{"text": f"rule {i}", "logprob": -1.0}])
    store.close()
    return _log(root).read_bytes()


def test_a_zero_filled_tail_is_a_torn_tail(tmp_path):
    root = tmp_path / "rs"
    data = _three_records(root)
    for tail in (b"\0" * (2 * HEADER_LEN + 5), b"\0" * 7, b"not a record header\n" * 10):
        _log(root).write_bytes(data + tail)
        store = ReplayStore(root)
        assert len(store.keys()) == 3
        for i in range(3):
            assert store.lookup(f"prompt {i}", {"n": 1}) == [{"text": f"rule {i}", "logprob": -1.0}]
        assert store.get("prompt 3", {"n": 1}) is None
        assert store.verify() == LogReport(records=3, torn_bytes=len(tail))
        # the next record truncates the tail before it appends
        store.record("prompt 3", {"n": 1}, [])
        assert _log(root).read_bytes().startswith(data + fingerprint("prompt 3", {"n": 1}).encode())
        assert ReplayStore(root).verify() == LogReport(records=4)
        store.close()


def test_damage_before_a_whole_record_keeps_earlier_entries_and_refuses_to_record(tmp_path):
    root = tmp_path / "rs"
    data = _three_records(root)
    second = data.index(fingerprint("prompt 1", {"n": 1}).encode())
    damaged = data[:second] + b"\0" * HEADER_LEN + data[second + HEADER_LEN :]
    _log(root).write_bytes(damaged)
    store = ReplayStore(root)
    # what precedes the damage still reads
    assert store.lookup("prompt 0", {"n": 1}) == [{"text": "rule 0", "logprob": -1.0}]
    for use in (
        store.keys,
        lambda: store.get("prompt 2", {"n": 1}),
        lambda: store.record("prompt 3", {"n": 1}, []),
    ):
        with pytest.raises(
            CorruptEntry,
            match=f"damaged at byte {second}.*nlconcepts replay verify --store {root}.*"
            f"nlconcepts replay repair --store {root}",
        ):
            use()
    assert store.lookup("prompt 0", {"n": 1}) == [{"text": "rule 0", "logprob": -1.0}]
    assert _log(root).read_bytes() == damaged
    # verify reads on from the whole record after the damage
    report = store.verify()
    assert (report.records, report.torn_bytes, len(report.mismatches)) == (2, 0, 1)
    third = data.index(fingerprint("prompt 2", {"n": 1}).encode())
    assert report.mismatches[0] == (
        f"replay log {_log(root)} is damaged at byte {second}, before the whole record at byte {third}"
    )
    # repair keeps the records on either side of the damage
    assert store.repair() == (2, third - second)
    assert _log(root).read_bytes() == data[:second] + data[third:]
    assert ReplayStore(root).verify() == LogReport(records=2)
    for i in (0, 2):
        assert store.lookup(f"prompt {i}", {"n": 1}) == [{"text": f"rule {i}", "logprob": -1.0}]
    store.record("prompt 3", {"n": 1}, [])
    assert ReplayStore(root).verify() == LogReport(records=3)
    # a record after the damage that fails its CRC is a mismatch too, and
    # repair drops exactly what verify reports
    flipped = bytearray(damaged)
    flipped[-3] ^= 0x01  # in the third record's completions
    _log(root).write_bytes(bytes(flipped))
    report = ReplayStore(root).verify()
    assert (report.records, report.torn_bytes, len(report.mismatches)) == (2, 0, 2)
    assert report.mismatches[1] == f"record at byte {third}: key {fingerprint('prompt 2', {'n': 1})} fails its CRC check"
    assert ReplayStore(root).repair() == (1, len(data) - second)
    assert ReplayStore(root).verify() == LogReport(records=1)


def test_repair_keeps_the_first_whole_record_of_each_key(tmp_path):
    root = tmp_path / "rs"
    data = _three_records(root)
    ReplayStore(tmp_path / "dup").record("prompt 0", {"n": 1}, [{"text": "later", "logprob": None}])
    duplicate = _log(tmp_path / "dup").read_bytes()
    flipped = bytearray(data)
    flipped[-3] ^= 0x01  # the last record fails its CRC
    tail = duplicate[: HEADER_LEN + 5]  # a torn tail
    second = data.index(fingerprint("prompt 1", {"n": 1}).encode())
    third = data.index(fingerprint("prompt 2", {"n": 1}).encode())
    # a record cut short, then whole records of the keys before a torn tail
    _log(root).write_bytes(duplicate + data[: second - 7] + bytes(flipped) + tail)
    store = ReplayStore(root)
    with pytest.raises(CorruptEntry):
        store.keys()
    size = _log(root).stat().st_size
    assert store.repair() == (2, size - len(duplicate) - (third - second))
    assert _log(root).read_bytes() == duplicate + data[second:third]
    assert store.lookup("prompt 0", {"n": 1}) == [{"text": "later", "logprob": None}]
    assert store.lookup("prompt 1", {"n": 1}) == [{"text": "rule 1", "logprob": -1.0}]
    assert store.get("prompt 2", {"n": 1}) is None
    # a log with nothing to drop is left as it is
    inode = _log(root).stat().st_ino
    assert store.repair() == (2, 0)
    assert _log(root).stat().st_ino == inode
    assert os.listdir(root) == [LOG_NAME]


def test_a_thousand_stores_leak_no_file_descriptor(tmp_path):
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("counting open descriptors needs /proc/self/fd")
    ReplayStore(tmp_path / "rs").record("prompt", {"n": 1}, [])
    before = len(os.listdir("/proc/self/fd"))
    for i in range(1000):
        store = ReplayStore(tmp_path / "rs")
        store.record(f"prompt {i % 10}", {"n": 1}, [])
        assert store.lookup("prompt", {"n": 1}) == []
    del store
    assert len(os.listdir("/proc/self/fd")) == before


def _record_keys(store, barrier, worker, keys):
    barrier.wait()
    for i in range(keys):
        store.record(f"prompt {i}", {"n": 1}, [{"text": f"worker {worker}", "logprob": None}])


def _record_race(root, barrier, worker, keys):
    _record_keys(ReplayStore(root), barrier, worker, keys)


def _check_one_whole_entry_per_key(root, keys):
    store = ReplayStore(root)
    assert os.listdir(root) == [LOG_NAME]
    assert store.verify() == LogReport(records=keys)  # no duplicate, torn or mismatched record
    assert len(store.keys()) == keys
    for i in range(keys):
        (completion,) = store.lookup(f"prompt {i}", {"n": 1})
        assert completion in ({"text": "worker 0", "logprob": None}, {"text": "worker 1", "logprob": None})


def test_two_processes_recording_the_same_keys_leave_one_whole_entry_each(tmp_path):
    mp = multiprocessing.get_context("spawn")
    barrier = mp.Barrier(2)
    workers = [
        mp.Process(target=_record_race, args=(tmp_path / "rs", barrier, w, 40)) for w in range(2)
    ]
    for p in workers:
        p.start()
    for p in workers:
        p.join(60)
    assert [(p.is_alive(), p.exitcode) for p in workers] == [(False, 0), (False, 0)]
    _check_one_whole_entry_per_key(tmp_path / "rs", 40)


def test_a_store_used_across_fork_by_parent_and_child_leaves_one_entry_per_key(tmp_path):
    store = ReplayStore(tmp_path / "rs")
    # the log is open, and indexed, when the child is forked
    store.record("prompt 0", {"n": 1}, [{"text": "worker 0", "logprob": None}])
    mp = multiprocessing.get_context("fork")
    barrier = mp.Barrier(2)
    child = mp.Process(target=_record_keys, args=(store, barrier, 1, 40))
    child.start()
    _record_keys(store, barrier, 0, 40)
    child.join(60)
    assert (child.is_alive(), child.exitcode) == (False, 0)
    _check_one_whole_entry_per_key(tmp_path / "rs", 40)


def _race_threads(stores):
    """Thread w records the keys into stores[w], switching as often as it can."""
    barrier = threading.Barrier(len(stores))
    errors = []

    def run(worker):
        try:
            _record_keys(stores[worker], barrier, worker % 2, 40)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(len(stores))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_two_threads_recording_the_same_keys_leave_one_whole_entry_each(tmp_path):
    _race_threads([ReplayStore(tmp_path / "rs") for _ in range(2)])
    _check_one_whole_entry_per_key(tmp_path / "rs", 40)


def test_threads_sharing_one_store_leave_one_whole_entry_each(tmp_path):
    store = ReplayStore(tmp_path / "rs")
    _race_threads([store] * 4)
    _check_one_whole_entry_per_key(tmp_path / "rs", 40)


def test_a_short_append_propagates_and_leaves_no_entry(tmp_path, monkeypatch):
    store = ReplayStore(tmp_path / "rs")
    store.record("other", {"n": 1}, [])
    before = _log(tmp_path / "rs").read_bytes()
    write = os.write

    def short_write(fd, data):  # a full disk cuts the record off halfway
        return write(fd, data[: len(data) // 2])

    monkeypatch.setattr(os, "write", short_write)
    with pytest.raises(OSError, match="short write"):
        store.record("prompt", {"n": 1}, [{"text": "even", "logprob": -1.0}])
    monkeypatch.undo()
    assert _log(tmp_path / "rs").read_bytes() == before
    with pytest.raises(ReplayMiss):
        store.lookup("prompt", {"n": 1})
    store.record("prompt", {"n": 1}, [{"text": "even", "logprob": -1.0}])
    assert ReplayStore(tmp_path / "rs").lookup("prompt", {"n": 1}) == [{"text": "even", "logprob": -1.0}]


# ---------------------------------------------------------------------------
# HTTP client against a fake session


class FakeResponse:
    def __init__(self, status_code, payload):
        self.status_code = status_code
        self._payload = payload
        self.text = json.dumps(payload)

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        return self.responses.pop(0)


def test_client_complete_parses_choices():
    payload = {
        "choices": [
            {
                "message": {"content": "a power of 2"},
                "logprobs": {"content": [{"logprob": -1.0}, {"logprob": -0.5}]},
            },
            {"message": {"content": "even"}, "logprobs": None},
        ]
    }
    session = FakeSession([FakeResponse(200, payload)])
    client = ChatClient("https://x.test/v1", "m", api_key="k", session=session)
    out = client.complete("p", {"n": 2, "logprobs": True})
    assert out == [
        {"text": "a power of 2", "logprob": -1.5},
        {"text": "even", "logprob": None},
    ]
    call = session.calls[0]
    assert call["url"] == "https://x.test/v1/chat/completions"
    assert call["headers"]["Authorization"] == "Bearer k"
    assert call["json"]["n"] == 2


def test_each_request_kind_sends_its_sampling_parameters(tmp_path):
    """The API payload of every request kind, sent through the replay
    backend on a miss, pinned: the request's sampling parameters as it
    keys them, max_tokens 512 where it names none, and never its seed."""
    from nlconcepts.baselines import _direct_samples

    number = ProposalRequest("number", NumberExampleSet([16, 8, 2, 64]), budget=3, seed=7)
    first_order = ProposalRequest("shape_first_order", _mini_batches(), budget=25, seed=7)
    first_batch = ProposalRequest("shape_first_batch", None, budget=5, seed=7)
    sends = [
        (
            build_prompt(number),
            lambda b: propose(number, b),
            {"logprobs": True, "max_tokens": 64, "n": 3, "stop": "\n", "temperature": 1.0},
        ),
        (
            build_prompt(first_order),
            lambda b: propose(first_order, b),
            {"max_tokens": 512, "n": 3, "temperature": 1.0},
        ),
        (
            build_prompt(first_batch),
            lambda b: propose(first_batch, b),
            {"max_tokens": 512, "n": 1, "temperature": 0.0},
        ),
        (
            translation_prompt("the number is even", "number"),
            lambda b: translate_nl_to_dsl("the number is even", "number", b),
            {"max_tokens": 128, "n": 1, "stop": "\n", "temperature": 0.0},
        ),
        (
            "is 3 in the concept?",
            lambda b: _direct_samples(b, "is 3 in the concept?"),
            {"max_tokens": 8, "n": 10, "temperature": 1.0},
        ),
    ]
    for i, (prompt, send, want) in enumerate(sends):
        session = FakeSession([FakeResponse(200, {"choices": [{"message": {"content": "1. yes"}}]})])
        client = ChatClient("https://x.test/v1", "m", api_key="k", session=session)
        send(ReplayBackend(ReplayStore(tmp_path / f"rs{i}"), client))
        (payload,) = [call["json"] for call in session.calls]
        assert payload.pop("model") == "m"
        assert payload.pop("messages") == [{"role": "user", "content": prompt}]
        assert payload == want, prompt


def test_client_retries_then_fails(monkeypatch):
    import nlconcepts.propose.client as client_mod

    sleeps = []
    monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
    session = FakeSession([FakeResponse(500, {})] * 5)
    client = ChatClient("https://x.test/v1", "m", api_key="k", session=session)
    with pytest.raises(BackendUnavailable):
        client.complete("p", {})
    assert len(session.calls) == 5
    assert len(sleeps) == 4  # no sleep after the final attempt
    # jittered exponential backoff starting at ~1s
    assert all(s > 0 for s in sleeps)
    assert sleeps[1] > sleeps[0] * 0.5


class RaisingSession:
    """A session whose every request fails before a response arrives."""

    def __init__(self):
        self.calls = 0

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls += 1
        raise requests.ConnectionError(f"connection to {url} refused")


def test_client_retries_network_errors_then_fails(monkeypatch):
    import nlconcepts.propose.client as client_mod

    sleeps = []
    monkeypatch.setattr(client_mod.time, "sleep", sleeps.append)
    monkeypatch.setattr(client_mod, "MAX_RETRIES", 3)
    session = RaisingSession()
    client = ChatClient("https://x.test/v1", "m", api_key="k", session=session)
    with pytest.raises(BackendUnavailable, match="connection to .* refused"):
        client.complete("p", {})
    assert session.calls == 3
    assert len(sleeps) == 2  # no sleep after the final attempt


def test_client_recovers_after_transient_error(monkeypatch):
    import nlconcepts.propose.client as client_mod

    monkeypatch.setattr(client_mod.time, "sleep", lambda s: None)
    ok = FakeResponse(200, {"choices": [{"message": {"content": "x"}}]})
    session = FakeSession([FakeResponse(503, {}), ok])
    client = ChatClient("https://x.test/v1", "m", api_key="k", session=session)
    assert client.complete("p", {})[0]["text"] == "x"


def test_client_score_sums_continuation_tokens():
    payload = {
        "choices": [
            {
                "logprobs": {
                    "text_offset": [0, 4, 8],
                    "token_logprobs": [None, -1.0, -2.0],
                }
            }
        ]
    }
    session = FakeSession([FakeResponse(200, payload)])
    client = ChatClient("https://x.test/v1", "m", api_key="k", session=session)
    # prefix is 5 chars, so only the offset-8 token counts
    assert client.score("abcde", "fgh") == pytest.approx(-2.0)


def test_api_key_from_environment(monkeypatch):
    monkeypatch.setenv("INDUCT_API_KEY", "secret")
    client = ChatClient("https://x.test/v1", "m")
    assert client.api_key == "secret"


# ---------------------------------------------------------------------------
# Backends


def test_static_pool_backend(tmp_path):
    from nlconcepts import io

    path = tmp_path / "pool.jsonl"
    pool = [
        io.make_hypothesis(f"the number is {n}", f"x == {n}", "number")
        for n in (1, 2, 3)
    ]
    io.save_pool(path, pool)
    backend = StaticPoolBackend(path, "number")
    req = ProposalRequest(domain="number", examples=NumberExampleSet([1]), budget=2)
    out = backend.propose(req)
    assert [h.nl_text for h in out] == ["the number is 1", "the number is 2"]
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(EmptyPool):
        StaticPoolBackend(empty, "number")


def test_replay_backend_proposal_pipeline(fixtures_dir):
    store = ReplayStore(fixtures_dir / "replay")
    backend = ReplayBackend(store)
    req = ProposalRequest(
        domain="number", examples=NumberExampleSet([16, 8, 2, 64]), budget=5, seed=0
    )
    pool = propose(req, backend)
    assert len(pool) == 5
    assert pool[0].nl_text == "the number is a power of 2"
    assert pool[0].proposal_logprob == -3.1
    # duplicates arrive as-is; dedup happens downstream
    texts = [h.nl_text for h in pool]
    assert texts.count("the number is a power of 2") == 2
    # freshly proposed hypotheses are untranslated
    assert not any(h.parsed for h in pool)
    # translation through the same replay store compiles them
    program = translate_nl_to_dsl(pool[0].nl_text, "number", backend)
    assert format_concept(program) == "power(2, x)"


def test_replay_backend_misses_unseen_requests(fixtures_dir):
    backend = ReplayBackend(ReplayStore(fixtures_dir / "replay"))
    req = ProposalRequest(
        domain="number", examples=NumberExampleSet([1, 2, 3]), budget=5
    )
    with pytest.raises(ReplayMiss) as err:
        propose(req, backend)
    # still a KeyError, but its message names the key and the store
    assert isinstance(err.value, KeyError)
    assert str(err.value) == (
        f"no recorded response for key {err.value.key} "
        f"in replay store {fixtures_dir / 'replay'}"
    )
    assert len(err.value.key) == 64


def test_translate_unparseable_yields_unparsed(tmp_path):
    store = ReplayStore(tmp_path / "rs")
    store.record(
        translation_prompt("the number is cursed", "number"),
        TRANSLATION_PARAMS,
        [{"text": "cursed(x", "logprob": None}],
    )
    from nlconcepts.types import Unparsed

    program = translate_nl_to_dsl("the number is cursed", "number", ReplayBackend(store))
    assert isinstance(program, Unparsed)
    assert program.source == "cursed(x"


def test_translate_too_deeply_nested_yields_unparsed(tmp_path):
    store = ReplayStore(tmp_path / "rs")
    from nlconcepts.types import Unparsed

    deep = "(" * 400 + "x" + ")" * 400 + " < 3"
    store.record(translation_prompt("the number is deep", "number"), TRANSLATION_PARAMS, [{"text": deep, "logprob": None}])
    program = translate_nl_to_dsl("the number is deep", "number", ReplayBackend(store))
    assert isinstance(program, Unparsed)
    assert program.source == deep


def test_score_prompt_strips_domain_prefix():
    prefix, continuation = score_prompt("The number is EVEN.", "number")
    assert continuation == "even"
    assert prefix.endswith("# The number is ")
    prefix2, cont2 = score_prompt(
        "something is positive if it is a triangle", "shape"
    )
    assert cont2 == "it is a triangle"
    assert prefix2.endswith("# 6. ")


# ---------------------------------------------------------------------------
# ReplayBackend with a client: record on a miss, replay afterwards


class FakeClient:
    """Stands in for ChatClient; counts every call it answers."""

    def __init__(self, texts=("a power of 2", "even"), logprob=-1.5):
        self.texts = texts
        self.logprob = logprob
        self.complete_calls = []
        self.score_calls = []

    def complete(self, prompt, params):
        self.complete_calls.append(params)
        return [
            {"text": self.texts[i % len(self.texts)], "logprob": self.logprob}
            for i in range(params["n"])
        ]

    def score(self, prefix, continuation):
        self.score_calls.append((prefix, continuation))
        return self.logprob


def _number_request():
    return ProposalRequest(
        domain="number", examples=NumberExampleSet([16, 8, 2, 64]), budget=3, seed=0
    )


def _summary(pool):
    return [(h.nl_text, h.proposal_logprob) for h in pool]


def test_live_miss_calls_client_once_and_records(tmp_path):
    store = ReplayStore(tmp_path / "rs")
    client = FakeClient()
    pool = propose(_number_request(), ReplayBackend(store, client))
    assert client.complete_calls == [
        {"n": 3, "temperature": 1.0, "max_tokens": 64, "stop": "\n", "logprobs": True, "seed": 0}
    ]
    assert _summary(pool) == [
        ("the number is a power of 2", -1.5),
        ("the number is even", -1.5),
        ("the number is a power of 2", -1.5),
    ]
    (key,) = store.keys()
    entry = store.entry(key)
    assert entry["prompt"] == build_prompt(_number_request())
    assert [c["text"] for c in entry["completions"]] == ["a power of 2", "even", "a power of 2"]

    # a repeat request is answered from the store
    again = propose(_number_request(), ReplayBackend(store, client))
    assert len(client.complete_calls) == 1
    assert _summary(again) == _summary(pool)

    # a client-less backend on the same store replays identical completions
    replayed = ReplayBackend(store)
    assert replayed.completions(entry["prompt"], entry["params"]) == entry["completions"]
    assert _summary(propose(_number_request(), replayed)) == _summary(pool)


def test_a_live_miss_encodes_its_request_once(tmp_path, monkeypatch):
    encodes = []
    encode = replay_module._request_bytes

    def counted(prompt, params):
        encodes.append(prompt)
        return encode(prompt, params)

    monkeypatch.setattr(replay_module, "_request_bytes", counted)
    client = FakeClient()
    backend = ReplayBackend(ReplayStore(tmp_path / "rs"), client)
    prompt, params = build_prompt(_number_request()), request_params(_number_request())
    completions = backend.completions(prompt, params)
    assert len(client.complete_calls) == 1
    assert encodes == [prompt]  # not one each to get, record and read back
    assert backend.completions(prompt, params) == completions
    assert encodes == [prompt] * 2


def test_live_writer_that_loses_the_race_returns_the_winners_completions(tmp_path):
    store = ReplayStore(tmp_path / "rs")
    prompt = build_prompt(_number_request())

    class RacedClient(FakeClient):
        """Another writer records the request while this API call runs."""

        def complete(self, prompt, params):
            store.record(prompt, params, [{"text": "odd", "logprob": -0.5}] * params["n"])
            return super().complete(prompt, params)

    backend = ReplayBackend(store, RacedClient())
    pool = propose(_number_request(), backend)
    assert _summary(pool) == [("the number is odd", -0.5)] * 3
    (key,) = store.keys()
    assert store.entry(key)["prompt"] == prompt
    assert [c["text"] for c in store.entry(key)["completions"]] == ["odd"] * 3


def test_clientless_miss_raises_and_records_nothing(tmp_path):
    store = ReplayStore(tmp_path / "rs")
    with pytest.raises(ReplayMiss):
        propose(_number_request(), ReplayBackend(store))
    with pytest.raises(ReplayMiss):
        score_nl_prior(["the number is even"], "number", ReplayBackend(store))
    assert store.keys() == []


def test_score_nl_prior_scores_each_canonical_nl_once_then_replays(tmp_path):
    store = ReplayStore(tmp_path / "rs")
    client = FakeClient(logprob=-4.25)
    nl = ["the number is even", "The number is EVEN.", "the number is odd"]
    scores = score_nl_prior(nl, "number", ReplayBackend(store, client))
    assert scores == {"the number is even": -4.25, "the number is odd": -4.25}
    assert [c for _, c in client.score_calls] == ["even", "odd"]
    assert client.complete_calls == []
    assert len(store.keys()) == 2
    assert score_nl_prior(nl, "number", ReplayBackend(store)) == scores
    assert score_nl_prior(nl, "number", ReplayBackend(store, client)) == scores
    assert len(client.score_calls) == 2


def test_missing_logprob_raises_when_recorded_and_when_replayed(tmp_path):
    store = ReplayStore(tmp_path / "rs")
    client = FakeClient(logprob=None)
    with pytest.raises(MissingLogprobSupport):
        score_nl_prior(["the number is even"], "number", ReplayBackend(store, client))
    assert len(store.keys()) == 1  # the response was recorded before the check
    with pytest.raises(MissingLogprobSupport):
        score_nl_prior(["the number is even"], "number", ReplayBackend(store, client))
    with pytest.raises(MissingLogprobSupport):
        score_nl_prior(["the number is even"], "number", ReplayBackend(store))
    assert len(client.score_calls) == 1
