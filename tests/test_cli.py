import csv
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlconcepts
from nlconcepts import harness, io
from nlconcepts.baselines import DIRECT_PARAMS, direct_shape_prompt
from nlconcepts.cli import _load_params, main
from nlconcepts.fit import fit_params, number_weights, pack_params, rule_weights, shape_forward, stack_tasks
from nlconcepts.harness import params_to_json
from nlconcepts.posterior import dedup_pool
from nlconcepts.prior import FeatureExtractor
from nlconcepts.propose import ProposalRequest, ReplayStore, build_prompt
from nlconcepts.propose.prompts import request_params
from nlconcepts.propose.replay import HEADER_LEN, LOG_NAME
from nlconcepts.types import ModelParams, NumberExampleSet

import oracle
from conftest import synthetic_shape_curve, synthetic_shape_pool, write_repeated_judgments


def test_infer_number(fixtures_dir, capsys):
    rc = main(
        [
            "infer",
            "--domain",
            "number",
            "--pool",
            str(fixtures_dir / "number_pool_size_principle.jsonl"),
            "--examples",
            "16,8,2,64",
        ]
    )
    assert rc == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["hypotheses"][0]["nl"] == "the number is a power of 2"
    assert not payload["degenerate"]


def test_infer_number_counts_a_too_deeply_nested_rule_as_unparsed(tmp_path, capsys):
    pool = tmp_path / "deep.jsonl"
    pool.write_text(json.dumps({"nl": "deep", "dsl": "(" * 400 + "x" + ")" * 400 + " < 3"}) + "\n")
    rc = main(["infer", "--domain", "number", "--pool", str(pool), "--examples", "16,8"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degenerate"]
    assert payload["diagnostics"]["unparsed"] == 1


def test_infer_number_counts_a_too_long_operator_chain_as_unparsed(tmp_path, capsys):
    """A chain of 3000 additions parses into a tree 3001 nodes deep: a
    syntax error, so the rule is unparsed and infer exits 0."""
    pool = tmp_path / "long.jsonl"
    pool.write_text(json.dumps({"nl": "long", "dsl": "x" + " + x" * 3000 + " < 3"}) + "\n")
    rc = main(["infer", "--domain", "number", "--pool", str(pool), "--examples", "2,4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["degenerate"]
    assert payload["diagnostics"]["unparsed"] == 1


def test_infer_number_tuned_prior(fixtures_dir, capsys):
    """`infer --prior tuned` weighs the pool by the fitted theta."""
    params_path = fixtures_dir / "params_true.json"
    pool_path = fixtures_dir / "number" / "set01.jsonl"
    rc = main(
        [
            "infer",
            "--domain",
            "number",
            "--pool",
            str(pool_path),
            "--examples",
            "2,4,8,16",
            "--params",
            str(params_path),
            "--prior",
            "tuned",
        ]
    )
    assert rc == 0
    got = json.loads(capsys.readouterr().out)["hypotheses"]
    params = _load_params(params_path)
    pool = io.load_pool(pool_path, "number")
    loglik = oracle.pool_number_logliks(pool, NumberExampleSet([2, 4, 8, 16]), params.epsilon)
    state = oracle.dedup_weights(pool, oracle.prior_of("tuned", params.theta), loglik, params.temperature)
    want = json.loads(state.to_json())["hypotheses"]
    assert [h["nl"] for h in got] == [h["nl"] for h in want]
    np.testing.assert_allclose([h["weight"] for h in got], [h["weight"] for h in want], atol=1e-12)
    uniform = oracle.dedup_weights(pool, oracle.prior_of("uniform"), loglik, params.temperature)
    assert got[0]["nl"] != uniform.pool[int(np.argmax(uniform.weights))].nl_text


def test_infer_shape(fixtures_dir, capsys):
    rc = main(
        [
            "infer",
            "--domain",
            "shape",
            "--pool",
            str(fixtures_dir / "shape" / "green_triangles_pool.jsonl"),
            "--curve",
            str(fixtures_dir / "shape" / "green_triangles_curve.json"),
            "--upto-batch",
            "5",
        ]
    )
    assert rc == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["hypotheses"][0]["nl"] == (
        "something is positive if it is a green triangle"
    )



def _infer_json(argv, capsys):
    assert main(["infer"] + argv) == 0
    return json.loads(capsys.readouterr().out)


def _write_params(tmp_path, params):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params_to_json(params)))
    return path


@pytest.mark.parametrize("source", ["fixture", "synthetic"])
def test_infer_shape_reads_the_online_models_weights(source, fixtures_dir, tmp_path, capsys):
    """`infer --upto-batch b` prints the weights the online model
    predicts batch b + 1 from (`rule_weights` of `shape_forward`'s p),
    honouring the rules' source batches; after every batch, every
    parsed rule has weight."""
    if source == "fixture":
        pool_path = fixtures_dir / "shape" / "green_triangles_pool.jsonl"
        curve_path = fixtures_dir / "shape" / "green_triangles_curve.json"
    else:
        pool_path, curve_path = tmp_path / "pool.jsonl", tmp_path / "curve.json"
        io.save_pool(pool_path, synthetic_shape_pool())
        io.save_learning_curve(curve_path, synthetic_shape_curve())
    params = ModelParams(epsilon=0.3, alpha=0.4, beta=1.0, temperature=1.0)
    argv = ["--domain", "shape", "--pool", str(pool_path), "--curve", str(curve_path)]
    argv += ["--params", str(_write_params(tmp_path, params))]
    pool, curve = io.load_pool(pool_path, "shape"), io.load_learning_curve(curve_path)
    cfg = harness.ExperimentConfig("shape")
    task = harness.build_shape_task(cfg, pool, curve, FeatureExtractor(dim=0))
    want, visible = rule_weights(task, shape_forward(task, params)[1])
    unique = dedup_pool(pool)
    for b in range(len(curve.batches)):
        got = _infer_json(argv + ["--upto-batch", str(b)], capsys)
        weights = dict((h["nl"], h["weight"]) for h in got["hypotheses"])
        assert [weights[h.nl_text] for h in unique] == want[b].tolist(), b
        hidden = int((~visible[b]).sum())
        assert got["diagnostics"]["zero_weight"] == hidden
        assert got["degenerate"] == (hidden == len(unique))
    if source == "synthetic":
        assert _infer_json(argv, capsys)["degenerate"]  # nothing is visible at batch 1
    last = _infer_json(argv + ["--upto-batch", str(len(curve.batches))], capsys)
    weights = dict((h["nl"], h["weight"]) for h in last["hypotheses"])
    assert [weights[h.nl_text] > 0 for h in unique] == [h.parsed for h in unique]
    assert last["diagnostics"]["zero_weight"] == last["diagnostics"]["unparsed"]


def _strict_json(text):
    """JSON that holds no NaN or Infinity."""

    def refuse(constant):
        raise ValueError(f"non-finite {constant} in the output")

    return json.loads(text, parse_constant=refuse)


def test_infer_shape_at_a_tiny_temperature_clamps_it_as_the_number_pass_does(fixtures_dir, tmp_path, capsys):
    """Both domains divide by the temperature clamped to exp(-700), so a
    subnormal one gives the posterior at exp(-700): finite weights that
    sum to 1, where dividing by 1e-320 overflowed into NaN weights."""
    shape_dir = fixtures_dir / "shape"
    argv = ["--domain", "shape", "--pool", str(shape_dir / "green_triangles_pool.jsonl")]
    argv += ["--curve", str(shape_dir / "green_triangles_curve.json"), "--upto-batch", "3"]
    outputs = []
    for temperature in (1e-320, math.exp(-700.0)):
        params = ModelParams(epsilon=0.3, alpha=0.4, beta=1.0, temperature=temperature)
        assert main(["infer"] + argv + ["--params", str(_write_params(tmp_path, params))]) == 0
        outputs.append(_strict_json(capsys.readouterr().out))
    tiny, bound = outputs
    assert tiny == bound
    weights = [h["weight"] for h in tiny["hypotheses"]]
    assert sum(weights) == pytest.approx(1.0) and min(weights) >= 0.0
    assert math.isfinite(tiny["diagnostics"]["max_weight"])
    # the number pass at the same temperature
    pool = fixtures_dir / "number_pool_size_principle.jsonl"
    params = _write_params(tmp_path, ModelParams(temperature=1e-320))
    got = _infer_json(["--domain", "number", "--pool", str(pool), "--examples", "16,8,2,64", "--params", str(params)], capsys)
    assert got["hypotheses"][0]["weight"] == 1.0


def test_eval_shape_at_a_tiny_temperature_predicts_finite_values(fixtures_dir, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"epsilon": 0.3, "alpha": 0.4, "beta": 1.0, "temperature": 1e-320}))
    cfg = _shape_config(fixtures_dir, tmp_path)
    out_dir = tmp_path / "eval"
    assert main(["eval", "--config", str(cfg), "--params", str(params), "--out-dir", str(out_dir)]) == 0
    metrics = _strict_json((out_dir / "metrics.json").read_text())
    assert metrics["n_trials"] == 64 and 0.0 <= metrics["accuracy"] <= 1.0


@pytest.mark.parametrize("prior", ["uniform", "tuned", "external"])
@pytest.mark.parametrize("temperature", [0.3, 1.0, 3.0])
def test_infer_number_reads_the_fit_paths_weights(prior, temperature, fixtures_dir, tmp_path, capsys):
    """`infer --domain number` prints the posterior weights the fit
    predicts from (`fit.number_weights`), bit for bit, under each
    prior."""
    pool_path = fixtures_dir / "number" / "set03.jsonl"
    pool = io.load_pool(pool_path, "number")
    examples = NumberExampleSet([16, 8, 2, 64])
    rng = np.random.default_rng(16)
    dim = 16 if prior == "tuned" else 0
    params = ModelParams(theta=rng.normal(0, 1, dim), epsilon=0.05, temperature=temperature)
    scores = tmp_path / "scores.jsonl"
    io.save_score_file(scores, {h.key: float(rng.normal(0, 2)) for h in pool})
    argv = ["--domain", "number", "--pool", str(pool_path), "--examples", "16,8,2,64"]
    argv += ["--params", str(_write_params(tmp_path, params)), "--prior", prior, "--scores", str(scores)]
    got = _infer_json(argv, capsys)

    cfg = harness.ExperimentConfig("number", prior=prior, scores_path=str(scores), feature_dim=dim)
    task = harness.build_number_task(cfg, pool, examples, [(3, 0.5, "t")], FeatureExtractor(dim=dim))
    want = number_weights(pack_params(params)[None], stack_tasks([task]))[0][0, 0]
    weights = dict((h["nl"], h["weight"]) for h in got["hypotheses"])
    assert [weights[nl] for nl in task.names] == want.tolist()
    assert got["diagnostics"]["zero_weight"] == int((~task.parsed).sum())


def test_infer_with_a_nan_score_is_an_error_naming_the_score_file(fixtures_dir, tmp_path, capsys):
    """A score file whose logp is NaN: infer exits 1 and names the file
    and the line, before any weight is computed."""
    pool_path = fixtures_dir / "shape" / "green_triangles_pool.jsonl"
    scores = tmp_path / "scores.jsonl"
    keys = [h.key for h in io.load_pool(pool_path, "shape")]
    scores.write_text("".join(json.dumps({"nl": key, "logp": -1.0}) + "\n" for key in keys[1:]))
    with scores.open("a") as f:
        f.write(json.dumps({"nl": keys[0], "logp": math.nan}) + "\n")
    argv = ["infer", "--domain", "shape", "--pool", str(pool_path), "--upto-batch", "2"]
    argv += ["--curve", str(fixtures_dir / "shape" / "green_triangles_curve.json")]
    assert main(argv + ["--prior", "external", "--scores", str(scores)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: score file {scores}, line {len(keys)}: 'logp' is not a finite number: nan\n"


def test_infer_with_a_score_too_large_for_a_float_is_an_error_naming_the_score_file(fixtures_dir, tmp_path, capsys):
    """A 400-digit integer logp: infer exits 1 and names the file and
    the line, not an OverflowError of the float conversion."""
    scores = tmp_path / "scores.jsonl"
    scores.write_text('{"nl": "it is green", "logp": -1.5}\n{"nl": "it is red", "logp": -1' + "0" * 400 + "}\n")
    argv = ["infer", "--domain", "shape", "--pool", str(fixtures_dir / "shape" / "green_triangles_pool.jsonl")]
    argv += ["--curve", str(fixtures_dir / "shape" / "green_triangles_curve.json"), "--upto-batch", "1"]
    assert main(argv + ["--prior", "external", "--scores", str(scores)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: score file {scores}, line 2: 'logp' is an integer too large for a float\n"


def test_infer_on_a_pool_with_a_string_batch_is_an_error_naming_the_pool_file(fixtures_dir, tmp_path, capsys):
    """A pool row whose batch is the string "2": infer exits 1 and names
    the file and the line, not a comparison of an int with a str."""
    rows = (fixtures_dir / "shape" / "green_triangles_pool.jsonl").read_text().splitlines()
    pool_path = tmp_path / "pool.jsonl"
    pool_path.write_text("".join(line + "\n" for line in [json.dumps(dict(json.loads(rows[0]), batch="2"))] + rows[1:]))
    argv = ["infer", "--domain", "shape", "--pool", str(pool_path), "--upto-batch", "1"]
    assert main(argv + ["--curve", str(fixtures_dir / "shape" / "green_triangles_curve.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: pool file {pool_path}, line 1: 'batch' is not an integer: '2'\n"


def test_infer_on_a_curve_with_a_rate_above_1_is_an_error_naming_the_curve_file(fixtures_dir, tmp_path, capsys):
    """A human rate of 1.7 on the first trial: infer exits 1 and names
    the file and the trial; such a curve was once fit as it stood."""
    raw = json.loads((fixtures_dir / "shape" / "green_triangles_curve.json").read_text())
    raw["human_positive_rate"][0] = 1.7
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(raw))
    argv = ["infer", "--domain", "shape", "--pool", str(fixtures_dir / "shape" / "green_triangles_pool.jsonl")]
    assert main(argv + ["--curve", str(curve), "--upto-batch", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: curve file {curve}, trial 1: human rate must lie in [0, 1], not 1.7\n"


def test_fit_on_judgments_with_a_rating_that_is_no_number_is_an_error_naming_the_file(fixtures_dir, tmp_path, capsys):
    """A rating of "high" on the first row: fit exits 1 and names the
    judgments file and the line, not float()'s bare message."""
    path = _tiny_number_config(fixtures_dir, tmp_path)
    data = Path(json.loads(path.read_text())["data_path"])
    header, first, *rest = data.read_text().splitlines(keepends=True)
    data.write_text("".join([header, first.rsplit(",", 1)[0] + ",high\n", *rest]))
    assert main(["fit", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: judgments file {data}, line 2: 'mean_rating' is not a finite number: 'high'\n"
    assert not (tmp_path / "out").exists()


def test_fit_on_judgments_with_no_rows_is_an_error_naming_the_file(fixtures_dir, tmp_path, capsys):
    """A judgments CSV that holds only its header: fit exits 1 and names
    the file, where it once said "no judgments to model" and named none."""
    path = _tiny_number_config(fixtures_dir, tmp_path)
    data = Path(json.loads(path.read_text())["data_path"])
    data.write_text(data.read_text().splitlines(keepends=True)[0])
    assert main(["fit", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: judgments file {data}, top level: no judgments\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("upto", [-1, 16])
def test_infer_upto_batch_outside_the_curve_is_a_usage_error(upto, fixtures_dir, capsys):
    argv = ["infer", "--domain", "shape", "--pool", str(fixtures_dir / "shape" / "green_triangles_pool.jsonl")]
    argv += ["--curve", str(fixtures_dir / "shape" / "green_triangles_curve.json"), "--upto-batch", str(upto)]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "infer --upto-batch must lie in 0..15" in capsys.readouterr().err


@pytest.mark.parametrize("upto", [-1, 99])
def test_propose_upto_batch_outside_the_curve_is_a_usage_error(upto, fixtures_dir, tmp_path, capsys):
    """As for infer: past the curve's last batch, or before its first,
    propose exits 2 instead of sending whatever the slice keeps."""
    shape_dir = fixtures_dir / "shape"
    argv = ["propose", "--domain", "shape", "--curve", str(shape_dir / "green_triangles_curve.json")]
    argv += ["--upto-batch", str(upto), "--backend", "static", "--pool", str(shape_dir / "green_triangles_pool.jsonl")]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path / "pool.jsonl")])
    assert err.value.code == 2
    assert "propose --upto-batch must lie in 0..15" in capsys.readouterr().err
    assert not (tmp_path / "pool.jsonl").exists()


@pytest.mark.parametrize("upto", [0, 1, 2, 3])
def test_shape_propose_after_b_batches_writes_source_batch_b_plus_1(upto, fixtures_dir, tmp_path):
    """`propose --upto-batch b` sends the prompt that shows the curve's
    first b batches (the first-batch prompt for b = 0), and every rule
    it writes joins the posterior at batch b + 1, the first it predicts."""
    curve_path = fixtures_dir / "shape" / "green_triangles_curve.json"
    curve = io.load_learning_curve(curve_path)
    if upto:
        req = ProposalRequest("shape_first_order", curve.batches[:upto], budget=3)
        completions = [{"text": "1. Something is positive if it is green.\n2. it is small.\n3. it is big.", "logprob": None}]
    else:
        req = ProposalRequest("shape_first_batch", None, budget=3)
        completions = [{"text": "Rule: green.\nRule: small.\nRule: a circle.", "logprob": None}]
    ReplayStore(tmp_path / "store").record(build_prompt(req), request_params(req), completions)
    argv = ["propose", "--domain", "shape", "--curve", str(curve_path), "--budget", "3"]
    argv += ["--backend", "replay", "--store", str(tmp_path / "store"), "--out", str(tmp_path / "pool.jsonl")]
    if upto:  # the default is 0
        argv += ["--upto-batch", str(upto)]
    assert main(argv) == 0
    rows = [json.loads(line) for line in (tmp_path / "pool.jsonl").read_text().splitlines()]
    assert len(rows) == 3
    assert [row["batch"] for row in rows] == [upto + 1] * 3


def test_propose_shape_unconditioned_is_a_usage_error(fixtures_dir, tmp_path, capsys):
    """Only the number ablation has an unconditioned prompt: with
    --domain shape the flag was once ignored, and a conditioned pool
    written."""
    shape_dir = fixtures_dir / "shape"
    argv = ["propose", "--domain", "shape", "--curve", str(shape_dir / "green_triangles_curve.json"), "--unconditioned"]
    argv += ["--backend", "static", "--pool", str(shape_dir / "green_triangles_pool.jsonl")]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--out", str(tmp_path / "pool.jsonl")])
    assert err.value.code == 2
    assert "propose --unconditioned is for --domain number only, not --domain shape" in capsys.readouterr().err
    assert not (tmp_path / "pool.jsonl").exists()


def test_propose_unconditioned_needs_no_examples(fixtures_dir, tmp_path, capsys):
    """The ablation prompt shows no examples, so `propose --unconditioned`
    runs without `--examples`, and writes what it writes with them; it
    once exited 2 asking for them."""
    pool = fixtures_dir / "number" / "set01.jsonl"
    argv = ["propose", "--domain", "number", "--unconditioned", "--backend", "static", "--pool", str(pool)]
    argv += ["--budget", "3"]
    out, with_examples = tmp_path / "pool.jsonl", tmp_path / "with_examples.jsonl"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 3 hypotheses to {out}\n"
    assert [h.nl_text for h in io.load_pool(out, "number")] == [h.nl_text for h in io.load_pool(pool, "number")[:3]]
    assert main(argv + ["--examples", "1", "--out", str(with_examples)]) == 0
    assert with_examples.read_bytes() == out.read_bytes()


def test_replay_list_and_show(fixtures_dir, capsys):
    rc = main(["replay", "list", "--store", str(fixtures_dir / "replay")])
    assert rc == 0
    keys = capsys.readouterr().out.split()
    assert keys
    rc = main(["replay", "show", keys[0], "--store", str(fixtures_dir / "replay")])
    assert rc == 0
    entry = json.loads(capsys.readouterr().out)
    assert "completions" in entry


def test_replay_show_without_a_key_is_a_usage_error(fixtures_dir, capsys):
    with pytest.raises(SystemExit) as err:
        main(["replay", "show", "--store", str(fixtures_dir / "replay")])
    assert err.value.code == 2
    assert "replay show requires the key argument" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["list", "verify", "repair"])
def test_replay_action_on_the_store_refuses_a_positional_directory(action, fixtures_dir, capsys):
    """The store is named by --store; a directory given as the positional
    argument would leave the action on the default store."""
    with pytest.raises(SystemExit) as err:
        main(["replay", action, str(fixtures_dir / "replay")])
    assert err.value.code == 2
    assert f"replay {action} takes no positional argument" in capsys.readouterr().err


def test_replay_list_on_a_missing_store_creates_nothing(tmp_path, capsys):
    store = tmp_path / "missing"
    assert main(["replay", "list", "--store", str(store)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["replay", "verify", "--store", str(store)]) == 0
    assert capsys.readouterr().out == "0 records, 0 duplicate keys, 0 torn bytes, 0 mismatches\n"
    assert not store.exists()


def test_replay_verify_and_list_a_copy_of_the_fixture_store(fixtures_dir, tmp_path, capsys):
    fixtures = ReplayStore(fixtures_dir / "replay")
    store = tmp_path / "rs"
    shutil.copytree(fixtures_dir / "replay", store)
    assert main(["replay", "verify", "--store", str(store)]) == 0
    assert capsys.readouterr().out == "5 records, 0 duplicate keys, 0 torn bytes, 0 mismatches\n"
    assert main(["replay", "list", "--store", str(store)]) == 0
    assert capsys.readouterr().out.split() == fixtures.keys()
    # repair leaves a sound log byte for byte
    assert main(["replay", "repair", "--store", str(store)]) == 0
    assert capsys.readouterr().out == "kept 5 records, dropped 0 bytes\n"
    assert (store / LOG_NAME).read_bytes() == (fixtures_dir / "replay" / LOG_NAME).read_bytes()
    # a flipped byte is a mismatch, and verify exits 1
    log = bytearray((store / LOG_NAME).read_bytes())
    log[-2] ^= 0x01
    (store / LOG_NAME).write_bytes(bytes(log))
    assert main(["replay", "verify", "--store", str(store)]) == 1
    assert "1 mismatches" in capsys.readouterr().out
    # a v2 log left beside the v3 log is a mismatch too, and stays as it is
    (store / LOG_NAME).write_bytes((fixtures_dir / "replay" / LOG_NAME).read_bytes())
    shutil.copyfile(store / LOG_NAME, store / "entries.log")
    assert main(["replay", "verify", "--store", str(store)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("entries.log: ") and out.endswith("\n5 records, 0 duplicate keys, 0 torn bytes, 1 mismatches\n")
    assert (store / "entries.log").read_bytes() == (store / LOG_NAME).read_bytes()
    # the converter of earlier layouts is gone
    with pytest.raises(SystemExit) as err:
        main(["replay", "migrate", str(store)])
    assert err.value.code == 2


@pytest.mark.parametrize("action", ["list", "verify", "repair"])
def test_replay_on_a_store_of_the_earlier_layout_is_an_error(action, fixtures_dir, tmp_path, capsys):
    """A store that holds only an `entries.log`, the layout before v3:
    each action exits 1 naming the commit whose `replay migrate`
    converts it, and leaves the directory as it was."""
    store = tmp_path / "v2"
    store.mkdir()
    shutil.copyfile(fixtures_dir / "replay" / LOG_NAME, store / "entries.log")
    assert main(["replay", action, "--store", str(store)]) == 1
    assert "at commit 444a717" in capsys.readouterr().err
    assert os.listdir(store) == ["entries.log"]
    assert (store / "entries.log").read_bytes() == (fixtures_dir / "replay" / LOG_NAME).read_bytes()


def test_replay_repair_salvages_the_records_after_a_damaged_header(fixtures_dir, tmp_path, capsys):
    log = (fixtures_dir / "replay" / LOG_NAME).read_bytes()
    store = tmp_path / "rs"
    store.mkdir()
    second = HEADER_LEN + int(log[65:75]) + int(log[76:86])  # the first record's end
    damaged = bytearray(log)
    damaged[second + 70] = ord("x")  # a non-digit in the second record's request length
    (store / LOG_NAME).write_bytes(bytes(damaged))
    assert main(["replay", "list", "--store", str(store)]) == 1
    assert f"damaged at byte {second}" in capsys.readouterr().err
    assert main(["replay", "repair", "--store", str(store)]) == 0
    dropped = len(log) - (store / LOG_NAME).stat().st_size
    assert capsys.readouterr().out == f"kept 4 records, dropped {dropped} bytes\n"
    assert main(["replay", "list", "--store", str(store)]) == 0
    keys = capsys.readouterr().out.split()
    second_key = log[second : second + 64].decode()
    assert keys == sorted(set(ReplayStore(fixtures_dir / "replay").keys()) - {second_key})
    assert main(["replay", "verify", "--store", str(store)]) == 0
    assert capsys.readouterr().out == "4 records, 0 duplicate keys, 0 torn bytes, 0 mismatches\n"


def test_propose_translate_pipeline_reproducible(fixtures_dir, tmp_path, capsys):
    """Replay-backed propose + translate; two runs are byte-identical."""
    outputs = []
    for run in (1, 2):
        pool_path = tmp_path / f"pool{run}.jsonl"
        rc = main(
            [
                "propose",
                "--domain",
                "number",
                "--examples",
                "16,8,2,64",
                "--budget",
                "5",
                "--backend",
                "replay",
                "--store",
                str(fixtures_dir / "replay"),
                "--out",
                str(pool_path),
            ]
        )
        assert rc == 0
        translated = tmp_path / f"translated{run}.jsonl"
        rc = main(
            [
                "translate",
                "--domain",
                "number",
                "--in",
                str(pool_path),
                "--out",
                str(translated),
                "--backend",
                "replay",
                "--store",
                str(fixtures_dir / "replay"),
            ]
        )
        assert rc == 0
        outputs.append(translated.read_bytes())
    assert outputs[0] == outputs[1]
    lines = [json.loads(l) for l in outputs[0].decode().splitlines()]
    assert lines[0]["dsl"] == "power(2, x)"


def test_translate_offers_no_static_backend(fixtures_dir, tmp_path, capsys):
    """The static backend only proposes; translate rejects it as a usage error."""
    with pytest.raises(SystemExit) as err:
        main(
            [
                "translate",
                "--domain",
                "number",
                "--in",
                str(fixtures_dir / "number_pool_size_principle.jsonl"),
                "--out",
                str(tmp_path / "out.jsonl"),
                "--backend",
                "static",
            ]
        )
    assert err.value.code == 2
    assert "invalid choice: 'static'" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_replay_miss_names_key_and_store(fixtures_dir, tmp_path, capsys):
    store = fixtures_dir / "replay"
    rc = main(
        [
            "propose",
            "--domain",
            "number",
            "--examples",
            "1,2,3",
            "--budget",
            "5",
            "--store",
            str(store),
            "--out",
            str(tmp_path / "pool.jsonl"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no recorded response for key ")
    assert err.rstrip().endswith(f"in replay store {store}")


def _tiny_number_config(fixtures_dir, tmp_path, prior="uniform"):
    """A config over example sets set01 and set02: their pools and the
    judgments of those two sets alone."""
    lines = (fixtures_dir / "number_judgments.csv").read_text().splitlines(keepends=True)
    data = tmp_path / "judgments.csv"
    data.write_text("".join(lines[:1] + [l for l in lines[1:] if l.startswith(("set01,", "set02,"))]))
    cfg = {
        "domain": "number",
        "data_path": str(data),
        "pools": {
            f"set{i:02d}": str(fixtures_dir / "number" / f"set{i:02d}.jsonl")
            for i in range(1, 3)
        },
        "prior": prior,
        "feature_dim": 64,
        "seed": 0,
        "fit": {"epochs": 2, "trainable": ["epsilon", "platt"]},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_fit_number_writes_outputs(fixtures_dir, tmp_path, capsys):
    cfg = _tiny_number_config(fixtures_dir, tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["fit", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "metrics.json").exists()
    assert (out_dir / "predictions.csv").exists()
    assert (out_dir / "topk.json").exists()
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["n_predictions"] == 12
    # the final fit's parameters, which `eval --params` reads back
    assert (out_dir / "params.json").exists()
    eval_dir = tmp_path / "eval"
    rc = main(["eval", "--config", str(cfg), "--params", str(out_dir / "params.json"), "--out-dir", str(eval_dir)])
    assert rc == 0
    assert json.loads((eval_dir / "metrics.json").read_text())["n_predictions"] == 12


def test_fit_with_an_unknown_prior_is_a_usage_error(fixtures_dir, tmp_path, capsys):
    cfg = _tiny_number_config(fixtures_dir, tmp_path, prior="tunde")
    with pytest.raises(SystemExit) as err:
        main(["fit", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "prior must be one of" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dim", [0, -1])
def test_fit_with_a_tuned_prior_of_no_features_is_a_usage_error(dim, fixtures_dir, tmp_path, monkeypatch, capsys):
    """`number_tuned.json` at feature_dim 0 or below exits 2 naming
    feature_dim, before any feature is hashed into no bucket."""
    cfg = json.loads((fixtures_dir / "configs" / "number_tuned.json").read_text())
    path = tmp_path / "tuned.json"
    path.write_text(json.dumps(dict(cfg, feature_dim=dim)))
    monkeypatch.chdir(fixtures_dir.parent)  # the fixture config's paths are relative to the checkout
    with pytest.raises(SystemExit) as err:
        main(["fit", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert f"the tuned prior needs feature_dim >= 1, not {dim}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section,key,value,message",
    [
        pytest.param(None, "k_fold", 3, "unknown config key(s): 'k_fold'", id="None-k_fold"),
        # the output directory is --out-dir's alone
        pytest.param(None, "out_dir", "out", "unknown config key(s): 'out_dir'", id="None-out_dir"),
        # trainable is a fit setting
        pytest.param(None, "trainable", ["epsilon"], "unknown config key(s): 'trainable'", id="None-trainable"),
        pytest.param("fit", "epoch", 3, "unknown fit key(s): 'epoch'", id="fit-epoch"),
        pytest.param("fit", "learning_rate", 0, "learning_rate must be > 0", id="fit-learning_rate"),
        pytest.param("fit", "epochs", 0, "epochs must be >= 1", id="fit-epochs"),
        pytest.param("fit", "trainable", "epsilon", "trainable must be a list of group names", id="fit-trainable"),
        pytest.param("params", "epsilon", 2, "epsilon must lie in (0,1)", id="params-epsilon"),
        # a negative seed would reach numpy's fold shuffle
        pytest.param(None, "seed", -1, "seed must be >= 0, not -1", id="None-seed"),
    ],
)
def test_fit_with_an_unknown_config_key_is_a_usage_error(section, key, value, message, fixtures_dir, tmp_path, capsys):
    """An unknown key, or a value the fit settings or the parameters
    refuse, exits 2 like every other config error."""
    path = _tiny_number_config(fixtures_dir, tmp_path)
    cfg = json.loads(path.read_text())
    (cfg.setdefault(section, {}) if section else cfg)[key] = value
    path.write_text(json.dumps(cfg))
    with pytest.raises(SystemExit) as err:
        main(["fit", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_a_params_file_the_parameters_refuse_is_a_usage_error(command, fixtures_dir, tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"epsilon": 2}))
    if command == "eval":
        argv = ["eval", "--config", str(_tiny_number_config(fixtures_dir, tmp_path)), "--out-dir", str(tmp_path / "out")]
    else:
        argv = ["infer", "--domain", "number", "--pool", str(fixtures_dir / "number_pool_size_principle.jsonl")]
        argv += ["--examples", "16,8"]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--params", str(params)])
    assert err.value.code == 2
    assert "epsilon must lie in (0,1)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,key,value",
    [
        ("infer", "beta", math.nan),
        ("infer", "beta", math.inf),
        ("eval", "platt_a", math.nan),
        ("fit", "learning_rate", math.nan),
    ],
)
def test_a_non_finite_parameter_is_a_usage_error_naming_it(command, key, value, fixtures_dir, tmp_path, capsys):
    """A NaN or an infinite parameter, or learning rate, is refused where
    it is read (exit 2, the key named); a NaN beta once failed later as
    "weights must sum to 1", an infinite one passed, and a NaN learning
    rate or platt_a ran the fit into a non-finite loss (exit 1)."""
    config = _tiny_number_config(fixtures_dir, tmp_path)
    params = tmp_path / "params.json"
    params.write_text(json.dumps({key: value}))
    if command == "infer":
        argv = ["infer", "--domain", "number", "--pool", str(fixtures_dir / "number_pool_size_principle.jsonl")]
        argv += ["--examples", "16,8", "--params", str(params)]
    elif command == "eval":
        argv = ["eval", "--config", str(config), "--params", str(params), "--out-dir", str(tmp_path / "out")]
    else:
        cfg = json.loads(config.read_text())
        cfg["fit"][key] = value
        config.write_text(json.dumps(cfg))
        argv = ["fit", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"error: {key} is not a finite number: {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section,key,value",
    [
        (None, "k_folds", 2.5),
        (None, "seed", 1.5),
        (None, "budget", 3.5),
        (None, "k_folds", "10"),
        ("fit", "epochs", 2.5),
        ("fit", "learning_rate", "0.1"),
        ("params", "epsilon", "0.1"),
        (None, "feature_dim", "16"),
        ("tuned", "feature_dim", "16"),
        ("tuned", "feature_dim", 16.0),
        (None, "pools", ["x"]),
        (None, "pools", {"set01": 3}),
        (None, "data_path", 5),
        ("external", "scores_path", ["a"]),
        (None, "fit", "abc"),
        (None, "fit", None),
        (None, "params", "xy"),
        (None, "params", 5),
        ("file", "config", [1, 2]),
    ],
)
def test_a_setting_of_the_wrong_type_is_a_usage_error(section, key, value, fixtures_dir, tmp_path, capsys):
    """A config setting of `number_uniform.json`, or a parameter of an
    `infer --params` file, of the wrong type exits 2 naming its key,
    not 1 with Python's own message. Section "tuned" or "external" sets
    the key at the top level under that prior; "file" writes `value` as
    the whole config."""
    if section == "params":
        path = tmp_path / "params.json"
        path.write_text(json.dumps({key: value}))
        argv = ["infer", "--domain", "number", "--pool", str(fixtures_dir / "number_pool_size_principle.jsonl")]
        argv += ["--examples", "16,8", "--params", str(path)]
    else:
        cfg = json.loads((fixtures_dir / "configs" / "number_uniform.json").read_text())
        if section == "file":
            cfg = value
        elif section in ("tuned", "external"):
            cfg.update({"prior": section, key: value})
        else:
            (cfg[section] if section else cfg)[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        argv = ["fit", "--config", str(path), "--out-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert re.search(rf"error: {key} (must be|is not)", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("domain", ["number", "shape"])
def test_a_config_without_data_path_is_a_usage_error_naming_it(domain, fixtures_dir, tmp_path, monkeypatch, capsys):
    """A config that sets no `data_path` exits 2 naming the key, before
    anything is read or written: it does not read the working directory,
    here one whose only JSON file is the config itself."""
    if domain == "number":
        cfg = json.loads((fixtures_dir / "configs" / "number_uniform.json").read_text())
    else:
        path = _shape_config(fixtures_dir, tmp_path)
        cfg = json.loads(path.read_text())
        path.unlink()
    del cfg["data_path"]
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["fit", "--config", "config.json", "--out-dir", "out"])
    assert err.value.code == 2
    assert "error: data_path is not set" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def _shape_config(fixtures_dir, tmp_path):
    cfg = {
        "domain": "shape",
        "data_path": str(fixtures_dir / "shape"),
        "pools": {
            "green_triangles": str(fixtures_dir / "shape" / "green_triangles_pool.jsonl")
        },
        "prior": "uniform",
        "feature_dim": 0,
        "seed": 0,
        "fit": {"epochs": 3, "trainable": ["epsilon", "alpha", "beta", "temperature"]},
    }
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(cfg))
    return path


def test_fit_shape_writes_outputs(fixtures_dir, tmp_path):
    path = _shape_config(fixtures_dir, tmp_path)
    out_dir = tmp_path / "out"
    rc = main(["fit", "--config", str(path), "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "params.json").exists()
    assert (out_dir / "learning_curves.csv").exists()
    params = json.loads((out_dir / "params.json").read_text())
    assert 0.0 < params["epsilon"] < 1.0
    assert json.loads((out_dir / "metrics.json").read_text())["n_trials"] == 64


def test_fit_shape_builds_each_curve_once(fixtures_dir, tmp_path, monkeypatch):
    """`fit` on the shape fixture config compiles each curve once, fits
    and evaluates those tasks, and writes what fitting the compiled
    tasks (`shape_tasks`, `fit_params`) and then evaluating with
    `run_experiment` at the fitted parameters give."""
    raw = json.loads((fixtures_dir / "configs" / "shape_online.json").read_text())
    raw["data_path"] = str(fixtures_dir / "shape")
    raw["pools"] = {cid: str(fixtures_dir.parent / path) for cid, path in raw["pools"].items()}
    path = tmp_path / "shape_online.json"
    path.write_text(json.dumps(raw))
    builds = []
    build_shape_task = harness.build_shape_task
    monkeypatch.setattr(
        harness, "build_shape_task", lambda *a, **k: builds.append(a[2].concept_id) or build_shape_task(*a, **k)
    )
    out_dir = tmp_path / "out"
    assert main(["fit", "--config", str(path), "--out-dir", str(out_dir)]) == 0
    cfg = harness.ExperimentConfig.from_json(path)
    curves, pools = harness.load_data(cfg), harness.load_pools(cfg)
    assert builds == [c.concept_id for c in curves]
    params = fit_params(cfg.fit, harness.shape_tasks(cfg, curves, pools), harness.default_params(cfg)).params
    metrics, records, details, _ = harness.run_experiment(cfg, curves, pools, params)
    want = tmp_path / "want"
    want.mkdir()
    (want / "params.json").write_text(json.dumps(params_to_json(params), indent=2))
    harness.emit_plot_data(records, want / "predictions.csv")
    harness.emit_learning_curves(details, want / "learning_curves.csv")
    (want / "metrics.json").write_text(json.dumps(metrics, indent=2))
    for name in ("params.json", "predictions.csv", "learning_curves.csv", "metrics.json"):
        assert (out_dir / name).read_bytes() == (want / name).read_bytes(), name


@pytest.mark.parametrize("domain", ["number", "shape"])
def test_fit_at_the_configs_params_writes_them(domain, fixtures_dir, tmp_path):
    """A config that holds `params` is evaluated at them, in either
    domain: `fit` writes exactly those values, with no fit."""
    path = _tiny_number_config(fixtures_dir, tmp_path) if domain == "number" else _shape_config(fixtures_dir, tmp_path)
    given = {"epsilon": 0.2, "alpha": 0.45, "beta": 0.3, "temperature": 0.6}
    path.write_text(json.dumps(dict(json.loads(path.read_text()), params=given)))
    out_dir = tmp_path / "out"
    assert main(["fit", "--config", str(path), "--out-dir", str(out_dir)]) == 0
    assert json.loads((out_dir / "params.json").read_text()) == params_to_json(ModelParams(**given))


@pytest.mark.parametrize(
    "domain,same",
    [
        ("number", ["params.json", "topk.json"]),
        ("shape", ["params.json", "learning_curves.csv", "predictions.csv", "metrics.json"]),
    ],
)
def test_eval_at_the_fits_params_writes_the_fits_outputs(domain, same, fixtures_dir, tmp_path):
    """`eval --params` at what `fit` wrote writes the same files. Shape
    predictions are in-sample, so every file matches; number
    predictions are the fit's held-out ones, so only the parameters and
    the top verbalizations do."""
    path = _tiny_number_config(fixtures_dir, tmp_path) if domain == "number" else _shape_config(fixtures_dir, tmp_path)
    fit_dir, eval_dir = tmp_path / "fit", tmp_path / "eval"
    assert main(["fit", "--config", str(path), "--out-dir", str(fit_dir)]) == 0
    argv = ["eval", "--config", str(path), "--params", str(fit_dir / "params.json"), "--out-dir", str(eval_dir)]
    assert main(argv) == 0
    for name in same:
        assert (eval_dir / name).read_bytes() == (fit_dir / name).read_bytes(), name


def test_eval_requires_params(fixtures_dir, tmp_path, capsys):
    cfg = _tiny_number_config(fixtures_dir, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "eval requires fitted parameters" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_with_params(fixtures_dir, tmp_path):
    cfg = _tiny_number_config(fixtures_dir, tmp_path, prior="tuned")
    true = json.loads((fixtures_dir / "params_true.json").read_text())
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(true))
    out_dir = tmp_path / "eval_out"
    rc = main(
        ["eval", "--config", str(cfg), "--params", str(params_path), "--out-dir", str(out_dir)]
    )
    assert rc == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["holdout_r2"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("domain", ["number", "shape"])
def test_eval_with_a_theta_of_the_wrong_length_is_a_usage_error(domain, fixtures_dir, tmp_path, capsys):
    """Under the tuned prior, --params whose theta length is not the
    config's feature_dim exits 2 with a message naming both."""
    if domain == "number":
        path = _tiny_number_config(fixtures_dir, tmp_path, prior="tuned")
    else:
        path = _shape_config(fixtures_dir, tmp_path)
        cfg = json.loads(path.read_text())
        path.write_text(json.dumps(dict(cfg, prior="tuned", feature_dim=64)))
    params = _write_params(tmp_path, ModelParams(theta=np.zeros(5)))
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", str(path), "--params", str(params), "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "theta has 5 entries" in err and "feature_dim = 64" in err
    assert not (tmp_path / "out").exists()


def test_baseline_latent(fixtures_dir, tmp_path):
    cfg = _tiny_number_config(fixtures_dir, tmp_path)
    out_dir = tmp_path / "latent"
    rc = main(["baseline", "latent", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "chosen.json").exists()
    # each of the 12 judgments of sets set01 and set02 predicted once
    assert json.loads((out_dir / "metrics.json").read_text())["n_predictions"] == 12


def test_baseline_ablation(fixtures_dir, tmp_path):
    cfg = _tiny_number_config(fixtures_dir, tmp_path)
    out_dir = tmp_path / "ablation"
    rc = main(
        [
            "baseline",
            "ablation",
            "--config",
            str(cfg),
            "--shared-pool",
            str(fixtures_dir / "number_pool_size_principle.jsonl"),
            "--out-dir",
            str(out_dir),
        ]
    )
    assert rc == 0
    assert (out_dir / "metrics.json").exists()


def test_baseline_ablation_requires_shared_pool(fixtures_dir, tmp_path, capsys):
    cfg = _tiny_number_config(fixtures_dir, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["baseline", "ablation", "--config", str(cfg), "--out-dir", str(tmp_path / "ablation")])
    assert exc.value.code == 2
    assert "baseline ablation requires --shared-pool" in capsys.readouterr().err
    assert not (tmp_path / "ablation").exists()


def test_baseline_latent_shape(fixtures_dir, tmp_path):
    """A shape config runs the online latent-language baseline and
    writes the chosen rule of each batch, per curve."""
    out_dir = tmp_path / "latent"
    cfg = _shape_config(fixtures_dir, tmp_path)
    rc = main(["baseline", "latent", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    chosen = json.loads((out_dir / "chosen.json").read_text())
    curve = io.load_learning_curve(fixtures_dir / "shape" / "green_triangles_curve.json")
    assert list(chosen) == ["green_triangles"]
    assert len(chosen["green_triangles"]) == len(curve.batches)
    assert chosen["green_triangles"][-1] == curve.ground_truth_nl
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics["n_trials"] == len(curve.trials)


def test_baseline_llm_shape(fixtures_dir, tmp_path):
    """A shape config queries the LM once per trial, here through a
    replay store of canned answers that follow the labels."""
    curve = io.load_learning_curve(fixtures_dir / "shape" / "green_triangles_curve.json")
    store = ReplayStore(tmp_path / "store")
    for b, batch in enumerate(curve.batches):
        for t in batch:
            answers = ["yes"] * 8 + ["no"] * 2 if t.label else ["no"] * 9 + ["yes"]
            prompt = direct_shape_prompt(curve.batches[:b], batch, t.test)
            store.record(prompt, DIRECT_PARAMS, [{"text": a, "logprob": None} for a in answers])
    out_dir = tmp_path / "llm"
    argv = ["baseline", "llm", "--config", str(_shape_config(fixtures_dir, tmp_path))]
    rc = main(argv + ["--store", str(tmp_path / "store"), "--out-dir", str(out_dir)])
    assert rc == 0
    metrics = json.loads((out_dir / "metrics.json").read_text())
    assert metrics == {"accuracy": 1.0, "n_trials": len(curve.trials)}
    rows = (out_dir / "predictions.csv").read_text().splitlines()
    assert rows[1].startswith("green_triangles:0,")


def test_baseline_ablation_rejects_shape_config(fixtures_dir, tmp_path, capsys):
    shared = fixtures_dir / "number_pool_size_principle.jsonl"
    argv = ["baseline", "ablation", "--config", str(_shape_config(fixtures_dir, tmp_path))]
    rc = main(argv + ["--shared-pool", str(shared), "--out-dir", str(tmp_path / "ablation")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "'shape'" in err
    assert not (tmp_path / "ablation").exists()


def test_sweep_rejects_shape_config(fixtures_dir, tmp_path, capsys):
    """One line naming the domain, before any data file is read: read as
    number judgments, the shape data directory would fail otherwise."""
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(_shape_config(fixtures_dir, tmp_path)), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "sweep needs a number config" in err and "'shape'" in err
    assert not out.exists()


def test_sweep(fixtures_dir, tmp_path, capsys):
    """One row per budget. Every fixture pool holds 12 rules, so budgets
    12 and 30 fit the same pools and give the same row."""
    cfg = _tiny_number_config(fixtures_dir, tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--config", str(cfg), "--budgets", "2,12,30", "--seeds", "0", "--out", str(out)]
    )
    assert rc == 0
    with out.open(newline="") as handle:
        rows = {row.pop("budget"): row for row in csv.DictReader(handle)}
    assert list(rows) == ["2", "12", "30"] and rows["12"] == rows["30"] != rows["2"]
    assert "budget 2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag,message",
    [
        ("--budgets=0", "budget must be >= 1, not 0"),
        ("--budgets=-1", "budget must be >= 1, not -1"),
        ("--seeds=-1", "seed must be >= 0, not -1"),
    ],
)
def test_sweep_below_a_least_budget_or_seed_is_a_usage_error(flag, message, fixtures_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--config", str(_tiny_number_config(fixtures_dir, tmp_path)), flag, "--out", str(out)])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_propose_budget_0_is_a_usage_error(fixtures_dir, tmp_path, capsys):
    """The request's own refusal of the budget, reported as a usage error."""
    argv = ["propose", "--domain", "number", "--examples", "16,8", "--budget", "0", "--backend", "static"]
    argv += ["--pool", str(fixtures_dir / "number" / "set01.jsonl"), "--out", str(tmp_path / "pool.jsonl")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "propose: budget must be >= 1, not 0" in capsys.readouterr().err
    assert not (tmp_path / "pool.jsonl").exists()


def test_propose_from_an_empty_pool_says_it_holds_no_hypotheses(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    argv = ["propose", "--domain", "number", "--examples", "16,8", "--backend", "static", "--pool", str(empty)]
    assert main(argv + ["--out", str(tmp_path / "pool.jsonl")]) == 1
    assert capsys.readouterr().err == f"error: pool file {empty} holds no hypotheses\n"


def test_fit_shape_on_an_empty_pool_file_names_it(fixtures_dir, tmp_path, capsys):
    """A shape config's pool file that holds no hypotheses is refused as
    it is in a number fit."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    path = _shape_config(fixtures_dir, tmp_path)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), pools={"green_triangles": str(empty)})))
    assert main(["fit", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: pool file {empty} holds no hypotheses\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("made", [True, False], ids=["empty", "missing"])
def test_fit_shape_on_a_data_path_with_no_curve_file_names_it(made, fixtures_dir, tmp_path, capsys):
    """A shape config whose `data_path` holds no *.json curve file, an
    empty or a misspelt directory, is refused, naming it, before
    anything is fitted or written; it was once read as no curves, fit
    to nothing, and left a params.json behind."""
    data = tmp_path / "curves"
    if made:
        data.mkdir()
    path = _shape_config(fixtures_dir, tmp_path)
    path.write_text(json.dumps(dict(json.loads(path.read_text()), data_path=str(data))))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["fit", "--config", str(path), "--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: curve directory {data} holds no *.json curve file\n"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("domain", ["number", "shape"])
def test_a_score_file_without_a_pool_text_is_an_error_naming_both(domain, fixtures_dir, tmp_path, capsys):
    """Under the external prior, a score file with no entry for a pool
    hypothesis names the file and the text (number `fit`, shape
    `infer`); the error once read as KeyError's quoted text alone."""
    scores = tmp_path / "scores.jsonl"
    if domain == "number":
        path = _tiny_number_config(fixtures_dir, tmp_path, prior="external")
        path.write_text(json.dumps(dict(json.loads(path.read_text()), scores_path=str(scores))))
        pool_path = fixtures_dir / "number" / "set01.jsonl"
        argv = ["fit", "--config", str(path), "--out-dir", str(tmp_path / "out")]
    else:
        pool_path = fixtures_dir / "shape" / "green_triangles_pool.jsonl"
        argv = ["infer", "--domain", "shape", "--pool", str(pool_path), "--prior", "external", "--scores", str(scores)]
        argv += ["--curve", str(fixtures_dir / "shape" / "green_triangles_curve.json")]
    keys = [h.key for h in io.load_pool(pool_path, domain)]
    io.save_score_file(scores, {key: -1.0 for key in keys[1:]})
    assert keys[0] not in keys[1:]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: score file {scores} has no score for {keys[0]!r}\n"
    assert not (tmp_path / "out").exists()


def test_baseline_ablation_on_an_empty_shared_pool_names_it(fixtures_dir, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    argv = ["baseline", "ablation", "--config", str(_tiny_number_config(fixtures_dir, tmp_path))]
    assert main(argv + ["--shared-pool", str(empty), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: pool file {empty} holds no hypotheses\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kept,message",
    [
        (["green_triangles"], "curve 'other' has no pool; the pools are for 'green_triangles'"),
        ([], "curve 'green_triangles' has no pool; the config configures none"),
    ],
)
def test_fit_shape_names_a_curve_with_no_pool(kept, message, fixtures_dir, tmp_path, capsys):
    """A curve in the data directory whose concept the config gives no
    pool is a usage error (exit 2) that names the curve; `kept` are the
    config's pools left in it."""
    data = tmp_path / "curves"
    data.mkdir()
    raw = json.loads((fixtures_dir / "shape" / "green_triangles_curve.json").read_text())
    for concept_id in ("green_triangles", "other"):
        (data / f"{concept_id}_curve.json").write_text(json.dumps(dict(raw, concept_id=concept_id)))
    path = _shape_config(fixtures_dir, tmp_path)
    cfg = json.loads(path.read_text())
    pools = {concept_id: cfg["pools"][concept_id] for concept_id in kept}
    path.write_text(json.dumps(dict(cfg, data_path=str(data), pools=pools)))
    with pytest.raises(SystemExit) as err:
        main(["fit", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_number_names_an_example_set_with_no_pool(fixtures_dir, tmp_path, capsys):
    """Judgments of an example set the config gives no pool are a usage
    error (exit 2) that names the set, not 6 of 48 predictions dropped."""
    cfg = json.loads((fixtures_dir / "configs" / "number_uniform.json").read_text())
    root = fixtures_dir.parent
    pools = {k: str(root / v) for k, v in cfg["pools"].items() if k != "set08"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(cfg, data_path=str(root / cfg["data_path"]), pools=pools)))
    with pytest.raises(SystemExit) as err:
        main(["fit", "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "error: example set 'set08' has no pool; the pools are for 'set01', " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["fit"], ["baseline", "latent"], ["baseline", "llm"], ["baseline", "ablation", "--shared-pool", "fixtures/number/set01.jsonl"]],
    ids=["fit", "latent", "llm", "ablation"],
)
def test_a_repeated_judgment_is_a_usage_error(argv, fixtures_dir, tmp_path, monkeypatch, capsys):
    """`number_uniform.json` on judgments with one row repeated exits 2
    naming the repeated `set_id:test_number`, in the model and in each
    number baseline: its copies would share one record id."""
    cfg = json.loads((fixtures_dir / "configs" / "number_uniform.json").read_text())
    cfg["data_path"] = str(write_repeated_judgments(tmp_path / "judgments.csv"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.chdir(fixtures_dir.parent)  # the fixture config's pools are relative to the checkout
    with pytest.raises(SystemExit) as err:
        main([*argv, "--config", str(path), "--out-dir", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "error: judgment set01:11 is repeated" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command,flag,value,message",
    [
        ("sweep", "--budgets", "1,x", "invalid literal for int()"),
        ("sweep", "--seeds", ",", "at least one integer"),
        ("propose", "--examples", "16,x", "invalid literal for int()"),
        ("infer", "--examples", "0,5", "examples must lie in 1..100"),
    ],
)
def test_a_malformed_list_flag_is_a_usage_error(command, flag, value, message, fixtures_dir, tmp_path, capsys):
    """A list of integers that does not parse, is empty or is out of
    range exits 2 and names its flag, before any file is read."""
    argv = {
        "sweep": ["sweep", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "sweep.csv")],
        "propose": ["propose", "--domain", "number", "--out", str(tmp_path / "pool.jsonl")],
        "infer": ["infer", "--domain", "number", "--pool", str(fixtures_dir / "number_pool_size_principle.jsonl")],
    }[command]
    with pytest.raises(SystemExit) as err:
        main(argv + [flag, value])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"argument {flag}: {value!r}" in stderr and message in stderr


def test_list_flags_take_commas_or_spaces_and_sweep_defaults(fixtures_dir, tmp_path, capsys, monkeypatch):
    """Comma- and space-separated examples give one posterior, and the
    sweep runs budgets 1, 3, 10, 30, 100 at seeds 0, 1, 2 unless told
    otherwise."""
    pool = str(fixtures_dir / "number_pool_size_principle.jsonl")
    outs = []
    for examples in ("16,8,2,64", "16 8 2 64", "16, 8,2 ,64"):
        assert main(["infer", "--domain", "number", "--pool", pool, "--examples", examples]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    calls = []
    monkeypatch.setattr(harness, "budget_sweep", lambda cfg, budgets, seeds: calls.append((budgets, seeds)) or [])
    cfg = str(_tiny_number_config(fixtures_dir, tmp_path))
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["sweep", "--config", cfg, "--budgets", "2 4", "--seeds", "5", "--out", str(tmp_path / "b.csv")]) == 0
    assert calls == [([1, 3, 10, 30, 100], [0, 1, 2]), ([2, 4], [5])]


def test_error_exits_nonzero(tmp_path, capsys):
    rc = main(
        [
            "infer",
            "--domain",
            "number",
            "--pool",
            str(tmp_path / "missing.jsonl"),
            "--examples",
            "1",
        ]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("prior,flag", [("tuned", "--params"), ("external", "--scores")])
def test_infer_prior_without_its_input_is_a_usage_error(prior, flag, fixtures_dir, capsys):
    """The tuned prior reads --params and the external prior --scores:
    without it, infer exits 2 and names the flag."""
    pool = str(fixtures_dir / "number_pool_size_principle.jsonl")
    with pytest.raises(SystemExit) as err:
        main(["infer", "--domain", "number", "--pool", pool, "--examples", "16,8", "--prior", prior])
    assert err.value.code == 2
    assert f"infer --prior {prior} requires {flag}" in capsys.readouterr().err


def test_infer_tuned_prior_with_an_empty_theta_is_a_usage_error(fixtures_dir, tmp_path, capsys):
    """A parameter file from a uniform-prior fit has no theta for the
    tuned prior to weigh features by: infer exits 2 and says so."""
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"theta": [], "epsilon": 0.1}))
    pool = str(fixtures_dir / "number_pool_size_principle.jsonl")
    argv = ["infer", "--domain", "number", "--pool", pool, "--examples", "16,8"]
    with pytest.raises(SystemExit) as err:
        main(argv + ["--prior", "tuned", "--params", str(params)])
    assert err.value.code == 2
    assert "infer --prior tuned needs a non-empty theta" in capsys.readouterr().err
    # the same file serves the uniform prior
    assert main(argv + ["--params", str(params)]) == 0


@pytest.mark.parametrize("command", ["propose", "infer"])
@pytest.mark.parametrize("domain,flag", [("number", "--examples"), ("shape", "--curve")])
def test_missing_domain_input_is_a_usage_error(command, domain, flag, fixtures_dir, tmp_path, capsys):
    """Each domain's data flag is required: without it the command exits
    2 and names the flag instead of failing on a missing value."""
    if command == "propose":
        argv = ["propose", "--domain", domain, "--upto-batch", "2", "--out", str(tmp_path / "pool.jsonl")]
        argv += ["--backend", "replay", "--store", str(fixtures_dir / "replay")]
    else:
        argv = ["infer", "--domain", domain, "--pool", str(fixtures_dir / "number_pool_size_principle.jsonl")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"{command} --domain {domain} requires {flag}" in capsys.readouterr().err
    assert not (tmp_path / "pool.jsonl").exists()


def test_import_loads_neither_scipy_nor_requests(fixtures_dir):
    """A fresh interpreter that imports the CLI, the harness and propose,
    then loads a shape pool and a number pool, loads neither scipy nor
    requests: the library's logistic is numpy's, and only live LM calls
    import requests. Nor does it load orjson, which only the replay
    store's codec imports."""
    pools = [fixtures_dir / "shape" / "green_triangles_pool.jsonl", fixtures_dir / "number_pool_size_principle.jsonl"]
    code = (
        "import sys, nlconcepts.cli, nlconcepts.harness, nlconcepts.propose; "
        f"from nlconcepts import io; io.load_pool({str(pools[0])!r}, 'shape'); io.load_pool({str(pools[1])!r}, 'number'); "
        "heavy = sorted({'scipy', 'requests', 'orjson'} & set(sys.modules)); assert not heavy, heavy"
    )
    src = str(Path(nlconcepts.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in [src, os.environ.get("PYTHONPATH")] if p)
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
