import json
import os
import shutil

import numpy as np
import pytest

from nlconcepts import io
from nlconcepts.baselines import DIRECT_PARAMS, direct_shape_prompt
from nlconcepts.cli import _load_params, main
from nlconcepts.likelihood import pool_number_logliks
from nlconcepts.posterior import dedup_weights
from nlconcepts.prior import FeatureExtractor, Tuned, Uniform
from nlconcepts.propose import ReplayStore
from nlconcepts.types import NumberExampleSet


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
    payload = json.loads(capsys.readouterr().out)
    assert payload["hypotheses"][0]["nl"] == "the number is a power of 2"
    assert not payload["degenerate"]


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
    loglik = pool_number_logliks(pool, NumberExampleSet([2, 4, 8, 16]), params.epsilon)
    prior = Tuned(params.theta, FeatureExtractor(dim=len(params.theta)))
    state = dedup_weights(pool, prior, loglik, params.temperature)
    want = json.loads(state.to_json())["hypotheses"]
    assert [h["nl"] for h in got] == [h["nl"] for h in want]
    np.testing.assert_allclose([h["weight"] for h in got], [h["weight"] for h in want], atol=1e-12)
    uniform = dedup_weights(pool, Uniform(), loglik, params.temperature)
    assert got[0]["nl"] != uniform.map_hypothesis().nl_text


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
    payload = json.loads(capsys.readouterr().out)
    assert payload["hypotheses"][0]["nl"] == (
        "something is positive if it is a green triangle"
    )


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


def test_replay_list_on_a_missing_store_creates_nothing(tmp_path, capsys):
    store = tmp_path / "missing"
    assert main(["replay", "list", "--store", str(store)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["replay", "gc", "--store", str(store)]) == 0
    assert not store.exists()


def test_replay_gc_keeps_entries_and_live_temp_files(fixtures_dir, tmp_path, capsys):
    store = tmp_path / "rs"
    shutil.copytree(fixtures_dir / "replay", store)
    assert main(["replay", "list", "--store", str(store)]) == 0
    keys = capsys.readouterr().out
    live = f".{keys.split()[0]}.{os.getpid()}.1.tmp"
    (store / live).write_text("{")
    assert main(["replay", "gc", "--store", str(store)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["replay", "list", "--store", str(store)]) == 0
    assert capsys.readouterr().out == keys and len(keys.split()) == 5
    assert (store / live).exists()


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
    cfg = {
        "domain": "number",
        "data_path": str(fixtures_dir / "number_judgments.csv"),
        "pools": {
            f"set{i:02d}": str(fixtures_dir / "number" / f"set{i:02d}.jsonl")
            for i in range(1, 3)
        },
        "prior": prior,
        "feature_dim": 64,
        "seed": 0,
        "fit": {"epochs": 2},
        "trainable": ["epsilon", "platt"],
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


def test_eval_requires_params(fixtures_dir, tmp_path):
    cfg = _tiny_number_config(fixtures_dir, tmp_path)
    with pytest.raises(SystemExit):
        main(["eval", "--config", str(cfg)])


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


def test_baseline_latent(fixtures_dir, tmp_path):
    cfg = _tiny_number_config(fixtures_dir, tmp_path)
    out_dir = tmp_path / "latent"
    rc = main(["baseline", "latent", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "chosen.json").exists()


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


def test_sweep(fixtures_dir, tmp_path, capsys):
    cfg = _tiny_number_config(fixtures_dir, tmp_path)
    out = tmp_path / "sweep.csv"
    rc = main(
        ["sweep", "--config", str(cfg), "--budgets", "2,4", "--seeds", "0", "--out", str(out)]
    )
    assert rc == 0
    assert out.exists()
    assert "budget 2" in capsys.readouterr().out


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
