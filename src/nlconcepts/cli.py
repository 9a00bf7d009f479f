"""Command-line entry points.

Every subcommand is a thin wrapper over the library; configuration comes
from a JSON file (see ExperimentConfig.from_json) plus a few overriding
flags. Exit status is 0 on success, 1 on any error and 2 on a usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines, harness, io
from .dsl import NUMBER as NUMBER_DOMAIN
from .dsl import SHAPE as SHAPE_DOMAIN
from .likelihood import pool_number_logliks, pool_shape_logliks
from .posterior import dedup_weights
from .prior import FeatureExtractor
from .propose import (
    ChatClient,
    ProposalRequest,
    ReplayBackend,
    ReplayStore,
    StaticPoolBackend,
    propose,
    translate_pool,
)
from .types import ModelParams, NumberExampleSet


def _parse_examples(text: str) -> NumberExampleSet:
    return NumberExampleSet([int(x) for x in text.replace(",", " ").split()])


def _make_backend(args, domain: str):
    if args.backend == "static":
        return StaticPoolBackend(args.pool, domain)
    client = None if args.backend == "replay" else ChatClient(args.endpoint, args.model)
    return ReplayBackend(ReplayStore(args.store), client)


def _add_backend_flags(p, backends=("static", "replay", "live")):
    p.add_argument("--backend", choices=backends, default="replay")
    if "static" in backends:
        p.add_argument("--pool", help="hypothesis file for the static backend")
    p.add_argument("--store", default="replay", help="replay store directory")
    p.add_argument("--endpoint", default="https://api.openai.com/v1")
    p.add_argument("--model", default="gpt-4")


def _load_params(path) -> ModelParams:
    raw = json.loads(Path(path).read_text())
    raw["theta"] = np.asarray(raw.get("theta", []), dtype=float)
    return ModelParams(**raw)


def _dump_params(params: ModelParams) -> dict:
    return {
        "theta": [float(x) for x in params.theta],
        "epsilon": params.epsilon,
        "alpha": params.alpha,
        "beta": params.beta,
        "temperature": params.temperature,
        "platt_a": params.platt_a,
        "platt_b": params.platt_b,
    }


def _cmd_propose(args) -> int:
    if args.domain == "number":
        examples = _parse_examples(args.examples)
        req_domain = "ablation_unconditioned" if args.unconditioned else "number"
        domain = NUMBER_DOMAIN
    else:
        curve = io.load_learning_curve(args.curve)
        batches = curve.batches[: args.upto_batch]
        req_domain = "shape_first_batch" if args.upto_batch <= 1 else "shape_first_order"
        examples = None if req_domain == "shape_first_batch" else batches
        domain = SHAPE_DOMAIN
    req = ProposalRequest(
        domain=req_domain,
        examples=examples,
        budget=args.budget,
        temperature=args.temperature,
        seed=args.seed,
    )
    pool = propose(req, _make_backend(args, domain))
    io.save_pool(args.out, pool)
    print(f"wrote {len(pool)} hypotheses to {args.out}")
    return 0


def _cmd_translate(args) -> int:
    domain = NUMBER_DOMAIN if args.domain == "number" else SHAPE_DOMAIN
    pool = io.load_pool(args.infile, domain)
    translated = translate_pool(pool, domain, _make_backend(args, domain))
    io.save_pool(args.out, translated)
    n_parsed = sum(1 for h in translated if h.parsed)
    print(f"translated {len(translated)} hypotheses ({n_parsed} parsed) to {args.out}")
    return 0


def _cmd_infer(args) -> int:
    params = _load_params(args.params) if args.params else ModelParams()
    cfg = harness.ExperimentConfig(args.domain, prior=args.prior, scores_path=args.scores or "")
    prior = harness.prior_spec_for(cfg, params, FeatureExtractor(dim=len(params.theta)))
    if args.domain == "number":
        pool = io.load_pool(args.pool, NUMBER_DOMAIN)
        examples = _parse_examples(args.examples)
        loglik = pool_number_logliks(pool, examples, params.epsilon)
    else:
        pool = io.load_pool(args.pool, SHAPE_DOMAIN)
        curve = io.load_learning_curve(args.curve)
        trials = [t for b in curve.batches[: args.upto_batch] for t in b]
        loglik = pool_shape_logliks(pool, trials, params.epsilon, params.alpha, params.beta)
    state = dedup_weights(pool, prior, loglik, params.temperature)
    print(state.to_json())
    return 0


def _cmd_fit(args) -> int:
    cfg = harness.ExperimentConfig.from_json(args.config)
    out_dir = Path(args.out_dir or cfg.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.domain == "number":
        metrics, records, verbalizations = harness.run_number_experiment(cfg)
        (out_dir / "topk.json").write_text(json.dumps(verbalizations, indent=2))
    else:
        curves, pools = harness.load_curves(cfg), harness.load_shape_pools(cfg)
        result = harness.fit_online_params(cfg, curves, pools)
        (out_dir / "params.json").write_text(
            json.dumps(_dump_params(result.params), indent=2)
        )
        metrics, records, details = harness.run_online_experiment(
            cfg, curves, pools, result.params
        )
        harness.emit_learning_curves(details, out_dir / "learning_curves.csv")
    harness.emit_plot_data(records, out_dir / "predictions.csv")
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2))
    print(json.dumps(metrics, indent=2))
    return 0


def _cmd_eval(args) -> int:
    cfg = harness.ExperimentConfig.from_json(args.config)
    if args.params:
        cfg.params = _load_params(args.params)
    if cfg.params is None:
        raise SystemExit("eval requires fitted parameters (config or --params)")
    out_dir = Path(args.out_dir or cfg.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if cfg.domain == "number":
        metrics, records, _ = harness.run_number_experiment(cfg)
    else:
        metrics, records, details = harness.run_online_experiment(cfg)
        harness.emit_learning_curves(details, out_dir / "learning_curves.csv")
    harness.emit_plot_data(records, out_dir / "predictions.csv")
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2))
    print(json.dumps(metrics, indent=2))
    return 0


def _cmd_replay(args) -> int:
    store = ReplayStore(args.store)
    if args.action == "list":
        for key in store.keys():
            print(key)
    elif args.action == "gc":
        for name in store.gc():
            print(f"removed {name}")
    else:
        print(json.dumps(store.entry(args.key), indent=2))
    return 0


def _cmd_baseline(args) -> int:
    cfg = harness.ExperimentConfig.from_json(args.config)
    shape = cfg.domain == SHAPE_DOMAIN
    if args.kind == "ablation" and shape:
        raise ValueError(f"ablation needs a number config; {args.config} has domain {cfg.domain!r}")
    out_dir = Path(args.out_dir or cfg.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.kind == "latent":
        if shape:
            metrics, records, chosen = baselines.latent_language_shape(
                cfg, harness.load_curves(cfg), harness.load_shape_pools(cfg)
            )
        else:
            metrics, records, chosen = baselines.latent_language_number(cfg)
        (out_dir / "chosen.json").write_text(json.dumps(chosen, indent=2))
    elif args.kind == "llm":
        backend = ReplayBackend(ReplayStore(args.store))
        if shape:
            metrics, records = baselines.direct_llm_shape(harness.load_curves(cfg), backend)
        else:
            metrics, records = baselines.direct_llm_number(cfg, backend)
    else:  # ablation
        if not args.shared_pool:
            raise SystemExit("ablation requires --shared-pool")
        metrics, records, _ = baselines.no_proposal_ablation(cfg, args.shared_pool)
    harness.emit_plot_data(records, out_dir / "predictions.csv")
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2))
    print(json.dumps(metrics, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    cfg = harness.ExperimentConfig.from_json(args.config)
    budgets = [int(x) for x in args.budgets.split(",")]
    seeds = [int(x) for x in args.seeds.split(",")]
    rows = harness.budget_sweep(cfg, budgets, seeds)
    harness.emit_sweep_table(rows, args.out)
    for row in rows:
        print(f"budget {row['budget']}: R^2 {row['mean_r2']:.4f} +/- {row['sem_r2']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlconcepts",
        description="Bayesian concept induction over natural-language hypotheses",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propose", help="draw a hypothesis pool")
    p.add_argument("--domain", choices=("number", "shape"), required=True)
    p.add_argument("--examples", help="comma-separated numbers (number domain)")
    p.add_argument("--curve", help="learning-curve JSON (shape domain)")
    p.add_argument("--upto-batch", type=int, default=1)
    p.add_argument("--budget", type=int, default=100)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unconditioned", action="store_true")
    p.add_argument("--out", required=True)
    _add_backend_flags(p)
    p.set_defaults(func=_cmd_propose)

    p = sub.add_parser("translate", help="compile NL hypotheses into the DSL")
    p.add_argument("--domain", choices=("number", "shape"), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    _add_backend_flags(p, backends=("replay", "live"))
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("infer", help="posterior over a hypothesis pool")
    p.add_argument("--domain", choices=("number", "shape"), required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--examples", help="comma-separated numbers (number domain)")
    p.add_argument("--curve", help="learning-curve JSON (shape domain)")
    p.add_argument("--upto-batch", type=int, default=0)
    p.add_argument("--params", help="fitted parameter JSON")
    p.add_argument("--prior", choices=("uniform", "tuned", "external"), default="uniform")
    p.add_argument("--scores", help="score file for the external prior")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("fit", help="fit parameters to human data")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("eval", help="evaluate with fixed parameters")
    p.add_argument("--config", required=True)
    p.add_argument("--params")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("replay", help="inspect the replay store or remove stale temp files")
    p.add_argument("action", choices=("list", "show", "gc"))
    p.add_argument("key", nargs="?")
    p.add_argument("--store", default="replay")
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("baseline", help="run a comparison system")
    p.add_argument("kind", choices=("latent", "llm", "ablation"))
    p.add_argument("--config", required=True)
    p.add_argument("--store", default="replay")
    p.add_argument("--shared-pool")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("sweep", help="holdout fit vs. proposal budget")
    p.add_argument("--config", required=True)
    p.add_argument("--budgets", default="1,3,10,30,100")
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


# the flag that carries each domain's data for `propose` and `infer`
_DOMAIN_INPUT = {"number": "examples", "shape": "curve"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("propose", "infer") and getattr(args, _DOMAIN_INPUT[args.domain]) is None:
        parser.error(f"{args.command} --domain {args.domain} requires --{_DOMAIN_INPUT[args.domain]}")
    if args.command == "replay" and args.action == "show" and args.key is None:
        parser.error("replay show requires the key argument")
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:  # surface a one-line error, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
