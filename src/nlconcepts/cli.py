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
from dataclasses import replace
from pathlib import Path

from . import baselines, harness, io
from .dsl import SHAPE as SHAPE_DOMAIN
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


def _ints(build=list):
    """An argparse `type`: comma- or space-separated integers, at least
    one, passed to `build`. A value it refuses is a usage error naming
    the flag (exit 2)."""

    def parse(text: str):
        try:
            values = [int(x) for x in text.replace(",", " ").split()]
            if not values:
                raise ValueError("needs at least one integer")
            return build(values)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None

    return parse


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
    return harness.params_from_json(json.loads(Path(path).read_text()))


class UsageError(Exception):
    """An argument combination the parser cannot reject by itself."""


def _upto_batch(args, curve) -> int:
    """`--upto-batch`, checked to lie in 0..B for the curve's B batches."""
    if not 0 <= args.upto_batch <= len(curve.batches):
        raise UsageError(f"{args.command} --upto-batch must lie in 0..{len(curve.batches)} for {args.curve}")
    return args.upto_batch


def _cmd_propose(args) -> int:
    if args.domain == "number":
        examples = args.examples
        req_domain = "ablation_unconditioned" if args.unconditioned else "number"
    else:  # after the first b batches; before any, the first-batch prompt
        curve = io.load_learning_curve(args.curve)
        b = _upto_batch(args, curve)
        req_domain = "shape_first_order" if b else "shape_first_batch"
        examples = curve.batches[:b] if b else None
    try:
        req = ProposalRequest(req_domain, examples, args.budget, args.temperature, args.seed)
    except ValueError as exc:  # a flag the request refuses, such as --budget 0
        raise UsageError(f"propose: {exc}") from None
    pool = propose(req, _make_backend(args, args.domain))
    io.save_pool(args.out, pool)
    print(f"wrote {len(pool)} hypotheses to {args.out}")
    return 0


def _cmd_translate(args) -> int:
    pool = io.load_pool(args.infile, args.domain)
    translated = translate_pool(pool, args.domain, _make_backend(args, args.domain))
    io.save_pool(args.out, translated)
    n_parsed = sum(1 for h in translated if h.parsed)
    print(f"translated {len(translated)} hypotheses ({n_parsed} parsed) to {args.out}")
    return 0


def _cmd_infer(args) -> int:
    params = _load_params(args.params) if args.params else ModelParams()
    dim = len(params.theta)
    if args.prior == "tuned" and not dim:
        raise UsageError(f"infer --prior tuned needs a non-empty theta in --params {args.params}")
    scores = args.scores or ""
    cfg = harness.ExperimentConfig(args.domain, prior=args.prior, scores_path=scores, feature_dim=dim)
    pool = io.load_pool(args.pool, args.domain)
    if args.domain == "number":
        state = harness.infer_number(cfg, pool, args.examples, params)
    else:
        curve = io.load_learning_curve(args.curve)
        state = harness.infer_shape(cfg, pool, curve, _upto_batch(args, curve), params)
    print(state.to_json())
    return 0


def _write_results(args, metrics, records, details=None, **json_files) -> int:
    """Write each keyword's object as <name>.json, the learning curves
    of `details` when given, predictions.csv and metrics.json into the
    output directory, made if missing; print the metrics."""
    out_dir = Path(args.out_dir or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, obj in json_files.items():
        (out_dir / f"{name}.json").write_text(json.dumps(obj, indent=2))
    if details is not None:
        harness.emit_learning_curves(details, out_dir / "learning_curves.csv")
    harness.emit_plot_data(records, out_dir / "predictions.csv")
    (out_dir / "metrics.json").write_text(json.dumps(metrics, indent=2))
    print(json.dumps(metrics, indent=2))
    return 0


def _cmd_run(args) -> int:
    """`fit` and `eval`: the config's experiment at the parameters of
    `--params`, else the config's, else fitted (`fit` only). Writes the
    parameters, the top verbalizations (numbers) or the learning curves
    (shapes), the predictions and the metrics."""
    cfg = harness.ExperimentConfig.from_json(args.config)
    if args.command == "eval":
        if args.params:
            # through the constructor's checks: a tuned prior's theta must have feature_dim entries
            cfg = replace(cfg, params=_load_params(args.params))
        if cfg.params is None:
            raise UsageError("eval requires fitted parameters (config or --params)")
    metrics, records, details, params = harness.run_experiment(cfg)
    files = {"params": harness.params_to_json(params)}
    if cfg.domain == SHAPE_DOMAIN:
        return _write_results(args, metrics, records, details, **files)
    return _write_results(args, metrics, records, topk=details, **files)


def _cmd_replay(args) -> int:
    store = ReplayStore(args.store)
    if args.action == "list":
        for key in store.keys():
            print(key)
    elif args.action == "verify":
        report = store.verify()
        for mismatch in report.mismatches:
            print(mismatch)
        print(
            f"{report.records} records, {report.duplicates} duplicate keys, "
            f"{report.torn_bytes} torn bytes, {len(report.mismatches)} mismatches"
        )
        return 1 if report.mismatches else 0
    elif args.action == "repair":
        kept, dropped = store.repair()
        print(f"kept {kept} records, dropped {dropped} bytes")
    else:
        print(json.dumps(store.entry(args.target), indent=2))
    return 0


def _cmd_baseline(args) -> int:
    cfg = harness.ExperimentConfig.from_json(args.config)
    shape = cfg.domain == SHAPE_DOMAIN
    if args.kind == "ablation" and shape:
        raise ValueError(f"ablation needs a number config; {args.config} has domain {cfg.domain!r}")
    if args.kind == "latent":
        latent = baselines.latent_language_shape if shape else baselines.latent_language_number
        metrics, records, chosen = latent(cfg)
        return _write_results(args, metrics, records, chosen=chosen)
    if args.kind == "llm":
        direct = baselines.direct_llm_shape if shape else baselines.direct_llm_number
        return _write_results(args, *direct(cfg, ReplayBackend(ReplayStore(args.store))))
    if not args.shared_pool:
        raise UsageError("baseline ablation requires --shared-pool")
    metrics, records, _ = baselines.no_proposal_ablation(cfg, args.shared_pool)
    return _write_results(args, metrics, records)


def _cmd_sweep(args) -> int:
    cfg = harness.ExperimentConfig.from_json(args.config)
    if cfg.domain == SHAPE_DOMAIN:  # before any data file is read
        raise ValueError(f"sweep needs a number config; {args.config} has domain {cfg.domain!r}")
    rows = harness.budget_sweep(cfg, args.budgets, args.seeds)
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
    p.add_argument("--examples", type=_ints(NumberExampleSet), help="comma-separated numbers (number domain)")
    p.add_argument("--curve", help="learning-curve JSON (shape domain)")
    p.add_argument("--upto-batch", type=int, default=0)
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
    p.add_argument("--examples", type=_ints(NumberExampleSet), help="comma-separated numbers (number domain)")
    p.add_argument("--curve", help="learning-curve JSON (shape domain)")
    p.add_argument("--upto-batch", type=int, default=0)
    p.add_argument("--params", help="fitted parameter JSON")
    p.add_argument("--prior", choices=harness.PRIORS, default="uniform")
    p.add_argument("--scores", help="score file for the external prior")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("fit", help="fit parameters to human data")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="evaluate with fixed parameters")
    p.add_argument("--config", required=True)
    p.add_argument("--params")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("replay", help="inspect, verify or repair a replay store")
    p.add_argument("action", choices=("list", "show", "verify", "repair"))
    p.add_argument("target", nargs="?", metavar="KEY", help="the key to show")
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
    p.add_argument("--budgets", type=_ints(), default="1,3,10,30,100")
    p.add_argument("--seeds", type=_ints(), default="0,1,2")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    return parser


# the flag that carries each domain's data for `infer` and a conditioned
# `propose`, and each non-uniform prior's for `infer`
_DOMAIN_INPUT = {"number": "examples", "shape": "curve"}
_PRIOR_INPUT = {"tuned": "params", "external": "scores"}
# the positional argument of each `replay` action that takes one
_REPLAY_ARG = {"show": "key"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unconditioned = args.command == "propose" and args.unconditioned
    if unconditioned and args.domain != "number":
        parser.error(f"propose --unconditioned is for --domain number only, not --domain {args.domain}")
    needs_data = args.command in ("propose", "infer") and not unconditioned
    if needs_data and getattr(args, _DOMAIN_INPUT[args.domain]) is None:
        parser.error(f"{args.command} --domain {args.domain} requires --{_DOMAIN_INPUT[args.domain]}")
    prior_input = _PRIOR_INPUT.get(getattr(args, "prior", None))
    if args.command == "infer" and prior_input and getattr(args, prior_input) is None:
        parser.error(f"infer --prior {args.prior} requires --{prior_input}")
    if args.command == "replay" and args.target is None and args.action in _REPLAY_ARG:
        parser.error(f"replay {args.action} requires the {_REPLAY_ARG[args.action]} argument")
    if args.command == "replay" and args.target is not None and args.action not in _REPLAY_ARG:
        parser.error(f"replay {args.action} takes no positional argument; name the store with --store")
    try:
        return args.func(args)
    except (UsageError, harness.ConfigError) as exc:
        parser.error(str(exc))
    except Exception as exc:  # surface a one-line error, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
