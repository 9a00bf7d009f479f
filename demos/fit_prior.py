"""Fitting a tuned prior over verbalizations to human ratings.

The tuned prior scores each hypothesis as theta . phi(C), where phi is
a deterministic hashed bag-of-tokens feature map of the natural
language. We fit theta (plus noise and calibration parameters) to the
graded human membership ratings by full-batch Adam with 10-fold
cross-validation, then compare against a uniform prior and print the
verbalizations the tuned prior comes to favor.

This takes a few seconds. Run from the repository root:
    python3 demos/fit_prior.py
"""

import json
from pathlib import Path

from nlconcepts.harness import ExperimentConfig, run_experiment

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(config_name):
    cfg = ExperimentConfig.from_json(FIXTURES / "configs" / config_name)
    cfg.data_path = str(FIXTURES / "number_judgments.csv")
    cfg.pools = {k: str(FIXTURES / "number" / f"{k}.jsonl") for k in cfg.pools}
    return run_experiment(cfg)


def main():
    uniform_metrics = run("number_uniform.json").metrics
    tuned_metrics, _, verbalizations, _ = run("number_tuned.json")
    print(json.dumps({
        "uniform_holdout_r2": round(uniform_metrics["holdout_r2"], 4),
        "tuned_holdout_r2": round(tuned_metrics["holdout_r2"], 4),
    }, indent=2))
    print("\ntop verbalizations under the tuned prior:")
    for set_id, top in sorted(verbalizations.items()):
        print(f"  {set_id}:")
        for nl, w in top[:3]:
            print(f"    {w:.3f}  {nl}")


if __name__ == "__main__":
    main()
