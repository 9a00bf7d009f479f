"""Online logical-concept learning on the green-triangles episode.

The learner sees 15 batches of labeled shape trials. Before each
batch's labels are revealed it predicts every trial from the posterior
over the hypotheses proposed so far, using a memory-decayed likelihood
of the past trials. We print the per-batch accuracy and the MAP
hypothesis, which locks onto the true rule early and stays there.

Run from the repository root:  python3 demos/online_shapes.py
"""

from pathlib import Path

import numpy as np

from nlconcepts import io
from nlconcepts.harness import ExperimentConfig, run_experiment
from nlconcepts.types import ModelParams

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    curve = io.load_learning_curve(FIXTURES / "shape" / "green_triangles_curve.json")
    pool = io.load_pool(FIXTURES / "shape" / "green_triangles_pool.jsonl", "shape")
    cfg = ExperimentConfig(domain="shape", prior="uniform", feature_dim=0)
    params = ModelParams(theta=np.zeros(0), epsilon=0.05, alpha=0.5, beta=0.5)

    metrics, records, details, _ = run_experiment(
        cfg, [curve], {"green_triangles": pool}, params
    )
    print(f"ground truth: {curve.ground_truth_nl}")
    print(f"overall accuracy over {metrics['n_trials']} trials: "
          f"{metrics['accuracy']:.3f}\n")
    for row in details["green_triangles"]["per_batch"]:
        print(f"batch {row['batch']:2d}  acc {row['accuracy']:.2f}  "
              f"MAP: {row['map_nl']}")


if __name__ == "__main__":
    main()
