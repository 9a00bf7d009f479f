"""Number Game walkthrough: posterior over natural-language hypotheses.

Given a handful of example numbers, we weigh a pool of candidate
concepts by prior x likelihood (`harness.infer_number`, the posterior
`nlconcepts infer` prints) and read off the posterior predictive
membership probability for new numbers from the concepts' extensions
(`likelihood.extension_matrix`). The likelihood embeds the size
principle: smaller consistent concepts explain the data better, so
[16, 8, 2, 64] pulls sharply toward "power of 2" over plain "even".

Run from the repository root:  python3 demos/number_game.py
"""

from pathlib import Path

from nlconcepts import io
from nlconcepts.harness import ExperimentConfig, infer_number
from nlconcepts.likelihood import extension_matrix
from nlconcepts.types import ModelParams, NumberExampleSet

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show_posterior(examples, epsilon=0.02):
    pool = io.load_pool(FIXTURES / "number_pool_size_principle.jsonl", "number")
    x = NumberExampleSet(examples)
    state = infer_number(ExperimentConfig("number"), pool, x, ModelParams(epsilon=epsilon))
    member = extension_matrix(state.pool)  # (hypotheses, 100): is x in each concept

    print(f"examples: {list(x.examples)}   (epsilon = {epsilon})")
    order = state.weights.argsort()[::-1]
    for i in order:
        print(f"  p = {state.weights[i]:.4f}  {state.pool[i].nl_text}")
    for test in (32, 12, 23, 87):
        p = state.weights @ member[:, test - 1]
        print(f"  P({test} in concept) = {p:.4f}")
    print()


def main():
    # One example is weak evidence: "even" and "power of 2" both survive.
    show_posterior([16])
    # Four examples and the size principle leave little doubt.
    show_posterior([16, 8, 2, 64])
    # The same numbers under a sloppier respondent (larger epsilon)
    # flatten the posterior but keep the ordering.
    show_posterior([16, 8, 2, 64], epsilon=0.2)


if __name__ == "__main__":
    main()
