"""The proposal pipeline, replayed from a recorded store.

Hypothesis pools come from a language model: a proposal prompt yields
numbered lists of candidate rules, and a second translation prompt
renders each rule into the formal DSL so it can be executed. Every
model call is content-addressed by its prompt and sampling parameters
and recorded, so an experiment can be replayed byte-for-byte without
network access. This demo runs entirely from the recorded store shipped
in fixtures/replay, one append-only log (fixtures/replay/entries.v3.log,
each record keyed by the sha256 of its request's sorted-key orjson bytes):
ReplayBackend(store) has no client, so a request the store lacks raises
ReplayMiss. To record fresh calls, pass a ChatClient as well,
ReplayBackend(store, ChatClient(endpoint, model)), with an API key in
the INDUCT_API_KEY environment variable; each response is then appended
to the store's log before it is used.

Run from the repository root:  python3 demos/propose_replay.py
"""

from pathlib import Path

from nlconcepts.dsl import format_concept
from nlconcepts.propose import (
    ProposalRequest,
    ReplayBackend,
    ReplayStore,
    build_prompt,
    propose,
    translate_pool,
)
from nlconcepts.types import NumberExampleSet

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def main():
    examples = NumberExampleSet([16, 8, 2, 64])
    request = ProposalRequest(domain="number", examples=examples, budget=5)
    print("proposal prompt:\n" + "-" * 60)
    print(build_prompt(request))
    print("-" * 60)

    backend = ReplayBackend(ReplayStore(FIXTURES / "replay"))
    pool = propose(request, backend)
    print(f"\nproposed {len(pool)} hypotheses (duplicates merge later):")
    for h in pool:
        print(f"  {h.nl_text}")

    translated = translate_pool(pool, "number", backend)
    print("\ntranslations:")
    for h in translated:
        status = format_concept(h.program) if h.parsed else "<did not parse>"
        print(f"  {h.nl_text!r:45} -> {status}")


if __name__ == "__main__":
    main()
