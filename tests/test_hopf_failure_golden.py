"""The failure outputs of the coproduct and evaluation checks, pinned.

Each case runs one check on a fresh algebra with one defect of
`defects.DEFECTS`:

* `rewriting` (gl(1|1), gl(2|1), gl(0|2)): the Hopf axioms and the
  grouplike law of B(u) run on it.
* `eval-level2-sign`, so the n-point representations built from the
  one-point images are wrong too.

The verdict, the info and the first five failures (or the construction
error a check raised) must equal `golden/hopf_failure_outputs.json`,
which was written before the coproduct became a morphism table and the
evaluation representations shared one word evaluator.
Regenerate it only from a tree whose outputs are trusted:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import defects, test_hopf_failure_golden as t; defects.write_golden(t.GOLDEN, t.CASES)"
"""

import defects
from defects import Case
from superyangian.central import grouplike_check, hopf_axioms_check
from superyangian.tensor_checks import (
    eval_embedding_identity_check,
    multi_eval_consistency_check,
    pbw_rank_check,
)

GOLDEN = defects.GOLDEN_DIR / "hopf_failure_outputs.json"

CASES = {}
for m, n in [(1, 1), (2, 1), (0, 2)]:
    pair, flip = [(m, n)], "eval-level2-sign"
    CASES[f"hopf-axioms-{m}{n}"] = Case("rewriting", pair, hopf_axioms_check, (m, n, 3))
    CASES[f"grouplike-berezinian-{m}{n}"] = Case(
        "rewriting", pair, grouplike_check, ("berezinian", m, n, 3))
    CASES[f"multi-eval-{m}{n}-two-point"] = Case(
        flip, pair, multi_eval_consistency_check, (m, n, (0, 1), 3))
    CASES[f"multi-eval-{m}{n}-three-point"] = Case(
        flip, pair, multi_eval_consistency_check, (m, n, (0, 1, 5), 3))
    CASES[f"eval-embedding-{m}{n}"] = Case(flip, pair, eval_embedding_identity_check, (m, n))
    CASES[f"pbw-rank-{m}{n}"] = Case(flip, pair, pbw_rank_check, (m, n, 2))


test_failure_output_matches_golden = defects.golden_test(GOLDEN, CASES)
