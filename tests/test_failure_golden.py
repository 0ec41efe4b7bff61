"""The failure outputs of the series, mixed and defining-relation checks,
pinned.

Each case runs one check on fresh algebras with one defect of
`defects.DEFECTS`:

* `rewriting`, on the case's algebra and, for the target of the az
  check, gl(2|0).  Z(u) cannot even be built then, so the checks that
  need it report the construction error.
* `z-shifted`, so every check that reads Z(u) fails past its
  construction.
* `p-sign`.

The verdict, the info and the first five failures (or the error a check
raised) must equal `golden/failure_outputs.json`, which was
written before the series machinery was collapsed onto one path per job
(the `closure` and `morphism-relation` cases: before those two checks
were merged onto one relation loop).
Regenerate it only from a tree whose outputs are trusted:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import defects, test_failure_golden as t; defects.write_golden(t.GOLDEN, t.CASES)"
"""

import defects
from defects import Case
from superyangian import tensor_checks
from superyangian.central import (
    antipode_square_check,
    az_relation_check,
    berezinian_theorem_check,
    closure_check,
    eta_antipode_twist_check,
    grouplike_check,
    l3_commutation_check,
    morphism_relation_check,
)
from superyangian.mixed import fusion_commutation_check

GOLDEN = defects.GOLDEN_DIR / "failure_outputs.json"

PAIRS = [(1, 1), (2, 1), (1, 0), (0, 2)]
ORDER = 4
DEFECT = {"rewriting": "rewriting", "z": "z-shifted", "p": "p-sign"}

CASES = {}
for m, n in PAIRS:
    for defect in ("rewriting", "z"):
        for label, check in (("antipode-square", antipode_square_check),
                             ("berezinian-theorem", berezinian_theorem_check),
                             ("eta-antipode-twist", eta_antipode_twist_check)):
            CASES[f"{label}-{m}{n}-{defect}"] = Case(
                DEFECT[defect], [(m, n)], check, (m, n, ORDER))
        CASES[f"grouplike-z-{m}{n}-{defect}"] = Case(
            DEFECT[defect], [(m, n)], grouplike_check, ("z", m, n, ORDER))
for m, n in [(1, 1), (1, 0), (0, 2)]:
    for legs in (2, 3):
        CASES[f"fusion-{m}{n}-legs{legs}"] = Case(
            "rewriting", [(m, n)], fusion_commutation_check, (m, n, legs, 3))
for m, n in [(1, 1), (2, 1)]:
    CASES[f"l3-{m}{n}"] = Case("rewriting", [(m, n)], l3_commutation_check, (m, n, 4, 3))
    CASES[f"unitarity-{m}{n}"] = Case("p-sign", [(m, n)], tensor_checks.unitarity_check, (m, n))
for m, n in [(1, 1), (2, 1), (0, 2)]:
    CASES[f"closure-{m}{n}-rewriting"] = Case("rewriting", [(m, n)], closure_check, (m, n, 3))
    CASES[f"morphism-relation-{m}{n}-rewriting"] = Case(
        "rewriting", [(m, n)], morphism_relation_check, (m, n, 2))
CASES["az-02-rewriting"] = Case("rewriting", [(0, 2), (2, 0)], az_relation_check, (2, ORDER))
CASES["az-02-z"] = Case("z-shifted", [(0, 2)], az_relation_check, (2, ORDER))


test_failure_output_matches_golden = defects.golden_test(GOLDEN, CASES)
