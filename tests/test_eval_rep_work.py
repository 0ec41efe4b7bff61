"""The evaluation-representation oracle: its reports, pinned, and the
operator work it does.

`golden/eval_rep_reports.json` holds the `reports_to_json` output, with
`wall_time_s` zeroed, of two `eval-rep` instances and one `pbw-rank`
instance (a known red), written before the relation check shared its
products and the n-point images were summed into one dict; the reports
must stay byte-identical.  Regenerate it only from a tree whose outputs
are trusted:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_eval_rep_work as t; t.write_golden()"

Work is counted in operations, never timed, on a fresh gl(2|1): the
`EndoOperator` products of `eval_relations_check`, and the products and
sums of the coproduct route of `multi_eval_consistency_check`.
"""

from pathlib import Path

from superyangian import tensor_checks
from superyangian.algebra import _ALGEBRAS, Algebra
from superyangian.suites import SuiteSpec, reports_to_json, run_suite
from superyangian.tensor_checks import eval_relations_check, multi_eval_consistency_check
from superyangian.tensors import EndoOperator

GOLDEN = Path(__file__).parent / "golden" / "eval_rep_reports.json"

CASES = [
    ("eval-rep", {"m": 2, "n": 1, "r_max": 3, "points": [-5, -7, -1]}),
    ("eval-rep", {"m": 1, "n": 2, "r_max": 3, "points": [-6, 6, 5]}),
    ("pbw-rank", {"m": 1, "n": 1, "filt_max": 4, "points": [-6, 6, -9]}),
]


def _reports_text() -> str:
    reports = [run_suite(SuiteSpec(name, params)) for name, params in CASES]
    for report in reports:
        report.wall_time_s = 0.0
    return reports_to_json(reports)


def write_golden() -> None:
    GOLDEN.write_text(_reports_text())


def test_reports_are_byte_identical_to_the_golden():
    assert _reports_text() == GOLDEN.read_text()


def count_work(monkeypatch, m: int, n: int) -> dict:
    """On a fresh gl(m|n): the number of operator products and sums, in
    a dict the caller may reset."""
    monkeypatch.setitem(_ALGEBRAS, (m, n), Algebra(m, n))
    counts = {"mul": 0, "add": 0}
    mul, add = EndoOperator.__mul__, EndoOperator.__add__

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counting_add(self, other):
        counts["add"] += 1
        return add(self, other)

    monkeypatch.setattr(EndoOperator, "__mul__", counting_mul)
    monkeypatch.setattr(EndoOperator, "__add__", counting_add)
    return counts


def test_relation_check_multiplies_each_pair_of_images_once(monkeypatch):
    counts = count_work(monkeypatch, 2, 1)
    assert eval_relations_check(2, 1, (0, 1, -2), 3).ok
    # per z, every ordered pair of the 9 x 9 index pairs at the 6 level
    # pairs (r, s) with r, s >= 1 and r + s <= 4; the check as first
    # written made 22 products for each of the 81 quadruples
    assert counts["mul"] == 3 * 81 * 6 == 1458
    assert counts["add"] == 0


def test_coproduct_route_makes_no_operator_product_or_sum(monkeypatch):
    counts = count_work(monkeypatch, 2, 1)
    r_route = tensor_checks.rmatrix_route_images
    r_route_counts = {}

    def r_route_apart(*args):
        before = dict(counts)
        images = r_route(*args)
        r_route_counts.update({k: counts[k] - before[k] for k in counts})
        counts.update(before)
        return images

    monkeypatch.setattr(tensor_checks, "rmatrix_route_images", r_route_apart)
    assert multi_eval_consistency_check(2, 1, (0, 1, 5), 3).ok
    # each leg of the iterated coproduct of a generator holds one
    # generator or none, so its image is an image or the identity, never
    # a product; the monomials' tensor products sum into one dict
    assert counts == {"mul": 0, "add": 0}
    assert r_route_counts["mul"] > 0  # the R route's series still multiply
