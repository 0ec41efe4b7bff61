"""The evaluation-representation oracle: its reports, pinned, and the
operator work it does.

`golden/eval_rep_reports.json` holds the `reports_to_json` output, with
`wall_time_s` zeroed, of two `eval-rep` instances and one `pbw-rank`
instance (a known red), written when the relation check became RTT plus
the one-point route comparison; the reports must stay byte-identical.
Regenerate it only from a tree whose outputs are trusted:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_eval_rep_work as t; t.write_golden()"

Work is counted in operations, never timed, on a fresh gl(2|1): the
products and sums of the coproduct route of
`multi_eval_consistency_check`, and the one-point images and coproducts
that route builds, the R-matrix route built once per points at the
highest r_max asked so far, and the word products of `pbw_rank_check`:
one per prefix of two or more letters, and none, no `Algebra.element`
and no `add_scaled` on a second check.  Its images are compared with the
construction they replaced: a `tensor` per monomial of one-point word
images multiplied from `eval_rep_gen`; the cached R-route images with a
fresh build.  A point that is not a `Fraction` never reaches the
generator, word or route image cache, the level-2 sign flip of the
one-point images (`eval-level2-sign`) fails every image check, the
relation check at level bound 3 included, and a broken P (`p-sign`) on a
fresh algebra fails the route comparison.  The R route's recursion
makes one operator product per point and level, and its images equal
those of the Cauchy product of the factors' coefficient lists that it
replaced.
"""

from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add, mul
from pathlib import Path

import pytest

from defects import DEFECTS, fresh_algebra
from superyangian import morphisms, tensor_checks, tensors
from superyangian.algebra import Algebra, algebra
from superyangian.series import exact_point
from superyangian.suites import SuiteSpec, reports_to_json, run_suite
from superyangian.tensor_checks import (
    eval_relations_check,
    multi_eval_consistency_check,
    normal_monomials,
    pbw_rank_check,
)
from superyangian.tensors import EndoOperator, add_scaled, multi_eval_rep_gen

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
    fresh_algebra(monkeypatch, m, n)
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
    assert not multi_eval_consistency_check(2, 1, (0, 1, 5), 3).failures
    # each leg of the iterated coproduct of a generator holds one
    # generator or none, so its image is an image or the identity, never
    # a product; the monomials' tensor products sum into one dict
    assert counts == {"mul": 0, "add": 0}
    assert r_route_counts["mul"] > 0  # the R route still multiplies operators


def test_a_second_consistency_check_rebuilds_no_route(monkeypatch):
    counts = count_work(monkeypatch, 2, 1)
    builds = []
    build = tensors._rmatrix_route

    def counting_build(*args):
        builds.append(args[1:])
        return build(*args)

    monkeypatch.setattr(tensors, "_rmatrix_route", counting_build)
    points = (0, 1, 5)
    first = multi_eval_consistency_check(2, 1, points, 3)
    key = tuple(map(Fraction, points))
    assert not first.failures and builds == [(key, 3)] and counts["mul"] > 0
    counts.update(mul=0, add=0)
    builds.clear()
    second = multi_eval_consistency_check(2, 1, points, 3)
    assert not second.failures and second.info == first.info
    assert builds == [] and counts == {"mul": 0, "add": 0}
    # a lower level bound reads the leading levels of the kept images
    assert not multi_eval_consistency_check(2, 1, points, 2).failures
    assert builds == [] and counts == {"mul": 0, "add": 0}
    # a higher one rebuilds once and replaces them
    assert not multi_eval_consistency_check(2, 1, points, 4).failures
    assert not multi_eval_consistency_check(2, 1, points, 3).failures
    assert builds == [(key, 4)] and list(algebra(2, 1).route_images) == [key]


@pytest.mark.parametrize("points", [(0, 1), (0, 1, 5), (Fraction(1, 2), Fraction(-7, 3))],
                         ids=["two", "three", "rational"])
def test_cached_route_images_equal_a_fresh_build(points, monkeypatch):
    alg = fresh_algebra(monkeypatch, 2, 1)
    points = tuple(exact_point(z) for z in points)
    assert not multi_eval_consistency_check(2, 1, points, 3).failures
    r_max, cached = alg.route_images[points]
    assert r_max == 3
    fresh = tensors._rmatrix_route(alg, points, 3)
    assert fresh is not cached and list(cached) == list(fresh)
    for g, image in cached.items():
        assert typed_entries(image) == typed_entries(fresh[g]), g


def test_a_float_point_is_rejected_before_the_route_image_cache(monkeypatch):
    alg = fresh_algebra(monkeypatch, 1, 1)
    points = (Fraction(1), Fraction(2))
    cached = tensors.rmatrix_route_images(alg, points, 2)
    # (1.0, 2.0) equals `points` as a dict key, so a lookup would return
    # `cached` for it
    with pytest.raises(TypeError):
        tensors.rmatrix_route_images(alg, (1.0, 2.0), 2)
    with pytest.raises(TypeError):
        tensors.rmatrix_route_images(alg, (1.0, 3.0), 2)
    assert alg.route_images == {points: (2, cached)}


def test_eval_rep_compares_three_points_at_its_level_bound():
    """The three-point route comparison was once capped at level 3, with
    no key in the report saying so."""
    report = run_suite(SuiteSpec("eval-rep", {"m": 1, "n": 1, "r_max": 4}))
    assert report.status == "pass"
    assert report.verified["three-point.r_max"] == report.verified["two-point.r_max"] == 4


@pytest.mark.parametrize("points", [(0, 1), (0, 1, 5)], ids=["two-point", "three-point"])
def test_a_broken_p_on_a_fresh_algebra_fails_the_route_comparison(points, monkeypatch):
    """The route images are kept per algebra: those of the shared gl(2|1)
    do not reach a fresh one with a broken P.  The coproduct route never
    reads P, so only the R route sees the defect."""
    assert not multi_eval_consistency_check(2, 1, points, 3).failures
    DEFECTS["p-sign"](monkeypatch, [(2, 1)])
    assert multi_eval_consistency_check(2, 1, points, 3).failures


# -- the R-matrix route against the series product it replaced ---------------


def route_by_cauchy_products(alg: Algebra, points: tuple, r_max: int) -> dict:
    """The route images as first written: the u^-r coefficients of
    R_12(u - z_1) ... R_(1,n+1)(u - z_n), each factor the coefficient
    list 1, -P, -z P, .., -z^(r_max-1) P, multiplied in by the Cauchy
    product of coefficient lists, then grouped by the auxiliary leg."""
    n = len(points)
    one = EndoOperator.identity(alg, n + 1)
    prod = [one] + [EndoOperator.zero(alg, n + 1)] * r_max
    for h, z in enumerate(points, start=2):
        p = tensors.placed(alg, "P", (1, h), n + 1)
        factor = [one] + [p.scale(-(z ** (r - 1))) for r in range(1, r_max + 1)]
        prod = [reduce(add, (prod[q] * factor[r - q] for q in range(r + 1)))
                for r in range(r_max + 1)]
    images = {}
    for r in range(1, r_max + 1):
        grouped: dict = {}
        for (rows, cols), coeff in prod[r].to_abstract().items():
            grouped.setdefault((rows[0], cols[0]), {})[rows[1:], cols[1:]] = coeff
        for i in range(1, alg.dim + 1):
            for j in range(1, alg.dim + 1):
                images[alg.letter(i, j, r)] = EndoOperator.from_abstract(
                    alg, n, grouped.get((i, j), {}))
    return images


@pytest.mark.parametrize("points", [(0, 1), (0, 1, 5), (-2, Fraction(1, 3))],
                         ids=["two", "three", "rational"])
@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_route_recursion_equals_the_cauchy_product(m, n, points):
    alg = algebra(m, n)
    points = tuple(exact_point(z) for z in points)
    want = route_by_cauchy_products(alg, points, 4)
    for r_max in range(1, 5):
        got = tensors._rmatrix_route(alg, points, r_max)
        assert got.keys() == {g for g in want if g.r <= r_max}
        for g, image in got.items():
            assert typed_entries(image) == typed_entries(want[g]), (r_max, g)


@pytest.mark.parametrize("m,n,n_points,r_max,products", [
    (1, 1, 2, 3, 6),
    (2, 1, 3, 3, 9),
    (2, 2, 3, 4, 12),
])
def test_route_makes_one_operator_product_per_point_and_level(
        m, n, n_points, r_max, products, monkeypatch):
    counts = count_work(monkeypatch, m, n)
    points = tuple(map(Fraction, range(n_points)))
    tensors._rmatrix_route(algebra(m, n), points, r_max)
    assert counts["mul"] == products


# -- the coproduct route against the construction it replaced ---------------


def coproduct_route_by_tensors(alg: Algebra, g, points: tuple) -> EndoOperator:
    """The n-point image of `g` as first written: for each monomial of the
    iterated coproduct, the `tensor` of its legs' one-point word images,
    each a product of `eval_rep_gen` images, summed into one dict."""
    x = alg.gen(*g)
    for leg in range(1, len(points)):
        x = morphisms.coproduct_at_leg(x, leg)
    out: dict = {}
    for mon, coeff in x.terms.items():
        factors = [
            reduce(mul, (tensors.eval_rep_gen(alg, h, z) for h in word)) if word
            else EndoOperator.identity(alg, 1)
            for word, z in zip(mon, points)
        ]
        add_scaled(out, coeff, tensors.tensor(factors).entries)
    return EndoOperator._owning(alg, len(points), out)


def typed_entries(op: EndoOperator) -> dict:
    """The entries with the type of each value: an ``int`` and a
    ``Fraction`` of equal value compare equal, so the types are compared
    too, and an entry keeps the type the construction gave it."""
    return {key: (value, type(value)) for key, value in op.entries.items()}


@pytest.mark.parametrize("points", [(0, 1), (0, 1, 5)], ids=["two", "three"])
@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_coproduct_route_images_equal_the_tensor_construction(m, n, points, monkeypatch):
    alg = fresh_algebra(monkeypatch, m, n)
    points = tuple(exact_point(z) for z in points)
    for g in alg.gens(3):
        got = multi_eval_rep_gen(alg, g, points)
        assert typed_entries(got) == typed_entries(coproduct_route_by_tensors(alg, g, points)), g


@pytest.mark.parametrize("m,n", [(2, 1), (1, 2)])
def test_coproduct_route_images_equal_the_tensor_construction_at_rational_points(
        m, n, monkeypatch):
    alg = fresh_algebra(monkeypatch, m, n)
    points = (Fraction(1, 2), Fraction(-7, 3), Fraction(5, 4))
    fractional = 0
    for g in alg.gens(3):
        got = multi_eval_rep_gen(alg, g, points)
        assert typed_entries(got) == typed_entries(coproduct_route_by_tensors(alg, g, points)), g
        fractional += any(isinstance(v, Fraction) for v in got.entries.values())
    assert fractional  # the points reach non-integral entries


def test_each_one_point_image_is_built_once_and_a_second_check_reads_the_cache(monkeypatch):
    alg = fresh_algebra(monkeypatch, 2, 1)
    built = Counter()
    coproducts = []
    eval_rep_gen, coproduct_at_leg = tensors.eval_rep_gen, tensors.coproduct_at_leg

    def counting_eval_rep_gen(alg, g, z):
        built[g, z] += 1
        return eval_rep_gen(alg, g, z)

    def counting_coproduct_at_leg(x, leg):
        coproducts.append(leg)
        return coproduct_at_leg(x, leg)

    monkeypatch.setattr(tensors, "eval_rep_gen", counting_eval_rep_gen)
    monkeypatch.setattr(tensors, "coproduct_at_leg", counting_coproduct_at_leg)
    points = (0, 1, 5)
    assert not multi_eval_consistency_check(2, 1, points, 3).failures
    assert built and max(built.values()) == 1
    assert {z for _, z in built} == set(points) and coproducts
    built.clear()
    coproducts.clear()
    # the images are filed under (letter, points): a key that missed would
    # rebuild them here
    assert not multi_eval_consistency_check(2, 1, points, 3).failures
    assert not built and not coproducts
    points = tuple(exact_point(z) for z in points)
    for g in alg.gens(3):
        assert multi_eval_rep_gen(alg, g, points) is alg.multi_gens[g, points]
        for z in points:
            assert (g, (z,)) in alg.multi_gens


def test_a_float_point_is_rejected_before_the_image_cache(monkeypatch):
    alg = fresh_algebra(monkeypatch, 1, 1)
    g = alg.letter(1, 2, 2)
    cached = multi_eval_rep_gen(alg, g, (Fraction(1),))
    # 1.0 equals Fraction(1) as a dict key, so a lookup would return
    # `cached` for it
    with pytest.raises(TypeError):
        multi_eval_rep_gen(alg, g, (1.0,))
    with pytest.raises(TypeError):
        multi_eval_rep_gen(alg, g, (2.0,))
    assert alg.multi_gens == {(g, (Fraction(1),)): cached}


def test_each_word_prefix_is_multiplied_once_and_a_second_rank_check_reads_the_cache(
        monkeypatch):
    alg = fresh_algebra(monkeypatch, 1, 1)
    products = []
    real_mul = EndoOperator.__mul__

    def counting(self, other):
        products.append(self.legs)
        return real_mul(self, other)

    monkeypatch.setattr(EndoOperator, "__mul__", counting)
    points = (0, 1, 5)
    first = pbw_rank_check(1, 1, 3, points)
    prefixes = {word[:k] for word in normal_monomials(alg, 3) for k in range(2, len(word) + 1)}
    key_points = tuple(map(Fraction, points))
    assert set(alg.multi_words) == {(word, key_points) for word in prefixes}
    # the coproduct route makes no product, so every product is a word's
    assert products == [3] * len(prefixes)
    products.clear()
    # a row is the cached word image itself: no monomial is normal-ordered
    # into an element and no image is copied
    calls = Counter()
    for owner, name in ((Algebra, "element"), (tensors, "add_scaled")):
        monkeypatch.setattr(owner, name, counting_calls(calls, name, getattr(owner, name)))
    second = pbw_rank_check(1, 1, 3, points)
    assert products == [] and not calls and second.info == first.info


def counting_calls(calls: Counter, name: str, fn):
    def counting(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counting


def test_a_float_point_is_rejected_before_the_word_image_cache(monkeypatch):
    alg = fresh_algebra(monkeypatch, 1, 1)
    word = (alg.letter(1, 2, 1), alg.letter(2, 1, 2))
    cached = tensors._eval_word(alg, word, (Fraction(1),))
    with pytest.raises(TypeError):
        tensors._eval_word(alg, word, (1.0,))
    assert alg.multi_words == {(word, (Fraction(1),)): cached}


@pytest.mark.parametrize("check", [
    lambda: multi_eval_consistency_check(2, 1, (0, 1), 3),
    lambda: multi_eval_consistency_check(2, 1, (0, 1, 5), 3),
    # (1, -z, z^2) satisfies every relation coefficient with p + q <= 3
    # (c_1 c_3 = c_2^2), but the relation check compares the images with
    # the R-matrix coefficients, so level 2 at z = 1 and z = -2 differs
    lambda: eval_relations_check(2, 1, (0, 1, -2), 3),
], ids=["two-point", "three-point", "relations"])
def test_a_level_two_sign_flip_reaches_every_image_check(check, monkeypatch):
    """The mutant is patched where the one-point images are built, before
    any image of a fresh algebra is cached."""
    DEFECTS["eval-level2-sign"](monkeypatch, [(2, 1)])
    assert check().failures
