"""Every guard and protocol branch of the kernel's types, reached through
its public entry: what each rejects, and what a comparison with another
type or a `repr` (which pytest prints when an assertion fails) gives."""

from fractions import Fraction

import pytest

from superyangian.algebra import Algebra, Element, algebra, embed_gl, supercommutator
from superyangian.morphisms import build_eta
from superyangian.series import Poly, SeriesTail
from superyangian.suites import compute
from superyangian.tensors import matrix_unit


# -- Algebra and Element --------------------------------------------------


@pytest.mark.parametrize("m,n", [(0, 0), (-1, 2)])
def test_an_algebra_needs_an_index(m, n):
    with pytest.raises(ValueError, match=r"^need M, N >= 0 with M \+ N >= 1$"):
        Algebra(m, n)


@pytest.mark.parametrize("i", [0, 3])
def test_embed_gl_rejects_an_index_outside_the_space(i):
    with pytest.raises(ValueError, match=rf"^indices \(1,{i}\) outside 1..2$"):
        embed_gl(algebra(1, 1), i, 1)


def test_the_supercommutator_takes_one_leg():
    two = algebra(1, 1).one(2)
    with pytest.raises(ValueError, match="^supercommutator of 2-leg elements; need 1 leg$"):
        supercommutator(two, two)


def test_normal_order_is_element():
    alg = algebra(1, 1)
    raw = [(1, [((2, 1, 1), (1, 2, 1))]), (Fraction(1, 2), [((1, 1, 2),)])]
    assert alg.normal_order(raw) == alg.element(raw)
    assert alg.normal_order(raw) == (alg.gen(2, 1, 1) * alg.gen(1, 2, 1)
                                     + alg.gen(1, 1, 2).scale(Fraction(1, 2)))


def test_element_rejects_terms_with_mixed_leg_counts():
    with pytest.raises(ValueError, match="^mixed leg counts in element terms$"):
        algebra(1, 1).element([(1, [((1, 1, 1),)]), (1, [((1, 1, 1),), ()])])


def test_an_element_needs_a_leg():
    with pytest.raises(ValueError, match="^need at least one tensor leg$"):
        Element(algebra(1, 1), 0, {})


def test_an_element_equals_no_scalar():
    alg = algebra(1, 1)
    assert alg.one() != 1 and not alg.one() == 1
    assert alg.one() == alg.scalar(1)


# -- SeriesTail and Poly ------------------------------------------------------


def scalars(*values):
    """The series coefficients `values`, as scalars of gl(1|1)."""
    return [algebra(1, 1).scalar(c) for c in values]


@pytest.mark.parametrize("order,coeffs,why", [
    (-1, [], "truncation order must be >= 0"),
    (2, [1, 2], "need exactly 3 coefficients, got 2"),
], ids=["negative-order", "count"])
def test_the_series_constructor_checks_its_order(order, coeffs, why):
    with pytest.raises(ValueError, match=f"^{why}$"):
        SeriesTail(algebra(1, 1), order, scalars(*coeffs))


def test_from_map_rejects_a_coefficient_past_the_order():
    with pytest.raises(ValueError, match=r"^coefficient index 3 outside 0..2$"):
        SeriesTail.from_map(algebra(1, 1), 2, {3: algebra(1, 1).one(1)})


def test_a_coefficient_past_the_order_is_unknown():
    s = SeriesTail(algebra(1, 1), 2, scalars(1, 2, 3))
    assert s.coefficient(2) == algebra(1, 1).scalar(3)
    with pytest.raises(IndexError, match=r"^coefficient u\^-3 beyond order 2$"):
        s.coefficient(3)


@pytest.mark.parametrize("order", [-1, 3])
def test_truncate_only_lowers_the_order(order):
    s = SeriesTail(algebra(1, 1), 2, scalars(1, 2, 3))
    assert s.truncate(2) is s and s.truncate(1) == SeriesTail(algebra(1, 1), 1, scalars(1, 2))
    with pytest.raises(ValueError, match=f"^cannot truncate order 2 to {order}$"):
        s.truncate(order)


def test_a_series_is_immutable():
    s = SeriesTail(algebra(1, 1), 1, scalars(1, 2))
    with pytest.raises(AttributeError, match="^SeriesTail is immutable$"):
        s.order = 3
    assert s.order == 1


def test_a_series_equals_no_scalar():
    assert SeriesTail.one(algebra(1, 1), 0) != 1


def test_scale_by_zero_is_the_zero_series():
    s = SeriesTail(algebra(1, 1), 2, scalars(1, 2, 3))
    zero = s.scale(0)
    assert zero == SeriesTail.zero(algebra(1, 1), 2) and zero.is_zero()


def test_poly_mixes_with_int_and_with_nothing_else():
    u = Poly.var("u")
    assert u + 1 == 1 + u and not u == "u"
    with pytest.raises(TypeError):
        u + "u"
    with pytest.raises(TypeError):
        u * Fraction(1, 2)


# -- EndoOperator, morphism tables, compute -------------------------------------


def test_operators_on_different_spaces_do_not_mix():
    a, b = matrix_unit(algebra(1, 1), 1, 1), matrix_unit(algebra(2, 1), 1, 1)
    for op in ("__add__", "__sub__", "__mul__"):
        with pytest.raises(ValueError, match="^operators on different spaces$"):
            getattr(a, op)(b)


def test_an_operator_times_a_scalar_is_no_product():
    with pytest.raises(TypeError):
        matrix_unit(algebra(1, 1), 1, 1) * 2


def test_a_one_leg_table_applies_to_one_leg_only():
    alg = algebra(1, 1)
    eta = build_eta(alg)
    assert eta.apply(alg.gen(1, 2, 1)) == -alg.gen(1, 2, 1)
    with pytest.raises(ValueError, match="^morphism tables act on 1-leg elements$"):
        eta.apply(alg.element([(1, [[(1, 2, 1)], []])]))


def test_apply_map_rejects_an_unknown_map():
    with pytest.raises(ValueError, match="^unknown morphism 'nope'$"):
        compute("apply-map", {"m": 1, "n": 1, "map": "nope"}, "1*T[1,1,1]")


def test_the_reprs_name_what_a_failed_assertion_shows():
    alg = algebra(2, 1)
    assert repr(alg) == "Algebra(M=2, N=1)"
    assert repr(alg.gen(1, 3, 2) - alg.scalar(Fraction(1, 2))) == "<Element -1/2 + 1*T[1,3,2]>"
    assert repr(matrix_unit(alg, 1, 3)) == "<EndoOperator 2|1 legs=1 nnz=1>"
    assert repr(SeriesTail(alg, 1, [alg.one(1), alg.scalar(Fraction(-2, 3))])) == (
        "SeriesTail(order=1, coeffs=[<Element 1>, <Element -2/3>])")
