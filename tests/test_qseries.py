import json
import random
import re
from collections import Counter
from itertools import product

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from orbivertex import qseries
from orbivertex.dt_vertex import skew_schur_specialized
from orbivertex.qseries import (
    Factors, Series, _decoded, _pack, _walk, term,
)

import oracles
from oracles import pochhammer_factors, term_mul, term_neg, term_pow

V4 = ("q0", "qa", "qb", "qc")
GENS = sympy.symbols("q0 qa qb qc")


def rand_series(rng, names, cutoff, nterms=8, unit=False):
    s = Series(names, cutoff)
    if unit:
        s._add([((0,) * len(names), rng.choice([1, -1]))])
    for _ in range(nterms):
        e = tuple(rng.randrange(0, 3) for _ in names)
        if unit and not any(e):
            continue
        s._add([(e, rng.randrange(-5, 6))])
    return s


def to_sym(s, gens=GENS):
    expr = sympy.Integer(0)
    for e, c in s.terms.items():
        expr += c * sympy.prod(g ** x for g, x in zip(gens, e))
    return sympy.expand(expr)


def test_ring_axioms_random():
    rng = random.Random(2024)
    for _ in range(25):
        a = rand_series(rng, V4, 5)
        b = rand_series(rng, V4, 5)
        c = rand_series(rng, V4, 5)
        add = oracles.series_sum
        assert add(a, b) * c == add(a * c, b * c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * Series(V4, 5, {(0, 0, 0, 0): 1}) == a
        # cross-check one product against sympy
        got = to_sym(a * b)
        want = oracles.strunc(to_sym(a) * to_sym(b), GENS, 5)
        assert sympy.expand(got - want) == 0


def test_no_stored_zeros_or_overflow():
    rng = random.Random(5)
    for _ in range(20):
        a = rand_series(rng, V4, 4)
        b = rand_series(rng, V4, 4)
        p = a * b
        for e, c in p.terms.items():
            assert c != 0
            assert sum(e) <= 4
            assert all(x >= 0 for x in e)


def test_invert_random():
    rng = random.Random(77)
    for _ in range(20):
        a = rand_series(rng, V4, 5, unit=True)
        assert (a * a.invert()).terms == {(0, 0, 0, 0): 1}
    with pytest.raises(ValueError):
        Series(V4, 5, {(0, 0, 0, 0): 2, (1, 0, 0, 0): 1}).invert()


def test_negative_exponent_rejected():
    s = Series(V4, 4)
    with pytest.raises(ValueError):
        s._add([((1, -1, 0, 0), 1)])
    with pytest.raises(ValueError):
        Series(V4, 4, {(1, -1, 0, 0): 1})


@pytest.mark.parametrize("exps,error", [
    (("a",), TypeError), ((1, 2, 3), ValueError), ((-1,), ValueError),
    ((1.5,), TypeError),
], ids=["str", "arity", "negative", "float"])
def test_series_checks_the_exponents_of_a_zero_coefficient(exps, error):
    # every exponent tuple that enters is checked, whatever its coefficient
    with pytest.raises(error):
        Series(("q",), 3, {exps: 0})


def test_series_mul_caps_and_drops_cancelled_keys():
    names = ("x", "y")

    def mul(a, b, cap):
        return (Series(names, cap, a) * Series(names, cap, b)).terms

    # (x + y) * (y - x): the xy terms cancel, and their key is dropped
    assert mul({(1, 0): 1, (0, 1): 1}, {(0, 1): 1, (1, 0): -1}, 2) \
        == {(0, 2): 1, (2, 0): -1}
    # products above the cap are left out, whichever operand is larger
    a = {(1, 0): 1}
    b = {(3, 0): 1, (5, 0): 1, (1, 1): 2, (0, 0): 4}
    want = {(1, 0): 4, (2, 1): 2}
    assert mul(a, b, 3) == want and mul(b, a, 3) == want
    # (1 + x)(1 - x) at cap 1: the x terms cancel across the steps
    assert mul({(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (1, 0): -1}, 1) \
        == {(0, 0): 1}


def test_series_arithmetic_skips_the_entry_checks(monkeypatch):
    rng = random.Random(12)
    a = rand_series(rng, V4, 4)
    b = rand_series(rng, V4, 4)
    unit = rand_series(rng, V4, 4, unit=True)
    want = (a * b, a ** 3, unit.invert(), unit ** -2)

    def refuse(self, exps, coef):
        raise AssertionError("_add called by internal arithmetic")

    monkeypatch.setattr(Series, "_add", refuse)
    assert (a * b, a ** 3, unit.invert(), unit ** -2) == want


def poch_walk(a, names, cutoff):
    """(a; q)_infinity, q the product of the names, by qseries' factor
    walk, the one Factors.walk runs for its Pochhammer entries; a goes in
    unchecked."""
    return _walk(Factors(names, cutoff), a, False, 1)


def test_pochhammer_frozen():
    # (q; q)_infinity in one variable, cutoff 2: 1 - q - q^2
    q = term(1, (1,))
    for got in (poch_walk(q, ("q",), 2), pochhammer_factors(q, q, ("q",), 2)):
        assert got.series().terms == {(0,): 1, (1,): -1, (2,): -1}
    x = term(1, (0, 1, 1, 0))
    assert poch_walk(x, V4, 8).mult \
        == pochhammer_factors(x, q_full(), V4, 8).mult


def test_macmahon_one_variable_frozen():
    # M(1, q) counts plane partitions: 1, 1, 3, 6
    one = term(1, (0,))
    got = Factors(("q",), 3).walk("M", one).series()
    assert got.terms == {(0,): 1, (1,): 1, (2,): 3, (3,): 6}


def q_full():
    return term(1, (1, 1, 1, 1))


def test_macmahon_vs_sympy():
    q0, qa, qb, qc = GENS
    x = term(1, (0, 1, 0, 1))           # qa*qc
    got = to_sym(Factors(V4, 6).walk("M", x).series())
    want = oracles.smac(qa * qc, q0 * qa * qb * qc, GENS, 6)
    assert sympy.expand(got - want) == 0


def sym_family(name, x, l, D, gens=GENS):
    """(num, den) with the named family equal to num / den, from its
    written definition through the sympy oracles, q the product of gens:
    M(x) is itself, M~(x) = M(x) M(1/x),
    M~0(x; l) = M(x q^l) / (M(x) (q/x; q)^l) and M~1(x; l) =
    M(q^l/x) / (M(1/x) (x; q)^l); each hat family is the product of its
    tilde family at x and -x, and M^ is inverted."""
    q = sympy.prod(gens)

    def mul(a, b):
        return oracles.smul(a, b, gens, D)

    def tilde(y):
        if name[2:] == "":
            return mul(oracles.smac(y, q, gens, D),
                       oracles.smac(1 / y, q, gens, D)), sympy.Integer(1)
        if name[2:] == "0":
            num, den, p = y * q ** l, y, q / y
        else:
            num, den, p = q ** l / y, 1 / y, y
        poch = oracles.spoch(p, q, gens, D) ** l
        return (oracles.smac(num, q, gens, D),
                mul(oracles.smac(den, q, gens, D), poch))

    if name == "M":
        return oracles.smac(x, q, gens, D), sympy.Integer(1)
    if name.startswith("Mt"):
        return tilde(x)
    (na, da), (nb, db) = tilde(x), tilde(-x)
    num, den = mul(na, nb), mul(da, db)
    return (den, num) if name == "Mh" else (num, den)


def test_families_match_their_definitions_in_sympy():
    # each family times the denominator of its definition is the
    # numerator; both sides have constant term 1, so this fixes the family
    q0, qa, qb, qc = GENS
    xs = [(term(1, (0, 1, 0, 0)), qa), (term(1, (0, 1, 1, 0)), qa * qb),
          (term(-1, (0, 0, 1, 0)), -qb), (term(1, (0, 1, 1, 1)), qa * qb * qc)]
    D = 6
    for name in ("Mt", "Mh", "Mt0", "Mt1", "Mh0", "Mh1"):
        for x, sx in xs:
            for l in ((None,) if name in ("Mt", "Mh") else range(4)):
                got = to_sym(Factors(V4, D).walk(name, x, l=l).series())
                num, den = sym_family(name, sx, l, D)
                diff = oracles.smul(got, den, GENS, D) - oracles.strunc(num, GENS, D)
                assert sympy.expand(diff) == 0, (name, x, l)


XYZ = ("x", "y", "z")
XYZ_GENS = sympy.symbols("x y z")
# a table entry (family, sign, exponents of x, power, shift): x is a
# signed product of one or two of the three variables, so every factor
# x^(+-1) q^n, q = xyz, has non-negative exponents and positive degree
WALK_ENTRY = st.tuples(
    st.sampled_from(("M", "Mt", "Mh", "Mt0", "Mt1", "Mh0", "Mh1")),
    st.sampled_from((1, -1)),
    st.sampled_from([e for e in product((0, 1), repeat=3) if 0 < sum(e) < 3]),
    st.integers(-2, 2), st.integers(0, 2))


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.lists(WALK_ENTRY, min_size=1, max_size=4), st.integers(0, 6))
def test_walked_table_is_the_product_of_its_families(table, D):
    # one multiset walked entry by entry is, key for key, the sum of each
    # family walked alone times its power, and its series is the product
    # of the families' sympy definitions to those powers
    out = Factors(XYZ, D)
    alone = Counter()
    num = den = sympy.Integer(1)
    for name, sign, e, power, l in table:
        l = None if name in ("M", "Mt", "Mh") else l
        out.walk(name, (sign, e), l, power)
        for t, k in Factors(XYZ, D).walk(name, (sign, e), l).mult.items():
            alone[t] += k * power
        x = sign * sympy.prod(g ** a for g, a in zip(XYZ_GENS, e))
        fnum, fden = sym_family(name, x, l, D, XYZ_GENS)
        if power < 0:
            fnum, fden = fden, fnum
        for _ in range(abs(power)):
            num = oracles.smul(num, fnum, XYZ_GENS, D)
            den = oracles.smul(den, fden, XYZ_GENS, D)
    assert out.mult == {t: k for t, k in alone.items() if k}
    got = to_sym(out.series(), XYZ_GENS)
    diff = oracles.smul(got, den, XYZ_GENS, D) - oracles.strunc(num, XYZ_GENS, D)
    assert sympy.expand(diff) == 0


def test_macmahon_sym_low_order():
    # M(x^-1, q) factor at n=1 produces the dual variables
    x = term(1, (0, 1, 0, 1))           # qa*qc; q/x = q0*qb
    s = Factors(V4, 2).walk("Mt", x).series()
    assert s.coefficient((1, 0, 1, 0)) == 1
    assert s.coefficient((0, 0, 0, 0)) == 1
    assert sum(s.terms.values()) == 2   # nothing else through degree 2


def test_macmahon_shift_identity():
    # M(x, q) = M(x q^-1, q) * (x; q)_infinity
    x = term(1, (0, 1, 1, 0))           # qa*qb
    q = q_full()
    lhs = Factors(V4, 6).walk("M", x).series()
    rhs = (Factors(V4, 6).walk("M", term_mul(x, term_pow(q, -1))).series()
           * pochhammer_factors(x, q, V4, 6).series())
    assert lhs == rhs


def test_sym_ratio_identity():
    # Mt(x, q) / Mt(q x^-1, q) = (x; q)_inf / (q x^-1; q)_inf
    x = term(1, (0, 1, 1, 0))
    q = q_full()
    qix = term_mul(q, term_pow(x, -1))
    # Mt(x) / Mt(qix) = (x; q) / (qix; q), with the denominators
    # multiplied across
    lhs = (Factors(V4, 6).walk("Mt", x).series()
           * pochhammer_factors(qix, q, V4, 6).series())
    rhs = (pochhammer_factors(x, q, V4, 6).series()
           * Factors(V4, 6).walk("Mt", qix).series())
    assert lhs == rhs


def test_family_shift_link():
    # Mt1(q x^-1, q; l+1) = Mt0(x, q; l) * (x; q)_inf / (q x^-1; q)_inf
    x = term(1, (0, 1, 1, 0))
    q = q_full()
    qix = term_mul(q, term_pow(x, -1))
    for l in (0, 1, 2):
        # Mt1(qix, l + 1) = Mt0(x, l) (x; q) / (qix; q)
        lhs = (Factors(V4, 6).walk("Mt1", qix, l=l + 1).series()
               * pochhammer_factors(qix, q, V4, 6).series())
        rhs = (Factors(V4, 6).walk("Mt0", x, l=l).series()
               * pochhammer_factors(x, q, V4, 6).series())
        assert lhs == rhs, l


def test_family_hat_composition():
    x = term(1, (0, 1, 0, 0))
    mt = Factors(V4, 6).walk("Mt", x).series()
    mtn = Factors(V4, 6).walk("Mt", term_neg(x)).series()
    mh = Factors(V4, 6).walk("Mh", x).series()
    assert (mh * mt * mtn).terms == {(0,) * 4: 1}


def test_family_name_rejections():
    x = term(1, (0, 1, 0, 0))
    for name in ("Mx", "M2", "M~0"):
        with pytest.raises(ValueError, match="unknown MacMahon family"):
            Factors(V4, 4).walk(name, x, l=1)
    with pytest.raises(ValueError, match="needs the shift l"):
        Factors(V4, 4).walk("Mt0", x)
    # a shift given to a family that has none was silently ignored
    for name in ("M", "Mt", "Mh"):
        for l in (0, 3):
            with pytest.raises(ValueError, match="family %s takes no shift l"
                               % name):
                Factors(V4, 4).walk(name, x, l=l)
    # l=True ran as the shift 1
    for l in (True, 1.0):
        with pytest.raises(TypeError, match="shift l must be an int"):
            Factors(V4, 4).walk("Mt0", x, l=l)
        with pytest.raises(TypeError, match="power must be an int"):
            Factors(V4, 4).walk("Mt", x, power=l)


def test_json_roundtrip_and_order():
    rng = random.Random(9)
    s = rand_series(rng, V4, 4)
    text = s.to_json()
    data = json.loads(text)
    exps = [tuple(t["exp"]) for t in data["terms"]]
    assert exps == sorted(exps)


def test_map_vars():
    s = Series(("x", "y"), 4)
    s._add([((1, 2), 3)])
    t = s.map_vars(("u", "v", "w"), (2, 0))
    assert t.terms == {(2, 0, 1): 3}
    u = s.map_vars(("z",), (0, 0))
    assert u.terms == {(3,): 3}


@pytest.mark.parametrize("assignment", [(0, -1), (-2, 0), (0, 2)])
def test_map_vars_rejects_index_outside_new_names(assignment):
    s = Series(("a", "b"), 3, {(1, 0): 2, (0, 1): 5})
    with pytest.raises(ValueError, match="outside range"):
        s.map_vars(("x", "y"), assignment)


@pytest.mark.parametrize("index", [True, 1.0], ids=["bool", "float"])
def test_map_vars_rejects_non_int_index(index):
    # True was read as index 1, and 1.0 failed inside the relabeling with
    # "list indices must be integers or slices, not float"
    s = Series(("a", "b"), 3, {(1, 0): 2, (0, 1): 5})
    with pytest.raises(TypeError, match="assignment index must be an int, "
                       "not %r" % (index,)):
        s.map_vars(("z", "w"), (index, 0))


def test_pow():
    q = Series(("q",), 6, {(0,): 1, (1,): 1})
    assert (q ** 3).terms == {(0,): 1, (1,): 3, (2,): 3, (3,): 1}
    assert (q ** 0).terms == {(0,): 1}
    inv2 = q ** -2
    assert (inv2 * q * q).terms == {(0,): 1}


# ---------------------------------------------------------------------------
# exponent multisets (Factors) and their one-pass-per-factor evaluation
# ---------------------------------------------------------------------------


def rand_factor_term(rng, nvars):
    """A Term x^-1 * q^k with x, q random signed monomials, combined so
    that every exponent is non-negative and the degree is positive."""
    while True:
        k = rng.choice([1, 2])
        xe = [rng.randrange(0, 3) for _ in range(nvars)]
        qe = [-(-a // k) + (rng.random() < 0.3) for a in xe]
        x = term(rng.choice([1, -1]), xe)
        q = term(rng.choice([1, -1]), qe)
        t = term_mul(term_pow(x, -1), term_pow(q, k))
        if sum(t[1]) > 0:
            return t


def rand_factors(rng, names, cutoff, nfactors):
    mult = Counter()
    for _ in range(nfactors):
        t = rand_factor_term(rng, len(names))
        mult[t] += rng.choice([-2, -1, 1, 2, 3])
    return Factors(names, cutoff, mult)


def combined(names, cutoff, *powers):
    # prod f ** k over the pairs (f, k), entered as one multiset
    mult = Counter()
    for f, k in powers:
        for t, m in f.mult.items():
            mult[t] += m * k
    return Factors(names, cutoff, mult)


def sym_product(fs, gens, D):
    """prod (1 - c x^e)^(-k) through the sympy oracle, truncated at D."""
    out = sympy.Integer(1)
    for (c, e), k in fs.mult.items():
        lin = 1 - c * sympy.prod(g ** x for g, x in zip(gens, e))
        step = oracles.sinv(lin, gens, D) if k > 0 else lin
        for _ in range(abs(k)):
            out = oracles.smul(out, step, gens, D)
    return out


def test_factors_series_matches_sympy_products():
    rng = random.Random(4242)
    seen_signs, seen_mults = set(), set()
    for case in range(20):
        nvars = 1 + case % 4
        names = tuple("x%d" % i for i in range(nvars))
        gens = sympy.symbols(" ".join(names) + ",")
        D = rng.randrange(4, 7)
        fs = rand_factors(rng, names, D, rng.randrange(2, 6))
        seen_signs |= {c for c, _ in fs.mult}
        seen_mults |= {k > 0 for k in fs.mult.values()}
        want = oracles.series_to_dict(sym_product(fs, gens, D), gens)
        assert fs.series().terms == want, case
    assert seen_signs == {1, -1} and seen_mults == {True, False}


def test_factors_operations_match_series_operations():
    rng = random.Random(31)
    for _ in range(12):
        a = rand_factors(rng, V4, 6, 3)
        b = rand_factors(rng, V4, 6, 3)
        sa, sb = a.series(), b.series()
        assert combined(V4, 6, (a, 1), (b, 1)).series() == sa * sb
        # quotients and powers checked by Series products alone, which
        # share no pass with Factors: a unit-constant series has one
        # truncated inverse
        assert combined(V4, 6, (a, 1), (b, -1)).series() * sb == sa
        for k in (-2, -1, 0, 2, 3):
            got = combined(V4, 6, (a, k)).series()
            want = Series(V4, 6, {(0,) * 4: 1})
            for _ in range(abs(k)):
                if k < 0:
                    got = got * sa
                else:
                    want = want * sa
            assert got == want
        # absorbing changes only the product absorbed into
        assert (a.series(), b.series()) == (sa, sb)


def test_factors_truncation_and_rejections():
    # factors above the cutoff are dropped when built
    assert Factors(("q",), 3, {term(1, (4,)): 5}).mult == {}
    assert Factors(("q",), 3, {term(1, (4,)): 5}).series().terms == {(0,): 1}
    with pytest.raises(ValueError):
        Factors(V4, 4, {term(1, (0, 0, 0, 0)): 1})
    with pytest.raises(ValueError):
        Factors(V4, 4, {term(-1, (1, -1, 0, 0)): 2})
    with pytest.raises(ValueError):
        Factors(V4, 4, {term(1, (1, 0, 0)): 1})
    # x^-1 q leaves the exponent -1 on qa at degree 2
    with pytest.raises(ValueError):
        Factors(V4, 4).walk("M", term_pow(term(1, (0, 2, 0, 0)), -1))
    with pytest.raises(ValueError, match="cutoff must be >= 0"):
        Factors(V4, -1)


def test_factors_reject_non_integer_input():
    # int() used to truncate these silently: 1.5 read as 1
    with pytest.raises(TypeError, match="exponent must be an int"):
        Factors(("a",), 3, {(1, (1.5,)): 1})
    with pytest.raises(TypeError, match="coefficient must be an int"):
        Factors(("a",), 3, {(1.5, (1,)): 1})
    with pytest.raises(TypeError, match="multiplicity must be an int"):
        Factors(("a",), 3, {(1, (1,)): 1.5})
    with pytest.raises(TypeError, match="multiplicity must be an int"):
        Factors(("a",), 3, {(1, (1,)): True})


@pytest.mark.parametrize("factor,k,error", [
    ((0, (1,)), 1.5, TypeError), ((0, (1,)), True, TypeError),
    ((0, (0,)), 1, ValueError), ((1, (0,)), 0, ValueError),
], ids=["float-mult", "bool-mult", "zero-coef-degree-0", "zero-mult-degree-0"])
def test_factors_check_a_factor_that_adds_nothing(factor, k, error):
    # the multiplicity and the degree are checked before a factor with
    # coefficient 0 or multiplicity 0 is dropped
    with pytest.raises(error):
        Factors(("q",), 3, {factor: k})


def test_term_rejects_non_integer_input():
    # int() used to truncate these silently: term(1.5, (1.7,)) was (1, (1,))
    with pytest.raises(TypeError, match="coefficient must be an int"):
        term(1.5, (1,))
    with pytest.raises(TypeError, match="exponent must be an int"):
        term(1, (1.7,))
    with pytest.raises(TypeError, match="exponent must be an int"):
        term(1, (0, True))
    assert term(-2, [0, 3]) == (-2, (0, 3))


@pytest.mark.parametrize("exp,coef,what", [
    (1.5, 2, "exponent"), (1, 2.5, "coefficient"), (1.0, 2, "exponent"),
    (1, 2.0, "coefficient"), (True, 2, "exponent"),
], ids=["float-exp", "float-coef", "integral-float-exp", "integral-float-coef",
        "bool-exp"])
def test_series_rejects_non_integer_terms(exp, coef, what):
    # these used to be stored and printed as "exp":[1.5],"coef":"2.5"
    with pytest.raises(TypeError, match="%s must be an int" % what):
        Series(("q0", "qa"), 3, {(0, exp): coef})


@pytest.mark.parametrize("k", [1.5, 2.0, True], ids=["float", "integral-float",
                                                    "bool"])
def test_scale_and_power_reject_non_int(k):
    # series * 1.5 failed reading the float's names, and ** True ran as
    # power 1; a Series multiplies only a Series
    s = Series(("x",), 3, {(1,): 2})
    for other in (k, 3, 0):
        with pytest.raises(TypeError, match="combine Series with Series only"):
            s * other
    with pytest.raises(TypeError, match="power must be an int"):
        s ** k


@pytest.mark.parametrize("build", [Series, Factors], ids=["series", "factors"])
@pytest.mark.parametrize("cutoff", [2.0, 2.7, True, "2"])
def test_constructors_reject_non_int_cutoff(build, cutoff):
    with pytest.raises(TypeError, match="cutoff must be an int"):
        build(("a",), cutoff)


def rand_multiset(rng, names, cutoff):
    """3-9 factors (1 - c x^e)^(-k), c in {+-1, +-2, +-3}, k in [-5, 5]."""
    mult = {}
    for _ in range(rng.randrange(3, 10)):
        while True:
            e = tuple(rng.choice([0, 0, 1, 1, 2, 3]) for _ in names)
            if 0 < sum(e) <= cutoff:
                break
        key = (rng.choice([1, -1, 2, -2, 3, -3]), e)
        mult[key] = mult.get(key, 0) + rng.randrange(-5, 6)
    return Factors(names, cutoff, mult)


def rand_master(rng, names, cutoff):
    """A Series of 1-4 terms with exponents in {0, 1} and 1-3 with
    exponents in 0..2 and coefficients in -4..4."""
    out = {tuple(rng.randrange(0, 2) for _ in names): rng.randrange(1, 4)
           for _ in range(rng.randrange(1, 5))}
    for _ in range(rng.randrange(1, 4)):
        e = tuple(rng.randrange(0, 3) for _ in names)
        out[e] = out.get(e, 0) + rng.randrange(-4, 5)
    return Series(names, cutoff, out)


def test_factors_times_matches_euler_oracle():
    rng = random.Random(1717)
    for case in range(24):
        nvars = 1 + case % 4
        names = tuple("x%d" % i for i in range(nvars))
        D = (20, 18, 14, 12)[nvars - 1] - case % 3
        fs = rand_multiset(rng, names, D)
        want = oracles.factors_series_euler(fs)
        assert fs.series() == want, case
        master = rand_master(rng, names, D)
        prod = oracles.dict_mul(master.terms, want.terms, D)
        assert fs.times(master).terms == prod, case


def test_factors_order_does_not_change_the_product():
    # times runs the factors highest degree first, ties in insertion
    # order; any insertion order must give the same series
    rng = random.Random(1919)
    for case in range(6):
        names = tuple("x%d" % i for i in range(1 + case % 3))
        D = 12
        items = list(rand_multiset(rng, names, D).mult.items())
        master = rand_master(rng, names, D)
        shuffled = items[:]
        rng.shuffle(shuffled)
        orders = [sorted(items, key=lambda f: sum(f[0][1])),
                  sorted(items, key=lambda f: -sum(f[0][1])), shuffled]
        got = [Factors(names, D, dict(order)) for order in orders]
        series = [f.series() for f in got]
        assert series[0] == series[1] == series[2], case
        prods = [f.times(master) for f in got]
        assert prods[0] == prods[1] == prods[2], case


def test_factors_times_round_trip():
    # F ** -1 swaps every multiplication pass with the division pass by
    # the same polynomial, so it undoes F exactly
    rng = random.Random(2323)
    for case in range(12):
        nvars = 1 + case % 4
        names = tuple("x%d" % i for i in range(nvars))
        D = (18, 14, 12, 10)[nvars - 1]
        F = rand_multiset(rng, names, D)
        master = rand_master(rng, names, D)
        back = combined(names, D, (F, -1)).times(F.times(master))
        assert back == master, case


@pytest.mark.parametrize("build", [
    lambda x: Factors((), 3).walk("Mt0", x, l=1),
    lambda x: Factors((), 3).walk("M", x),
    lambda x: Factors((), 3).walk("Mt", x),
    lambda x: Factors((), 3).walk("Mh", x),
    lambda x: Factors((), 3).walk("Mt1", x, l=1),
    lambda x: Factors((), 3).walk("Mh0", x, l=1),
    lambda x: Factors((), 3).walk("Mh1", x, l=1),
])
# entries over no names: coefficient 1, -1, 0, and 2, which Mt0 and Mt1
# cannot invert; the ids qi name the case of q = 1 each one walks over
@pytest.mark.parametrize("x", [term(1, ()), term(-1, ()), term(0, ()),
                               term(2, ())], ids=["q0", "q1", "q2", "q3"])
def test_factor_walks_need_q_of_positive_degree(monkeypatch, build, x):
    # q is the product of the names, so over no names it is 1, and a walk
    # over q^n would never pass the cutoff: it raises before any walk,
    # whatever the entry
    def refuse(*args):
        raise AssertionError("walk started")

    monkeypatch.setattr(qseries, "_walk", refuse)
    with pytest.raises(ValueError, match="no variables"):
        build(x)


def _recorded_tables(monkeypatch):
    # the (base, width, table) of every _digits read, through the cache
    reads = []
    digits = qseries._digits

    def record(base, width):
        table = digits(base, width)
        reads.append((base, width, table))
        return table

    monkeypatch.setattr(qseries, "_digits", record)
    return reads


def test_decoded_inverts_pack(monkeypatch):
    # random graded parts at every variable count and cutoff, empty parts
    # and zero coefficients included, against one divmod per digit; the
    # tables each decode reads show its path: a complete high table, or
    # high halves unpacked one by one (many variables, few entries)
    reads = _recorded_tables(monkeypatch)
    rng = random.Random(40)
    narrow, paths = False, set()
    for nvars in range(13):
        for cutoff in range(41):
            base = cutoff + 1
            parts = [{} for _ in range(base)]
            for _ in range(rng.choice([0, 1, 2, 5, 30, 150])):
                e = [0] * nvars
                for _ in range(rng.randrange(base) if nvars else 0):
                    e[rng.randrange(nvars)] += 1
                parts[sum(e)][_pack(e, base)] = rng.randrange(-2, 3)
            del reads[:]
            got = _decoded(parts, base, nvars)
            assert got == oracles.decoded_digits(parts, base, nvars)
            h = reads[0][1]
            assert [w for _, w, _ in reads] in ([h], [h, nvars - h])
            narrow |= h < nvars // 2
            paths.add(("table" if len(reads) == 2 else "unpacked",
                       nvars >= 8))
    assert narrow and {("table", False), ("unpacked", True)} <= paths


def test_digit_tables_are_cached_bounded_and_frozen(monkeypatch):
    # two products at one cutoff over as many names read the tables the
    # first built; each table is a tuple of digit tuples no longer than
    # the size rule allows, and the cache keeps a constant number of them
    digits = qseries._digits
    digits.cache_clear()
    reads = _recorded_tables(monkeypatch)
    for nvars, cutoff in [(4, 15), (5, 12), (8, 8)]:
        names = V4 + tuple("x%d" % i for i in range(nvars - 4))
        ones = term(1, (0,) * nvars)
        del reads[:]
        entries = len(Factors(names, cutoff).walk("M", ones).series().terms)
        built = digits.cache_info().misses
        first = reads[:]
        assert Factors(names, cutoff).walk("Mt", ones).series().terms
        assert digits.cache_info().misses == built
        for base, width, table in first:
            assert base == cutoff + 1
            assert type(table) is tuple and len(table) == base ** width
            assert all(type(t) is tuple and len(t) == width for t in table)
            assert len(table) <= 2 * entries
        assert len(first[0][2]) <= entries
    assert digits.cache_info().maxsize == qseries._DIGIT_TABLES
    assert type(qseries._DIGIT_TABLES) is int


def test_coefficient_checks_its_exponents():
    # a wrong arity or a negative exponent used to read as 0, and a float
    # exponent as the int it equals
    s = Series(V4, 4, {(1, 0, 0, 0): 3})
    assert s.coefficient((1, 0, 0, 0)) == 3 and s.coefficient([0] * 4) == 0
    with pytest.raises(ValueError, match="arity"):
        s.coefficient((1, 0))
    with pytest.raises(ValueError, match="negative"):
        s.coefficient((-1, 0, 0, 0))
    with pytest.raises(TypeError, match="exponent must be an int"):
        s.coefficient((1.0, 0, 0, 0))
    with pytest.raises(TypeError, match="sequence of ints, not 5"):
        s.coefficient(5)


@pytest.mark.parametrize("build", [
    lambda e: Series(("a",), 3, {e: 1}),
    lambda e: Factors(("a",), 3).walk("M", (1, e)),
    lambda e: Factors(("a",), 3, {(1, e): 1}),
    lambda e: skew_schur_specialized((1,), (), [(1, e)], 3, ("a",)),
], ids=["series", "walk", "factors", "skew_schur"])
@pytest.mark.parametrize("exps", [5, None])
def test_exponents_without_a_length_are_named(build, exps):
    # len() of an int used to raise a bare "object of type 'int' has no
    # len()"
    with pytest.raises(TypeError,
                       match="exponents must be a sequence of ints, not %r"
                       % exps):
        build(exps)


def test_term_exponents_may_be_lists():
    # walk and skew_schur_specialized read a Term's exponents as given
    assert (Factors(("a",), 3).walk("M", (1, [0])).mult
            == Factors(("a",), 3).walk("M", (1, (0,))).mult)
    assert (skew_schur_specialized((1,), (), [(1, [1])], 3, ("a",))
            == Series(("a",), 3, {(1,): 1}))


def test_factors_times_edge_cases():
    names = ("a", "b")
    f = Factors(names, 4, {term(1, (1, 0)): 2, term(-1, (0, 1)): -1})
    s = f.series()
    # a master's zero coefficients are dropped
    got = f.times(Series(names, 4, {(1, 0): 2, (0, 1): 0}))
    assert got.terms == oracles.dict_mul(s.terms, {(1, 0): 2}, 4)
    # coefficients that cancel to 0 in the product are dropped, and the
    # master is left as it was
    inverse = oracles.dict_mul({(0, 0): 1, (1, 0): -2, (2, 0): 1},
                               {(0, j): (-1) ** j for j in range(5)}, 4)
    master = Series(names, 4, inverse)
    assert f.times(master).terms == {(0, 0): 1}
    assert master.terms == inverse


def test_factors_times_checks_term_types():
    # a float coefficient used to come back as float coefficients, and a
    # float exponent failed inside the packing with "list indices must be
    # integers": times takes no dict, and a Series checks each term
    names = ("a", "b")
    f = Factors(names, 3, {(1, (1, 0)): 1})
    for terms, what in [({(0, 0): 1.5}, "coefficient"),
                        ({(1.5, 0): 1}, "exponent"),
                        ({(True, 0): 1}, "exponent")]:
        with pytest.raises(TypeError, match="combine Series with Series only"):
            f.times(terms)
        with pytest.raises(TypeError, match="%s must be an int" % what):
            Series(names, 3, terms)


@pytest.mark.parametrize("names, cutoff", [
    (("a",), 4), (("b", "a"), 4), (("a", "b"), 3), (("a", "b"), 5)])
def test_factors_times_rejects_another_space(names, cutoff):
    # as Series * Series: the master must have the product's names and
    # cutoff; a higher cutoff would need the factors dropped above 4
    f = Factors(("a", "b"), 4, {(1, (1, 0)): 1})
    with pytest.raises(ValueError, match="incompatible series"):
        f.times(Series(names, cutoff, {(0,) * len(names): 1}))


@pytest.mark.parametrize("build, factor", [
    # x^-1 q with x = qa^2: the first factor carries qa^-1
    (lambda: Factors(V4, 4).walk("M", term_pow(term(1, (0, 2, 0, 0)), -1)),
     (1, -1, 1, 1)),
    # a = qa^-1 qb qc has degree 1 but a negative exponent at n = 0
    (lambda: poch_walk(term(1, (0, -1, 1, 1)), V4, 4),
     (0, -1, 1, 1)),
])
def test_factor_walk_rejects_negative_exponent_factor(build, factor):
    # the walk adds its factors without Factors._add, so its own test per
    # factor must keep the error a checked factor raises
    with pytest.raises(ValueError, match=re.escape(
            "negative exponent %r; combine Laurent factors first" % (factor,))):
        build()
    with pytest.raises(ValueError, match=re.escape(
            "negative exponent %r; combine Laurent factors first" % (factor,))):
        Factors(V4, 8, {(1, factor): 1})


# (x, error, message): the error that Factors.walk's entry check of x
# raises, the one the walk of its first entry, a = x q^0, raised on
# checking that a; the last x, of coefficient 2, cannot be inverted
FAMILY_ENTRY_ERRORS = [
    (term(1, (0, 1, 0)), ValueError,
     "arity mismatch: (0, 1, 0) with vars %r" % (V4,)),
    ((1, (0, 0.5, 0, 0)), TypeError, "exponent must be an int, not 0.5"),
    ((1.5, (0, 1, 0, 0)), TypeError, "coefficient must be an int, not 1.5"),
    (term(2, (0, 1, 0, 0)), ValueError, "cannot invert coefficient 2"),
]


def test_factor_walks_check_their_arguments_once():
    # an x of another arity used to be cut short by zip in term_mul
    with pytest.raises(ValueError, match="arity mismatch"):
        Factors(V4, 4).walk("M", term(1, (0, 0, 0)))
    with pytest.raises(TypeError, match="exponent must be an int"):
        Factors(V4, 4).walk("M", (1, (0, 0.5, 0, 0)))
    # walk checks x on entry, not each a = (+-x)^i q^j, so a walk that
    # raises adds no factor: Mt0 at x of coefficient 2 used to walk its
    # first two entries before the third could not invert x
    for x, error, message in FAMILY_ENTRY_ERRORS:
        for name, l in (("Mt", None), ("Mh", None), ("Mt0", 1), ("Mh0", 1)):
            out = Factors(V4, 6)
            with pytest.raises(error, match=re.escape(message)):
                out.walk(name, x, l=l)
            assert out.mult == {}, (name, x)
    # a factor that _walk rejects after earlier entries were walked used
    # to leave those entries in the product
    for names, name, x, l, power, message in [
            (("a",), "Mt", (1, (2,)), None, 1, "factor of degree -1 at n=1"),
            (("a",), "Mh", (1, (1,)), None, 1, "factor of degree 0 at n=1"),
            (("a", "b"), "Mt0", (1, (2, -2)), 1, -3, "negative exponent")]:
        before = {(1, (1,) * len(names)): 1}
        out = Factors(names, 6, before)
        with pytest.raises(ValueError, match=re.escape(message)):
            out.walk(name, x, l, power)
        assert out.mult == before, (name, x)


def test_family_walk_rejects_what_the_derived_a_hid():
    # x^1 turned a True coefficient or exponent into the int 1, and zip
    # cut an x longer than q down to q's arity
    with pytest.raises(TypeError, match="coefficient must be an int, not True"):
        Factors(V4, 4).walk("Mt", (True, (0, 1, 0, 0)))
    with pytest.raises(TypeError, match="exponent must be an int, not True"):
        Factors(V4, 4).walk("Mh", (1, (0, True, 0, 0)))
    with pytest.raises(ValueError, match="arity mismatch"):
        Factors(V4, 4).walk("Mt", term(1, (0, 1, 0, 0, 0)))
