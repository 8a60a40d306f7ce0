import json
import random
import re

import pytest
import sympy

from orbivertex.qseries import (
    Factors, Series, _decoded, _pack, _walk, _walk_entry, family_factors,
    mul_terms, term, term_mul,
)

import oracles
from oracles import pochhammer_factors, term_neg, term_pow

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


def to_sym(s):
    expr = sympy.Integer(0)
    for e, c in s.terms.items():
        expr += c * sympy.prod(g ** x for g, x in zip(GENS, e))
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


def rand_laurent(rng, nvars, nterms):
    return {tuple(rng.randrange(-2, 3) for _ in range(nvars)): rng.randrange(-4, 5)
            for _ in range(nterms)}


def test_mul_terms_matches_sympy_on_laurent_dicts():
    # shift both operands by x^2 in every variable so sympy sees
    # polynomials; the product is then shifted by x^4, its cap by 4*nvars
    gens = GENS[:3]
    shift = 2
    rng = random.Random(31)
    for _ in range(25):
        a = rand_laurent(rng, 3, rng.randrange(0, 9))
        b = rand_laurent(rng, 3, rng.randrange(0, 9))
        cap = rng.randrange(-2, 6)

        def poly(d, k):
            return sum((c * sympy.prod(g ** (x + k) for g, x in zip(gens, e))
                        for e, c in d.items()), sympy.Integer(0))

        got = mul_terms(a, b, cap)
        assert all(c != 0 and sum(e) <= cap for e, c in got.items())
        want = oracles.smul(poly(a, shift), poly(b, shift), gens,
                            cap + 2 * shift * len(gens))
        assert sympy.expand(poly(got, 2 * shift) - want) == 0


def test_mul_terms_accumulates_cancels_and_caps():
    out = {(1, 0): 5, (1, 1): 3}
    got = mul_terms({(1, 0): 1}, {(0, 0): 2}, 3, out)
    assert got is out and out == {(1, 0): 7, (1, 1): 3}
    # an existing key cancelled to 0 is removed
    mul_terms({(1, 0): 3}, {(0, 1): -1}, 4, out)
    assert out == {(1, 0): 7}
    # (x + y) * (y - x): the xy terms cancel inside one product
    assert mul_terms({(1, 0): 1, (0, 1): 1}, {(0, 1): 1, (1, 0): -1}, 2) \
        == {(0, 2): 1, (2, 0): -1}
    assert mul_terms({(1, 0): 0}, {(0, 0): 1}, 3) == {}
    # a negative-degree operand leaves more room for its partner, but
    # the cap still applies to each product
    a = {(-2, 0): 1}
    b = {(3, 0): 1, (5, 0): 1, (1, 1): 2, (0, 0): 4}
    want = {(1, 0): 1, (-1, 1): 2, (-2, 0): 4}
    assert mul_terms(a, b, 2) == want
    assert mul_terms(b, a, 2) == want


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


def poch_walk(a, q, names, cutoff):
    """(a; q)_infinity by qseries' factor walk, the one family_factors
    runs for its Pochhammer entries."""
    return _walk(_walk_entry(names, cutoff, a, q), a, q, False, 1)


def test_pochhammer_frozen():
    # (q; q)_infinity in one variable, cutoff 2: 1 - q - q^2
    q = term(1, (1,))
    for build in (poch_walk, pochhammer_factors):
        got = build(q, q, ("q",), 2).series()
        assert got.terms == {(0,): 1, (1,): -1, (2,): -1}
    x = term(1, (0, 1, 1, 0))
    assert poch_walk(x, q_full(), V4, 8).mult \
        == pochhammer_factors(x, q_full(), V4, 8).mult


def test_macmahon_one_variable_frozen():
    # M(1, q) counts plane partitions: 1, 1, 3, 6
    one = term(1, (0,))
    q = term(1, (1,))
    got = family_factors("M", ("q",), 3, one, q).series()
    assert got.terms == {(0,): 1, (1,): 1, (2,): 3, (3,): 6}


def q_full():
    return term(1, (1, 1, 1, 1))


def test_macmahon_vs_sympy():
    q0, qa, qb, qc = GENS
    x = term(1, (0, 1, 0, 1))           # qa*qc
    got = to_sym(family_factors("M", V4, 6, x, q_full()).series())
    want = oracles.smac(qa * qc, q0 * qa * qb * qc, GENS, 6)
    assert sympy.expand(got - want) == 0


def sym_family(name, x, l, D):
    """(num, den) with the named family equal to num / den, from its
    written definition through the sympy oracles: M~(x) = M(x) M(1/x),
    M~0(x; l) = M(x q^l) / (M(x) (q/x; q)^l) and M~1(x; l) =
    M(q^l/x) / (M(1/x) (x; q)^l); each hat family is the product of its
    tilde family at x and -x, and M^ is inverted."""
    q = sympy.prod(GENS)

    def mul(a, b):
        return oracles.smul(a, b, GENS, D)

    def tilde(y):
        if name[2:] == "":
            return mul(oracles.smac(y, q, GENS, D),
                       oracles.smac(1 / y, q, GENS, D)), sympy.Integer(1)
        if name[2:] == "0":
            num, den, p = y * q ** l, y, q / y
        else:
            num, den, p = q ** l / y, 1 / y, y
        poch = oracles.spoch(p, q, GENS, D) ** l
        return (oracles.smac(num, q, GENS, D),
                mul(oracles.smac(den, q, GENS, D), poch))

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
                got = to_sym(family_factors(name, V4, D, x, q_full(), l=l).series())
                num, den = sym_family(name, sx, l, D)
                diff = oracles.smul(got, den, GENS, D) - oracles.strunc(num, GENS, D)
                assert sympy.expand(diff) == 0, (name, x, l)


def test_macmahon_sym_low_order():
    # M(x^-1, q) factor at n=1 produces the dual variables
    x = term(1, (0, 1, 0, 1))           # qa*qc; q/x = q0*qb
    s = family_factors("Mt", V4, 2, x, q_full()).series()
    assert s.coefficient((1, 0, 1, 0)) == 1
    assert s.coefficient((0, 0, 0, 0)) == 1
    assert sum(s.terms.values()) == 2   # nothing else through degree 2


def test_macmahon_shift_identity():
    # M(x, q) = M(x q^-1, q) * (x; q)_infinity
    x = term(1, (0, 1, 1, 0))           # qa*qb
    q = q_full()
    lhs = family_factors("M", V4, 6, x, q).series()
    rhs = (family_factors("M", V4, 6, term_mul(x, term_pow(q, -1)), q).series()
           * pochhammer_factors(x, q, V4, 6).series())
    assert lhs == rhs


def test_sym_ratio_identity():
    # Mt(x, q) / Mt(q x^-1, q) = (x; q)_inf / (q x^-1; q)_inf
    x = term(1, (0, 1, 1, 0))
    q = q_full()
    qix = term_mul(q, term_pow(x, -1))
    # Mt(x) / Mt(qix) = (x; q) / (qix; q), with the denominators
    # multiplied across
    lhs = (family_factors("Mt", V4, 6, x, q).series()
           * pochhammer_factors(qix, q, V4, 6).series())
    rhs = (pochhammer_factors(x, q, V4, 6).series()
           * family_factors("Mt", V4, 6, qix, q).series())
    assert lhs == rhs


def test_family_shift_link():
    # Mt1(q x^-1, q; l+1) = Mt0(x, q; l) * (x; q)_inf / (q x^-1; q)_inf
    x = term(1, (0, 1, 1, 0))
    q = q_full()
    qix = term_mul(q, term_pow(x, -1))
    for l in (0, 1, 2):
        # Mt1(qix, l + 1) = Mt0(x, l) (x; q) / (qix; q)
        lhs = (family_factors("Mt1", V4, 6, qix, q, l=l + 1).series()
               * pochhammer_factors(qix, q, V4, 6).series())
        rhs = (family_factors("Mt0", V4, 6, x, q, l=l).series()
               * pochhammer_factors(x, q, V4, 6).series())
        assert lhs == rhs, l


def test_family_hat_composition():
    x = term(1, (0, 1, 0, 0))
    q = q_full()
    mt = family_factors("Mt", V4, 6, x, q).series()
    mtn = family_factors("Mt", V4, 6, term_neg(x), q).series()
    mh = family_factors("Mh", V4, 6, x, q).series()
    assert (mh * mt * mtn).terms == {(0,) * 4: 1}


def test_family_name_rejections():
    x = term(1, (0, 1, 0, 0))
    q = q_full()
    for name in ("Mx", "M2", "M~0"):
        with pytest.raises(ValueError, match="unknown MacMahon family"):
            family_factors(name, V4, 4, x, q, l=1)
    with pytest.raises(ValueError, match="needs the shift l"):
        family_factors("Mt0", V4, 4, x, q)
    # a shift given to a family that has none was silently ignored
    for name in ("M", "Mt", "Mh"):
        for l in (0, 3):
            with pytest.raises(ValueError, match="family %s takes no shift l"
                               % name):
                family_factors(name, V4, 4, x, q, l=l)
    # l=True ran as the shift 1
    for l in (True, 1.0):
        with pytest.raises(TypeError, match="shift l must be an int"):
            family_factors("Mt0", V4, 4, x, q, l=l)


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
    f = Factors(("a", "b"), 3, {term(1, (1, 0)): 1})
    with pytest.raises(ValueError, match="outside range"):
        f.map_vars(("x", "y"), assignment)


@pytest.mark.parametrize("index", [True, 1.0], ids=["bool", "float"])
def test_map_vars_rejects_non_int_index(index):
    # True was read as index 1, and 1.0 failed inside the relabeling with
    # "list indices must be integers or slices, not float"
    s = Series(("a", "b"), 3, {(1, 0): 2, (0, 1): 5})
    f = Factors(("a", "b"), 3, {term(1, (1, 0)): 1})
    for x in (s, f):
        with pytest.raises(TypeError, match="assignment index must be an int, "
                           "not %r" % (index,)):
            x.map_vars(("z", "w"), (index, 0))


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
    out = Factors(names, cutoff)
    for _ in range(nfactors):
        t = rand_factor_term(rng, len(names))
        out._absorb(Factors(names, cutoff, {t: rng.choice([-2, -1, 1, 2, 3])}))
    return out


def combined(names, cutoff, *powers):
    # prod f ** k over the pairs (f, k), each absorbed into a new product
    out = Factors(names, cutoff)
    for f, k in powers:
        out._absorb(f, k)
    return out


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
        for new, assign in [(V4, (3, 0, 2, 1)), (("u", "v"), (0, 1, 1, 0)),
                            (("z",), (0, 0, 0, 0))]:
            assert a.map_vars(new, assign).series() == sa.map_vars(new, assign)
        # absorbing changes only the product absorbed into
        assert (a.series(), b.series()) == (sa, sb)
    # merged factors cancel: (1 - x)/(1 - y) with x, y mapped together is 1
    c = combined(("x", "y"), 4,
                 (Factors(("x", "y"), 4, {term(1, (1, 0)): 1}), 1),
                 (Factors(("x", "y"), 4, {term(1, (0, 1)): 1}), -1))
    assert c.map_vars(("z",), (0, 0)).mult == {}


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
        family_factors("M", V4, 4, term_pow(term(1, (0, 2, 0, 0)), -1), q_full())
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


def rand_master(rng, nvars, cutoff, negative):
    """1-4 terms with exponents in {0, 1} plus a rand_laurent dict; unless
    `negative`, each term of the latter with a negative exponent is
    zeroed or lifted above the cutoff, so it cannot count."""
    out = {tuple(rng.randrange(0, 2) for _ in range(nvars)): rng.randrange(1, 4)
           for _ in range(rng.randrange(1, 5))}
    for e, c in rand_laurent(rng, nvars, rng.randrange(1, 4)).items():
        if min(e) < 0 and not negative:
            if rng.random() < 0.5:
                c = 0
            else:
                e = e[:-1] + (e[-1] + cutoff + 2 * nvars + 3,)
        out[e] = out.get(e, 0) + c
    return out


def test_factors_times_matches_euler_oracle():
    rng = random.Random(1717)
    seen = set()
    for case in range(24):
        nvars = 1 + case % 4
        names = tuple("x%d" % i for i in range(nvars))
        D = (20, 18, 14, 12)[nvars - 1] - case % 3
        fs = rand_multiset(rng, names, D)
        want = oracles.factors_series_euler(fs)
        assert fs.series() == want, case
        master = rand_master(rng, nvars, D, negative=case % 2)
        cut = rng.randrange(D - 2, D + 1)
        prod = mul_terms(master, want.terms, cut)
        neg = {e: c for e, c in prod.items() if min(e) < 0}
        if neg:
            # the lowest-degree negative term survives with its
            # coefficient, and times names it
            t = min((sum(e), e) for e, c in master.items()
                    if c and sum(e) <= cut and min(e) < 0)[1]
            assert neg[t] == master[t]
            with pytest.raises(ValueError, match=re.escape(
                    "negative exponent %r;" % (t,))):
                fs.times(master, cut)
        else:
            assert fs.times(master, cut).terms == prod, case
        seen.add(bool(neg))
    assert seen == {True, False}


def test_factors_order_does_not_change_the_product():
    # times runs the factors highest degree first, ties in insertion
    # order; any insertion order must give the same series
    rng = random.Random(1919)
    for case in range(6):
        names = tuple("x%d" % i for i in range(1 + case % 3))
        D = 12
        items = list(rand_multiset(rng, names, D).mult.items())
        master = rand_master(rng, len(names), D, negative=False)
        shuffled = items[:]
        rng.shuffle(shuffled)
        orders = [sorted(items, key=lambda f: sum(f[0][1])),
                  sorted(items, key=lambda f: -sum(f[0][1])), shuffled]
        got = [Factors(names, D, dict(order)) for order in orders]
        series = [f.series() for f in got]
        assert series[0] == series[1] == series[2], case
        prods = [f.times(master, D) for f in got]
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
        master = rand_master(rng, nvars, D, negative=False)
        back = combined(names, D, (F, -1)).times(F.times(master, D).terms, D)
        assert back.terms == {e: c for e, c in master.items()
                              if c and sum(e) <= D}, case


@pytest.mark.parametrize("build", [
    lambda q: poch_walk(term(1, (1, 0)), q, ("a", "b"), 5),
    lambda q: family_factors("M", ("a", "b"), 5, term(1, (0, 0)), q),
    lambda q: family_factors("Mt", ("a", "b"), 5, term(1, (1, 0)), q),
])
@pytest.mark.parametrize("q", [term(1, (0, 0)), term(1, (1, -1)),
                               term(1, (-1, 0)), term(0, (0, 0))])
def test_factor_walks_need_q_of_positive_degree(build, q):
    # a walk over q^n with q of degree <= 0 would never pass the cutoff
    with pytest.raises(ValueError, match="q of degree"):
        build(q)


def test_decoded_inverts_pack():
    # every variable count, the low half list capped by the entries
    rng = random.Random(77)
    for nvars in range(13):
        base = 13
        want = {tuple(rng.randrange(base) for _ in range(nvars)):
                rng.randrange(1, 9) for _ in range(5)}
        parts = [{_pack(e, base): c for e, c in want.items()}, {0: 0}]
        assert _decoded(parts, base, nvars) == want, nvars


def test_factors_times_edge_cases():
    names = ("a", "b")
    f = Factors(names, 4, {term(1, (1, 0)): 2, term(-1, (0, 1)): -1})
    s = f.series()
    # zero coefficients are dropped, and so are the negative exponents
    # that only a zero coefficient or a degree above the cutoff carries
    got = f.times({(1, 0): 2, (0, 1): 0, (-1, 0): 0, (-1, 9): 4}, 4)
    assert got.terms == mul_terms(s.terms, {(1, 0): 2}, 4)
    # coefficients that cancel to 0 in the product are dropped
    inverse = mul_terms({(0, 0): 1, (1, 0): -2, (2, 0): 1},
                        {(0, j): (-1) ** j for j in range(5)}, 4)
    assert f.times(inverse, 4).terms == {(0, 0): 1}
    # a surviving negative exponent raises the Series error, naming it
    with pytest.raises(ValueError, match=r"negative exponent \(-1, 1\)"):
        f.times({(-1, 1): 1, (-1, 3): 1}, 4)
    # below cutoff - self.cutoff a dropped factor could reach the result
    with pytest.raises(ValueError, match="below cutoff 6 - factor cutoff 4"):
        f.times({(1, 0): 1}, 6)
    wide = Factors(names, 6, f.mult).series()
    assert f.times({(1, 1): 1}, 6).terms == mul_terms(wide.terms, {(1, 1): 1}, 6)
    with pytest.raises(ValueError, match="arity mismatch"):
        f.times({(1,): 1}, 4)


def test_factors_times_checks_term_types():
    # a float coefficient used to come back as float coefficients, and a
    # float exponent failed inside the packing with "list indices must be
    # integers"
    f = Factors(("a", "b"), 3, {(1, (1, 0)): 1})
    with pytest.raises(TypeError, match="coefficient must be an int"):
        f.times({(0, 0): 1.5}, 3)
    with pytest.raises(TypeError, match="exponent must be an int"):
        f.times({(1.5, 0): 1}, 3)
    with pytest.raises(TypeError, match="exponent must be an int"):
        f.times({(True, 0): 1}, 3)


@pytest.mark.parametrize("build, factor", [
    # x^-1 q with x = qa^2: the first factor carries qa^-1
    (lambda: family_factors("M", V4, 4, term_pow(term(1, (0, 2, 0, 0)), -1),
                            q_full()), (1, -1, 1, 1)),
    # a = qa^-1 qb qc has degree 1 but a negative exponent at n = 0
    (lambda: poch_walk(term(1, (0, -1, 1, 1)), q_full(), V4, 4),
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


# (x, q, error, message): the error that family_factors' entry check of
# x and q raises, the one the walk of its first entry, a = x q^0, raised
# on checking that a; the last x, of coefficient 2, cannot be inverted
FAMILY_ENTRY_ERRORS = [
    (term(1, (0, 1, 0)), q_full(), ValueError,
     "arity mismatch: (0, 1, 0) with vars %r" % (V4,)),
    (term(1, (0, 1, 0, 0)), term(1, (1, 1, 1, 1, 1)), ValueError,
     "arity mismatch: (1, 1, 1, 1, 1) with vars %r" % (V4,)),
    ((1, (0, 0.5, 0, 0)), q_full(), TypeError,
     "exponent must be an int, not 0.5"),
    ((1.5, (0, 1, 0, 0)), q_full(), TypeError,
     "coefficient must be an int, not 1.5"),
    (term(1, (0, 1, 0, 0)), (1.0, (1, 1, 1, 1)), TypeError,
     "coefficient must be an int, not 1.0"),
    (term(1, (0, 1, 0, 0)), (True, (1, 1, 1, 1)), TypeError,
     "coefficient must be an int, not True"),
    (term(1, (0, 1, 0, 0)), term(1, (1, -1, 0, 0)), ValueError,
     "q of degree 0; the walk needs q of positive degree"),
    (term(2, (0, 1, 0, 0)), q_full(), ValueError,
     "cannot invert coefficient 2"),
]


def test_factor_walks_check_their_arguments_once():
    # a and q of another arity used to be cut short by zip in term_mul
    with pytest.raises(ValueError, match="arity mismatch"):
        family_factors("M", V4, 4, term(1, (0, 0, 0)), q_full())
    with pytest.raises(ValueError, match="arity mismatch"):
        poch_walk(term(1, (1, 0, 0, 0)), term(1, (1, 1)), V4, 4)
    with pytest.raises(TypeError, match="exponent must be an int"):
        family_factors("M", V4, 4, (1, (0, 0.5, 0, 0)), q_full())
    with pytest.raises(TypeError, match="coefficient must be an int"):
        poch_walk((1, (1, 0, 0, 0)), (1.0, (1, 1, 1, 1)), V4, 4)
    # family_factors checks x and q on entry, not each a = (+-x)^i q^j
    for x, q, error, message in FAMILY_ENTRY_ERRORS:
        for name, l in (("Mt", None), ("Mh", None), ("Mt0", 0), ("Mh0", 0)):
            with pytest.raises(error, match=re.escape(message)):
                family_factors(name, V4, 4, x, q, l=l)


def test_family_factors_reject_what_the_derived_a_hid():
    # x^1 turned a True coefficient or exponent into the int 1, and zip
    # cut an x longer than q down to q's arity
    q = q_full()
    with pytest.raises(TypeError, match="coefficient must be an int, not True"):
        family_factors("Mt", V4, 4, (True, (0, 1, 0, 0)), q)
    with pytest.raises(TypeError, match="exponent must be an int, not True"):
        family_factors("Mh", V4, 4, (1, (0, True, 0, 0)), q)
    with pytest.raises(ValueError, match="arity mismatch"):
        family_factors("Mt", V4, 4, term(1, (0, 1, 0, 0, 0)), q)
