"""Exact multivariate power series truncated by total degree.

Coefficients are Python ints, exponents are non-negative.  Laurent-style
intermediate data (signed monomials with possibly negative exponents) is
carried by plain Term tuples and {exponents: coefficient} dicts, and must
be combined into something non-negative before it can enter a Series;
one checker, _check_exps, rejects a negative exponent there.  Every
truncated product of two such dicts, Series arithmetic included, goes
through the one kernel mul_terms.

Closed formulas are products of binomial factors (1 - t)^(-k).  They are
kept as exponent multisets (Factors), combined by adding multiplicities,
and multiplied into a Laurent dict (the constant 1 for a plain product)
once, by one pass per factor over packed graded parts: the factor is the
finite polynomial (1 - t)^|k| or its inverse, so the pass multiplies top
down or divides bottom up.  Series.invert is the same division, by the
series itself.  family_factors, the one walk entry for closed products,
builds each named family as Factors, and Factors._absorb combines them.
"""

from __future__ import annotations

import json
from itertools import product
from operator import add

# ---------------------------------------------------------------------------
# Terms: signed monomials (coef, exps), exponents may be negative
# ---------------------------------------------------------------------------


def term(coef, exps):
    """The Term (coef, exps); a coefficient or exponent that is not an int
    raises TypeError rather than being truncated."""
    return (_check_int(coef, "coefficient"),
            tuple(_check_int(e, "exponent") for e in exps))


def term_mul(*ts):
    coef = 1
    exps = None
    for c, e in ts:
        coef *= c
        exps = e if exps is None else tuple(a + b for a, b in zip(exps, e))
    return (coef, exps)


def mul_terms(a, b, cap, out=None):
    """Add every product of a term of a with a term of b whose total
    degree is at most cap into out (a new dict by default); return out.

    a, b and out are {exponent tuple: coefficient} dicts.  Exponents may
    be negative, so Laurent data goes through the same loop.  A key whose
    coefficient sums to 0 is removed.  The larger operand runs outside and
    the smaller one is sorted by degree, so each outer term stops at the
    first partner that would pass the cap.
    """
    if out is None:
        out = {}
    if len(a) < len(b):
        a, b = b, a
    inner = sorted(((sum(e), e, c) for e, c in b.items()),
                   key=lambda item: item[0])
    get, pop = out.get, out.pop
    for ea, ca in a.items():
        room = cap - sum(ea)
        for d, eb, cb in inner:
            if d > room:
                break
            key = tuple(map(add, ea, eb))
            v = get(key, 0) + ca * cb
            if v:
                out[key] = v
            else:
                pop(key, None)
    return out


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


class Series:
    """Truncated exact power series: dict of exponent tuple -> int.

    Terms from outside (the constructor, map_vars and the functions that
    count configurations) enter through _add, which checks coefficients
    with _check_int and exponent tuples with _check_exps (types, arity,
    negativity).  Arithmetic on series already checked (products, powers
    and the inverse; there are no sums or multiples) writes its dicts
    directly.  A result leaves as to_json's record; nothing reads a
    Series back in.
    """

    __slots__ = ("names", "cutoff", "terms")

    def __init__(self, names, cutoff, terms=None):
        self.names = tuple(names)
        self.cutoff = _check_cutoff(cutoff)
        self.terms = {}
        if terms:
            self._add(terms.items())

    def _like(self, terms):
        # a series over the same variables holding terms already checked
        s = Series(self.names, self.cutoff)
        s.terms = terms
        return s

    def _add(self, items):
        # add (exps, coef) pairs from outside, each checked
        names, cutoff, terms = self.names, self.cutoff, self.terms
        for exps, coef in items:
            if type(coef) is not int:
                _check_int(coef, "coefficient")
            if coef:
                _check_exps(exps, names)
                if sum(exps) <= cutoff:
                    new = terms.get(exps, 0) + coef
                    if new:
                        terms[exps] = new
                    else:
                        terms.pop(exps, None)

    # -- basics -------------------------------------------------------------

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other):
        return (isinstance(other, Series) and self.names == other.names
                and self.cutoff == other.cutoff and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("Series is mutable, do not hash")

    def __repr__(self):
        items = sorted(self.terms.items())[:6]
        body = ", ".join("%r: %d" % (e, c) for e, c in items)
        more = "" if len(self.terms) <= 6 else ", ... (%d terms)" % len(self.terms)
        return "Series(%s, D=%d, {%s%s})" % (",".join(self.names), self.cutoff, body, more)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Series):
            raise TypeError("combine Series with Series only")
        if self.names != other.names or self.cutoff != other.cutoff:
            raise ValueError("incompatible series: %r/%d vs %r/%d"
                             % (self.names, self.cutoff, other.names, other.cutoff))
        return self._like(mul_terms(self.terms, other.terms, self.cutoff))

    def __pow__(self, k):
        if _check_int(k, "power") < 0:
            return self.invert() ** (-k)
        out = self._like({(0,) * len(self.names): 1})
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def invert(self):
        """Multiplicative inverse; the constant term must be +1 or -1.

        With f = c0 + g, g the terms of degree >= 1, and 1/c0 = c0,
        1/f = c0 / (1 + c0 g): the constant c0 divided by a polynomial
        with constant term 1, by _pass bottom up with the steps -c0 g.
        """
        zero = (0,) * len(self.names)
        c0 = self.terms.get(zero, 0)
        if c0 not in (1, -1):
            raise ValueError("series not invertible over the integers "
                             "(constant term %d)" % c0)
        base = self.cutoff + 1
        parts = _graded_parts([(zero, c0)], base, self.cutoff)
        steps = sorted((sum(e), _pack(e, base), -c0 * c)
                       for e, c in self.terms.items() if e != zero)
        _pass(parts, steps, self.cutoff, True)
        return self._like(_decoded(parts, base, len(self.names)))

    def map_vars(self, new_names, assignment):
        """Reinterpret each old variable as one new variable.

        assignment[i] = index of the new variable that old variable i
        becomes.  Distinct old variables may map to the same new one.
        """
        relabel = _relabeling(self.names, new_names, assignment)
        out = Series(new_names, self.cutoff)
        out._add([(relabel(e), c) for e, c in self.terms.items()])
        return out

    # -- serialization ------------------------------------------------------

    def to_record(self):
        """{cutoff, vars, terms}: the JSON-ready record that to_json dumps,
        terms sorted by exponents, each coefficient a decimal string."""
        return {
            "cutoff": self.cutoff,
            "vars": list(self.names),
            "terms": [{"exp": list(e), "coef": str(c)}
                      for e, c in sorted(self.terms.items())],
        }

    def to_json(self):
        return json.dumps(self.to_record(), separators=(",", ":"))


# ---------------------------------------------------------------------------
# Packed graded parts
# ---------------------------------------------------------------------------
# Inside invert and Factors.times an exponent tuple is packed into one int,
# sum(e[i] * base**i) with base = cutoff + 1.  Every exponent of a term of
# total degree <= cutoff is below base, so adding packed ints adds the
# exponent tuples without carries.


def _check_int(x, what):
    """x if it is an int; a float, Fraction or bool would pass int()
    silently."""
    if type(x) is not int:
        raise TypeError("%s must be an int, not %r" % (what, x))
    return x


def _check_exps(exps, names, laurent=False):
    """The one check of an exponent tuple from outside: one int per name
    (TypeError otherwise), none negative unless laurent."""
    if len(exps) != len(names):
        raise ValueError("arity mismatch: %r with vars %r" % (exps, names))
    for x in exps:
        if type(x) is not int:
            _check_int(x, "exponent")
        if x < 0 and not laurent:
            raise ValueError("negative exponent %r; combine Laurent factors "
                             "first" % (exps,))


def _check_cutoff(cutoff):
    if _check_int(cutoff, "cutoff") < 0:
        raise ValueError("cutoff must be >= 0")
    return cutoff


def _relabeling(names, new_names, assignment):
    """The exponent map of map_vars, once its input is checked: one entry
    per old variable, each an int index into new_names; True would be read
    as 1, and a negative index would silently wrap to the end."""
    if len(assignment) != len(names):
        raise ValueError("assignment arity mismatch")
    for a in assignment:
        if not 0 <= _check_int(a, "assignment index") < len(new_names):
            raise ValueError("assignment index %r outside range(%d)"
                             % (a, len(new_names)))

    def relabel(e):
        ne = [0] * len(new_names)
        for i, x in zip(assignment, e):
            ne[i] += x
        return tuple(ne)
    return relabel


def _pack(exps, base):
    key = 0
    for x in reversed(exps):
        key = key * base + x
    return key


def _decoded(parts, base, nvars):
    """{exponent tuple: coefficient} of the nonzero entries of the packed
    parts, nvars digits each.  A key splits into its low h digits, read
    from a list over every low half, and the rest, read from a table that
    unpacks each high half the first time it appears.  h is nvars // 2,
    lowered until the list is no longer than the entries: with many
    variables, base ** (nvars // 2) low halves would dwarf the series."""
    entries = sum(map(len, parts))
    h = nvars // 2
    while h and base ** h > entries:
        h -= 1
    split = base ** h
    # product runs its last digit fastest, so reversed it is little-endian
    lo = [t[::-1] for t in product(range(base), repeat=h)]
    hi = {}
    out = {}
    for part in parts:
        for key, v in part.items():
            if v:
                a, b = divmod(key, split)
                high = hi.get(a)
                if high is None:
                    x, digits = a, []
                    for _ in range(nvars - h):
                        x, d = divmod(x, base)
                        digits.append(d)
                    high = hi[a] = tuple(digits)
                out[lo[b] + high] = v
    return out


def _graded_parts(items, base, cutoff):
    """Sum (exps, coef) pairs of degree <= cutoff into homogeneous parts:
    parts[d] = {packed exps: coef} over the terms of total degree d."""
    parts = [{} for _ in range(cutoff + 1)]
    for e, c in items:
        part = parts[sum(e)]
        key = _pack(e, base)
        part[key] = part.get(key, 0) + c
    return parts


def _pass(parts, steps, cutoff, up):
    """Add S * parts[j - d] to every parts[j] in place, for S the sum of
    the monomials coef * x^shift of degree d >= 1 in steps, a list of
    (d, packed shift, coef) sorted by d.

    Top down (up false), part j reads parts below it that this pass has
    not touched yet, so the parts are multiplied by 1 + S.  Bottom up,
    part j reads parts below it that already hold the result h, so
    h = parts + S h, that is h = parts / (1 - S).
    """
    if not steps:
        return
    low = steps[0][0]
    for j in range(low, cutoff + 1) if up else range(cutoff, low - 1, -1):
        part = parts[j]
        get = part.get
        for d, shift, coef in steps:
            if d > j:
                break
            for key, v in parts[j - d].items():
                key += shift
                part[key] = get(key, 0) + coef * v


# ---------------------------------------------------------------------------
# Products of binomial factors as exponent multisets
# ---------------------------------------------------------------------------


class Factors:
    """A product of factors (1 - t)^(-k), kept as the multiset {t: k}.

    Each t is a Term (c, e): a nonzero integer c and non-negative
    exponents e of positive total degree, so (1 - t)^(-k) is a power
    series with integer coefficients for every integer k.  A factor whose
    degree exceeds the cutoff is 1 after truncation and is dropped when it
    is added.  _absorb(other, k), the one way to combine products,
    multiplies in other ** k by adding k times its multiplicities (a
    quotient is k = -1), and map_vars relabels them; times() multiplies
    the product into a Laurent dict once, one pass per factor, and
    series() is times() on the constant 1.  A negative cutoff raises, and
    a cutoff, coefficient, exponent or multiplicity that is not an int
    raises TypeError: _add checks the constructor's mult, and _walk_entry
    a walk product's Terms once, not each a or factor derived from them.
    """

    __slots__ = ("names", "cutoff", "mult")

    def __init__(self, names, cutoff, mult=None):
        self.names = tuple(names)
        self.cutoff = _check_cutoff(cutoff)
        self.mult = {}
        if mult:
            for t, k in mult.items():
                self._add(t, k)

    def _add(self, t, k):
        # add the factor (1 - t)^(-k) from outside, checked
        c, e = t
        _check_int(c, "coefficient")
        _check_exps(e, self.names)
        if c and _check_int(k, "multiplicity"):
            if sum(e) <= 0:
                raise ValueError("degree-0 factor term %r" % (t,))
            if sum(e) <= self.cutoff:
                self._bump((c, tuple(e)), k)

    def _bump(self, key, k):
        new = self.mult.get(key, 0) + k
        if new:
            self.mult[key] = new
        else:
            self.mult.pop(key, None)

    def _absorb(self, other, k=1):
        # times other ** k in place, other over the same names and cutoff
        for t, m in other.mult.items():
            self._bump(t, m * k)
        return self

    def map_vars(self, new_names, assignment):
        """Relabel variables as Series.map_vars does; merged factors add
        their multiplicities.  Degrees are kept, so the cutoff still
        applies."""
        relabel = _relabeling(self.names, new_names, assignment)
        out = Factors(new_names, self.cutoff)
        for (c, e), k in self.mult.items():
            out._bump((c, relabel(e)), k)
        return out

    def series(self):
        """The product as a Series at self.cutoff."""
        return self.times({(0,) * len(self.names): 1}, self.cutoff)

    def times(self, terms, cutoff):
        """terms times the product, truncated at total degree `cutoff`, as
        a Series over self.names.

        terms is a {exponent tuple: coefficient} dict of ints, exponents
        possibly negative.  Only its nonzero terms of degree <= cutoff
        matter: a factor has positive degree, so a term above stays above.

        Negative exponents.  If such a term has a negative exponent, the
        product has one too, and the same ValueError as Series raises,
        naming the term t of lowest degree among them: a monomial of the
        product at t's degree comes from a term of degree <= t's times a
        factor monomial, with exponents >= 0; a term of lower degree has
        none negative, so only t times the constant 1 reaches t, and t
        survives with its coefficient.  Hence every exponent passed on is
        >= 0 and <= cutoff, and the packing base is cutoff + 1.

        Truncation.  A nonzero term of degree below cutoff - self.cutoff
        raises ValueError: a factor of degree above self.cutoff was
        dropped when it was added, and times such a term it could land at
        degree <= cutoff.  Times a term of degree >= cutoff - self.cutoff,
        every dropped factor lands above cutoff, so the result is exact.

        One pass per factor (1 - c x^e)^(-k), of degree d = |e|.  With
        m = |k|, the factor is P or 1/P for the polynomial
        P = (1 - c x^e)^m = sum_{r=0..m} binom(m, r) (-c)^r x^(r e), whose
        terms with r > cutoff // d lie above cutoff and are left out;
        binom(m, r) = binom(m, r - 1) (m - r + 1) / r, and r divides
        binom(m, r - 1) (m - r + 1) = r binom(m, r), so the floor division
        is exact.  For k < 0, _pass multiplies by P top down, with
        S = P - 1.  For k > 0 it divides by P bottom up, with S = 1 - P:
        the new part j is the old part j minus
        sum_{r>=1} P_r x^(r e) * new part[j - r d], and reads only lower
        parts, already divided.  The division is exact over the integers:
        P has constant term 1 and integer coefficients, so each new part
        is an integer combination of old parts and lower new parts, and
        new * P = old holds part by part up to cutoff, which makes new the
        truncation of old * (1 - c x^e)^(-m).  A k = 1 factor is one
        shifted add per part.

        Order.  The factors run in descending order of degree, ties in
        insertion order.  Every pass maps the parts up to cutoff of its
        operand to those of the true product or quotient, since P and 1/P
        have no terms of negative degree, and the product commutes, so the
        order changes only the cost: a factor of degree d reads only parts
        of degree <= cutoff - d, which are still sparse while the factors
        of high degree run.
        """
        _check_cutoff(cutoff)
        items = []
        for e, c in terms.items():
            _check_int(c, "coefficient")
            _check_exps(e, self.names, laurent=True)
            if c and sum(e) <= cutoff:
                items.append((e, c))
        neg = [(sum(e), e) for e, _ in items if e and min(e) < 0]
        if neg:
            raise ValueError("negative exponent %r; combine Laurent factors "
                             "first" % (min(neg)[1],))
        low = min((sum(e) for e, _ in items), default=cutoff)
        if low < cutoff - self.cutoff:
            raise ValueError("term of degree %d below cutoff %d - factor "
                             "cutoff %d" % (low, cutoff, self.cutoff))
        base = cutoff + 1
        parts = _graded_parts(items, base, cutoff)
        for (c, e), k in sorted(self.mult.items(),
                                key=lambda f: -sum(f[0][1])):
            d, m = sum(e), abs(k)
            shift = _pack(e, base)
            # the steps of S = P - 1 (k < 0) or S = 1 - P (k > 0)
            steps = []
            b, cr = 1, 1 if k < 0 else -1
            for r in range(1, min(m, cutoff // d) + 1):
                b = b * (m - r + 1) // r
                cr *= -c
                steps.append((r * d, r * shift, b * cr))
            _pass(parts, steps, cutoff, k > 0)
        out = Series(self.names, cutoff)
        out.terms = _decoded(parts, base, len(self.names))
        return out


# ---------------------------------------------------------------------------
# q-Pochhammer, MacMahon and the six MacMahon-type families
# ---------------------------------------------------------------------------


def _walk_entry(names, cutoff, a, q):
    """An empty Factors for walks over the Terms a and q, once both are
    checked as a Series term is, exponents possibly negative, a before q;
    q must have positive degree, or a walk would not end."""
    out = Factors(names, cutoff)
    for t in (a, q):
        _check_int(t[0], "coefficient")
        _check_exps(t[1], out.names, laurent=True)
    if sum(q[1]) <= 0:
        raise ValueError("q of degree %d; the walk needs q of positive "
                         "degree" % sum(q[1]))
    return out


def _walk(out, a, q, macmahon, k):
    """Add prod_{n>=1} (1 - a q^n)^(-k*n) (macmahon) or prod_{n>=0}
    (1 - a q^n)^k (q-Pochhammer) to the Factors out; return out.

    a and q are Terms over out.names, exponents possibly negative, and k
    an int, none checked here (see _walk_entry).  Each factor a*q^n up to
    the cutoff is tested only for positive degree and non-negative
    exponents, then added to out.  Its coefficient and exponents carry
    from one n to the next.
    """
    qc, qe = q
    qd = sum(qe)
    n = 1 if macmahon else 0
    c, e = term_mul(a, q) if macmahon else (a[0], tuple(a[1]))
    d = sum(e)
    while c and d <= out.cutoff:
        if d <= 0:
            raise ValueError("factor of degree %d at n=%d" % (d, n))
        if min(e) < 0:
            _check_exps(e, out.names)       # raises the negative exponent
        out._bump((c, e), k * n if macmahon else -k)
        c *= qc
        e = tuple(map(add, e, qe))
        d += qd
        n += 1
    return out


# Each tilde family is a product of entries (macmahon, power of x, power
# of q, multiplicity): M(x^i q^j)^k when macmahon, else (x^i q^j; q)^k.
# Powers and multiplicities are affine in the shift l, written (a, b)
# for a + b*l.
_TILDE = {
    # M(x) = prod_{n>=1} (1 - x q^n)^(-n); x may have degree 0
    "M": ((True, 1, (0, 0), (1, 0)),),
    # M~(x) = M(x) M(x^-1)
    "Mt": ((True, 1, (0, 0), (1, 0)), (True, -1, (0, 0), (1, 0))),
    # M~0(x; l) = M(x q^l) M(x)^-1 (q x^-1; q)^-l
    "Mt0": ((True, 1, (0, 1), (1, 0)), (True, 1, (0, 0), (-1, 0)),
            (False, -1, (1, 0), (0, -1))),
    # M~1(x; l) = M(x^-1 q^l) M(x^-1)^-1 (x; q)^-l
    "Mt1": ((True, -1, (0, 1), (1, 0)), (True, -1, (0, 0), (-1, 0)),
            (False, 1, (0, 0), (0, -1))),
}

# Each hat family is the product over +-x of a tilde family, to a power:
# M^(x) = (M~(x) M~(-x))^-1, M^0 and M^1 likewise from M~0 and M~1.
_HAT = {"Mh": ("Mt", -1), "Mh0": ("Mt0", 1), "Mh1": ("Mt1", 1)}


def family_factors(name, names, cutoff, x, q, l=None):
    """The named MacMahon-type product as Factors.

    Names: M, Mt, Mh, Mt0, Mt1, Mh0, Mh1 (MacMahon's M and the paper's
    M~, M^, M~0, M~1, M^0, M^1; see _TILDE and _HAT).  x and q are Terms,
    checked once on entry; each entry's a = (+-x)^i q^j is formed from
    them, and i or j < 0 needs a coefficient +-1.  l is the integer shift
    of the four families that end in 0 or 1; M, Mt and Mh, which have
    none, raise if given one.
    """
    tilde, power = _HAT.get(name, (name, 1))
    if tilde not in _TILDE:
        raise ValueError("unknown MacMahon family name %r" % name)
    if (l is None) != (tilde in ("M", "Mt")):
        raise ValueError("family %s %s shift l" % (
            name, "needs the" if l is None else "takes no"))
    l = 0 if l is None else _check_int(l, "shift l")
    out = _walk_entry(names, cutoff, x, q)
    (xc, xe), (qc, qe) = x, q
    for s in ((1, -1) if name in _HAT else (1,)):
        for macmahon, i, (ja, jb), (ka, kb) in _TILDE[tilde]:
            j = ja + jb * l
            for c, p in ((xc, i), (qc, j)):
                if p < 0 and c not in (1, -1):
                    raise ValueError("cannot invert coefficient %d" % c)
            a = ((s * xc) ** abs(i) * qc ** abs(j),
                 tuple(i * u + j * v for u, v in zip(xe, qe)))
            _walk(out, a, q, macmahon, power * (ka + kb * l))
    return out
