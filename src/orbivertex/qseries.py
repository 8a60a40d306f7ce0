"""Exact multivariate power series truncated by total degree.

Coefficients are Python ints, exponents are non-negative; one checker,
_check_exps, rejects a negative exponent wherever a term enters.  Only a
family's x in Factors.walk, a plain Term tuple, may have negative ones.

Every truncated product is one kernel, _pass, over packed graded parts:
it adds the steps S from _steps times a source into the parts, in place
or from other parts (Series * Series, the skew Schur determinant of
dt_vertex).  Closed formulas are products of binomial factors
(1 - t)^(-k), kept as exponent multisets (Factors), combined by adding
multiplicities, and multiplied into a Series over the same names and
cutoff (the constant 1 for a plain product) once, one pass per factor:
the factor is the finite polynomial (1 - t)^|k| or its inverse, so the
pass multiplies top down or divides bottom up.  Series.invert is the
same division, by the series itself.  Factors.walk, the one entry to the
factor walk, multiplies a named family over q, the product of all the
names, to a power into the multiset it is called on; a family is given
by its x alone.
"""

from __future__ import annotations

import json
from functools import lru_cache
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


# ---------------------------------------------------------------------------
# Series
# ---------------------------------------------------------------------------


class Series:
    """Truncated exact power series: dict of exponent tuple -> int.

    Terms from outside (the constructor, map_vars and the functions that
    count configurations) enter through _add, which checks coefficients
    with _check_int and exponent tuples with _check_exps (types, arity,
    negativity), whatever the coefficient.  Arithmetic on series already
    checked (products, powers and the inverse; there are no sums or
    multiples) writes its dicts directly.  A result leaves as to_json's
    record; nothing reads a Series back in.
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
            _check_exps(exps, names)
            if coef and sum(exps) <= cutoff:
                new = terms.get(exps, 0) + coef
                if new:
                    terms[exps] = new
                else:
                    terms.pop(exps, None)

    # -- basics -------------------------------------------------------------

    def coefficient(self, exps):
        """The coefficient of x^exps, 0 if absent; exps is checked as a
        term's exponents are, so a wrong arity, a negative exponent or one
        that is not an int raises rather than reading as 0."""
        _check_exps(exps, self.names)
        return self.terms.get(tuple(exps), 0)

    def __eq__(self, other):
        return (isinstance(other, Series) and self.names == other.names
                and self.cutoff == other.cutoff and self.terms == other.terms)

    def __hash__(self):
        raise TypeError("Series is mutable, do not hash")

    def __repr__(self):
        items = sorted(self.terms.items())[:6]
        body = ", ".join("%r: %d" % (e, c) for e, c in items)
        more = ("" if len(self.terms) <= 6
                else ", ... (%d terms)" % len(self.terms))
        return "Series(%s, D=%d, {%s%s})" % (",".join(self.names),
                                            self.cutoff, body, more)

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other):
        _check_like(self, other)
        base = self.cutoff + 1
        a, b = (_graded_parts(s.terms.items(), base, self.cutoff)
                for s in sorted((self, other), key=lambda s: len(s.terms)))
        parts = [{} for _ in range(base)]
        _pass(parts, _steps(a, 1), self.cutoff, False, b)  # a: the smaller
        return self._like(_decoded(parts, base, len(self.names)))

    def __pow__(self, k):
        if _check_int(k, "power") < 0:
            return self.invert() ** (-k)
        out = self._like({(0,) * len(self.names): 1})
        for _ in range(k):
            out = out * self
        return out

    def invert(self):
        """Multiplicative inverse; the constant term must be +1 or -1.

        With f = c0 + g, g the terms of degree >= 1, and 1/c0 = c0,
        1/f = c0 / (1 + c0 g): the constant c0 divided by a polynomial
        with constant term 1, by _pass bottom up with the steps -c0 g.
        """
        base = self.cutoff + 1
        g = _graded_parts(self.terms.items(), base, self.cutoff)
        c0 = g[0].pop(0, 0)
        if c0 not in (1, -1):
            raise ValueError("series not invertible over the integers "
                             "(constant term %d)" % c0)
        parts = [{0: c0}] + [{} for _ in range(self.cutoff)]
        _pass(parts, _steps(g, -c0), self.cutoff, True)
        return self._like(_decoded(parts, base, len(self.names)))

    def map_vars(self, new_names, assignment):
        """Reinterpret each old variable as one new variable.

        assignment[i] = index of the new variable that old variable i
        becomes.  Distinct old variables may map to the same new one.  It
        is checked first: one entry per old variable, each an int index
        into new_names; True would be read as 1, and a negative index
        would silently wrap to the end.
        """
        if len(assignment) != len(self.names):
            raise ValueError("assignment arity mismatch")
        for a in assignment:
            if not 0 <= _check_int(a, "assignment index") < len(new_names):
                raise ValueError("assignment index %r outside range(%d)"
                                 % (a, len(new_names)))
        out = Series(new_names, self.cutoff)
        for e, c in self.terms.items():
            ne = [0] * len(new_names)
            for i, x in zip(assignment, e):
                ne[i] += x
            out._add([(tuple(ne), c)])
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
# Inside every product an exponent tuple is packed into one int,
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
    """The one check of an exponent tuple from outside: a sequence of one
    int per name (TypeError otherwise), none negative unless laurent."""
    try:
        arity = len(exps)
    except TypeError:
        raise TypeError("exponents must be a sequence of ints, not %r"
                        % (exps,)) from None
    if arity != len(names):
        raise ValueError("arity mismatch: %r with vars %r" % (exps, names))
    for x in exps:
        if type(x) is not int:
            _check_int(x, "exponent")
        if x < 0 and not laurent:
            raise ValueError("negative exponent %r; combine Laurent factors "
                             "first" % (exps,))


def _check_like(a, other):
    # other must be a Series over a's names at a's cutoff
    if not isinstance(other, Series):
        raise TypeError("combine Series with Series only")
    if a.names != other.names or a.cutoff != other.cutoff:
        raise ValueError("incompatible series: %r/%d vs %r/%d"
                         % (a.names, a.cutoff, other.names, other.cutoff))


def _check_cutoff(cutoff):
    if _check_int(cutoff, "cutoff") < 0:
        raise ValueError("cutoff must be >= 0")
    return cutoff


def _pack(exps, base):
    key = 0
    for x in reversed(exps):
        key = key * base + x
    return key


# The most digit tables that _digits keeps; each is no longer than twice
# the entries of the decode that first built it.
_DIGIT_TABLES = 32


@lru_cache(maxsize=_DIGIT_TABLES)
def _digits(base, width):
    """Every tuple of `width` little-endian digits below base, at the index
    it packs to; a tuple of tuples, so the callers that share it cannot
    change it."""
    # product runs its last digit fastest, so reversed it is little-endian
    return tuple(t[::-1] for t in product(range(base), repeat=width))


def _decoded(parts, base, nvars):
    """{exponent tuple: coefficient} of the nonzero entries of the packed
    parts, nvars digits each.  A key splits into its low h digits and its
    high nvars - h digits, each read from the _digits table of its width,
    built once per base and width.  h is nvars // 2, lowered until the low
    table is no longer than the entries: with many variables,
    base ** (nvars // 2) low halves would dwarf the series.  When the high
    table would be longer than twice the entries, the high halves are
    unpacked instead, each the first time it appears."""
    entries = sum(map(len, parts))
    h = nvars // 2
    while h and base ** h > entries:
        h -= 1
    split = base ** h
    lo = _digits(base, h)
    if base ** (nvars - h) <= 2 * entries:
        hi = _digits(base, nvars - h)
        return {lo[key % split] + hi[key // split]: v
                for part in parts for key, v in part.items() if v}
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


def _steps(parts, sign):
    """_pass's steps of sign times the graded parts, sorted by degree."""
    return [(d, key, sign * v) for d, part in enumerate(parts)
            for key, v in part.items() if v]


def _pass(parts, steps, cutoff, up, source=None):
    """Add S * source[j - d] to every parts[j] in place, for S the sum of
    the monomials coef * x^shift of degree d in steps, a list of
    (d, packed shift, coef) sorted by d.  Another source adds source * S,
    d >= 0, either way.  In place (the default), d >= 1: top down (up
    false), part j reads parts below it that this pass has not touched
    yet, so the parts are multiplied by 1 + S; bottom up, part j reads
    parts below it that already hold the result h, so h = parts + S h,
    that is h = parts / (1 - S).  With no steps no part is touched.
    """
    source = parts if source is None else source
    low = steps[0][0] if steps else cutoff + 1
    for j in range(low, cutoff + 1) if up else range(cutoff, low - 1, -1):
        part = parts[j]
        get = part.get
        for d, shift, coef in steps:
            if d > j:
                break
            for key, v in source[j - d].items():
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
    is added.  Factors are added in place, each once: _add one checked factor,
    walk a named family to a power; times() multiplies the product into a
    Series over the same names and cutoff once, one pass per factor, and
    series() is times() on the constant 1.  A negative cutoff raises, and a
    cutoff, coefficient, exponent, multiplicity or power that is not an int
    raises TypeError: _add checks each factor, walk its x, shift and power
    once, not what is derived from them.
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
        _check_int(k, "multiplicity")
        if sum(e) <= 0:
            raise ValueError("degree-0 factor term %r" % (t,))
        if c and k and sum(e) <= self.cutoff:
            self._bump((c, tuple(e)), k)

    def _bump(self, key, k):
        new = self.mult.get(key, 0) + k
        if new:
            self.mult[key] = new
        else:
            self.mult.pop(key, None)

    def walk(self, name, x, l=None, power=1):
        """Multiply the named MacMahon-type product over q, the product of
        self.names, to `power` into self; return self.

        Names: M, Mt, Mh, Mt0, Mt1, Mh0, Mh1 (MacMahon's M and the paper's
        M~, M^, M~0, M~1, M^0, M^1; see _TILDE and _HAT).  x is a Term over
        self.names, exponents possibly negative, checked once as a Series
        term is; each entry's a = (+-x)^i q^j is formed from it, and
        i < 0 needs a coefficient +-1.  With no names q = 1 and a walk
        would not end, so that raises.  Every argument is checked before
        the first entry is walked, and a walk that raises later, at a
        factor of degree <= 0 or with a negative exponent, restores the
        multiset it started from, so it leaves self as it was.  l is the
        integer shift of the four families that end in 0 or 1; M, Mt and
        Mh, which have none, raise if given one.  power, an int,
        multiplies each entry's multiplicity, so every factor is added
        once.
        """
        tilde, hat = _HAT.get(name, (name, 1))
        if tilde not in _TILDE:
            raise ValueError("unknown MacMahon family name %r" % name)
        if (l is None) != (tilde in ("M", "Mt")):
            raise ValueError("family %s %s shift l" % (
                name, "needs the" if l is None else "takes no"))
        l = 0 if l is None else _check_int(l, "shift l")
        power = hat * _check_int(power, "power")
        xc, xe = x
        _check_int(xc, "coefficient")
        _check_exps(xe, self.names, laurent=True)
        if not self.names:
            raise ValueError("no variables: q = 1, and the walk would not end")
        if xc not in (1, -1) and any(i < 0 for _, i, _, _ in _TILDE[tilde]):
            raise ValueError("cannot invert coefficient %d" % xc)
        saved = dict(self.mult)
        try:
            for s in ((1, -1) if name in _HAT else (1,)):
                for macmahon, i, (ja, jb), (ka, kb) in _TILDE[tilde]:
                    j = ja + jb * l
                    a = ((s * xc) ** abs(i), tuple(i * u + j for u in xe))
                    _walk(self, a, macmahon, power * (ka + kb * l))
        except BaseException:
            self.mult = saved
            raise
        return self

    def series(self):
        """The product as a Series at self.cutoff."""
        one = Series(self.names, self.cutoff, {(0,) * len(self.names): 1})
        return self.times(one)

    def times(self, master):
        """master times the product, as a Series over self.names at
        self.cutoff; master must be a Series over the same names and
        cutoff, checked as Series * Series checks its operands.  Its
        exponents are >= 0 and its degrees <= cutoff, so every exponent
        passed on is <= cutoff, and the packing base is cutoff + 1.

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
        _check_like(self, master)
        cutoff = self.cutoff
        base = cutoff + 1
        parts = _graded_parts(master.terms.items(), base, cutoff)
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
        return master._like(_decoded(parts, base, len(self.names)))


# ---------------------------------------------------------------------------
# q-Pochhammer, MacMahon and the six MacMahon-type families
# ---------------------------------------------------------------------------


def _walk(out, a, macmahon, k):
    """Add prod_{n>=1} (1 - a q^n)^(-k*n) (macmahon) or prod_{n>=0}
    (1 - a q^n)^k (q-Pochhammer) to the Factors out, q the product of
    out.names, of which there is at least one; return out.

    a is a Term over out.names, exponents possibly negative, and k an
    int, neither checked here (see Factors.walk).  Each factor a*q^n up
    to the cutoff is tested only for positive degree and non-negative
    exponents, then added to out.  q has coefficient 1, so every factor
    has a's coefficient, and each step adds 1 to every exponent and
    len(out.names) to the degree.
    """
    ones = (1,) * len(out.names)
    n = 1 if macmahon else 0
    c, e = a[0], tuple(x + n for x in a[1])
    d = sum(e)
    while c and d <= out.cutoff:
        if d <= 0:
            raise ValueError("factor of degree %d at n=%d" % (d, n))
        if min(e) < 0:
            _check_exps(e, out.names)       # raises the negative exponent
        out._bump((c, e), k * n if macmahon else -k)
        e = tuple(map(add, e, ones))
        d += len(ones)
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
