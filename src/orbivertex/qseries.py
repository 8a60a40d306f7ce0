"""Exact multivariate power series truncated by total degree.

Coefficients are Python ints, exponents are non-negative.  Laurent-style
intermediate data (signed monomials with possibly negative exponents) is
carried by plain Term tuples and {exponents: coefficient} dicts, and must
be combined into something non-negative before it can enter a Series;
building a series or a factor with a negative exponent raises.  Every
truncated product of such dicts, Series arithmetic included, goes
through the one kernel mul_terms.

Closed formulas are products of binomial factors (1 - t)^(-k).  They are
kept as exponent multisets (Factors), combined by adding multiplicities,
and expanded into a Series once, by the graded Euler recurrence.  The
MacMahon-style product factory used by every closed formula lives here.
"""

from __future__ import annotations

import json
from operator import add

# ---------------------------------------------------------------------------
# Terms: signed monomials (coef, exps), exponents may be negative
# ---------------------------------------------------------------------------


def term(coef, exps):
    return (int(coef), tuple(int(e) for e in exps))


def term_one(nvars):
    return (1, (0,) * nvars)


def term_var(nvars, idx, coef=1):
    e = [0] * nvars
    e[idx] = 1
    return (coef, tuple(e))


def term_mul(*ts):
    coef = 1
    exps = None
    for c, e in ts:
        coef *= c
        exps = e if exps is None else tuple(a + b for a, b in zip(exps, e))
    return (coef, exps)


def term_pow(t, k):
    c, e = t
    if k < 0 and c not in (1, -1):
        raise ValueError("cannot invert coefficient %d" % c)
    coef = c ** k if k >= 0 else c ** (-k)
    return (coef, tuple(x * k for x in e))


def term_neg(t):
    return (-t[0], t[1])


def term_deg(t):
    return sum(t[1])


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

    Terms from outside (the constructors, from_json, map_vars and the
    functions that count configurations) enter through _add, which checks
    arity and negativity.  Arithmetic on series already checked writes its
    dicts directly.
    """

    __slots__ = ("names", "cutoff", "terms")

    def __init__(self, names, cutoff, terms=None):
        self.names = tuple(names)
        self.cutoff = int(cutoff)
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.terms = {}
        if terms:
            for e, c in terms.items():
                self._add(e, c)

    def _like(self, terms, cutoff=None):
        # a series over the same variables holding terms already checked
        s = Series(self.names, self.cutoff if cutoff is None else cutoff)
        s.terms = terms
        return s

    def _add(self, exps, coef):
        if coef == 0:
            return
        if len(exps) != len(self.names):
            raise ValueError("arity mismatch: %r with vars %r" % (exps, self.names))
        if any(x < 0 for x in exps):
            raise ValueError("negative exponent %r; combine Laurent factors first" % (exps,))
        if sum(exps) > self.cutoff:
            return
        new = self.terms.get(exps, 0) + coef
        if new:
            self.terms[exps] = new
        else:
            self.terms.pop(exps, None)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, names, cutoff):
        return cls(names, cutoff)

    @classmethod
    def one(cls, names, cutoff):
        s = cls(names, cutoff)
        s._add((0,) * len(s.names), 1)
        return s

    @classmethod
    def from_term(cls, names, cutoff, t):
        s = cls(names, cutoff)
        s._add(t[1], t[0])
        return s

    @classmethod
    def one_plus(cls, names, cutoff, t):
        """The factor 1 + t for a signed monomial t of positive degree."""
        if term_deg(t) == 0 and t[0] != 0:
            raise ValueError("degree-0 factor term %r" % (t,))
        s = cls.one(names, cutoff)
        s._add(t[1], t[0])
        return s

    # -- basics -------------------------------------------------------------

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def constant(self):
        return self.terms.get((0,) * len(self.names), 0)

    def is_one(self):
        return self.terms == {(0,) * len(self.names): 1}

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

    def _check_compat(self, other):
        if self.names != other.names or self.cutoff != other.cutoff:
            raise ValueError("incompatible series: %r/%d vs %r/%d"
                             % (self.names, self.cutoff, other.names, other.cutoff))

    def _plus(self, other, sign):
        # self + sign*other: other times the unit sign, added onto self
        if isinstance(other, int):
            other = Series.one(self.names, self.cutoff).scaled(other)
        self._check_compat(other)
        unit = {(0,) * len(self.names): sign}
        return self._like(mul_terms(other.terms, unit, self.cutoff,
                                    dict(self.terms)))

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def scaled(self, k):
        return self._like({e: c * k for e, c in self.terms.items()} if k else {})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        self._check_compat(other)
        return self._like(mul_terms(self.terms, other.terms, self.cutoff))

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("integer powers only")
        if k < 0:
            return self.invert() ** (-k)
        out = Series.one(self.names, self.cutoff)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def invert(self):
        """Multiplicative inverse; the constant term must be +1 or -1.

        Solved degree by degree: a*f = 1 gives c0*f_N = -sum_{j>=1}
        a_j*f_{N-j}, and 1/c0 = c0.
        """
        c0 = self.constant()
        if c0 not in (1, -1):
            raise ValueError("series not invertible over the integers "
                             "(constant term %d)" % c0)
        base = self.cutoff + 1
        parts = _graded_parts(self.terms.items(), base, self.cutoff)
        parts[0] = {}
        f = _graded_solve(parts, c0, self.cutoff,
                          lambda N, acc: {e: -c0 * v for e, v in acc.items() if v})
        return _series_from_parts(self.names, self.cutoff, base, f)

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.invert()
        raise TypeError("divide by Series only")

    def truncate(self, new_cutoff):
        if new_cutoff > self.cutoff:
            raise ValueError("cannot raise cutoff from %d to %d"
                             % (self.cutoff, new_cutoff))
        return self._like({e: c for e, c in self.terms.items()
                           if sum(e) <= new_cutoff}, new_cutoff)

    def map_vars(self, new_names, assignment):
        """Reinterpret each old variable as one new variable.

        assignment[i] = index of the new variable that old variable i
        becomes.  Distinct old variables may map to the same new one.
        """
        _check_assignment(self.names, new_names, assignment)
        out = Series(new_names, self.cutoff)
        for e, c in self.terms.items():
            ne = [0] * len(new_names)
            for i, x in enumerate(e):
                ne[assignment[i]] += x
            out._add(tuple(ne), c)
        return out

    # -- serialization ------------------------------------------------------

    def sorted_items(self):
        return sorted(self.terms.items())

    def to_json(self):
        return json.dumps({
            "cutoff": self.cutoff,
            "vars": list(self.names),
            "terms": [{"exp": list(e), "coef": str(c)}
                      for e, c in self.sorted_items()],
        }, separators=(",", ":"))

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        s = cls(tuple(data["vars"]), data["cutoff"])
        for item in data["terms"]:
            s._add(tuple(item["exp"]), int(item["coef"]))
        return s


# ---------------------------------------------------------------------------
# Graded recurrences
# ---------------------------------------------------------------------------
# Inside a recurrence an exponent tuple is packed into one int,
# sum(e[i] * base**i) with base = cutoff + 1.  Every exponent of a term of
# total degree <= cutoff is below base, so adding packed ints adds the
# exponent tuples without carries.


def _check_assignment(names, new_names, assignment):
    """map_vars input: one entry per old variable, each an index into
    new_names; a negative index would silently wrap to the end."""
    if len(assignment) != len(names):
        raise ValueError("assignment arity mismatch")
    for a in assignment:
        if not 0 <= a < len(new_names):
            raise ValueError("assignment index %r outside range(%d)"
                             % (a, len(new_names)))


def _pack(exps, base):
    key = 0
    for x in reversed(exps):
        key = key * base + x
    return key


def _unpack(key, base, nvars):
    out = []
    for _ in range(nvars):
        key, x = divmod(key, base)
        out.append(x)
    return tuple(out)


def _graded_parts(items, base, cutoff):
    """Sum (exps, coef) pairs of degree <= cutoff into homogeneous parts:
    parts[d] = {packed exps: coef} over the terms of total degree d."""
    parts = [{} for _ in range(cutoff + 1)]
    for e, c in items:
        part = parts[sum(e)]
        key = _pack(e, base)
        part[key] = part.get(key, 0) + c
    return parts


def _graded_solve(parts, f0, cutoff, finish):
    """Homogeneous parts f_0..f_cutoff of the series whose constant term
    is f0 and whose degree-N part is finish(N, sum_{j=1..N} parts[j] *
    f_{N-j}).  One pass costs about one product of parts with f."""
    f = [{0: f0}]
    for N in range(1, cutoff + 1):
        acc = {}
        get = acc.get
        for j in range(1, N + 1):
            pj, fk = parts[j], f[N - j]
            if pj and fk:
                for eg, cg in pj.items():
                    for ef, cf in fk.items():
                        key = eg + ef
                        acc[key] = get(key, 0) + cg * cf
        f.append(finish(N, acc))
    return f


def _series_from_parts(names, cutoff, base, parts):
    s = Series(names, cutoff)
    nv = len(names)
    s.terms = {_unpack(e, base, nv): c
               for part in parts for e, c in part.items()}
    return s


def _exact_quotients(N, acc):
    out = {}
    for e, v in acc.items():
        if v:
            c, r = divmod(v, N)
            if r:
                raise ArithmeticError("inexact division by %d in the graded "
                                      "Euler recurrence" % N)
            out[e] = c
    return out


# ---------------------------------------------------------------------------
# Products of binomial factors as exponent multisets
# ---------------------------------------------------------------------------


class Factors:
    """A product of factors (1 - t)^(-k), kept as the multiset {t: k}.

    Each t is a Term (c, e): a nonzero integer c and non-negative
    exponents e of positive total degree, so (1 - t)^(-k) is a power
    series with integer coefficients for every integer k.  A factor whose
    degree exceeds the cutoff is 1 after truncation and is dropped when it
    is added.  Products, quotients, integer powers and variable maps only
    add, subtract, scale and relabel multiplicities; series() expands the
    product once.  A negative cutoff raises.
    """

    __slots__ = ("names", "cutoff", "mult")

    def __init__(self, names, cutoff, mult=None):
        self.names = tuple(names)
        self.cutoff = int(cutoff)
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        self.mult = {}
        if mult:
            for t, k in mult.items():
                self._add(t, k)

    def _add(self, t, k):
        c, e = int(t[0]), tuple(int(x) for x in t[1])
        if c == 0 or k == 0:
            return
        if len(e) != len(self.names):
            raise ValueError("arity mismatch: %r with vars %r" % (e, self.names))
        if any(x < 0 for x in e):
            raise ValueError("negative exponent %r; combine Laurent factors first" % (e,))
        if sum(e) <= 0:
            raise ValueError("degree-0 factor term %r" % (t,))
        if sum(e) <= self.cutoff:
            self._bump((c, e), k)

    def _bump(self, key, k):
        new = self.mult.get(key, 0) + k
        if new:
            self.mult[key] = new
        else:
            self.mult.pop(key, None)

    def _merged(self, other, sign):
        if not isinstance(other, Factors):
            raise TypeError("combine Factors with Factors only")
        if self.names != other.names or self.cutoff != other.cutoff:
            raise ValueError("incompatible factors: %r/%d vs %r/%d"
                             % (self.names, self.cutoff, other.names, other.cutoff))
        out = Factors(self.names, self.cutoff)
        out.mult = dict(self.mult)
        for t, k in other.mult.items():
            out._bump(t, sign * k)
        return out

    def __mul__(self, other):
        return self._merged(other, 1)

    def __truediv__(self, other):
        return self._merged(other, -1)

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("integer powers only")
        out = Factors(self.names, self.cutoff)
        if k:
            out.mult = {t: m * k for t, m in self.mult.items()}
        return out

    def map_vars(self, new_names, assignment):
        """Relabel variables as Series.map_vars does; merged factors add
        their multiplicities.  Degrees are kept, so the cutoff still
        applies."""
        _check_assignment(self.names, new_names, assignment)
        out = Factors(new_names, self.cutoff)
        for (c, e), k in self.mult.items():
            ne = [0] * len(out.names)
            for i, x in enumerate(e):
                ne[assignment[i]] += x
            out._bump((c, tuple(ne)), k)
        return out

    def series(self):
        """The product as a Series, by the graded Euler recurrence.

        Let E = sum_i x_i d/dx_i, which multiplies a term of total degree
        N by N.  For f = prod (1 - c x^e)^(-k),

            E log f = g = sum k*|e| * sum_{r>=1} c^r x^(r*e),

        so E f = f*g, and comparing degree-N parts gives

            N * f_N = sum_{j=1..N} g_j * f_{N-j}.

        Each factor has integer coefficients, so f does, and E f = f*g
        has integer coefficients equal to N times those of f_N.  Hence
        the division by N is exact; a remainder can only come from an
        arithmetic fault and raises ArithmeticError.
        """
        D = self.cutoff
        base = D + 1

        def g_items():
            for (c, e), k in self.mult.items():
                d = sum(e)
                for r in range(1, D // d + 1):
                    yield tuple(r * x for x in e), k * d * c ** r

        parts = _graded_parts(g_items(), base, D)
        f = _graded_solve(parts, 1, D, _exact_quotients)
        return _series_from_parts(self.names, D, base, f)


# ---------------------------------------------------------------------------
# q-Pochhammer, MacMahon and the six MacMahon-type families
# ---------------------------------------------------------------------------


def _walk(out, a, q, macmahon, k):
    """Add prod_{n>=1} (1 - a q^n)^(-k*n) (macmahon) or prod_{n>=0}
    (1 - a q^n)^k (q-Pochhammer) to the Factors out; return out.

    a and q are Terms; every factor a*q^n up to the cutoff must come out
    with non-negative exponents and positive degree.
    """
    n = 1 if macmahon else 0
    while True:
        f = term_mul(a, term_pow(q, n))
        if f[0] == 0 or term_deg(f) > out.cutoff:
            return out
        if term_deg(f) <= 0:
            raise ValueError("factor of degree %d at n=%d" % (term_deg(f), n))
        out._add(f, k * n if macmahon else -k)
        n += 1


def pochhammer_factors(a, q, names, cutoff):
    """(a; q)_infinity = prod_{k>=0} (1 - a q^k) as Factors."""
    return _walk(Factors(names, cutoff), a, q, False, 1)


def macmahon_factors(x, q, names, cutoff):
    """M(x, q) = prod_{n>=1} (1 - x q^n)^(-n) as Factors; x may have
    degree 0 (e.g. the constant 1)."""
    return _walk(Factors(names, cutoff), x, q, True, 1)


# Each tilde family is a product of entries (macmahon, power of x, power
# of q, multiplicity): M(x^i q^j)^k when macmahon, else (x^i q^j; q)^k.
# Powers and multiplicities are affine in the shift l, written (a, b)
# for a + b*l.
_TILDE = {
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

    Names: Mt, Mh, Mt0, Mt1, Mh0, Mh1 (the paper's M~, M^, M~0, M~1,
    M^0, M^1; see _TILDE and _HAT).  x and q are Terms; l is the integer
    shift of the four families that end in 0 or 1, and Mt and Mh ignore it.
    """
    tilde, power = _HAT.get(name, (name, 1))
    if tilde not in _TILDE:
        raise ValueError("unknown MacMahon family name %r" % name)
    if tilde != "Mt" and l is None:
        raise ValueError("family %s needs the shift l" % name)
    l = l or 0
    out = Factors(names, cutoff)
    for y in ((x, term_neg(x)) if name in _HAT else (x,)):
        for macmahon, i, (ja, jb), (ka, kb) in _TILDE[tilde]:
            a = term_mul(term_pow(y, i), term_pow(q, ja + jb * l))
            _walk(out, a, q, macmahon, power * (ka + kb * l))
    return out
