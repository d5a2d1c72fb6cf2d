"""Exact symmetric functions with basis conversion.

A SymFun is a finite linear combination of basis elements indexed by
partitions, in one of six bases:

- "p"       power sums
- "h"       complete homogeneous
- "e"       elementary
- "s"       Schur
- "m"       monomial
- "mtilde"  augmented monomial, mtilde_lam = (prod of multiplicities!) m_lam

Coefficients are ints, and Fractions only where a value is not an
integer.  Only the public constructors (SymFun(...), SymFun.element/const,
TwoAlphabetSymFun(...)) validate; results built here have partition keys
by construction.  Products in p, h or e concatenate partitions; other
conversions route through p, which is orthogonal for the Hall inner
product: <p_lam, p_mu> = z_mu if lam = mu, else 0.  Into p, each basis b
has one integer table <b_lam, p_mu>, summed per class mu and divided
once by z_mu.  Out of p, [b_lam] p_mu = <p_mu, b*_lam> for the dual
basis b*: s is self-dual (characters), h and m are dual (Newton's
identities for h; for m, maps from the parts of mu onto the rows of
lam), e = omega(h) and mtilde_lam = (multiplicities of lam)! m_lam.

A TwoAlphabetSymFun is an element of the tensor square, stored in the
p(z) (x) p(y) normal form; it supports the alphabet operations needed
for path-cycle generating functions (omega on z, y -> -y, z -> (z,y),
y -> 0).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .combinat import (
    Partition,
    character,
    is_partition,
    multiplicity_factorial,
    partition_key,
    partitions_of,
    sgn_of_type,
    z_lambda,
)
from .guards import guard

BASES = ("p", "h", "e", "s", "m", "mtilde")


def _as_coeff(c):
    if isinstance(c, (int, Fraction)):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _with_terms(f, terms: dict):
    """f with terms minus zeros, integral values as int: the trusted
    construction of results built here, and the last step of validation."""
    f.terms = {
        k: c if c.denominator != 1 else c.numerator for k, c in terms.items() if c
    }
    return f


def _merge(parts) -> Partition:
    return tuple(sorted(parts, reverse=True))


# --------------------------------------------------------------------- SymFun

class SymFun:
    """Finite exact combination of basis elements indexed by partitions."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        merged: dict = {}
        for lam, c in (terms or {}).items():
            lam = tuple(lam)
            if not is_partition(lam):
                raise ValueError(f"not a partition: {lam!r}")
            merged[lam] = merged.get(lam, 0) + _as_coeff(c)
        _with_terms(self, merged)

    # ---------------------------------------------------------- constructors

    @classmethod
    def const(cls, c, basis: str = "p") -> "SymFun":
        return cls(basis, {(): c})

    @classmethod
    def element(cls, basis: str, lam) -> "SymFun":
        return cls(basis, {tuple(lam): 1})

    # ------------------------------------------------------------ arithmetic

    def _check_same_basis(self, other: "SymFun") -> None:
        if self.basis != other.basis:
            raise ValueError(
                f"mixed bases {self.basis!r} and {other.basis!r}; convert first"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymFun.const(other, self.basis)
        self._check_same_basis(other)
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return _with_terms(SymFun(self.basis), out)

    __radd__ = __add__

    def __neg__(self):
        return _with_terms(SymFun(self.basis), {l: -c for l, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymFun.const(other, self.basis)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = {l: v * other for l, v in self.terms.items()}
            return _with_terms(SymFun(self.basis), out)
        if isinstance(other, SymFun):
            return multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    # --------------------------------------------------------------- queries

    def coefficient(self, lam):
        return self.terms.get(tuple(lam), 0)

    def weight(self) -> int:
        """Largest term weight (0 for the zero function)."""
        return max((sum(l) for l in self.terms), default=0)

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: partition_key(kv[0]))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymFun)
            and self.basis == other.basis
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("SymFun is mutable, not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        name = self.basis
        bits = []
        for lam, c in self.sorted_terms():
            base = f"{name}[{','.join(map(str, lam))}]" if lam else "1"
            if c == 1 and lam:
                bits.append(base)
            elif c == -1 and lam:
                bits.append(f"-{base}")
            else:
                bits.append(f"{c}*{base}" if lam else f"{c}")
        out = " + ".join(bits)
        return out.replace("+ -", "- ")

    # ----------------------------------------------------------------- JSON

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"partition": list(lam), "coeff": _coeff_str(c)}
                for lam, c in self.sorted_terms()
            ],
        }


def _coeff_str(c) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


# ------------------------------------------------------- conversion to/from p

def _exact(c, d: int) -> int:
    """c / d for an int or Fraction c that d must divide, else ArithmeticError."""
    q = Fraction(c, d)
    if q.denominator != 1:
        raise ArithmeticError(f"{c} / {d} is not an integer")
    return q.numerator


@lru_cache(maxsize=None)
def _pk_in_h(k: int) -> tuple:
    """p_k (k >= 1) expanded in the h basis, via Newton's identity."""
    out = {(k,): k}
    for i in range(1, k):
        for lam, c in _pk_in_h(k - i):
            key = _merge(lam + (i,))
            out[key] = out.get(key, 0) - c
    return tuple(sorted(out.items()))


def _fold_parts(parts, pk_expansion) -> dict:
    """Product over parts of single-part expansions, concatenating partitions."""
    cur = {(): 1}
    for k in parts:
        nxt: dict = {}
        for lam1, c1 in cur.items():
            for lam2, c2 in pk_expansion(k):
                key = _merge(lam1 + lam2)
                nxt[key] = nxt.get(key, 0) + c1 * c2
        cur = nxt
    return cur


@lru_cache(maxsize=None)
def _pairings(basis: str, lam: Partition) -> tuple:
    """(mu, <b_lam, p_mu>) pairs, integers, over the classes mu where the
    pairing is not 0, for any basis b but p.  s: chi^lam(mu).  h and m,
    dual to each other: [m_lam] p_mu and [h_lam] p_mu, the tables out of p
    transposed.  e: sgn(mu) times h's, as e_lam = omega(h_lam).  mtilde:
    m's times the multiplicity factorial of lam."""
    if basis == "s":
        return tuple(
            (mu, chi) for mu in partitions_of(sum(lam)) if (chi := character(lam, mu))
        )
    if basis in ("h", "m"):
        dual = "m" if basis == "h" else "h"
        rows = ((mu, _p_term_to(dual, mu)) for mu in partitions_of(sum(lam)))
        return tuple((mu, c) for mu, row in rows for nu, c in row if nu == lam)
    if basis == "e":
        return tuple((mu, sgn_of_type(mu) * c) for mu, c in _pairings("h", lam))
    scale = multiplicity_factorial(lam)
    return tuple((mu, scale * c) for mu, c in _pairings("m", lam))


@lru_cache(maxsize=None)
def _p_term_to(basis: str, mu: Partition) -> tuple:
    """(lam, [b_lam] p_mu) pairs for b = h, e, m or mtilde, read as
    <p_mu, b*_lam> for the dual basis b*.  h: Newton's identities.  e:
    sgn(mu) times h's, as omega(p_mu) = sgn(mu) p_mu.  mtilde: the set
    partitions of the parts of mu with block sums lam.  m, dual to h:
    <h_lam, p_mu>, the maps from the parts of mu to the rows of lam that
    fill each row exactly, mtilde's times the ways to put blocks in rows."""
    if basis == "h":
        return tuple((lam, c) for lam, c in _fold_parts(mu, _pk_in_h).items() if c)
    if basis == "e":
        return tuple((lam, sgn_of_type(mu) * c) for lam, c in _p_term_to("h", mu))
    if basis == "m":
        rows = _p_term_to("mtilde", mu)
        return tuple((lam, multiplicity_factorial(lam) * c) for lam, c in rows)
    ways = {(): 1}
    for k in mu:
        nxt: dict = {}
        for sums, c in ways.items():
            for i, s in enumerate(sums + (0,)):  # k joins block i or opens one
                key = _merge(sums[:i] + (s + k,) + sums[i + 1:])
                nxt[key] = nxt.get(key, 0) + c
        ways = nxt
    return tuple(ways.items())


@lru_cache(maxsize=None)
def _mtilde_to_p(lam: Partition) -> tuple:
    """mtilde_lam in p as (mu, <mtilde_lam, p_mu> / z_mu) pairs, integers."""
    return tuple((mu, _exact(c, z_lambda(mu))) for mu, c in _pairings("mtilde", lam))


def to_p(f: SymFun) -> SymFun:
    """f in p: [p_mu] f sums c_lam <b_lam, p_mu> over the terms and divides
    once by z_mu; from mtilde, where that quotient is an integer per term,
    it sums the integer expansions."""
    guard("convert", f.weight(), 14)
    if f.basis == "p":
        return _with_terms(SymFun("p"), f.terms)
    integral = f.basis == "mtilde"
    out: dict = {}
    for lam, c in f.terms.items():
        for mu, d in _mtilde_to_p(lam) if integral else _pairings(f.basis, lam):
            out[mu] = out.get(mu, 0) + c * d
    if not integral:
        out = {mu: Fraction(c, z_lambda(mu)) for mu, c in out.items()}
    return _with_terms(SymFun("p"), out)


def convert(f: SymFun, basis: str) -> SymFun:
    """Exact change of basis, through p.  Out of p, s is self-dual, so
    [s_lam] p_mu = chi^lam(mu), read from combinat's cached character
    table; the other bases read _p_term_to."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    guard("convert", f.weight(), 14)
    if f.basis == basis:
        return _with_terms(SymFun(basis), f.terms)
    g = to_p(f)
    if basis == "p":
        return g
    out: dict = {}
    for mu, c in g.terms.items():
        if basis == "s":
            lams = partitions_of(sum(mu))
            row = ((lam, chi) for lam in lams if (chi := character(lam, mu)))
        else:
            row = _p_term_to(basis, mu)
        for lam, d in row:
            out[lam] = out.get(lam, 0) + c * d
    return _with_terms(SymFun(basis), out)


def multiply(f: SymFun, g: SymFun, basis: str | None = None) -> SymFun:
    """Exact product; result basis defaults to a shared input basis, else p.

    In p, h and e a product of basis elements is the element of the
    concatenated partition, so two factors in the same one of these
    bases multiply in it; any other pair multiplies in p.
    """
    guard("multiply", f.weight() + g.weight(), 14)
    if basis is None:
        basis = f.basis if f.basis == g.basis else "p"
    work = f.basis if f.basis == g.basis and f.basis in ("p", "h", "e") else "p"
    fw = f.terms if f.basis == work else to_p(f).terms
    gw = g.terms if g.basis == work else to_p(g).terms
    out: dict = {}
    for lam1, c1 in fw.items():
        for lam2, c2 in gw.items():
            key = _merge(lam1 + lam2)
            out[key] = out.get(key, 0) + c1 * c2
    prod = _with_terms(SymFun(work), out)
    return prod if basis == work else convert(prod, basis)


def omega(f: SymFun) -> SymFun:
    """The involution with omega(p_k) = (-1)^(k-1) p_k, returned in f's basis."""
    g = to_p(f)
    out = {lam: c * sgn_of_type(lam) for lam, c in g.terms.items()}
    return convert(_with_terms(SymFun("p"), out), f.basis)


# ------------------------------------------------------ Littlewood-Richardson

@lru_cache(maxsize=None)
def _schur_product_in_s(lam: Partition, mu: Partition) -> tuple:
    prod = multiply(SymFun.element("s", lam), SymFun.element("s", mu), "s")
    return tuple(sorted(prod.terms.items()))


def littlewood_richardson(lam, mu, nu) -> int:
    """Structure constant c^nu_{lam mu} of the Schur basis."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    guard("littlewood_richardson", sum(nu), 12)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    for part, c in _schur_product_in_s(lam, mu):
        if part == nu:
            if c.denominator != 1 or c < 0:
                raise ArithmeticError(f"non-integral LR coefficient {c} at {nu}")
            return int(c)
    return 0


# ------------------------------------------------------- two-alphabet algebra

@lru_cache(maxsize=None)
def _joint_p(lam: Partition) -> tuple:
    """p_lam(z u y) as ((zpartition, ypartition), coefficient) pairs."""
    terms = {((), ()): 1}
    for k in lam:
        nxt: dict = {}
        for (zl, yl), c in terms.items():
            for key in ((_merge(zl + (k,)), yl), (zl, _merge(yl + (k,)))):
                nxt[key] = nxt.get(key, 0) + c
        terms = nxt
    return tuple(terms.items())


class TwoAlphabetSymFun:
    """Element of Sym(z) (x) Sym(y) in the p(z) (x) p(y) normal form.

    Terms map (zpartition, ypartition) to an int or Fraction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        merged: dict = {}
        for (zl, yl), c in (terms or {}).items():
            key = (tuple(zl), tuple(yl))
            if not (is_partition(key[0]) and is_partition(key[1])):
                raise ValueError("keys must be pairs of partitions")
            merged[key] = merged.get(key, 0) + _as_coeff(c)
        _with_terms(self, merged)

    @classmethod
    def zero(cls) -> "TwoAlphabetSymFun":
        return cls()

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return _with_terms(TwoAlphabetSymFun(), out)

    def __neg__(self):
        return _with_terms(TwoAlphabetSymFun(), {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = {k: v * other for k, v in self.terms.items()}
        else:
            out = {}
            for (z1, y1), c1 in self.terms.items():
                for (z2, y2), c2 in other.terms.items():
                    key = (_merge(z1 + z2), _merge(y1 + y2))
                    out[key] = out.get(key, 0) + c1 * c2
        return _with_terms(TwoAlphabetSymFun(), out)

    __rmul__ = __mul__

    def omega_z(self) -> "TwoAlphabetSymFun":
        out = {k: c * sgn_of_type(k[0]) for k, c in self.terms.items()}
        return _with_terms(TwoAlphabetSymFun(), out)

    def negate_y(self) -> "TwoAlphabetSymFun":
        """Substitute y -> -y, so p_k(y) picks up (-1)^k."""
        out = {k: c * (-1) ** sum(k[1]) for k, c in self.terms.items()}
        return _with_terms(TwoAlphabetSymFun(), out)

    def z_to_zy(self) -> "TwoAlphabetSymFun":
        """Substitute the union alphabet for z: p_k(z) -> p_k(z) + p_k(y)."""
        out: dict = {}
        for (zl, yl), c in self.terms.items():
            for (z2, y2), d in _joint_p(zl):
                key = (z2, _merge(y2 + yl))
                out[key] = out.get(key, 0) + c * d
        return _with_terms(TwoAlphabetSymFun(), out)

    def y_to_zero(self) -> "TwoAlphabetSymFun":
        out = {k: c for k, c in self.terms.items() if not k[1]}
        return _with_terms(TwoAlphabetSymFun(), out)

    def z_part(self) -> SymFun:
        """Read off a pure-z element (requires every ypartition empty)."""
        if any(k[1] for k in self.terms):
            raise ValueError("not a pure z element")
        return _with_terms(SymFun("p"), {k[0]: c for k, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoAlphabetSymFun) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        raise TypeError("TwoAlphabetSymFun is mutable, not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (zl, yl) in sorted(
            self.terms, key=lambda k: (partition_key(k[0]), partition_key(k[1]))
        ):
            c = self.terms[(zl, yl)]
            label = []
            if zl:
                label.append(f"p[{','.join(map(str, zl))}](z)")
            if yl:
                label.append(f"p[{','.join(map(str, yl))}](y)")
            body = "*".join(label) if label else "1"
            bits.append(f"{c}*{body}")
        return " + ".join(bits).replace("+ -", "- ")
