"""Exact symmetric functions with basis conversion.

A SymFun is a finite rational linear combination of basis elements
indexed by partitions, in one of six bases:

- "p"       power sums
- "h"       complete homogeneous
- "e"       elementary
- "s"       Schur
- "m"       monomial
- "mtilde"  augmented monomial, mtilde_lam = (prod of multiplicities!) m_lam

All conversions route through p with exact Fraction arithmetic.  The
p-expansion engine uses Newton's identities for h and e, the character
expansion for s, and a unitriangular transition (built from the rule
p_r * mtilde_lam = sum over slots + new part) for the monomial bases.

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


def _as_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


def _merge(parts) -> Partition:
    return tuple(sorted(parts, reverse=True))


# --------------------------------------------------------------------- SymFun

class SymFun:
    """Finite rational combination of basis elements indexed by partitions."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.terms: dict = {}
        if terms:
            for lam, c in terms.items():
                lam = tuple(lam)
                if not is_partition(lam):
                    raise ValueError(f"not a partition: {lam!r}")
                c = _as_coeff(c)
                if c:
                    self.terms[lam] = self.terms.get(lam, Fraction(0)) + c
            self.terms = {l: c for l, c in self.terms.items() if c}

    # ---------------------------------------------------------- constructors

    @classmethod
    def zero(cls, basis: str = "p") -> "SymFun":
        return cls(basis)

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
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymFun(self.basis, out)

    __radd__ = __add__

    def __neg__(self):
        return SymFun(self.basis, {l: -c for l, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SymFun.const(other, self.basis)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            return SymFun(self.basis, {l: v * c for l, v in self.terms.items()})
        if isinstance(other, SymFun):
            return multiply(self, other)
        return NotImplemented

    __rmul__ = __mul__

    # --------------------------------------------------------------- queries

    def coefficient(self, lam) -> Fraction:
        return self.terms.get(tuple(lam), Fraction(0))

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

    @classmethod
    def from_json_dict(cls, data: dict) -> "SymFun":
        terms = {}
        for item in data["terms"]:
            lam = tuple(item["partition"])
            terms[lam] = terms.get(lam, Fraction(0)) + _coeff_from_str(item["coeff"])
        return cls(data["basis"], terms)


def _coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _coeff_from_str(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    return Fraction(s)


# ------------------------------------------------------- conversion to/from p

@lru_cache(maxsize=None)
def _pk_in_h(k: int) -> tuple:
    """p_k expanded in the h basis, via Newton's identity."""
    if k == 0:
        return (((), Fraction(1)),)
    out = {(k,): Fraction(k)}
    for i in range(1, k):
        for lam, c in _pk_in_h(k - i):
            key = _merge(lam + (i,))
            out[key] = out.get(key, Fraction(0)) - c
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _pk_in_e(k: int) -> tuple:
    """p_k expanded in the e basis, via Newton's identity."""
    if k == 0:
        return (((), Fraction(1)),)
    out = {(k,): Fraction((-1) ** (k - 1) * k)}
    for i in range(1, k):
        sign = (-1) ** (i - 1)
        for lam, c in _pk_in_e(k - i):
            key = _merge(lam + (i,))
            out[key] = out.get(key, Fraction(0)) + sign * c
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _pk_times_mtilde(r: int, lam: Partition) -> tuple:
    """p_r * mtilde_lam: add r to one slot of lam, or append r as a new part."""
    out: dict = {}
    for t in range(len(lam)):
        key = _merge(lam[:t] + (lam[t] + r,) + lam[t + 1:])
        out[key] = out.get(key, 0) + 1
    key = _merge(lam + (r,))
    out[key] = out.get(key, 0) + 1
    return tuple(sorted(out.items()))


@lru_cache(maxsize=None)
def _p_to_mtilde(mu: Partition) -> tuple:
    """p_mu expanded in the mtilde basis (integer, unitriangular)."""
    cur = {(): 1}
    for r in mu:
        nxt: dict = {}
        for lam, c in cur.items():
            for key, mult in _pk_times_mtilde(r, lam):
                nxt[key] = nxt.get(key, 0) + c * mult
        cur = nxt
    return tuple(sorted(cur.items()))


@lru_cache(maxsize=None)
def _mtilde_to_p(lam: Partition) -> tuple:
    """mtilde_lam expanded in the p basis by unitriangular back-substitution.

    Every mtilde term of p_lam other than mtilde_lam itself strictly
    dominates lam, so the recursion terminates at the one-row partition.
    """
    out = {lam: Fraction(1)}
    for nu, c in _p_to_mtilde(lam):
        if nu == lam:
            continue
        for rho, d in _mtilde_to_p(nu):
            out[rho] = out.get(rho, Fraction(0)) - c * d
    return tuple(sorted((k, v) for k, v in out.items() if v))


def _fold_parts(parts, pk_expansion) -> dict:
    """Product over parts of single-part expansions, concatenating partitions."""
    cur = {(): Fraction(1)}
    for k in parts:
        nxt: dict = {}
        for lam1, c1 in cur.items():
            for lam2, c2 in pk_expansion(k):
                key = _merge(lam1 + lam2)
                nxt[key] = nxt.get(key, Fraction(0)) + c1 * c2
        cur = nxt
    return cur


@lru_cache(maxsize=None)
def _hk_in_p(k: int) -> tuple:
    return tuple((mu, Fraction(1, z_lambda(mu))) for mu in _all_partitions(k))


@lru_cache(maxsize=None)
def _ek_in_p(k: int) -> tuple:
    return tuple(
        (mu, Fraction(sgn_of_type(mu), z_lambda(mu))) for mu in _all_partitions(k)
    )


def _all_partitions(k: int) -> tuple:
    return tuple(partitions_of(k))


def _term_to_p(basis: str, lam: Partition) -> dict:
    """Expansion of one basis element in p."""
    if basis == "p":
        return {lam: Fraction(1)}
    if basis == "h":
        return _fold_parts(lam, _hk_in_p)
    if basis == "e":
        return _fold_parts(lam, _ek_in_p)
    if basis == "s":
        n = sum(lam)
        return {
            mu: Fraction(character(lam, mu), z_lambda(mu))
            for mu in _all_partitions(n)
            if character(lam, mu)
        }
    if basis == "mtilde":
        return {mu: c for mu, c in _mtilde_to_p(lam)}
    if basis == "m":
        scale = Fraction(1, multiplicity_factorial(lam))
        return {mu: c * scale for mu, c in _mtilde_to_p(lam)}
    raise ValueError(basis)


def _p_term_to(basis: str, mu: Partition) -> dict:
    """Expansion of p_mu in the target basis."""
    if basis == "p":
        return {mu: Fraction(1)}
    if basis == "h":
        return _fold_parts(mu, _pk_in_h)
    if basis == "e":
        return _fold_parts(mu, _pk_in_e)
    if basis == "s":
        n = sum(mu)
        return {
            lam: Fraction(character(lam, mu))
            for lam in _all_partitions(n)
            if character(lam, mu)
        }
    if basis == "mtilde":
        return {lam: Fraction(c) for lam, c in _p_to_mtilde(mu)}
    if basis == "m":
        return {
            lam: Fraction(c) * multiplicity_factorial(lam)
            for lam, c in _p_to_mtilde(mu)
        }
    raise ValueError(basis)


def to_p(f: SymFun) -> SymFun:
    guard("convert", f.weight(), 14)
    if f.basis == "p":
        return SymFun("p", dict(f.terms))
    out: dict = {}
    for lam, c in f.terms.items():
        for mu, d in _term_to_p(f.basis, lam).items():
            out[mu] = out.get(mu, Fraction(0)) + c * d
    return SymFun("p", out)


def convert(f: SymFun, basis: str) -> SymFun:
    """Exact change of basis."""
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}")
    guard("convert", f.weight(), 14)
    if f.basis == basis:
        return SymFun(basis, dict(f.terms))
    g = to_p(f)
    if basis == "p":
        return g
    out: dict = {}
    for mu, c in g.terms.items():
        for lam, d in _p_term_to(basis, mu).items():
            out[lam] = out.get(lam, Fraction(0)) + c * d
    return SymFun(basis, out)


def multiply(f: SymFun, g: SymFun, basis: str | None = None) -> SymFun:
    """Exact product; result basis defaults to a shared input basis, else p."""
    guard("multiply", f.weight() + g.weight(), 14)
    if basis is None:
        basis = f.basis if f.basis == g.basis else "p"
    fp = f.terms if f.basis == "p" else to_p(f).terms
    gp = g.terms if g.basis == "p" else to_p(g).terms
    out: dict = {}
    for lam1, c1 in fp.items():
        for lam2, c2 in gp.items():
            key = _merge(lam1 + lam2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    prod = SymFun("p", out)
    return prod if basis == "p" else convert(prod, basis)


def omega(f: SymFun) -> SymFun:
    """The involution with omega(p_k) = (-1)^(k-1) p_k, returned in f's basis."""
    g = to_p(f)
    out = {lam: c * sgn_of_type(lam) for lam, c in g.terms.items()}
    return convert(SymFun("p", out), f.basis)


def equals(f: SymFun, g: SymFun) -> bool:
    """Basis-independent equality."""
    return to_p(f).terms == to_p(g).terms


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

class TwoAlphabetSymFun:
    """Element of Sym(z) (x) Sym(y) in the p(z) (x) p(y) normal form.

    Terms map (zpartition, ypartition) to a Fraction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms: dict = {}
        if terms:
            for (zl, yl), c in terms.items():
                zl, yl = tuple(zl), tuple(yl)
                if not (is_partition(zl) and is_partition(yl)):
                    raise ValueError("keys must be pairs of partitions")
                c = _as_coeff(c)
                if c:
                    key = (zl, yl)
                    self.terms[key] = self.terms.get(key, Fraction(0)) + c
            self.terms = {k: c for k, c in self.terms.items() if c}

    @classmethod
    def zero(cls) -> "TwoAlphabetSymFun":
        return cls()

    @classmethod
    def from_z(cls, f: SymFun) -> "TwoAlphabetSymFun":
        fp = to_p(f)
        return cls({(lam, ()): c for lam, c in fp.terms.items()})

    @classmethod
    def from_y(cls, f: SymFun) -> "TwoAlphabetSymFun":
        fp = to_p(f)
        return cls({((), lam): c for lam, c in fp.terms.items()})

    @classmethod
    def joint_p(cls, lam) -> "TwoAlphabetSymFun":
        """p_lam over the union alphabet: product of (p_k(z) + p_k(y))."""
        terms = {((), ()): Fraction(1)}
        for k in lam:
            nxt: dict = {}
            for (zl, yl), c in terms.items():
                for key in ((_merge(zl + (k,)), yl), (zl, _merge(yl + (k,)))):
                    nxt[key] = nxt.get(key, Fraction(0)) + c
            terms = nxt
        return cls(terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return TwoAlphabetSymFun(out)

    def __neg__(self):
        return TwoAlphabetSymFun({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            return TwoAlphabetSymFun({k: v * c for k, v in self.terms.items()})
        out: dict = {}
        for (z1, y1), c1 in self.terms.items():
            for (z2, y2), c2 in other.terms.items():
                key = (_merge(z1 + z2), _merge(y1 + y2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return TwoAlphabetSymFun(out)

    __rmul__ = __mul__

    def omega_z(self) -> "TwoAlphabetSymFun":
        return TwoAlphabetSymFun(
            {k: c * sgn_of_type(k[0]) for k, c in self.terms.items()}
        )

    def negate_y(self) -> "TwoAlphabetSymFun":
        """Substitute y -> -y, so p_k(y) picks up (-1)^k."""
        return TwoAlphabetSymFun(
            {k: c * (-1) ** sum(k[1]) for k, c in self.terms.items()}
        )

    def z_to_zy(self) -> "TwoAlphabetSymFun":
        """Substitute the union alphabet for z: p_k(z) -> p_k(z) + p_k(y)."""
        out: dict = {}
        for (zl, yl), c in self.terms.items():
            for (z2, y2), d in TwoAlphabetSymFun.joint_p(zl).terms.items():
                key = (z2, _merge(y2 + yl))
                out[key] = out.get(key, Fraction(0)) + c * d
        return TwoAlphabetSymFun(out)

    def y_to_zero(self) -> "TwoAlphabetSymFun":
        return TwoAlphabetSymFun(
            {k: c for k, c in self.terms.items() if not k[1]}
        )

    def z_part(self) -> SymFun:
        """Read off a pure-z element (requires every ypartition empty)."""
        if any(k[1] for k in self.terms):
            raise ValueError("not a pure z element")
        return SymFun("p", {k[0]: c for k, c in self.terms.items()})

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
