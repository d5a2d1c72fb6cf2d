from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from gens import partitions
from oracles import (
    MultivarPoly,
    equals,
    inner_product,
    lift_to_mtilde,
    specialize,
    symfun_from_json_dict,
)
from redeiberge.combinat import (
    conjugate,
    multiplicity_factorial,
    partitions_of,
    sgn_of_type,
    z_lambda,
)
from redeiberge import symfun
from redeiberge.guards import GuardError
from redeiberge.symfun import (
    BASES,
    SymFun,
    TwoAlphabetSymFun,
    convert,
    littlewood_richardson,
    multiply,
    omega,
    to_p,
)


@st.composite
def symfuns(draw, basis=None, max_weight=6, max_terms=3):
    b = basis or draw(st.sampled_from(BASES))
    k = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(k):
        lam = draw(partitions(max_weight=max_weight))
        terms[lam] = Fraction(
            draw(st.integers(min_value=-6, max_value=6)),
            draw(st.integers(min_value=1, max_value=4)),
        )
    return SymFun(b, terms)


# ------------------------------------------------------------- MultivarPoly

def test_multivar_poly_arithmetic():
    f = MultivarPoly(2, {(1, 0): 1, (0, 1): 1})
    square = f * f
    assert square.coeff((1, 1)) == 2
    assert square.coeff((2, 0)) == 1
    assert (square - square) == MultivarPoly.zero(2)
    assert not (f - f)
    with pytest.raises(ValueError):
        MultivarPoly(2, {(1,): 1})


# ------------------------------------------------------------ SymFun basics

def test_symfun_constructor_normalizes():
    f = SymFun("p", {(2, 1): 1})
    assert f.terms == {(2, 1): Fraction(1)}
    assert not SymFun("p", {(2,): 0})
    with pytest.raises(ValueError):
        SymFun("q", {})
    with pytest.raises(ValueError):
        SymFun("p", {(1, 2): 1})
    with pytest.raises(TypeError):
        SymFun("p", {(1,): 0.5})


def test_symfun_arithmetic_and_equality():
    f = SymFun.element("p", (2,))
    g = SymFun.element("p", (1, 1))
    assert (f + g - f).terms == g.terms
    assert (3 * f).coefficient((2,)) == 3
    assert (f - 2).coefficient(()) == -2
    with pytest.raises(ValueError):
        f + SymFun.element("h", (2,))


def test_symfun_json_roundtrip():
    f = SymFun("s", {(3, 1): Fraction(5, 3), (2, 2): -2})
    assert symfun_from_json_dict(f.to_json_dict()) == f
    data = f.to_json_dict()
    coeffs = {tuple(t["partition"]): t["coeff"] for t in data["terms"]}
    assert coeffs == {(3, 1): "5/3", (2, 2): "-2"}


def test_symfun_repr_sorted_by_weight_then_revlex():
    f = SymFun("p", {(1, 1): 1, (2,): -1, (1,): 2})
    assert repr(f) == "2*p[1] - p[2] + p[1,1]"


# ------------------------------------------------------------- conversions

@given(symfuns())
def test_conversion_roundtrips_through_every_basis(f):
    for b in BASES:
        g = convert(f, b)
        assert convert(g, f.basis) == f
        assert to_p(g).terms == to_p(f).terms


@given(symfuns(max_weight=5))
def test_conversion_preserves_specialization(f):
    ref = specialize(f, 4)
    for b in BASES:
        assert specialize(convert(f, b), 4) == ref


def test_known_small_expansions():
    h2 = convert(SymFun.element("h", (2,)), "p")
    assert h2.terms == {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)}
    e2 = convert(SymFun.element("e", (2,)), "p")
    assert e2.terms == {(2,): Fraction(-1, 2), (1, 1): Fraction(1, 2)}
    s21 = convert(SymFun.element("s", (2, 1)), "p")
    assert s21.terms == {(1, 1, 1): Fraction(1, 3), (3,): Fraction(-1, 3)}
    p11 = convert(SymFun.element("p", (1, 1)), "mtilde")
    assert p11.terms == {(2,): 1, (1, 1): 1}
    p2 = convert(SymFun.element("p", (2,)), "m")
    assert p2.terms == {(2,): 1}


def test_h_and_e_expand_as_sums_over_partitions():
    for k in range(1, 7):
        hk = convert(SymFun.element("h", (k,)), "p")
        assert hk.terms == {mu: Fraction(1, z_lambda(mu)) for mu in partitions_of(k)}
        ek = convert(SymFun.element("e", (k,)), "p")
        assert ek.terms == {
            mu: Fraction(sgn_of_type(mu), z_lambda(mu)) for mu in partitions_of(k)
        }


def test_mtilde_is_scaled_monomial():
    for lam in [(2, 1), (2, 2), (1, 1, 1), (3, 1, 1)]:
        f = convert(SymFun.element("mtilde", lam), "m")
        assert f.terms == {lam: multiplicity_factorial(lam)}


def test_convert_guard():
    with pytest.raises(GuardError):
        convert(SymFun.element("h", (15,)), "p")


# -------------------------------------------------------------------- omega

@given(symfuns(max_weight=6))
def test_omega_is_an_involution(f):
    assert equals(omega(omega(f)), f)
    assert omega(f).basis == f.basis


def test_omega_on_standard_elements():
    for k in range(1, 6):
        assert equals(omega(SymFun.element("h", (k,))), SymFun.element("e", (k,)))
        pk = SymFun.element("p", (k,))
        assert omega(pk).terms == {(k,): Fraction((-1) ** (k - 1))}
    for lam in [(2, 1), (3, 1), (2, 2, 1)]:
        assert equals(
            omega(SymFun.element("s", lam)), SymFun.element("s", conjugate(lam))
        )


# ----------------------------------------------------------------- products

def test_multiply_in_various_bases():
    p2 = SymFun.element("p", (2,))
    p21 = SymFun.element("p", (2, 1))
    assert multiply(p2, p21).terms == {(2, 2, 1): Fraction(1)}
    m1 = SymFun.element("m", (1,))
    assert multiply(m1, m1).terms == {(2,): Fraction(1), (1, 1): Fraction(2)}
    mt1 = SymFun.element("mtilde", (1,))
    assert multiply(mt1, mt1).terms == {(2,): Fraction(1), (1, 1): Fraction(1)}
    h1 = SymFun.element("h", (1,))
    assert multiply(h1, h1).terms == {(1, 1): Fraction(1)}
    assert multiply(p2, SymFun.element("h", (1,))).basis == "p"


@given(symfuns(max_weight=4, max_terms=2), symfuns(max_weight=4, max_terms=2))
def test_multiply_matches_specialized_product(f, g):
    fg = multiply(f, g)
    assert specialize(fg, 4) == specialize(f, 4) * specialize(g, 4)


def test_multiply_guard():
    with pytest.raises(GuardError):
        multiply(SymFun.element("p", (8,)), SymFun.element("p", (7,)))


def test_p_times_p_stays_in_the_p_basis(monkeypatch):
    # likewise h x h in h and e x e in e: in each of these bases a product
    # of basis elements is the element of the concatenated partition
    def no_basis_change(*args):
        raise AssertionError("a product went through a basis change")

    monkeypatch.setattr(symfun, "to_p", no_basis_change)
    monkeypatch.setattr(symfun, "convert", no_basis_change)
    for b in ("p", "h", "e"):
        f = SymFun(b, {(1,): 1, (2,): 2})
        g = SymFun(b, {(1,): 3, (): Fraction(1, 2)})
        want = SymFun(b, {(1, 1): 3, (2, 1): 6, (1,): Fraction(1, 2), (2,): 1})
        assert multiply(f, g) == want
        assert multiply(f, g, b) == want
        assert f * g == want


def test_integer_coefficients_stay_int():
    f = SymFun("s", {(2, 1): 2, (3,): -1})
    g = SymFun("s", {(2, 1): 1, (1, 1, 1): 4})
    mt = SymFun("mtilde", {(2, 1): 3, (1, 1, 1): -1})
    # s_2 + s_11 = p_1^2 is integral, though s_2 alone has halves in p
    s2_s11 = SymFun("s", {(2,): 1, (1, 1): 1})
    for out in (f + g, f - g, 3 * f, f * -2, f + 1, 1 - f, to_p(mt), to_p(s2_s11)):
        assert out and all(type(c) is int for c in out.terms.values()), out
    assert to_p(s2_s11).terms == {(1, 1): 1}
    # a Fraction only where the value is not an integer
    assert to_p(SymFun.element("h", (2,))).terms == {
        (2,): Fraction(1, 2),
        (1, 1): Fraction(1, 2),
    }


# ------------------------------------------------------------ inner product

@st.composite
def pairing_sums(draw, fractions: bool):
    """An s-, h- or e-basis SymFun with up to five terms of weights 0-7."""
    basis = draw(st.sampled_from(("s", "h", "e")))
    lams = draw(st.lists(partitions(max_weight=7), max_size=5, unique=True))
    coeff = st.integers(-9, 9)
    if fractions:
        coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    return SymFun(basis, {lam: draw(coeff) for lam in lams})


@given(st.one_of(pairing_sums(False), pairing_sums(True)))
def test_to_p_from_s_h_e_matches_the_per_term_oracle(f):
    got = to_p(f)
    assert got.basis == "p"
    assert got.terms == oracles.to_p_by_pairings_oracle(f)
    assert all(type(c) is int or c.denominator != 1 for c in got.terms.values())


def test_inner_product_orthogonality():
    for n in range(1, 6):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                p = inner_product(SymFun.element("p", lam), SymFun.element("p", mu))
                assert p == (z_lambda(lam) if lam == mu else 0)
                s = inner_product(SymFun.element("s", lam), SymFun.element("s", mu))
                assert s == (1 if lam == mu else 0)
                hm = inner_product(SymFun.element("h", lam), SymFun.element("m", mu))
                assert hm == (1 if lam == mu else 0)


# ------------------------------------------------------------ specialization

def test_schur_specialization_counts_tableaux():
    # specialize reads each basis directly, so this checks the library's
    # conversion of s_lam into every basis against the tableau count
    for n in range(1, 6):
        for lam in partitions_of(n):
            s_lam = SymFun.element("s", lam)
            for nvars in (2, 3):
                ref = MultivarPoly(nvars, oracles.schur_poly_oracle(lam, nvars))
                for b in BASES:
                    assert specialize(convert(s_lam, b), nvars) == ref, (lam, b)


def test_p_to_monomial_is_the_permutation_module_character():
    # [m_lam] p_mu counts the ways to place the cycles of a type-mu
    # permutation into blocks of sizes lam
    for n in range(8):
        for mu in partitions_of(n):
            want = {
                lam: c
                for lam in partitions_of(n)
                if (c := oracles.permutation_module_character(lam, mu))
            }
            quotients = {}
            for lam, c in want.items():
                q, r = divmod(c, multiplicity_factorial(lam))
                assert r == 0, (lam, mu)
                quotients[lam] = q
            p_mu = SymFun.element("p", mu)
            assert convert(p_mu, "m").terms == want, mu
            assert convert(p_mu, "mtilde").terms == quotients, mu


def test_h_pairings_count_maps_of_parts_onto_rows():
    # <h_lam, p_mu>, counted in integers, against the Fraction product of
    # the expansions h_k = sum of p_nu / z_nu
    for n in range(9):
        for lam in partitions_of(n):
            got = dict(symfun._pairings("h", lam))
            assert all(type(c) is int for c in got.values()), lam
            assert got == oracles.h_pairings_oracle(lam), lam


def test_exact_division_raises_on_a_remainder():
    with pytest.raises(ArithmeticError):
        symfun._exact(7, 2)
    with pytest.raises(ArithmeticError):
        symfun._exact(Fraction(7, 2), 1)
    q = symfun._exact(12, 3)
    assert q == 4 and type(q) is int


def test_monomial_specialization():
    m21 = specialize(SymFun.element("m", (2, 1)), 3)
    assert m21.coeff((2, 1, 0)) == 1
    assert m21.coeff((1, 2, 0)) == 1
    assert m21.coeff((1, 1, 1)) == 0
    assert len(m21.terms) == 6
    # too few variables: the term vanishes
    assert not specialize(SymFun.element("m", (1, 1, 1)), 2)


@given(symfuns(max_weight=5))
def test_lift_inverts_specialize(f):
    degree = f.weight()
    fh = SymFun(f.basis, {l: c for l, c in f.terms.items() if sum(l) == degree})
    poly = specialize(fh, max(degree, 1))
    assert equals(lift_to_mtilde(poly, degree), fh)


def test_lift_rejects_asymmetric_input():
    poly = MultivarPoly(2, {(2, 0): 1})
    with pytest.raises(ValueError):
        lift_to_mtilde(poly, 2)
    with pytest.raises(ValueError):
        lift_to_mtilde(MultivarPoly(2, {(2, 1): 1}), 2)
    with pytest.raises(ValueError):
        lift_to_mtilde(MultivarPoly(1, {(1,): 1}), 2)


# ------------------------------------------------------- fundamental basis

def test_fundamental_extremes():
    # no strict positions: complete homogeneous; all strict: elementary
    for n in range(1, 5):
        h_n = oracles.chain_fundamental(set(), n, 4)
        e_n = oracles.chain_fundamental(set(range(1, n)), n, 4)
        assert MultivarPoly(4, h_n) == specialize(SymFun.element("h", (n,)), 4)
        assert MultivarPoly(4, e_n) == specialize(SymFun.element("e", (n,)), 4)


# ------------------------------------------------------ Littlewood-Richardson

def test_lr_matches_skew_tableau_enumeration():
    cases = [((1,), (1,)), ((2,), (2,)), ((2, 1), (2, 1)), ((3, 1), (2,)), ((2, 2), (2, 1))]
    for lam, mu in cases:
        n = sum(lam) + sum(mu)
        for nu in partitions_of(n):
            assert littlewood_richardson(lam, mu, nu) == oracles.lr_coefficient_oracle(
                lam, mu, nu
            ), (lam, mu, nu)


def test_lr_pieri_row():
    # s_lam * s_(k): nu ranges over lam plus a horizontal strip
    lam = (3, 2)
    for k in (1, 2):
        for nu in partitions_of(sum(lam) + k):
            c = littlewood_richardson(lam, (k,), nu)
            pad = nu + (0,) * (len(lam) + 1 - len(nu))
            horizontal = (
                len(nu) <= len(lam) + 1
                and all(pad[i] >= lam[i] for i in range(len(lam)))
                and all(pad[i + 1] <= lam[i] for i in range(len(lam)))
            )
            assert c == (1 if horizontal else 0), (k, nu)


def test_lr_guard():
    with pytest.raises(GuardError):
        littlewood_richardson((7,), (6,), (13,))
    # the public constructors still validate the partitions they are given
    with pytest.raises(ValueError):
        littlewood_richardson((1, 2), (1,), (2, 1, 1))


# ------------------------------------------------------- two-alphabet algebra

def test_two_alphabet_construction_and_parts():
    f = SymFun("p", {(2, 1): 2, (1,): -1})
    zf = oracles.z_alphabet(f)
    assert zf.z_part().terms == f.terms
    assert zf.y_to_zero() == zf
    yf = oracles.y_alphabet(f)
    with pytest.raises(ValueError):
        yf.z_part()
    assert not yf.y_to_zero().terms


def test_joint_p_expands_union_alphabet():
    j = oracles.joint_p((2, 1))
    assert j.terms == {
        ((2, 1), ()): 1,
        ((2,), (1,)): 1,
        ((1,), (2,)): 1,
        ((), (2, 1)): 1,
    }


def test_two_alphabet_operations():
    f = TwoAlphabetSymFun({((2,), (1,)): 1})
    assert f.negate_y().terms == {((2,), (1,)): -1}
    assert f.omega_z().terms == {((2,), (1,)): -1}
    assert TwoAlphabetSymFun({((1, 1), (2,)): 1}).negate_y().terms == {
        ((1, 1), (2,)): 1
    }
    g = TwoAlphabetSymFun({((1,), ()): 1, ((), (1,)): 1})
    assert (g * g).terms == {
        ((1, 1), ()): 1,
        ((1,), (1,)): 2,
        ((), (1, 1)): 1,
    }


def test_z_to_zy_substitution():
    f = oracles.z_alphabet(SymFun.element("p", (2, 1)))
    assert f.z_to_zy() == oracles.joint_p((2, 1))
    g = TwoAlphabetSymFun({((2,), (3,)): 2})
    assert g.z_to_zy().terms == {((2,), (3,)): 2, ((), (3, 2)): 2}
