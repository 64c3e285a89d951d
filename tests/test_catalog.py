"""Catalog regression: every stored entry reproduces its frozen invariants.

Each entry in strata.json carries the expected gap sequence, delta, both
characters, alpha, slope, spin parity, and ambient weights; the tests
rebuild the branch algebra from the stored generators and recompute all
of them.  Family constructors and the ordinary-point extension rule get
the same treatment.
"""

import json
import math
from fractions import Fraction

import pytest

import gmspectra.branch_algebra as ba
import gmspectra.invariants as inv
from gmspectra import catalog
from gmspectra import semigroup as sg
from gmspectra.classifier import nonvarying_regression
from gmspectra.signature import derive

ENTRY_IDS = [e.id for e in catalog.entries()]


def family_members():
    """A, A-odd, D-odd and D-even at g = 2..7, elliptic at n = 3..11, the
    monomial ring of every symmetric semigroup with g = 3..7, and one and two
    ordinary points on every stored entry."""
    members = [catalog.family(name, g=g)
               for name in ("A", "A-odd", "D-odd", "D-even") for g in range(2, 8)]
    members += [catalog.family("elliptic", n=n) for n in range(3, 12)]
    members += [catalog.family("monomial", H=H)
                for g in range(3, 8) for H in sg.enumerate_symmetric(g)]
    members += [catalog.with_ordinary_points(e, k) for e in catalog.entries() for k in (1, 2)]
    return members


# one entry per id, the stored one first (<2,2g+1> is also family A, <3,4> is E6)
SPIN_ENTRIES: dict = {}
for _e in (*catalog.entries(), *family_members()):
    SPIN_ENTRIES.setdefault(_e.id, _e)


@pytest.fixture(params=ENTRY_IDS)
def entry(request):
    return catalog.get(request.param)


# ------------------------------------------------------------- per entry


def test_entry_count_and_lookup():
    assert len(catalog.entries()) == 19
    assert catalog.get("H(3,1)") is catalog.get("E7")  # alias
    assert catalog.get("<4,5,6>").id == "H(6)-odd"
    with pytest.raises(KeyError):
        catalog.get("H(9,9)")


def test_gap_delta_genus(entry):
    alg = entry.algebra()
    sig = derive(entry.signature)
    assert ba.gap_sequence(alg) == entry.expected.gap_sequence
    assert (alg.delta, sum(ba.gap_sequence(alg))) == (entry.expected.delta, sig.genus)


def test_characters_alpha_slope(entry):
    sig = derive(entry.signature)
    alg = entry.algebra()
    chi1 = inv.weight_spectrum(alg, 1).chi_log
    chi2_log = inv.weight_spectrum(alg, 2).chi_log
    assert chi1 == entry.expected.chi1_log
    assert chi2_log == entry.expected.chi2_log
    assert inv.alpha(chi1, chi2_log) == entry.expected.alpha
    assert inv.slope(chi1, chi2_log, sig) == entry.expected.slope


def test_conductor_gorenstein_units(entry):
    alg = entry.algebra()
    summary = ba.algebra_summary(alg)
    assert summary["gorenstein"]
    assert summary["conductor"] == [m + 2 for m in entry.signature]
    assert ba.validate_G_conditions(alg, entry.dualizing_units).all_pass


@pytest.mark.parametrize("entry", list(SPIN_ENTRIES.values()), ids=list(SPIN_ENTRIES))
def test_spin_parity(entry):
    # even-order signatures carry a parity label, hyperelliptic and genus-one
    # families included; odd orders have none
    assert [c for c in nonvarying_regression([entry]) if not c.ok] == []
    sig = derive(entry.signature)
    alg = entry.algebra()
    if any(m % 2 for m in sig.orders):
        assert entry.expected.spin is None
        assert ba.spin_parity(alg) is None
        return
    half = tuple(m // 2 for m in sig.orders)
    h = ba.section_space(alg, half).dimension
    assert entry.expected.spin == ("odd" if h % 2 else "even")
    assert ba.spin_parity(alg) == entry.expected.spin
    if sig.genus > 1:  # genus one has no spin components to label
        assert entry.component in (entry.expected.spin, "hyp")


def test_ambient_weights(entry):
    # stored in display order; generator degrees plus the weight-one slot
    degrees = [d for d, _ in entry.algebra().generators]
    assert sorted(entry.expected.ambient_weights) == sorted(degrees + [1])


def test_component_labels(entry):
    assert entry.component in (None, "hyp", "odd", "even", "nonhyp")
    if entry.component in ("odd", "even"):
        assert entry.expected.spin == entry.component


# --------------------------------------------------------- frozen table


TRIPLES = {
    # signature/component -> (chi1_log, chi2_log, alpha)
    "E7": (7, 31, Fraction(29, 60)),
    "H(2,2)-odd": (5, 23, Fraction(19, 42)),
    "H(2,1,1)": (11, 53, Fraction(37, 90)),
    "H(5,1)": (12, 60, Fraction(3, 8)),
    "H(4,2)-even": (32, 152, Fraction(14, 33)),
    "H(4,2)-odd": (29, 149, Fraction(79, 228)),
    "H(3,3)-nonhyp": (8, 40, Fraction(3, 8)),
    "H(3,2,1)": (25, 133, Fraction(59, 192)),
    "H(2,2,2)-odd": (6, 33, Fraction(4, 15)),
    "H(6,2)-odd": (46, 256, Fraction(43, 171)),
    "H(5,3)": (27, 147, Fraction(19, 68)),
    "H(2,2,2)-even-1": (7, 34, Fraction(23, 57)),
    "H(2,2,2)-even-2": (7, 34, Fraction(23, 57)),
}


def test_triples_table():
    for key, (chi1, chi2_log, alpha) in TRIPLES.items():
        e = catalog.get(key)
        assert (e.expected.chi1_log, e.expected.chi2_log, e.expected.alpha) == (
            chi1,
            chi2_log,
            alpha,
        ), key


def test_even_component_models_share_spectra():
    # two inequivalent rings over (2,2,2) with identical weight data
    a = catalog.get("H(2,2,2)-even-1").algebra()
    b = catalog.get("H(2,2,2)-even-2").algebra()
    assert inv.weight_spectrum(a, 1) == inv.weight_spectrum(b, 1)
    assert inv.weight_spectrum(a, 2) == inv.weight_spectrum(b, 2)
    assert ba.gap_sequence(a) == ba.gap_sequence(b)
    # but the rings differ: one is a hypersurface with two generators
    assert len(catalog.get("H(2,2,2)-even-1").generators) == 2
    assert len(catalog.get("H(2,2,2)-even-2").generators) == 3


def test_special_locus_entries():
    special = {e.id: e for e in catalog.entries() if e.locus_condition is not None}
    assert set(special) == {"H(7,1)-special", "H(7,3)-special"}
    assert special["H(7,1)-special"].locus_condition == ((3, 0), 2)
    assert special["H(7,3)-special"].locus_condition == ((2, 1), 2)
    for e in special.values():
        assert e.expected.alpha == Fraction(3, 8)
        assert not e.nonvarying
        # the classifier wraps the condition in an OverrideModel built directly,
        # with no spec check: one coefficient per point and h0 >= 0 hold here
        divisor, h0 = e.locus_condition
        assert len(divisor) == len(e.signature) and h0 >= 0, e.id


def test_nonvarying_flags():
    ids = {e.id for e in catalog.nonvarying_entries()}
    assert ids == {
        "E6",
        "E7",
        "E8",
        "H(6)-odd",
        "H(2,2)-odd",
        "H(2,1,1)",
        "H(5,1)",
        "H(4,2)-even",
        "H(4,2)-odd",
        "H(3,3)-nonhyp",
        "H(3,2,1)",
        "H(2,2,2)-odd",
        "H(6,2)-odd",
        "H(5,3)",
    }
    # the even component over (2,2,2) varies, its odd sibling does not
    assert not catalog.get("H(2,2,2)-even-1").nonvarying
    assert not catalog.get("H(1,1,1,1)-sample").nonvarying


def test_as_dict_round_trip(entry):
    doc = catalog.as_dict(entry)
    assert doc["id"] == entry.id
    assert doc["expected"]["alpha"] == str(entry.expected.alpha)
    assert doc["signature"] == list(entry.signature)
    import json

    json.dumps(doc)  # must be serializable as-is
    assert catalog._entry_from_doc(doc) == entry


# ---------------------------------------------------------------- families


def test_family_A():
    e = catalog.family("A", g=3)
    assert e.id == "A6"
    assert e.signature == (4,)
    assert e.component == "hyp"
    assert e.expected.chi1_log == 9  # gap sum of <2,7>
    assert e.expected.slope == Fraction(8 * 3 + 4, 3)
    chi1 = inv.weight_spectrum(e.algebra(), 1).chi_log
    assert chi1 == 9


def test_family_closed_forms():
    for g in range(2, 21):
        assert catalog.family("A", g=g).expected.chi1_log == g * g
        assert catalog.family("A", g=g).expected.chi2_log == 5 * g * g - 4 * g + 1
        aodd = catalog.family("A-odd", g=g).expected
        assert (aodd.chi1_log, aodd.chi2_log) == (g * (g + 1) // 2, (5 * g * g + g) // 2)
        assert aodd.alpha == Fraction(3 * g + 11, 8 * g + 12)
        dodd = catalog.family("D-odd", g=g).expected
        assert (dodd.chi1_log, dodd.chi2_log) == (g * g, 5 * g * g - 2 * g)
        assert dodd.alpha == Fraction(3 * g + 4, 8 * g + 2)
        deven = catalog.family("D-even", g=g).expected
        assert (deven.chi1_log, deven.chi2_log) == (
            g * (g + 1) // 2,
            (5 * g * g + 3 * g) // 2,
        )
        assert deven.alpha == Fraction(3 * g + 7, 8 * g + 10)
        # the whole series sits on one slope line
        for exp in (catalog.family("A", g=g).expected, aodd, dodd, deven):
            assert exp.slope == 8 + Fraction(4, g)


@pytest.mark.parametrize("name", ["A", "A-odd", "D-odd", "D-even"])
@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_family_algebras_reproduce(name, g):
    e = catalog.family(name, g=g)
    sig = derive(e.signature)
    alg = e.algebra()
    assert inv.weight_spectrum(alg, 1).chi_log == e.expected.chi1_log
    assert inv.weight_spectrum(alg, 2).chi_log == e.expected.chi2_log
    assert ba.gap_sequence(alg) == e.expected.gap_sequence
    assert alg.delta == e.expected.delta
    assert ba.validate_G_conditions(alg, e.dualizing_units).all_pass
    assert sig.genus == g


def test_family_elliptic():
    e = catalog.family("elliptic", n=4)
    assert e.expected.chi2_log == 5
    assert e.expected.alpha == Fraction(3, 8)
    assert catalog.family("elliptic", n=3).expected.alpha == Fraction(5, 9)
    for n in range(3, 9):
        e = catalog.family("elliptic", n=n)
        sig = derive(e.signature)
        alg = e.algebra()
        assert inv.weight_spectrum(alg, 1).chi_log == 1
        assert inv.weight_spectrum(alg, 2).chi_log == n + 1
        assert inv.chi2_from_log(n + 1, sig) == 1
        assert e.expected.slope == 12
        assert ba.validate_G_conditions(alg, e.dualizing_units).all_pass


def test_elliptic_units_are_the_scaled_lagrange_denominators():
    # u_i = 1 / prod_{j != i} (v_i - v_j) at the nodes v = 1..n, times the lcm
    # of their denominators: the closed form's signed binomial row
    for n in range(3, 41):
        units = [Fraction(1, math.prod(v - w for w in range(1, n + 1) if w != v))
                 for v in range(1, n + 1)]
        scale = math.lcm(*(u.denominator for u in units))
        closed = catalog._elliptic_units(n)
        assert closed == [u * scale for u in units], n
        assert all(isinstance(u, Fraction) for u in closed)


def test_family_elliptic_12_stores_alpha_as_undefined():
    # 13*chi1_log = 13 = chi2_log: alpha's denominator vanishes, yet the ring
    # is a valid Gorenstein ring and its slope is defined and checked
    with pytest.raises(ValueError, match="alpha undefined"):
        inv.alpha(1, 13)
    e = catalog.family("elliptic", n=12)
    assert (e.expected.chi1_log, e.expected.chi2_log) == (1, 13)
    assert e.expected.alpha is None
    assert e.expected.slope == 12
    alg = e.algebra()
    assert inv.weight_spectrum(alg, 1).chi_log == 1
    assert inv.weight_spectrum(alg, 2).chi_log == 13
    assert ba.validate_G_conditions(alg, e.dualizing_units).all_pass
    text = json.dumps(catalog.as_dict(e))
    assert '"alpha": null' in text
    assert catalog._entry_from_doc(json.loads(text)) == e
    plus = catalog.with_ordinary_points(catalog.family("elliptic", n=11), 1)
    assert plus.expected.alpha is None and plus.expected.slope == 12


def test_family_monomial():
    e = catalog.family("monomial", H=(3, 5))
    assert e.id == "E8"
    assert e.expected.chi2_log == 63
    assert catalog.family("monomial", H=(3, 4)).id == "E6"
    assert catalog.family("monomial", H=(4, 5, 6)).expected == catalog.get("H(6)-odd").expected
    # <3,7> is the genus-six locus carrier: even parity, gap sum 31
    e37 = catalog.family("monomial", H=(3, 7))
    assert e37.signature == (10,)
    assert e37.component == "even"
    assert e37.expected.chi1_log == 31
    assert 4 * e37.expected.chi1_log >= (2 * 6 - 2 + 1) * 11  # clears the 3/8 cut
    assert not e37.nonvarying
    # the semigroup's parity below g is the half-canonical section parity
    for g in range(2, 7):
        for H in sg.enumerate_symmetric(g):
            alg = catalog.family("monomial", H=H).algebra()
            h = ba.section_space(alg, (g - 1,)).dimension
            assert H.spin == (None if H.hyperelliptic else "odd" if h % 2 else "even"), H


@pytest.mark.parametrize("stored", [e for e in catalog.entries() if len(e.signature) == 1],
                         ids=lambda e: e.id)
def test_monomial_family_agrees_with_the_stored_ring(stored):
    H = sg.from_generators(sorted(terms[0][1] for _, terms in stored.generators))
    member = catalog.family("monomial", H=H)
    assert member.id == stored.id
    assert member.signature == stored.signature
    assert member.component == stored.component
    assert member.nonvarying == stored.nonvarying
    assert member.dualizing_units == stored.dualizing_units
    for name in catalog.ExpectedInvariants._fields:  # computed from H, not copied
        assert getattr(member.expected, name) == getattr(stored.expected, name), name


def test_family_validation():
    with pytest.raises(ValueError):
        catalog.family("A", g=1)
    with pytest.raises(ValueError):
        catalog.family("elliptic", n=2)
    with pytest.raises(ValueError):
        catalog.family("monomial", H=(4, 6))  # gcd 2: not cofinite
    with pytest.raises(ValueError):
        catalog.family("monomial", H=(3, 4, 5))  # not symmetric
    with pytest.raises(ValueError):
        catalog.family("nope")


# ------------------------------------------------------- ordinary points


def test_ordinary_points_update_rule():
    e = catalog.with_ordinary_points(catalog.get("E7"), 1)
    assert e.id == "E7+1pt"
    assert e.signature == (3, 1, 0)
    assert e.expected.chi1_log == 7
    assert e.expected.chi2_log == 35
    assert e.expected.slope == catalog.get("E7").expected.slope
    assert not e.nonvarying
    alg = e.algebra()
    assert inv.weight_spectrum(alg, 1).chi_log == 7
    assert inv.weight_spectrum(alg, 2).chi_log == 35
    assert ba.validate_G_conditions(alg, e.dualizing_units).all_pass


def test_ordinary_points_whole_catalog():
    for base in catalog.entries():
        ell = derive(base.signature).ell
        ext = catalog.with_ordinary_points(base, 2)
        assert ext.signature == (*base.signature, 0, 0)
        assert ext.expected.chi1_log == base.expected.chi1_log
        assert ext.expected.chi2_log == base.expected.chi2_log + 2 * ell
        assert ext.expected.delta == base.expected.delta + 2
        assert ext.expected.gap_sequence == base.expected.gap_sequence
        assert ext.expected.spin == base.expected.spin


def test_ordinary_points_engine_check():
    # recompute the shifted characters from the extended ring itself, so the
    # +k*ell rule is checked against the engine and not just bookkeeping
    for key in ["E6", "H(5,1)", "H(2,2,2)-odd", "H(7,1)-special"]:
        base = catalog.get(key)
        ext = catalog.with_ordinary_points(base, 1)
        alg = ext.algebra()
        assert inv.weight_spectrum(alg, 1).chi_log == base.expected.chi1_log
        assert (
            inv.weight_spectrum(alg, 2).chi_log
            == base.expected.chi2_log + derive(base.signature).ell
        )
        assert ba.validate_G_conditions(alg, ext.dualizing_units).all_pass


def test_A_plus_point_is_D_odd():
    # adding one ordinary branch to the one-branch series lands on the
    # two-branch series: same ring, independently constructed
    for g in range(2, 6):
        extended = catalog.with_ordinary_points(catalog.family("A", g=g), 1)
        direct = catalog.family("D-odd", g=g)
        ext_alg, direct_alg = extended.algebra(), direct.algebra()
        assert ba.algebra_summary(ext_alg) == ba.algebra_summary(direct_alg)
        top = ba.window(direct_alg.signature)
        assert ba.graded_dims(ext_alg, top) == ba.graded_dims(direct_alg, top)
        assert extended.expected.chi2_log == direct.expected.chi2_log
        assert extended.expected.alpha == direct.expected.alpha


def test_elliptic_plus_point_matches_next_n():
    for n in range(3, 7):
        plus = catalog.with_ordinary_points(catalog.family("elliptic", n=n), 1).expected
        direct = catalog.family("elliptic", n=n + 1).expected
        assert (plus.chi1_log, plus.chi2_log, plus.alpha, plus.slope, plus.delta) == (
            direct.chi1_log,
            direct.chi2_log,
            direct.alpha,
            direct.slope,
            direct.delta,
        )
        assert sorted(plus.ambient_weights) == sorted(direct.ambient_weights)


def test_with_ordinary_points_validation():
    with pytest.raises(ValueError):
        catalog.with_ordinary_points(catalog.get("E7"), 0)
