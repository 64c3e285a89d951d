"""Weight spectra, character identities, alpha, slope, and the toric count.

The level-m spectrum of every catalog algebra must satisfy the four
structural identities against its level-one spectrum, and the two slope
formulas must agree whenever the characters come from an actual ring.
"""

from collections import Counter
from fractions import Fraction

import pytest

import gmspectra.branch_algebra as ba
import gmspectra.curve_models as cm
import gmspectra.invariants as inv
import gmspectra.semigroup as sg
from gmspectra import catalog
from gmspectra.signature import derive, ladder

ENTRY_IDS = [e.id for e in catalog.entries()]


def spectra(entry, m_max=2):
    sig = derive(entry.signature)
    alg = entry.algebra()
    return sig, [inv.weight_spectrum(alg, m) for m in range(1, m_max + 1)]


# --------------------------------------------------------------- spectra


def test_spectrum_E7():
    sig, (s1, s2) = spectra(catalog.get("E7"))
    assert [lam for lam, mult in s1.entries for _ in range(mult)] == [0, 1, 2, 4]
    assert s1.chi_log == 7
    assert s2.nonzero_weights() == (1, 2, 2, 3, 4, 5, 6, 8)
    assert s2.chi_log == 31


def test_spectrum_42even():
    _, (s1, _) = spectra(catalog.get("H(4,2)-even"))
    assert s1.nonzero_weights() == (3, 5, 9, 15)
    assert s1.chi_log == 32


def test_spectrum_multiplicity_laws():
    for key in ENTRY_IDS:
        entry = catalog.get(key)
        sig, (s1, s2) = spectra(entry)
        g, n = sig.genus, sig.n
        assert s1.multiplicity(0) == n - 1, key
        assert s1.total_multiplicity == g - 1 + n, key
        assert s2.total_multiplicity == 3 * (g - 1) + 2 * n, key
        assert len(s1.nonzero_weights()) == g, key


def test_spectrum_cap_and_level_errors():
    e = catalog.get("E7")
    alg = e.algebra()  # computed up to the window W = 10
    s3 = inv.weight_spectrum(alg, 3)  # level 3 reads degree 12 and extends the closure
    report = inv.verify_weight_identities(s3, inv.weight_spectrum(alg, 1), derive(e.signature))
    assert report.all_pass, report.notes
    with pytest.raises(ValueError):
        inv.weight_spectrum(alg, 0)
    with pytest.raises(ValueError):
        inv.weight_spectrum(cm.CliffordMaxModel(3), 1)  # needs the signature


IDENTITY_ENTRIES = (*catalog.entries(),
                    catalog.family("D-odd", g=5), catalog.family("D-odd", g=9),
                    catalog.family("elliptic", n=5), catalog.family("A-odd", g=4),
                    catalog.family("D-even", g=4),
                    catalog.with_ordinary_points(catalog.get("E7"), 2),
                    catalog.family("monomial", H=(4, 6, 9)))


def sections_one_slot_too_many(alg, divisor):
    """ba.section_space's count, but dropping slot i of degree k already at
    k = a_i*c_i: a deliberately broken copy the identity check must catch."""
    a = alg.signature.weights_a
    k_top = max((a[i] * c for i, c in enumerate(divisor) if c >= 0), default=-1)
    return sum(alg.dim(k) - alg.rank(k, [pos for pos, i in enumerate(alg.slots(k))
                                         if k >= a[i] * divisor[i]])
               for k in alg.degrees(k_top))


def ladder_identity_holds(alg, m, sections):
    """At every level lam, the section count of the ladder row is dim R_k
    summed over k <= m*ell - lam, and the level-m spectrum's levels are
    that dense section read."""
    sig = alg.signature
    top = m * sig.ell
    dense = tuple(sections(alg, [m * (order + 1) - step for order, step
                                 in zip(sig.orders, ladder(sig, lam))])
                  for lam in range(top + 1))
    graded = ba.graded_dims(alg, top)
    return (dense == tuple(sum(graded[:top - lam + 1]) for lam in range(top + 1))
            and inv.weight_spectrum(alg, m).levels(top) == dense)


@pytest.mark.parametrize("entry", IDENTITY_ENTRIES, ids=lambda e: e.id)
def test_ladder_sections_are_the_summed_graded_dimensions(entry):
    alg = entry.algebra()
    for m in (1, 2, 3):
        assert ladder_identity_holds(alg, m, lambda a, d: ba.section_space(a, d).dimension)
        assert not ladder_identity_holds(alg, m, sections_one_slot_too_many)


# ------------------------------------------------------------- identities


@pytest.mark.parametrize("key", ENTRY_IDS)
def test_weight_identities_m234(key):
    entry = catalog.get(key)
    sig, specs = spectra(entry, m_max=4)
    s1 = specs[0]
    for s_m in specs[1:]:
        report = inv.verify_weight_identities(s_m, s1, sig)
        assert report.all_pass, (key, s_m.m, report.notes)


def test_identity_chi2_is_shifted_chi1():
    # level two always sits (2g-2+n) * ell above level one
    for key in ENTRY_IDS:
        e = catalog.get(key)
        sig = derive(e.signature)
        shift = (2 * sig.genus - 2 + sig.n) * sig.ell
        assert e.expected.chi2_log == shift + e.expected.chi1_log, key


def test_identity_report_catches_damage():
    e = catalog.get("E7")
    sig, (s1, s2) = spectra(e)
    broken = inv.WeightSpectrum(2, tuple((lam, mult + (lam == 0)) for lam, mult in s2.entries))
    report = inv.verify_weight_identities(broken, s1, sig)
    assert not report.all_pass
    assert report.notes
    with pytest.raises(ValueError):
        inv.verify_weight_identities(s1, s1, sig)


def scanned_identities(spectrum_m, spectrum_1, sig):
    """The identity report read level by level, each multiplicity by a
    linear scan of the entries (WeightSpectrum.multiplicity)."""
    m, n, ell = spectrum_m.m, sig.n, sig.ell
    pivot = (m - 1) * ell
    notes = []
    if spectrum_m.multiplicity(pivot) != n - 1:
        notes.append(f"multiplicity at {pivot} is {spectrum_m.multiplicity(pivot)}, not {n - 1}")
    for lam in range(pivot):
        expected = sum(ladder(sig, lam + 1)) - sum(ladder(sig, lam))
        if spectrum_m.multiplicity(lam) != expected:
            notes.append(f"multiplicity at {lam} is {spectrum_m.multiplicity(lam)}, "
                         f"ladder difference gives {expected}")
            break
    tail = tuple(w for w in spectrum_m.nonzero_weights() if w > pivot)
    shifted = tuple(pivot + w for w in spectrum_1.nonzero_weights())
    if tail != shifted:
        notes.append(f"tail weights {tail} differ from shifted {shifted}")
    chi = (m - 1) * m * (2 * sig.genus - 2 + n) * ell // 2 + spectrum_1.chi_log
    if spectrum_m.chi_log != chi:
        notes.append(f"chi_{m}^log is {spectrum_m.chi_log}, formula gives {chi}")
    return ba.Checks(tuple(notes))


def moved(spectrum, source, target):
    """The spectrum with one unit of multiplicity moved from source to target."""
    counts = Counter(dict(spectrum.entries))
    counts[source] -= 1
    counts[target] += 1
    return inv.WeightSpectrum(spectrum.m, tuple(sorted((+counts).items())))


@pytest.mark.parametrize("key", ENTRY_IDS)
def test_weight_identities_match_a_linear_scan_oracle(key):
    sig, (s1, *higher) = spectra(catalog.get(key), m_max=3)
    for s_m in higher:
        pivot = (s_m.m - 1) * sig.ell
        first, last = s_m.entries[0][0], s_m.entries[-1][0]
        damaged = [moved(s_m, first, first + 1), moved(s_m, pivot, 0),
                   moved(s_m, last, pivot), moved(s_m, first, s_m.m * sig.ell + 1)]
        for spectrum in [s_m, *damaged]:
            report = inv.verify_weight_identities(spectrum, s1, sig)
            assert report == scanned_identities(spectrum, s1, sig), (key, s_m.m)
        assert all(not inv.verify_weight_identities(d, s1, sig).all_pass for d in damaged)


def test_monomial_chi1_is_gap_sum():
    # cross-module: one-branch monomial spectra vs semigroup gaps
    for g in range(1, 7):
        for H in sg.enumerate_symmetric(g):
            entry = catalog.family("monomial", H=H)
            alg = entry.algebra()
            assert inv.weight_spectrum(alg, 1).chi_log == sg.gap_sum(H), str(H)


# ------------------------------------------------------- alpha and slope


def test_alpha_examples():
    assert inv.alpha(7, 31) == Fraction(29, 60)
    assert inv.alpha(12, 60) == Fraction(3, 8)
    assert inv.alpha(46, 256) == Fraction(43, 171)


def test_alpha_degenerate():
    with pytest.raises(ValueError):
        inv.alpha(1, 13)


def test_slope_catalog():
    for key in ENTRY_IDS:
        e = catalog.get(key)
        sig = derive(e.signature)
        assert inv.slope(e.expected.chi1_log, e.expected.chi2_log, sig) == e.expected.slope


def test_slope_rejects_inconsistent_pair():
    sig = derive((3, 1))
    with pytest.raises(ValueError):
        inv.slope(7, 32, sig)  # chi2_log off by one breaks the identity
    with pytest.raises(ValueError):
        inv.slope(0, 0, sig)


def test_slope_principal_stratum_series():
    # chi1 = g + 1 on the all-ones signature
    for g in range(2, 12):
        sig = derive((1,) * (2 * g - 2))
        chi1 = g + 1
        chi2_log = (2 * g - 2 + sig.n) * sig.ell + chi1
        assert inv.slope(chi1, chi2_log, sig) == 6 + Fraction(12, g + 1)


def test_slope_odd_spin_series():
    # chi1 = g + 2 on the all-twos signature
    for g in range(3, 12):
        sig = derive((2,) * (g - 1))
        chi1 = g + 2
        chi2_log = (2 * g - 2 + sig.n) * sig.ell + chi1
        assert inv.slope(chi1, chi2_log, sig) == 4 + Fraction(24, g + 2)


def test_slope_weierstrass_series():
    # signature (g, 1^{g-2}) for odd g with chi1 = (g+1)(3g+5)/8
    for g in range(3, 14, 2):
        sig = derive((g,) + (1,) * (g - 2))
        chi1 = (g + 1) * (3 * g + 5) // 8
        chi2_log = (2 * g - 2 + sig.n) * sig.ell + chi1
        expected = 12 - Fraction(4 * (5 * g + 6) * (g - 1), (3 * g + 5) * (g + 1))
        assert inv.slope(chi1, chi2_log, sig) == expected


@pytest.mark.parametrize("name", ["A", "A-odd", "D-odd", "D-even"])
@pytest.mark.parametrize("g", range(2, 9))
def test_hyperelliptic_family_slopes_follow_the_closed_form(name, g):
    # Eskin-Kontsevich-Zorich: s = 8 + 4/g on the hyperelliptic components,
    # read off the computed ring; zero-order points leave it unchanged
    e = catalog.family(name, g=g)
    for entry in (e, *(catalog.with_ordinary_points(e, k) for k in (1, 2, 3))):
        assert inv.algebra_report(entry.algebra())["slope"] == 8 + Fraction(4, g), entry.id


def test_alpha_slope_record():
    sig = derive((3, 1))
    rec = inv.alpha_slope_record(7, 31, sig)
    assert rec.chi2 == 28
    assert rec.alpha == Fraction(29, 60)
    assert rec.slope == 9


def test_algebra_report_keys_follow_the_levels_and_the_ring():
    alg = catalog.get("E7").algebra()
    assert inv.algebra_report(alg) == {
        "delta": 4, "genus": 3, "gap_sequence": [1, 1, 0, 1], "conductor": [5, 3],
        "gorenstein": True, "chi1_log": 7, "chi2_log": 31, "chi2": 28,
        "alpha": Fraction(29, 60), "slope": 9}
    assert list(inv.algebra_report(alg, (1, 3))) == [
        "delta", "genus", "gap_sequence", "conductor", "gorenstein", "chi1_log", "chi3_log"]
    # 13*chi1_log = chi2_log: alpha alone is left out; every order even: spin
    report = inv.algebra_report(catalog.family("elliptic", n=12).algebra())
    assert "alpha" not in report and report["slope"] == 12 and report["spin"] == "odd"


def test_chi2_elliptic_is_one():
    for n in range(3, 11):
        e = catalog.family("elliptic", n=n)
        assert inv.chi2_from_log(e.expected.chi2_log, derive(e.signature)) == 1


# --------------------------------------------------------------- ordinary


def test_ordinary_point_rule_on_catalog():
    # appending zeros: chi1 fixed, chi2_log grows by k * ell
    for key in ENTRY_IDS:
        e = catalog.get(key)
        ell = derive(e.signature).ell
        for k in (1, 3):
            ext = catalog.with_ordinary_points(e, k)
            assert ext.expected.chi1_log == e.expected.chi1_log
            assert ext.expected.chi2_log == e.expected.chi2_log + k * ell


# ------------------------------------------------------------------ toric


def test_toric_small_cases():
    r = inv.toric_lattice_identity(2, 3)
    assert r.branches == 1 and r.lattice_count == 1 and r.equal
    assert inv.toric_lattice_identity(3, 4).lattice_count == 8
    assert inv.toric_lattice_identity(3, 4).lattice_count == sg.gap_sum(sg.from_generators((3, 4)))
    r46 = inv.toric_lattice_identity(4, 6)
    assert r46.branches == 2 and r46.equal and r46.lattice_count == 23


def test_toric_identity_sweep():
    for p in range(2, 13):
        for q in range(2, 13):
            if p * q - p - q - __import__("math").gcd(p, q) < 0:
                continue
            report = inv.toric_lattice_identity(p, q)
            assert report.equal, (p, q, report.closed_form, report.lattice_count)


def test_toric_coprime_matches_planar_formula():
    from math import gcd

    for p in range(2, 11):
        for q in range(p + 1, 16):
            if gcd(p, q) != 1:
                continue
            report = inv.toric_lattice_identity(p, q)
            assert report.lattice_count == report.closed_form == sg.gap_sum(sg.from_generators((p, q)))


def test_toric_degenerate():
    with pytest.raises(ValueError):
        inv.toric_lattice_identity(2, 2)
    with pytest.raises(ValueError):
        inv.toric_lattice_identity(1, 5)
