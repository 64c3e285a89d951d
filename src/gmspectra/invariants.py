"""Weight spectra and the exact rational invariants built from them.

The m-th spectrum lists the multiplicities N_{m,lam} of the scaling weights
on m-fold pluricanonical sections; its weighted sum is the character
chi_m^log.  From the first two characters come the alpha-invariant and the
slope, always as exact fractions; alpha reads the two characters alone
(dangling branches lower only the search cutoff, classifier._threshold_x).
A standalone lattice-point identity cross-checks the one-branch toric count.
Spectra and reports are named tuples: immutable, equal to the plain tuple
of their fields, and copied with ``_replace``.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import branch_algebra as ba
from .curve_models import filtration_dims
from .signature import Signature


class WeightSpectrum(NamedTuple):
    m: int
    entries: tuple[tuple[int, int], ...]  # (weight, multiplicity), ascending

    @property
    def chi_log(self) -> int:
        return sum([lam * mult for lam, mult in self.entries])

    @property
    def total_multiplicity(self) -> int:
        return sum(mult for _, mult in self.entries)

    def multiplicity(self, lam: int) -> int:
        for weight, mult in self.entries:
            if weight == lam:
                return mult
        return 0

    def nonzero_weights(self) -> tuple[int, ...]:
        """Positive weights repeated with multiplicity, ascending."""
        out = []
        for lam, mult in self.entries:
            if lam > 0:
                out.extend([lam] * mult)
        return tuple(out)


def weight_spectrum(source, m: int = 1, sig: Signature | None = None) -> WeightSpectrum:
    """Spectrum from a branch algebra, or from an h0 model plus signature.

    Algebra route: N_{m,lam} = dim R_{m*ell - lam}, at any level m (a
    level past the computed degrees extends the closure), read only on the
    degrees that carry a slot.  Model route: the ends of the runs of
    filtration_dims (which refuses an increase) zipped with their dims, the
    drop from each run to the next at its last level, kept where it is
    nonzero.
    """
    if m < 1:
        raise ValueError("pluricanonical level m must be at least 1")
    if isinstance(source, ba.BranchAlgebra):
        top = m * source.signature.ell
        counts = [(top - k, source.dim(k)) for k in reversed(source.degrees(top))]
        return WeightSpectrum(m, tuple((lam, c) for lam, c in counts if c > 0))
    if sig is None:
        raise ValueError("model sources need the signature")
    runs = filtration_dims(source, sig, m)
    dims = runs.dims
    return WeightSpectrum(m, tuple([(hi, dim - after) for hi, dim, after
                                    in zip(runs.ends, dims, dims[1:] + (0,)) if dim > after]))


class WeightIdentityReport(NamedTuple):
    top_multiplicity_ok: bool  # N_{m,(m-1)ell} = n - 1
    ladder_differences_ok: bool  # N_{m,lam} = sum_i (l_{lam+1,i} - l_{lam,i}) below (m-1)ell
    shifted_tail_ok: bool  # weights above (m-1)ell are (m-1)ell + w_i
    chi_formula_ok: bool  # chi_m^log = (m-1)m(2g-2+n)ell/2 + sum w_i
    notes: tuple[str, ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.top_multiplicity_ok
            and self.ladder_differences_ok
            and self.shifted_tail_ok
            and self.chi_formula_ok
        )


def verify_weight_identities(
    spectrum_m: WeightSpectrum, spectrum_1: WeightSpectrum, sig: Signature
) -> WeightIdentityReport:
    """Check the four structural identities tying level m to level one."""
    m = spectrum_m.m
    if m < 2:
        raise ValueError("identities compare level m >= 2 against level one")
    if spectrum_1.m != 1:
        raise ValueError("second argument must be the level-one spectrum")
    n = sig.n
    ell = sig.ell
    pivot = (m - 1) * ell
    notes = []
    held = dict(spectrum_m.entries)

    top_ok = held.get(pivot, 0) == n - 1
    if not top_ok:
        notes.append(f"multiplicity at {pivot} is {held.get(pivot, 0)}, not {n - 1}")

    # l_{lam+1,i} - l_{lam,i} is 1 exactly when a_i divides lam, so below the
    # pivot the difference is N = #{i : a_i | lam}, zero off the progressions
    # a_i*k; comparing there and at the spectrum's own weights, smallest
    # first, finds the first mismatch of the per-level loop
    expected = Counter(lam for a in sig.weights_a for lam in range(0, pivot, a))
    below = {lam for lam in held if 0 <= lam < pivot}
    ladder_ok = True
    for lam in sorted(below.union(expected)):
        if held.get(lam, 0) != expected[lam]:
            ladder_ok = False
            notes.append(
                f"multiplicity at {lam} is {held.get(lam, 0)}, "
                f"ladder difference gives {expected[lam]}"
            )
            break

    tail = tuple(
        lam for lam, mult in spectrum_m.entries if lam > pivot for _ in range(mult)
    )
    shifted = tuple(pivot + w for w in spectrum_1.nonzero_weights())
    tail_ok = sorted(tail) == sorted(shifted)
    if not tail_ok:
        notes.append(f"tail weights {tail} differ from shifted {shifted}")

    g = sig.genus
    expected_chi = (m - 1) * m * (2 * g - 2 + n) * ell // 2 + sum(
        spectrum_1.nonzero_weights()
    )
    chi_ok = spectrum_m.chi_log == expected_chi
    if not chi_ok:
        notes.append(f"chi_{m}^log is {spectrum_m.chi_log}, formula gives {expected_chi}")

    return WeightIdentityReport(top_ok, ladder_ok, tail_ok, chi_ok, tuple(notes))


# ------------------------------------------------- characters and ratios


def chi2_from_log(chi2_log: int, sig: Signature) -> int:
    """Drop the logarithmic correction: chi_2 = chi_2^log - sum_i a_i."""
    return chi2_log - sum(sig.weights_a)


def alpha(chi1_log: int, chi2_log: int) -> Fraction:
    """The alpha-invariant (13x1 - 2x2) / (13x1 - x2) on log characters.

    Dangling branches enter only through the search cutoff,
    classifier._threshold_x.
    """
    den = 13 * chi1_log - chi2_log
    if den == 0:
        raise ValueError("alpha undefined: 13*chi1_log equals chi2_log")
    return Fraction(13 * chi1_log - 2 * chi2_log, den)


def slope(chi1_log: int, chi2_log: int, sig: Signature) -> Fraction:
    """Slope of the character pair, computed along both routes.

    Route one is (13*chi_1 - chi_2)/chi_1; route two rewrites it through
    the level-two character identity.  They agree exactly iff the pair
    satisfies that identity, so a mismatch raises.
    """
    if chi1_log <= 0:
        raise ValueError("chi1_log must be positive")
    chi2 = chi2_from_log(chi2_log, sig)
    direct = Fraction(13 * chi1_log - chi2, chi1_log)
    g, n, ell = sig.genus, sig.n, sig.ell
    deficit = (2 * g - 2 + n) * ell - sum(sig.weights_a)
    rewritten = 12 - Fraction(deficit, chi1_log)
    if direct != rewritten:
        raise ValueError(
            f"slope routes disagree ({direct} vs {rewritten}): "
            "chi2_log does not satisfy the level-two identity"
        )
    return direct


class AlphaSlopeRecord(NamedTuple):
    chi1_log: int
    chi2_log: int
    chi2: int
    alpha: Fraction | None  # None where 13*chi1_log equals chi2_log
    slope: Fraction


def alpha_slope_record(chi1_log: int, chi2_log: int, sig: Signature) -> AlphaSlopeRecord:
    try:
        value = alpha(chi1_log, chi2_log)
    except ValueError:  # 13*chi1_log equals chi2_log, as on elliptic-12
        value = None
    return AlphaSlopeRecord(
        chi1_log=chi1_log,
        chi2_log=chi2_log,
        chi2=chi2_from_log(chi2_log, sig),
        alpha=value,
        slope=slope(chi1_log, chi2_log, sig),
    )


def algebra_report(alg: ba.BranchAlgebra, levels=(1, 2)) -> dict:
    """Every computed invariant of one algebra, as ``gmspectra invariants``
    prints it: ba.algebra_summary, chi{m}_log per level, then chi2, alpha
    (if defined) and slope when levels 1 and 2 are read on a Gorenstein
    ring, as the slope identity needs, then spin when every order is even.
    """
    report = ba.algebra_summary(alg)
    for m in levels:
        report[f"chi{m}_log"] = weight_spectrum(alg, m).chi_log
    if 1 in levels and 2 in levels and report["gorenstein"]:
        rec = alpha_slope_record(report["chi1_log"], report["chi2_log"], alg.signature)
        report["chi2"] = rec.chi2
        if rec.alpha is not None:
            report["alpha"] = rec.alpha
        report["slope"] = rec.slope
    spin = ba.spin_parity(alg)
    if spin is not None:
        report["spin"] = spin
    return report


# ------------------------------------------------------- toric identity


class ToricIdentityReport(NamedTuple):
    p: int
    q: int
    branches: int  # b = gcd(p, q)
    closed_form: Fraction
    lattice_count: int
    chi1_log: int  # the lattice count, which is the character

    @property
    def equal(self) -> bool:
        return self.closed_form == self.lattice_count


def toric_lattice_identity(p: int, q: int) -> ToricIdentityReport:
    """Compare the closed form against a brute-force lattice count.

    With b = gcd(p, q) and c = pq - p - q, the claim is
    (c^2 + pq(c + 1) - b^2) / (12b) = sum over n = 0..(c-b)/b of the number
    of lattice points (i, j) >= 0 with qi + pj <= nb.  Degenerate inputs
    with c < b (genus zero) are rejected.
    """
    if p < 2 or q < 2:
        raise ValueError("both parameters must be at least 2")
    b = gcd(p, q)
    c = p * q - p - q
    if c - b < 0:
        raise ValueError(f"degenerate pair ({p}, {q}): pq - p - q < gcd")
    closed = Fraction(c * c + p * q * (c + 1) - b * b, 12 * b)
    total = 0
    for step in range(0, (c - b) // b + 1):
        cap = step * b
        for i in range(cap // q + 1):
            total += (cap - q * i) // p + 1
    return ToricIdentityReport(p, q, b, closed, total, total)
