"""Run-length filtrations against the per-level definitions they replace.

``ladder_runs`` sets the bounds of every run: its ends are checked
against a scan of where the ladder changes, and the ladder frame of
(sig, m) against the ladder at its run starts.  ``filtration_dims`` reads
the model once per filtration, one frame read over the ladder breakpoints,
and its runs are exactly the ladder's runs (equal neighbours are not
merged); a filtration that increases is refused at its first rise.
``n_plus`` counts between the levels where the parity flips, pinned at its
edges (a step at either end, steps that cancel), and the ladder-difference check
of ``verify_weight_identities`` compares on the breakpoints only.  Every
property here rebuilds the dense per-level answer by brute force (one
ladder, one divisor, one h0 per level) and compares.  The last tests run
at a period ell near 10^11, where only the run form can finish.
"""

import time
from collections import Counter
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

import gmspectra.curve_models as cm
import gmspectra.invariants as inv
import gmspectra.semigroup as sg
from gmspectra.classifier import (
    clifford_profile_chi1,
    hyperelliptic_chi1,
    hyperelliptic_taggings,
)
from gmspectra.signature import (
    derive,
    enumerate_signatures,
    ladder,
    ladder_runs,
    n_plus,
)

SIGNATURES = [
    derive(orders + (0,) * k)
    for g in range(1, 7)
    for orders in [s.orders for s in enumerate_signatures(g, 5)] or [()]  # genus one: no core
    for k in range(5 - len(orders) + 1)
    if orders or k
]
LEVELS = st.sampled_from((1, 2, 3))


def level_divisor(sig, m, lam):
    steps = ladder(sig, lam)
    return tuple(m * (order + 1) - step for order, step in zip(sig.orders, steps))


def dense_reference(model, sig, m):
    """The per-level filtration: ladder, then divisor, then h0, at every lam."""
    return tuple(model.h0(level_divisor(sig, m, lam)) for lam in range(m * sig.ell + 1))


def models_for(sig):
    """Clifford-max, every hyperelliptic tagging, and unibranch when n = 1."""
    out = [cm.CliffordMaxModel(sig.genus)]
    out += [
        cm.HyperellipticModel(sig.genus, t.model_tags(sig))
        for t in hyperelliptic_taggings(sig)
    ]
    if sig.n == 1:
        out += [cm.UnibranchModel(H) for H in sg.enumerate_symmetric(sig.genus)]
    return out


@st.composite
def cases(draw):
    """(model, sig, m) with an optional override pinning one level's divisor."""
    sig = draw(st.sampled_from(SIGNATURES))
    m = draw(LEVELS)
    model = draw(st.sampled_from(models_for(sig)))
    if draw(st.booleans()):
        divisor = level_divisor(sig, m, draw(st.integers(0, m * sig.ell)))
        value = max(0, model.h0(divisor) + draw(st.integers(-1, 1)))
        model = cm.OverrideModel(model, ((divisor, value),))
    return model, sig, m


def runs_or_refusal(model, sig, m):
    """(runs, dense): the runs are None where the dense filtration increases,
    after checking that filtration_dims refuses it naming the first rise."""
    dense = dense_reference(model, sig, m)
    rise = next((lam for lam in range(1, len(dense)) if dense[lam] > dense[lam - 1]), None)
    if rise is None:
        return cm.filtration_dims(model, sig, m), dense
    with pytest.raises(ValueError, match=f"not non-increasing: {dense[rise]} at lam = {rise} "):
        cm.filtration_dims(model, sig, m)
    return None, dense


@settings(max_examples=200, deadline=None)
@given(cases())
def test_runs_tile_the_levels(case):
    model, sig, m = case
    runs, _ = runs_or_refusal(model, sig, m)
    if runs is None:
        return
    starts, ends, dims, lengths = runs
    assert starts[0] == 0
    assert ends[-1] == m * sig.ell
    assert len(starts) == len(ends) == len(dims) == len(lengths)
    for lo, hi, length, next_lo in zip(starts, ends, lengths, starts[1:]):
        assert lo <= hi
        assert next_lo == hi + 1
        assert length == hi - lo + 1
    assert lengths[-1] == ends[-1] - starts[-1] + 1
    assert list(starts) == ladder_runs(sig, m * sig.ell)[0]
    assert len(starts) <= m * (2 * sig.genus - 2 + sig.n) + 1


@settings(max_examples=200, deadline=None)
@given(cases())
def test_spectrum_levels_equal_the_dense_filtration(case):
    runs, dense = runs_or_refusal(*case)
    if runs is None:
        return
    model, sig, m = case
    assert inv.weight_spectrum(model, m, sig).levels(m * sig.ell) == dense
    assert cm.runs_chi_log(runs) == sum(dense[1:])


def pinned_last_run(model, sig, m):
    """The model with the divisor of the last level pinned one below its
    value (at least 0): a lower last run keeps the filtration non-increasing."""
    divisor = level_divisor(sig, m, m * sig.ell)
    return cm.OverrideModel(model, ((divisor, max(0, model.h0(divisor) - 1)),))


@pytest.mark.parametrize("orders", [(4,), (6,), (3, 3), (2, 2), (4, 0)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_runs_share_the_frame_columns_and_sum_to_the_dense_chi(orders, m):
    sig = derive(orders)
    models = models_for(sig)
    models += [pinned_last_run(model, sig, m) for model in models]
    kinds = {type(model) for model in models}
    assert {cm.CliffordMaxModel, cm.HyperellipticModel, cm.OverrideModel} <= kinds
    assert (cm.UnibranchModel in kinds) == (sig.n == 1)
    for model in models:
        runs = cm.filtration_dims(model, sig, m)
        frame = cm._ladder_frame(sig, m)
        assert runs.starts is frame.starts
        assert runs.ends is frame.ends
        assert runs.lengths is frame.lengths
        assert all(type(column) is tuple for column in runs)
        assert cm.runs_chi_log(runs) == sum(dense_reference(model, sig, m)[1:])


@settings(max_examples=200, deadline=None)
@given(cases())
def test_weight_spectrum_is_the_successive_differences(case):
    model, sig, m = case
    dense = dense_reference(model, sig, m)
    diffs = [(lam, a - b) for lam, (a, b) in enumerate(zip(dense, dense[1:] + (0,)))]
    if any(c < 0 for _, c in diffs):
        try:
            inv.weight_spectrum(model, m, sig)
        except ValueError:
            return
        raise AssertionError("an increasing filtration was accepted")
    spectrum = inv.weight_spectrum(model, m, sig)
    assert spectrum.entries == tuple((lam, c) for lam, c in diffs if c > 0)


def ladder_changes(sig, hi):
    """The levels in [0, hi) after which the ladder changes, by a scan."""
    return [lam for lam in range(hi) if ladder(sig, lam + 1) != ladder(sig, lam)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ladder_runs_and_frames_match_the_ladder(data):
    sig = data.draw(st.sampled_from(SIGNATURES))
    m = data.draw(LEVELS)
    hi = data.draw(st.integers(0, 3 * sig.ell + 2))
    starts, ends, steps = ladder_runs(sig, hi)
    changes = ladder_changes(sig, hi)
    assert ends == changes + [hi]
    assert starts == [0] + [lam + 1 for lam in changes]
    assert list(accumulate(steps)) == [sum(ladder(sig, lam)) for lam in starts]
    # the frame of (sig, m): the runs of [0, m*ell], each row's divisor
    # m*(m_i + 1) - ceil(lam/a_i) at its start, and its degree the row sum
    frame = cm._ladder_frame(sig, m)
    changes = ladder_changes(sig, m * sig.ell)
    assert frame.ends == (*changes, m * sig.ell)
    assert frame.starts == (0, *(lam + 1 for lam in changes))
    assert frame.lengths == tuple(hi - lo + 1 for lo, hi in zip(frame.starts, frame.ends))
    assert frame.columns == tuple(zip(*(
        [m * (order + 1) - step for order, step in zip(sig.orders, ladder(sig, lam))]
        for lam in frame.starts)))
    assert frame.degrees == tuple(map(sum, zip(*frame.columns)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_n_plus_counts_even_levels(data):
    sig = data.draw(st.sampled_from(SIGNATURES))
    top = 3 * sig.ell + 2
    lo = data.draw(st.one_of(st.just(0), st.integers(0, top)))
    hi = data.draw(st.integers(max(0, lo - 3), top))
    brute = sum(
        1 for lam in range(lo, hi + 1) if (sum(ladder(sig, lam)) - sig.n) % 2 == 0
    )
    assert n_plus(sig, lo, hi) == brute


def dense_ladder_note(spectrum, sig):
    """The first note of the per-level ladder-difference loop, or None."""
    for lam in range((spectrum.m - 1) * sig.ell):
        expected = sum(ladder(sig, lam + 1)) - sum(ladder(sig, lam))
        if spectrum.multiplicity(lam) != expected:
            return (
                f"multiplicity at {lam} is {spectrum.multiplicity(lam)}, "
                f"ladder difference gives {expected}"
            )
    return None


def moved(spectrum, source, target):
    """The spectrum with one unit of multiplicity moved from source to target."""
    counts = Counter(dict(spectrum.entries))
    counts[source] -= 1
    counts[target] += 1
    return inv.WeightSpectrum(spectrum.m, tuple(sorted((+counts).items())))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ladder_differences_match_the_per_level_loop(data):
    sig = data.draw(st.sampled_from(SIGNATURES))
    m = data.draw(st.sampled_from((2, 3)))
    model = data.draw(st.sampled_from(models_for(sig)))
    try:
        level_one = inv.weight_spectrum(model, 1, sig)
        spectrum = inv.weight_spectrum(model, m, sig)
    except ValueError:
        return  # an increasing filtration has no spectrum
    if data.draw(st.booleans()):
        source = data.draw(st.sampled_from([lam for lam, _ in spectrum.entries]))
        spectrum = moved(spectrum, source, data.draw(st.integers(0, m * sig.ell)))
    report = inv.verify_weight_identities(spectrum, level_one, sig)
    note = dense_ladder_note(spectrum, sig)
    assert report.ladder_differences_ok == (note is None)
    assert [n for n in report.notes if "ladder difference" in n] == ([note] if note else [])


def test_n_plus_empty_and_single_ranges():
    sig = derive((4, 2))
    assert n_plus(sig, 5, 4) == 0
    assert n_plus(sig, 0, 0) == 1  # every ladder is zero, sum_i (0 - 1) = -2
    assert n_plus(sig, 1, 1) == 1  # every ladder is one


def brute_n_plus(sig, lo, hi):
    return sum(1 for lam in range(lo, hi + 1) if (sum(ladder(sig, lam)) - sig.n) % 2 == 0)


def test_n_plus_at_its_edges():
    sig = derive((4, 2))  # a = (3, 5), ell = 15: steps at 3k + 1 and at 5k + 1
    cases = [
        (4, 12),  # lam_lo = 3*1 + 1 is a step
        (6, 12),  # lam_lo = 5*1 + 1 is a step
        (2, 9),  # lam_hi + 1 = 10 is a step
        (2, 15),  # lam_hi + 1 = 16 is a step of both branches
        (14, 18),  # both branches step at 16: their flips cancel
        (16, 16), (15, 15), (0, 0), (7, 7),  # lam_lo = lam_hi
        (40, 3 * 15 + 8),  # past 3*ell
        (0, 4 * 15 + 1),
    ]
    for lo, hi in cases:
        assert n_plus(sig, lo, hi) == brute_n_plus(sig, lo, hi), (lo, hi)
    # the parity does not flip where both branches step
    assert (sum(ladder(sig, 15)) - sum(ladder(sig, 16))) % 2 == 0
    assert n_plus(sig, 15, 16) == 2 * n_plus(sig, 15, 15)
    # three branches stepping together flip it; (2, 2, 2) has a = (1, 1, 1)
    odd = derive((2, 2, 2))
    assert [n_plus(odd, lam, lam) for lam in range(5)] == [0, 1, 0, 1, 0]
    for lo, hi in [(0, 10), (1, 9), (2, 2), (3, 3 * odd.ell + 2)]:
        assert n_plus(odd, lo, hi) == brute_n_plus(odd, lo, hi)


def test_n_plus_refuses_a_negative_start():
    sig = derive((4, 2))
    with pytest.raises(ValueError, match="non-negative"):
        n_plus(sig, -1, 5)
    assert n_plus(sig, -1, -2) == 0  # an empty range is empty before any level is read


# ------------------------------------------------------ ell near 10^11

LARGE = derive((30, 28, 22, 18, 16, 12, 10, 6, 4, 2))


def test_large_ell_hyperelliptic_closed_form():
    assert LARGE.ell > 10**11
    start = time.perf_counter()
    taggings = hyperelliptic_taggings(LARGE)
    assert taggings
    for tagging in taggings:
        closed = Fraction((LARGE.genus + 1) * LARGE.ell, 2) - sum(
            Fraction(LARGE.ell - LARGE.ell // (v + 1), 4) for v in tagging.weierstrass
        )
        assert hyperelliptic_chi1(LARGE, tagging) == closed
    assert time.perf_counter() - start < 5


def test_large_ell_clifford_profile():
    start = time.perf_counter()
    chi1 = clifford_profile_chi1(LARGE)  # raises if the parity identity fails
    assert time.perf_counter() - start < 5
    assert 0 < chi1 <= Fraction((LARGE.genus + 1) * LARGE.ell, 2)


def test_large_ell_weight_identities():
    start = time.perf_counter()
    model = cm.CliffordMaxModel(LARGE.genus)
    level_one = inv.weight_spectrum(model, 1, LARGE)
    level_two = inv.weight_spectrum(model, 2, LARGE)
    report = inv.verify_weight_identities(level_two, level_one, LARGE)
    assert time.perf_counter() - start < 5
    assert report.all_pass, report.notes
    # one multiplicity moved off the smallest progression step, below the pivot
    a = min(LARGE.weights_a)
    held = level_two.multiplicity(a)
    broken = moved(level_two, a, a + 1)
    report = inv.verify_weight_identities(broken, level_one, LARGE)
    assert time.perf_counter() - start < 5
    assert not report.ladder_differences_ok
    assert report.notes[0] == (
        f"multiplicity at {a} is {held - 1}, ladder difference gives {held}"
    )
