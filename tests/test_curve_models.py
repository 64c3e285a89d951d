"""Section-count models: closed forms, Riemann-Roch regime, filtrations.

The models answer h0 without a branch algebra, so every closed form here
is checked against either a direct count (semigroup membership), the
algebra route (section spaces), or the Riemann-Roch line.
"""

import pytest
from hypothesis import example, given, strategies as st

import gmspectra.branch_algebra as ba
import gmspectra.curve_models as cm
import gmspectra.semigroup as sg
from gmspectra import catalog
from gmspectra.signature import derive


# ------------------------------------------------------------- unibranch


def test_unibranch_37():
    model = cm.UnibranchModel(sg.from_generators((3, 7)))
    assert model.genus == 6
    assert model.h0((9,)) == 5  # {0, 3, 6, 7, 9}
    assert model.h0((0,)) == 1
    assert model.h0((-1,)) == 0
    assert model.h0((11,)) == 6  # beyond 2g-2: Riemann-Roch
    with pytest.raises(ValueError):
        model.h0((3, 1))


def test_unibranch_matches_membership_count():
    for gens in [(2, 5), (2, 9), (3, 4), (3, 5), (4, 5, 6), (3, 7)]:
        H = sg.from_generators(gens)
        model = cm.UnibranchModel(H)
        for k in range(0, 2 * H.genus - 1):
            assert model.h0((k,)) == sum(1 for j in range(k + 1) if H.contains(j))


# --------------------------------------------------------- hyperelliptic


def test_hyperelliptic_weierstrass_canonical():
    for g in range(2, 7):
        model = cm.HyperellipticModel(g, ("w",))
        assert model.h0((2 * g - 2,)) == g
        assert model.h0((2 * g - 1,)) == g  # first Riemann-Roch degree
        assert model.h0((1,)) == 1
        assert model.h0((2,)) == 2


def test_hyperelliptic_pair_ladder():
    # conjugate pair: h0((g - lam)(p1 + p2)) = g - lam + 1 down to the constants
    g = 5
    model = cm.HyperellipticModel(g, ("pair:1", "pair:1"))
    for lam in range(0, g + 1):
        c = g - lam
        expected = g + 1 - lam if lam >= 1 else g + 1  # lam = 0 is already RR
        assert model.h0((c, c)) == expected


def test_hyperelliptic_free_points_inert():
    g = 4
    model = cm.HyperellipticModel(g, ("w", "free"))
    # below Riemann-Roch a general point changes nothing
    assert model.h0((4, 1)) == model.h0((4, 0)) == 3
    # the two-branch family filtration at level two: dims 3g - lam
    sig = derive((2 * g - 2, 0))
    dims = cm.expand_runs(cm.filtration_dims(model, sig, 2))
    assert dims[0] == 3 * (g - 1) + 2 * 2
    for lam in range(1, 2 * g + 1):
        assert dims[lam] == 3 * g - lam


def test_hyperelliptic_mixed_tags():
    # one Weierstrass point and one pair on genus 6
    model = cm.HyperellipticModel(6, ("w", "pair:1", "pair:1"))
    assert model.h0((2, 1, 1)) == 3
    assert model.h0((3, 1, 1)) == 3
    assert model.h0((0, 0, 0)) == 1
    assert model.h0((-2, 1, 0)) == 0  # negative total degree


def test_hyperelliptic_tag_validation():
    with pytest.raises(ValueError):
        cm.HyperellipticModel(3, ("w", "pair:1")).h0((1, 1))
    with pytest.raises(ValueError):
        cm.HyperellipticModel(3, ("w", "wat")).h0((1, 1))
    with pytest.raises(ValueError):
        cm.HyperellipticModel(3, ("w",)).h0((1, 1))


# ---------------------------------------------------------- clifford-max


def test_clifford_max_profile():
    g = 5
    model = cm.CliffordMaxModel(g)
    assert model.h0((-1,)) == 0
    assert model.h0((0,)) == 1
    assert [model.h0((d,)) for d in range(1, 2 * g - 2)] == [
        (d + 1) // 2 for d in range(1, 2 * g - 2)
    ]
    assert model.h0((2 * g - 2,)) == g  # canonical degree
    assert model.h0((2 * g - 1,)) == g
    assert model.h0((3 * g,)) == 2 * g + 1


def test_clifford_max_principal_stratum():
    # all-ones signature: only three filtration levels survive
    for g in (3, 5, 8):
        sig = derive((1,) * (2 * g - 2))
        dims = cm.expand_runs(cm.filtration_dims(cm.CliffordMaxModel(g), sig, 1))
        assert dims == (3 * g - 3, g, 1)


# --------------------------------------------------------------- override


def test_override_table():
    base = cm.CliffordMaxModel(5)
    model = cm.OverrideModel(base, (((3, 0), 2), ((1, 0), 1)))
    assert model.genus == 5
    assert model.h0((3, 0)) == 2
    assert model.h0((1, 0)) == 1
    assert model.h0((4, 0)) == base.h0((4, 0))


def test_override_special_locus_filtration():
    # the (7,1) locus: every level meets the nonhyperelliptic cap, so the
    # override entry only pins what genericity would lose
    e = catalog.get("H(7,1)-special")
    sig = derive(e.signature)
    divisor, value = e.locus_condition
    model = cm.OverrideModel(cm.CliffordMaxModel(sig.genus), ((divisor, value),))
    dims = cm.expand_runs(cm.filtration_dims(model, sig, 1))
    assert sum(dims[1:]) == e.expected.chi1_log == 20
    # and the algebra computes the same filtration
    alg_dims = cm.expand_runs(cm.filtration_dims(cm.AlgebraModel(e.algebra()), sig, 1))
    assert dims == alg_dims
    assert cm.AlgebraModel(e.algebra()).h0(divisor) == value


def test_algebra_model_sections():
    e = catalog.get("E7")
    model = cm.AlgebraModel(e.algebra())
    assert model.genus == 3
    assert model.h0((0, 0)) == 1
    assert model.h0((3, 1)) == 3  # the zero divisor of the form is canonical


def test_algebra_model_genus_needs_a_certified_conductor():
    # no generators: the ring is not cofinite, so delta is infinite, yet
    # the summed gap sequence is finite
    sig, gens, _units = ba.generators_from_json({"signature": [3, 1], "generators": []})
    alg = ba.close(sig, [terms for _, terms in gens])
    assert ba.delta_and_genus(alg)[1] == 8
    model = cm.AlgebraModel(alg)
    with pytest.raises(ValueError, match="conductor is not certified") as info:
        model.genus
    assert "\n" not in str(info.value)
    assert model.h0((0, 0)) == 1  # sections are still read


# ---------------------------------------------------------- filtrations


def test_filtration_level_zero_law():
    models = [
        (cm.UnibranchModel(sg.from_generators((3, 5))), derive((6,))),
        (cm.HyperellipticModel(3, ("pair:1", "pair:1")), derive((2, 2))),
        (cm.CliffordMaxModel(4), derive((3, 3))),
    ]
    for model, sig in models:
        g, n = sig.genus, sig.n
        for m in (1, 2, 3):
            dims = cm.expand_runs(cm.filtration_dims(model, sig, m))
            assert len(dims) == m * sig.ell + 1
            expected0 = g - 1 + n if m == 1 else (2 * m - 1) * (g - 1) + m * n
            assert dims[0] == expected0
            assert dims[-1] == 1
            assert all(a >= b for a, b in zip(dims, dims[1:]))


def test_filtration_genus_mismatch():
    with pytest.raises(ValueError):
        cm.filtration_dims(cm.CliffordMaxModel(3), derive((6,)), 1)
    with pytest.raises(ValueError):
        cm.filtration_dims(cm.CliffordMaxModel(4), derive((6,)), 0)


def test_filtration_genus_one():
    model = cm.UnibranchModel(sg.from_generators((2, 3)))
    dims = cm.expand_runs(cm.filtration_dims(model, derive((0,)), 1))
    assert dims == (1, 1)


# ------------------------------------------------------------ properties


DEGREES = st.integers(min_value=0, max_value=24)


@given(DEGREES)
def test_unibranch_monotone(k):
    model = cm.UnibranchModel(sg.from_generators((3, 7)))
    assert 0 <= model.h0((k,)) <= model.h0((k + 1,))


@given(st.tuples(DEGREES, DEGREES, DEGREES), st.integers(0, 2))
def test_hyperelliptic_monotone(divisor, slot):
    model = cm.HyperellipticModel(5, ("w", "pair:1", "pair:1"))
    up = tuple(c + (1 if i == slot else 0) for i, c in enumerate(divisor))
    assert 0 <= model.h0(divisor) <= model.h0(up)


@given(st.tuples(DEGREES, DEGREES), st.integers(0, 1))
def test_clifford_max_monotone(divisor, slot):
    model = cm.CliffordMaxModel(6)
    up = tuple(c + (1 if i == slot else 0) for i, c in enumerate(divisor))
    assert 0 <= model.h0(divisor) <= model.h0(up)


def test_riemann_roch_regime_agreement():
    # every model settles on deg - g + 1 beyond the canonical degree
    for g in range(2, 9):
        models = [
            cm.HyperellipticModel(g, ("w", "free")),
            cm.CliffordMaxModel(g),
            cm.UnibranchModel(sg.from_generators((2, 2 * g + 1))),
        ]
        for deg in range(2 * g - 1, 6 * g + 1):
            for model in models:
                if model.kind == "unibranch":
                    value = model.h0((deg,))
                else:
                    value = model.h0((deg - 1, 1) if model.kind == "hyperelliptic" else (deg, 0))
                assert value == deg - g + 1, (g, deg, model.kind)


# ---------------------------------------------------------- column reads
#
# h0 is the one-row column read, so these check h0_column itself, on
# arbitrary columns (negative and Riemann-Roch entries included), against
# per-divisor formulas written out here.

COEFFS = st.integers(min_value=-6, max_value=30)


def rows_of(width):
    return st.lists(st.tuples(*[COEFFS] * width), max_size=12)


def columns_of(rows, width):
    return [[row[i] for row in rows] for i in range(width)]


def clifford_formula(g, divisor):
    deg = sum(divisor)
    if deg < 0:
        return 0
    if deg == 0:
        return 1
    if deg == 2 * g - 2:
        return g
    if deg > 2 * g - 2:
        return deg - g + 1
    return (deg + 1) // 2


def hyperelliptic_formula(g, tags, divisor):
    deg = sum(divisor)
    if deg < 0:
        return 0
    if deg > 2 * g - 2:
        return deg - g + 1
    pencils = sum(c // 2 for c, tag in zip(divisor, tags) if tag == "w")
    for key in {tag for tag in tags if tag.startswith("pair:")}:
        i, j = (k for k, tag in enumerate(tags) if tag == key)
        pencils += min(divisor[i], divisor[j])
    return max(1 + pencils, 0)


@given(st.lists(COEFFS, max_size=12),
       st.sampled_from([(1,), (2, 3), (3, 7), (4, 5, 6), (5, 7, 9, 11)]))
def test_unibranch_column_counts_elements(column, gens):
    H = sg.from_generators(gens)
    model = cm.UnibranchModel(H)
    expected = [sum(1 for j in range(c + 1) if H.contains(j)) for c in column]
    assert model.h0_column([column]) == expected
    assert model.h0_column([column, [0] * len(column)]) == expected
    if column:
        with pytest.raises(ValueError, match="single point"):
            model.h0_column([column, [0] * (len(column) - 1) + [1]])


@given(st.integers(1, 8), st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), rows_of(n))))
def test_clifford_max_column_matches_formula(g, case):
    n, rows = case
    model = cm.CliffordMaxModel(g)
    assert model.h0_column(columns_of(rows, n)) == [clifford_formula(g, r) for r in rows]


HYPERELLIPTIC_TAGS = [("w",), ("free",), ("w", "free"), ("pair:1", "pair:1"),
                      ("w", "pair:1", "pair:1"), ("pair:a", "w", "pair:b", "pair:a",
                                                  "free", "pair:b")]


@given(st.integers(1, 8), st.sampled_from(HYPERELLIPTIC_TAGS).flatmap(
    lambda tags: st.tuples(st.just(tags), rows_of(len(tags)))))
@example(3, (("w", "free"), [(-6, 6), (-5, 7), (-1, 1)]))  # 1 + pencils < 0
def test_hyperelliptic_column_matches_formula(g, case):
    tags, rows = case
    model = cm.HyperellipticModel(g, tags)
    expected = [hyperelliptic_formula(g, tags, r) for r in rows]
    assert model.h0_column(columns_of(rows, len(tags))) == expected


def test_hyperelliptic_column_clamp_and_errors():
    model = cm.HyperellipticModel(3, ("w", "free"))
    # degree 0, pencils -3: the clamp answers 0, not -2
    assert model.h0_column([[-6, 0], [6, 0]]) == [0, 1]
    with pytest.raises(ValueError, match="needs 2 coefficients"):
        model.h0_column([[1, 2]])
    with pytest.raises(ValueError, match="unknown tag"):
        cm.HyperellipticModel(3, ("w", "wat")).h0_column([[1], [1]])
    with pytest.raises(ValueError, match="needs 2"):
        cm.HyperellipticModel(3, ("w", "pair:1")).h0_column([[1], [1]])


@given(rows_of(2), st.lists(st.tuples(st.tuples(COEFFS, COEFFS), st.integers(0, 9)),
                            max_size=4), st.data())
def test_override_column_patches_table_rows(rows, table, data):
    base = cm.CliffordMaxModel(5)
    model = cm.OverrideModel(base, tuple(table))
    # put some table divisors in the middle of the column
    for divisor, _ in table:
        rows.insert(data.draw(st.integers(0, len(rows))), divisor)
    first = {}
    for divisor, value in table:
        first.setdefault(divisor, value)
    expected = [first.get(r, clifford_formula(5, r)) for r in rows]
    assert model.h0_column(columns_of(rows, 2)) == expected


def test_override_column_first_entry_wins():
    model = cm.OverrideModel(cm.CliffordMaxModel(5), (((3, 0), 2), ((3, 0), 7)))
    assert model.h0_column([[4, 3, 2], [0, 0, 0]]) == [2, 2, 1]


def test_algebra_column_reads_one_section_space_per_row():
    alg = catalog.get("E7").algebra()
    rows = [(0, 0), (3, 1), (1, 0), (2, 2), (-1, 3), (5, 0), (0, 0)]
    expected = [ba.section_space(alg, r).dimension for r in rows]
    assert cm.AlgebraModel(alg).h0_column(columns_of(rows, 2)) == expected
    assert expected[:2] == [1, 3]


# ------------------------------------------------------------- JSON spec


def test_model_from_spec():
    m1 = cm.model_from_spec({"kind": "unibranch", "generators": [3, 7]})
    assert isinstance(m1, cm.UnibranchModel) and m1.genus == 6
    m2 = cm.model_from_spec(
        {"kind": "hyperelliptic", "genus": 4, "tags": ["w", "pair:1", "pair:1"]}
    )
    assert m2.h0((2, 0, 0)) == 2
    m3 = cm.model_from_spec({"kind": "clifford-max", "genus": 5})
    assert m3.h0((8,)) == 5
    m4 = cm.model_from_spec(
        {
            "kind": "override",
            "base": {"kind": "clifford-max", "genus": 5},
            "table": [{"divisor": [3, 0], "h0": 2}],
        }
    )
    assert m4.h0((3, 0)) == 2 and m4.h0((5, 0)) == 3
    with pytest.raises(ValueError):
        cm.model_from_spec({"kind": "mystery"})
