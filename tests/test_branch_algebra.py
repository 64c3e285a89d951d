"""Engine tests: closures, gap sequences, conductors, section spaces.

Expected values for the named strata algebras were fixed by hand
multiplication of the generator monomials before the engine existed.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gmspectra.branch_algebra as ba
import gmspectra.invariants as inv
import gmspectra.semigroup as sg
from gmspectra import catalog
from gmspectra.signature import derive


# ------------------------------------------------------- fixture algebras


def read_first(alg, k):
    """alg after a read of R_k, which extends the closure past its window."""
    alg.dim(k)
    return alg


def alg31():
    sig = derive((3, 1))
    return ba.close(sig, [[(0, 2, 1), (1, 1, 1)], [(0, 3, 1)]])


def alg22odd():
    sig = derive((2, 2))
    return ba.close(sig, [[(0, 2, 1)], [(1, 2, 1)], [(0, 3, 1), (1, 3, 1)]])


def alg211():
    sig = derive((2, 1, 1))
    return ba.close(
        sig, [[(1, 1, 1), (2, 1, 1)], [(0, 2, 1)], [(0, 3, 1), (1, 2, 1)]]
    )


def alg51():
    sig = derive((5, 1))
    return ba.close(sig, [[(0, 3, 1), (1, 1, 1)], [(0, 4, 1)], [(0, 5, 1)]])


def alg42even():
    sig = derive((4, 2))
    return ba.close(sig, [[(0, 2, 1)], [(1, 2, 1)], [(0, 5, 1), (1, 3, 1)]])


def alg321():
    sig = derive((3, 2, 1))
    return ba.close(
        sig,
        [
            [(0, 2, 1), (2, 1, 1)],
            [(1, 2, 1)],
            [(0, 3, 1)],
            [(0, 4, 1), (1, 3, 1)],
        ],
    )


def alg222odd():
    sig = derive((2, 2, 2))
    return ba.close(
        sig,
        [
            [(0, 2, 1)],
            [(1, 2, 1)],
            [(2, 2, 1)],
            [(0, 3, 1), (1, 3, 1)],
            [(0, 3, 1), (2, 3, 1)],
        ],
    )


def alg222even_lines():
    # three concurrent lines variant: x spans all branches
    sig = derive((2, 2, 2))
    return ba.close(
        sig, [[(0, 1, 1), (1, 1, 1), (2, 1, 1)], [(0, 2, 1), (1, 2, -1)]]
    )


def alg222even_pair():
    # hyperelliptic variant: conjugate pair plus one even branch
    sig = derive((2, 2, 2))
    return ba.close(
        sig, [[(0, 1, 1), (1, 1, 1)], [(2, 2, 1)], [(0, 3, 1), (2, 3, 1)]]
    )


def alg62odd():
    sig = derive((6, 2))
    return ba.close(
        sig,
        [
            [(1, 2, 1)],
            [(0, 7, 1), (1, 3, 1)],
            [(0, 4, 1)],
            [(0, 5, 1)],
            [(0, 6, 1)],
        ],
    )


def cusp23():
    # genus-1 semigroup <2,3>, so the marked point is ordinary: order 0
    return read_first(ba.close(derive((0,)), [[(0, 2, 1)], [(0, 3, 1)]]), 8)


def vandermonde(n):
    sig = derive((0,) * n)
    gens = [[(i, 1, i**j) for i in range(n)] for j in range(n - 1)]
    return read_first(ba.close(sig, gens), max(4, 2 * sig.ell))


# --------------------------------------------------------------- closure


def test_close_31_dims():
    alg = alg31()
    assert ba.graded_dims(alg, 8) == (1, 0, 1, 1, 1, 1, 2, 1, 2)
    assert sum(ba.graded_dims(alg, 8)) == 10


def test_close_vandermonde_dims():
    for n in (3, 4, 5):
        alg = vandermonde(n)
        assert alg.dim(1) == n - 1
        assert alg.dim(2) == n


def test_close_empty_generators():
    sig = derive((1, 1))
    alg = ba.close(sig, [])
    assert ba.graded_dims(alg, 8) == (1,) + (0,) * 8
    report = ba.validate_G_conditions(alg)
    assert not report.conductor_bound
    assert not report.gap_tail
    assert not report.all_pass


def test_generator_validation():
    sig = derive((3, 1))
    with pytest.raises(ValueError):
        ba.generator(sig, [(0, 2, 1), (1, 2, 1)])  # degrees 2 vs 4
    with pytest.raises(ValueError):
        ba.generator(sig, [(0, 2, 1), (0, 2, 1)])  # duplicate branch
    with pytest.raises(ValueError):
        ba.generator(sig, [(2, 1, 1)])  # branch out of range
    with pytest.raises(ValueError):
        ba.generator(sig, [(0, 0, 1)])  # exponent below 1
    with pytest.raises(ValueError):
        ba.generator(sig, [(0, 2, 0)])  # vanishing generator
    assert ba.generator(sig, [(1, 1, Fraction(1)), (0, 2, 1)]) == (2, {0: 1, 1: 1})
    # coefficients are scaled once to ints on their line; weights a = (1, 2)
    degree, coeffs = ba.generator(sig, [(0, 2, "1/2"), (1, 1, "-3/4")])
    assert (degree, coeffs) == (2, {0: 2, 1: -3})
    assert all(type(c) is int for c in coeffs.values())
    # zero terms drop out before scaling; an integral vector is kept as is
    assert ba.generator(sig, [(0, 4, "2/3"), (1, 2, 0)]) == (4, {0: 2})
    assert ba.generator(sig, [(0, 2, 6), (1, 1, -4)]) == (2, {0: 6, 1: -4})


def test_generator_builds_no_fraction_from_an_int_or_a_fraction(monkeypatch):
    sig = derive((3, 1))
    terms = [(0, 2, Fraction(1, 2)), (1, 1, -3)]
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *args, **kw: built.append(args) or new(cls, *args, **kw)))
    assert ba.generator(sig, terms) == (2, {0: 1, 1: -6})
    assert built == []
    assert ba.generator(sig, [(0, 2, "1/2")]) == (2, {0: 1})
    assert built == [("1/2",)]


def test_close_deterministic():
    a1, a2 = alg62odd(), alg62odd()
    top = ba.window(a1.signature)
    assert ba.graded_dims(a1, top) == ba.graded_dims(a2, top)
    assert a1.graded_basis == a2.graded_basis


def test_membership():
    alg = alg51()
    assert alg.contains([(0, 5, 1)])  # generator itself
    assert alg.contains([(0, 4, 1)])
    assert not alg.contains([(0, 6, 1)])  # only with the t2 partner
    assert alg.contains([(0, 6, 1), (1, 2, 1)])
    assert alg.contains([(0, 1000, 1)])  # past the certified conductor


# ---------------------------------------------------------- gap sequences


GAP_CASES = [
    (alg31, (1, 1, 0, 1)),
    (alg22odd, (2, 0, 1)),
    (alg211, (2, 0, 1)),
    (alg51, (1, 1, 1, 0, 0, 1)),
    (alg42even, (2, 0, 1, 0, 1)),
    (alg321, (2, 1, 0, 1)),
    (alg222odd, (3, 0, 1)),
    (alg222even_lines, (2, 1, 1)),
    (alg222even_pair, (2, 1, 1)),
    (alg62odd, (2, 1, 1, 0, 0, 0, 1)),
    (cusp23, (1,)),
]


@pytest.mark.parametrize("build,expected", GAP_CASES, ids=lambda v: getattr(v, "__name__", str(v)))
def test_gap_sequences(build, expected):
    assert ba.gap_sequence(build()) == expected


def test_gap_sequence_needs_reach():
    # the gap sequence reads up to degree 10 = (max(m) + 2) * max(a), past this read
    alg = ba.close(derive((3, 1)), [[(0, 2, 1), (1, 1, 1)], [(0, 3, 1)]])
    assert ba.graded_dims(alg, 8) == (1, 0, 1, 1, 1, 1, 2, 1, 2)
    assert ba.gap_sequence(alg) == (1, 1, 0, 1)


def test_gap_sequence_properties():
    for build, _ in GAP_CASES:
        alg = build()
        seq = ba.gap_sequence(alg)
        delta, genus = ba.delta_and_genus(alg)
        assert genus == sum(seq)
        assert delta == alg.signature.n - 1 + genus
        # additivity of vanishing entries
        for i in range(1, len(seq) + 1):
            for j in range(1, len(seq) + 1):
                if i + j <= len(seq) and seq[i - 1] == 0 and seq[j - 1] == 0:
                    assert seq[i + j - 1] == 0


def test_delta_examples():
    assert ba.delta_and_genus(alg31()) == (4, 3)
    assert ba.delta_and_genus(alg321()) == (6, 4)
    assert ba.delta_and_genus(cusp23()) == (1, 1)


# ------------------------------------------------- conductor / Gorenstein


def test_conductor_31():
    rep = ba.conductor_and_gorenstein(alg31())
    assert rep.conductor == (5, 3)
    assert rep.quotient_length == 4 == rep.delta
    assert rep.gorenstein
    assert rep.conductor_bound_ok


def test_conductor_211():
    rep = ba.conductor_and_gorenstein(alg211())
    assert rep.conductor == (4, 3, 3)
    assert rep.quotient_length == 5 == rep.delta
    assert rep.gorenstein


def test_conductor_catalog_pattern():
    # every stratum algebra has c_i = m_i + 2 and passes the length test
    for build, _ in GAP_CASES:
        alg = build()
        rep = ba.conductor_and_gorenstein(alg)
        assert rep.conductor == tuple(m + 2 for m in alg.signature.orders)
        assert rep.gorenstein
        assert rep.quotient_length == rep.delta


@pytest.mark.parametrize("orders", [(0,), (2,)])
def test_smooth_branch_is_gorenstein_with_conductor_zero(orders):
    rep = ba.conductor_and_gorenstein(ba.close(derive(orders), [[(0, 1, 1)]]))
    assert rep.conductor == (0,) and rep.delta == 0 == rep.quotient_length
    assert rep.conductor_bound_ok and rep.gorenstein


KUNZ_CASES = [H for g in range(1, 8) for H in sg.enumerate_symmetric(g)] + [
    sg.from_generators(gens) for gens in ((3, 4, 5), (3, 5, 7), (4, 5, 7), (4, 5, 6, 7))]


@pytest.mark.parametrize("H", KUNZ_CASES, ids=lambda H: ",".join(map(str, H.generators)))
def test_monomial_ring_is_gorenstein_exactly_when_its_semigroup_is_symmetric(H):
    # Kunz: k[t^h : h in H] is Gorenstein iff H is symmetric, read on the
    # algebra side through sum(c_i) = 2*delta
    alg = ba.close(derive((2 * H.genus - 2,)), [[(0, h, 1)] for h in H.generators])
    rep = ba.conductor_and_gorenstein(alg)
    assert rep.conductor == (H.conductor,) and rep.delta == H.genus
    assert rep.gorenstein == H.symmetric


def test_mutilated_31_not_gorenstein():
    # dropping the cubic generator leaves a ring with no pure powers at all
    sig = derive((3, 1))
    gens = [[(0, 2, 1), (1, 1, 1)]]
    alg = ba.close(sig, gens)
    rep = ba.conductor_and_gorenstein(alg)  # reads degree D = 21, past the window W = 10
    assert not rep.conductor_bound_ok
    assert not rep.gorenstein
    assert rep.quotient_length != rep.delta
    assert rep.quotient_length is None  # len(R/c) waits for a certified conductor
    assert ba.conductor_and_gorenstein(read_first(ba.close(sig, gens), 16)) == rep


# ----------------------------------------------------------- sections


def test_section_space_examples():
    # parity probe spaces match the catalog descriptions
    s = ba.section_space(alg42even(), (2, 1))
    assert s.dimension == 2
    assert s.by_degree == ((0, 1), (6, 1))
    assert ba.section_space(alg62odd(), (3, 1)).dimension == 1
    assert ba.section_space(alg31(), (0, 0)).dimension == 1


def test_section_space_negative_and_errors():
    assert ba.section_space(alg31(), (2, -1)).dimension == 0
    with pytest.raises(ValueError):
        ba.section_space(alg31(), (2,))
    # reads past the window W = 10: the closure extends, certifies at 11 and
    # answers 1 (constants) + 1 (t1^3) + 96 (t1^k, 5 <= k <= 100)
    assert ba.section_space(alg31(), (100, 0)).dimension == 98


def test_section_space_full_divisor_identity():
    for build, _ in GAP_CASES:
        alg = build()
        sig = alg.signature
        for m in (1, 2):
            divisor = tuple(m * (o + 1) for o in sig.orders)
            total = ba.section_space(alg, divisor).dimension
            assert total == sum(alg.dim(k) for k in range(m * sig.ell + 1))


def test_section_space_riemann_roch_totals():
    for build, _ in GAP_CASES:
        alg = build()
        sig = alg.signature
        _, g = ba.delta_and_genus(alg)
        n = sig.n
        assert sum(alg.dim(k) for k in range(sig.ell + 1)) == g - 1 + n
        assert sum(alg.dim(k) for k in range(2 * sig.ell + 1)) == 3 * (g - 1) + 2 * n


def test_hyperelliptic_probes_on_even_component():
    pair = alg222even_pair()
    assert ba.section_space(pair, (1, 1, 0)).dimension == 2
    assert ba.section_space(pair, (0, 0, 2)).dimension == 2
    lines = alg222even_lines()
    for d in ((1, 1, 0), (1, 0, 1), (0, 1, 1)):
        assert ba.section_space(lines, d).dimension == 1


# ----------------------------------------------------------- validation


def test_validate_31():
    report = ba.validate_G_conditions(alg31(), (1, -1))
    assert report.all_pass
    assert report.notes == ()


def test_validate_wrong_units():
    report = ba.validate_G_conditions(alg31(), (1, 1))
    assert not report.dualizing_pairs
    assert not report.all_pass


def test_validate_unit_errors():
    with pytest.raises(ValueError):
        ba.validate_G_conditions(alg31(), (1, 0))
    with pytest.raises(ValueError):
        ba.validate_G_conditions(alg31(), (1, -1, 1))


def test_validate_node_fails_G1():
    sig = derive((1, 1))
    alg = ba.close(sig, [[(0, 1, 1)], [(1, 1, 1)]])
    report = ba.validate_G_conditions(alg)
    assert not report.no_bare_parameters


def test_validate_catalog_units():
    cases = [
        (alg22odd, (1, -1)),
        (alg211, (1, -1, 1)),
        (alg51, (1, -1)),
        (alg42even, (1, -1)),
        (alg321, (1, -1, -1)),
        (alg222odd, (1, -1, -1)),
        (alg222even_lines, (1, 1, -2)),
        (alg222even_pair, (1, -1, -1)),
        (alg62odd, (1, -1)),
    ]
    for build, units in cases:
        report = ba.validate_G_conditions(build(), units)
        assert report.all_pass, (build.__name__, report.notes)


# ------------------------------------------------------------- JSON I/O


def test_json_round_trip():
    doc = {
        "signature": [3, 1],
        "generators": [
            {
                "name": "x",
                "monomials": [
                    {"branch": 0, "exp": 2, "coeff": "1"},
                    {"branch": 1, "exp": 1, "coeff": "1"},
                ],
            },
            {"name": "y", "monomials": [{"branch": 0, "exp": 3, "coeff": "1"}]},
        ],
        "dualizing_units": ["1", "-1"],
    }
    sig, gens, units = ba.generators_from_json(doc)
    alg = ba.close(sig, [terms for _, terms in gens])
    assert units == (Fraction(1), Fraction(-1))
    assert ba.validate_G_conditions(alg, units).all_pass
    summary = ba.algebra_summary(alg)
    assert summary["delta"] == 4
    assert summary["genus"] == 3
    assert summary["gap_sequence"] == [1, 1, 0, 1]
    assert summary["conductor"] == [5, 3]
    assert summary["gorenstein"] is True
    assert list(ba.graded_dims(alg, ba.window(alg.signature)))[:9] == [1, 0, 1, 1, 1, 1, 2, 1, 2]


def test_json_bad_units():
    doc = {
        "signature": [3, 1],
        "generators": [{"name": "y", "monomials": [{"branch": 0, "exp": 3, "coeff": "1"}]}],
        "dualizing_units": ["1"],
    }
    with pytest.raises(ValueError):
        ba.generators_from_json(doc)


# ------------------------------------------------- the integer kernel


def oracle_rref(rows):
    """Reduced row echelon form of rational rows over Fraction: the oracle."""
    pivots = []
    for row in rows:
        r = [Fraction(x) for x in row]
        for col, p in pivots:
            if r[col]:
                f = r[col]
                r = [x - f * y for x, y in zip(r, p)]
        lead = next((j for j, x in enumerate(r) if x), None)
        if lead is None:
            continue
        inv = r[lead]
        pivots.append((lead, [x / inv for x in r]))
    pivots.sort(key=lambda cp: cp[0])
    for idx in range(len(pivots) - 1, -1, -1):
        col, r = pivots[idx]
        for col2, r2 in pivots[idx + 1 :]:
            if r[col2]:
                f = r[col2]
                r = [x - f * y for x, y in zip(r, r2)]
        pivots[idx] = (col, r)
    return tuple(tuple(r) for _, r in pivots)


def integer_row(row):
    """A rational row times the lcm of its denominators."""
    den = math.lcm(*(Fraction(x).denominator for x in row))
    return [int(x * den) for x in row]


def primitive(row):
    """The integer multiple of a nonzero rational row with gcd 1 and a
    positive leading entry."""
    ints = integer_row(row)
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


def oracle_in_span(rref_rows, vector):
    r = [Fraction(x) for x in vector]
    for row in rref_rows:
        lead = next(j for j, x in enumerate(row) if x)
        if r[lead]:
            f = r[lead]
            r = [x - f * y for x, y in zip(r, row)]
    return not any(r)


SMALL_RATIONALS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def matrices(draw):
    """(rows, vectors, cols): up to 6x6 rationals p/q with |p| <= 5 and
    q <= 4, zero and repeated rows allowed; the vectors include a
    combination of the rows, which lies in their span; cols is a set of
    columns to restrict the rows to."""
    width = draw(st.integers(1, 6))
    row = st.lists(SMALL_RATIONALS, min_size=width, max_size=width)
    zero = st.just([Fraction(0)] * width)
    rows = draw(st.lists(st.one_of(row, zero), max_size=6))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(rows)))
    vectors = draw(st.lists(row, max_size=3))
    weights = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
    vectors.append([sum(w * r[j] for w, r in zip(weights, rows)) for j in range(width)])
    cols = draw(st.lists(st.integers(0, width - 1), unique=True))
    return rows, vectors, cols


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_integer_kernel_matches_the_fraction_oracle(case):
    rows, vectors, cols = case
    width = len(vectors[0])
    pivots = ba._rref([integer_row(r) for r in rows], width)
    echelon = tuple(pivots.values())
    oracle = oracle_rref(rows)
    leads = [next(j for j, x in enumerate(r) if x) for r in echelon]
    assert leads == list(pivots)  # each key is the first nonzero column of its row
    assert leads == sorted(set(leads))
    for r, lead in zip(echelon, leads):
        assert all(type(x) is int for x in r)
        assert math.gcd(*r) == 1 and r[lead] > 0
        assert all(r[j] == 0 for j in leads if j != lead)
    assert len(echelon) == len(oracle)
    assert echelon == tuple(primitive(r) for r in oracle)  # same row space
    # the rows as R_1 of a ring whose every degree has one slot per column
    alg = ba.BranchAlgebra(derive((0,) * width), (), {0: {0: (1,) * width}, 1: pivots})
    for v in vectors:
        if any(v):
            terms = [(i, 1, x) for i, x in enumerate(v)]
            assert alg.contains(terms) == oracle_in_span(oracle, v)
    for i in range(width):  # the pure-power row lookup
        unit = [int(j == i) for j in range(width)]
        assert alg.has_power(i, 1) == oracle_in_span(oracle, unit)
    projected = oracle_rref([[r[j] for j in cols] for r in rows])
    assert alg.rank(1, cols) == len(projected)


# ------------------------------------------------ the pivot readers


@st.composite
def partial_pieces(draw):
    """(rows, units): at most width - 1 rational rows of a width up to 6,
    zero and repeated rows allowed, so their span is never everything; and
    one nonzero unit per column."""
    width = draw(st.integers(1, 6))
    row = st.lists(SMALL_RATIONALS, min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, st.just([Fraction(0)] * width)), max_size=width - 1))
    if rows and draw(st.booleans()):
        rows.append(draw(st.sampled_from(rows)))
    nonzero = SMALL_RATIONALS.filter(bool)
    units = draw(st.lists(nonzero, min_size=width, max_size=width))
    return rows, units


@settings(max_examples=300, deadline=None)
@given(partial_pieces())
def test_pivot_readers_match_the_fraction_oracle(case):
    rows, units = case
    width = len(units)
    piece = ba._rref([integer_row(r) for r in rows], width)
    echelon = tuple(piece.values())
    oracle = oracle_rref(rows)
    alg = ba.BranchAlgebra(derive((0,) * width), (), {0: {0: (1,) * width}, 1: piece})
    pivots = {next(j for j, x in enumerate(r) if x) for r in echelon}
    assert pivots == set(piece)  # each key is the first nonzero column of its row
    free = [j for j in range(width) if j not in pivots]
    assert free  # never a full piece: the pivot route is the one read
    kinds = set()
    for size in range(width + 1):
        for cols in itertools.combinations(range(width), size):
            projected = oracle_rref([[r[j] for j in cols] for r in rows])
            assert alg.rank(1, list(cols)) == len(projected), cols
            kinds.add("covers" if pivots <= set(cols) else
                      "disjoint" if not pivots & set(cols) else "mixed")
    assert kinds == ({"covers", "disjoint", "mixed"} if len(pivots) > 1 else
                     {"covers", "disjoint"} if pivots else {"covers"})
    # dualizing-pair vectors u_i e_j - u_j e_i
    for i, j in itertools.combinations(range(width), 2):
        pair = [0] * width
        pair[i], pair[j] = units[j], -units[i]
        assert alg.contains([(i, 1, units[j]), (j, 1, -units[i])]) == oracle_in_span(oracle, pair)
    # a combination of two rows is inside: it is reduced at both of their pivots
    for a, b in itertools.combinations(echelon, 2):
        assert alg.contains([(j, 1, units[0] * x + units[-1] * y)
                             for j, (x, y) in enumerate(zip(a, b))])
    # a free unit vector, alone or added to a combination of the rows, is outside
    for f in free:
        outside = [units[f] * int(j == f) + sum((r[j] for r in rows), Fraction(0))
                   for j in range(width)]
        assert not oracle_in_span(oracle, outside)
        assert not alg.contains([(j, 1, x) for j, x in enumerate(outside)])
        assert not alg.contains([(f, 1, units[f])])


def reference_readers(monkeypatch):
    """Patch rank and contains with re-eliminations of the stored rows over
    Fraction, a reference that reads no pivots."""
    spans = {}

    def rank(self, k, positions):
        return len(oracle_rref([[r[j] for j in positions] for r in self.basis(k).values()]))

    def contains(self, terms):
        k, coeffs = ba.generator(self.signature, terms)
        if (self, k) not in spans:
            spans[self, k] = oracle_rref(self.basis(k).values())
        return oracle_in_span(spans[self, k], [coeffs.get(i, 0) for i in self.slots(k)])

    monkeypatch.setattr(ba.BranchAlgebra, "rank", rank)
    monkeypatch.setattr(ba.BranchAlgebra, "contains", contains)


@pytest.mark.parametrize("n", range(3, 21))
def test_elliptic_conditions_match_the_re_elimination(n, monkeypatch):
    entry = catalog.family("elliptic", n=n)
    flipped = (-entry.dualizing_units[0], *entry.dualizing_units[1:])
    unit_sets = (entry.dualizing_units, (1,) * n, flipped)
    reports = [ba.validate_G_conditions(entry.algebra(), u) for u in unit_sets]
    assert reports[0].all_pass and not reports[2].dualizing_pairs
    reference_readers(monkeypatch)
    assert reports == [ba.validate_G_conditions(entry.algebra(), u) for u in unit_sets]


# ------------------------------------------------ the lazy product stream


def stream_then_raise(rows):
    """The rows, then an item that fails the test when it is read."""
    yield from rows
    raise AssertionError("the stream was read past its last needed row")


def test_rref_reads_a_stream_only_up_to_its_last_pivot():
    rows = [[0, 0, 0, 5], [0, 2, 4, 0], [3, 6, 0, 9], [0, 0, 7, 7]]  # independent
    assert ba._rref(stream_then_raise(rows), 4) == ba._identity(4)
    assert ba._rref(stream_then_raise([[0, 0], [2, 4], [4, 8], [0, 3]]), 2) == ba._identity(2)
    assert ba._rref(stream_then_raise([]), 0) == {}  # a degree with no slots reads none


def test_closure_reads_fewer_products_than_the_stream_offers(monkeypatch):
    entry = catalog.family("elliptic", n=20)
    plain = entry.algebra()
    summary = ba.algebra_summary(plain)
    reads = []
    products = ba.BranchAlgebra._products

    def counted(self, k, sl):
        for w in products(self, k, sl):
            reads.append(k)
            yield w

    monkeypatch.setattr(ba.BranchAlgebra, "_products", counted)
    alg = entry.algebra()
    assert ba.algebra_summary(alg) == summary
    monkeypatch.undo()
    assert alg.graded_basis == plain.graded_basis
    offered = sum(sum(1 for _ in alg._products(k, alg.slots(k))) for k in alg.graded_basis if k)
    assert 0 < len(reads) < offered


# ------------------------------------------- the certified conductor stop


def dense_close(sig, gens, top):
    """Reference closure: an oracle rref over Fraction at every degree up to
    top, no stop; its rows are scaled to primitive integer rows at the end
    and stored as {first nonzero column: row}."""
    a, n = sig.weights_a, sig.n

    def slots(k):
        return tuple(i for i in range(n) if k % a[i] == 0)

    basis = {0: ((Fraction(1),) * n,)}
    for k in range(1, top + 1):
        rows = []
        for terms in gens:
            degree = terms[0][1] * a[terms[0][0]]
            if degree > k:
                continue
            prev = slots(k - degree)
            coeffs = {b: Fraction(c) for b, _, c in terms}
            for v in basis[k - degree]:
                w = tuple(
                    coeffs.get(i, 0) * v[prev.index(i)] if i in prev else Fraction(0)
                    for i in slots(k)
                )
                if any(w):
                    rows.append(w)
        basis[k] = oracle_rref(rows)
    integer = {k: {next(j for j, x in enumerate(r) if x): primitive(r) for r in rows}
               for k, rows in basis.items()}
    return ba.BranchAlgebra(sig, tuple(ba.generator(sig, t) for t in gens), integer)


SMALL_SIGNATURES = [
    derive(orders)
    for orders in sorted({
        tuple(sorted((x, y, z)[:n], reverse=True))
        for n in (1, 2, 3) for x in range(6) for y in range(6) for z in range(6)
    })
    if sum(orders) % 2 == 0
]
COEFFS = st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


@st.composite
def closures(draw):
    """(sig, generators, bound, first reads, descending): zero orders allowed,
    n <= 3, empty and one-branch generator sets, bounds at or above the
    window W, first reads drawn from [W, bound], then every degree up to
    the bound in a drawn direction.  Two in three draws add two consecutive
    pure powers per branch, so that many rings are cofinite and get
    certified."""
    sig = draw(st.sampled_from(SMALL_SIGNATURES))
    a = sig.weights_a
    one_branch = sig.n > 1 and draw(st.integers(0, 4)) == 0
    branches = [0] if one_branch else list(range(sig.n))
    gens = []
    for _ in range(draw(st.integers(0, 5))):
        first = draw(st.sampled_from(branches))
        degree = draw(st.integers(1, 5)) * a[first]
        terms = [(first, degree // a[first], draw(COEFFS))]
        for i in branches:
            if i != first and degree % a[i] == 0 and draw(st.booleans()):
                terms.append((i, degree // a[i], draw(COEFFS)))
        gens.append(terms)
    if draw(st.integers(0, 2)):  # consecutive pure powers make the ring cofinite
        for i in branches:
            e = draw(st.integers(2, 4))
            gens += [[(i, e, draw(COEFFS))], [(i, e + 1, draw(COEFFS))]]
    window = ba.window(sig)
    bound = window + draw(st.sampled_from((0, 1, sig.ell, 4 * window)))
    first_reads = draw(st.lists(st.integers(window, bound), min_size=1, max_size=3))
    return sig, gens, bound, first_reads, draw(st.booleans())


def doubling_oracle(ref, top):
    """Per-branch c_i = 1 + the last e with t_i^e not in R and e*a_i <= top,
    read off a dense closure; e = 0 counts, as t_i^0 = e_i lies in R only
    when n = 1.  With top >= 2*a_i*T, where T = max(m)+2, every c_i <= T is
    exact: t_i^e then lies in R for e in [T, 2T), so t_i^e = t_i^T * t_i^(e-T)
    puts every later power in by induction."""
    return tuple(
        1 + max((e for e in range(0, top // a + 1) if not ref.has_power(i, e)), default=-1)
        for i, a in enumerate(ref.signature.weights_a)
    )


def missing_powers(notes):
    """(branch, exponent) of each 'pure power t<i>^<e> missing' note."""
    return [(int(i) - 1, int(e)) for note in notes if note.startswith("pure power")
            for i, e in [note.split()[2][1:].split("^")]]


@settings(max_examples=300, deadline=None)
@given(closures())
def test_certified_stop_matches_the_dense_closure(case):
    sig, gens, bound, first_reads, descending = case
    alg = ba.close(sig, gens)
    assert alg.degree_cap <= ba.window(sig)  # close() itself stops at W
    # the conductor reads up to D = 2*A*T + A - 1 (see branch_algebra._conductor)
    reach, T = max(sig.weights_a), sig.orders[0] + 2
    top = max(bound, 2 * reach * T + reach - 1)
    ref = dense_close(sig, gens, top)
    for k in first_reads:
        assert alg.dim(k) == ref.dim(k), k
    for k in (range(bound, -1, -1) if descending else range(bound + 1)):
        assert alg.basis(k) == ref.basis(k), k
        assert alg.dim(k) == ref.dim(k), k
    assert ba.graded_dims(alg, bound) == ba.graded_dims(ref, bound)
    assert ba.gap_sequence(alg) == ba.gap_sequence(ref)
    report, conditions = ba.conductor_and_gorenstein(alg), ba.validate_G_conditions(alg)
    touched = {b for terms in gens for b, _, _ in terms}
    if len(touched) < sig.n:
        assert alg.stable_from is None  # no pure powers on an untouched branch
    if alg.stable_from is not None:
        assert all(ref.dim(k) == len(ref.slots(k)) for k in range(alg.stable_from, top + 1))

    # the dense closure has no certificate by design; the doubling oracle
    # decides the window, and supplies one where every c_i <= T
    oracle = doubling_oracle(ref, top)
    within = all(c <= T for c in oracle)
    assert report.conductor_bound_ok == conditions.conductor_bound == within
    assert report.conductor == (oracle if alg.stable_from is not None and alg.stable_from <= reach * T
                                else (T + 1,) * sig.n)
    assert within or not report.gorenstein
    assert all(e >= T and not ref.has_power(i, e) for i, e in missing_powers(conditions.notes))
    assert bool(missing_powers(conditions.notes)) == (not within)
    if within:  # every R_k is full from max_i a_i*c_i on
        ref.stable_from = max(a * c for a, c in zip(sig.weights_a, oracle))
    if within or alg.stable_from is None:  # both read the same conductor
        assert report == ba.conductor_and_gorenstein(ref)
    if report.conductor_bound_ok:  # len(R/c), read degree by degree on the dense closure
        a, c = sig.weights_a, report.conductor
        assert report.quotient_length == sum(
            ref.rank(k, [pos for pos, i in enumerate(ref.slots(k)) if k // a[i] < c[i]])
            for k in ref.degrees(max(x * y for x, y in zip(a, c))))
    else:
        assert report.quotient_length is None
    ref_conditions = ba.validate_G_conditions(ref)
    assert conditions._replace(notes=()) == ref_conditions._replace(notes=())
    if within:
        assert conditions.notes == ref_conditions.notes
    assert len(ref.graded_basis) == top + 1  # the reference never extended itself


@pytest.mark.parametrize("orders,gens", [
    ((2,), [[(0, 2, 1)]]),  # k[t^2]: no odd power, delta is infinite
    ((4,), [[(0, 2, 1)]]),
    ((3, 1), [[(0, 2, 1)], [(0, 3, 1)]]),  # pure powers on the first branch only
], ids=["t2-on-2", "t2-on-4", "one-branch-on-31"])
def test_ring_that_is_not_cofinite_gets_no_conductor(orders, gens):
    alg = ba.close(derive(orders), gens)
    report = ba.conductor_and_gorenstein(alg)
    assert alg.stable_from is None
    assert not report.conductor_bound_ok and not report.gorenstein
    assert not ba.validate_G_conditions(alg).conductor_bound
    assert "delta" not in ba.algebra_summary(alg) and "genus" not in ba.algebra_summary(alg)


def test_no_conductor_means_no_certificate():
    sig = derive((3, 1))
    far = 20 * ba.window(sig)
    assert read_first(ba.close(sig, [[(0, 2, 1), (1, 1, 1)]]), 16).stable_from is None
    assert read_first(ba.close(sig, [[(0, 2, 1), (1, 1, 1)]]), far).stable_from is None
    assert read_first(ba.close(sig, [[(0, 2, 1)], [(0, 3, 1)]]), far).stable_from is None
    assert read_first(ba.close(sig, []), far).stable_from is None
    # certified inside the window W = 10: K = 5 and M = 2 stop at K + M - 1 = 6
    assert alg31().stable_from == 5
    gens = [[(0, 2, 1), (1, 1, 1)], [(0, 3, 1)]]
    assert read_first(ba.close(sig, gens), 16).stable_from == 5  # t1^5, t2^3 on


@pytest.mark.parametrize("exps", [(6, 7, 8, 9, 10, 11), (6, 7, 8, 10, 11)],
                         ids=["t6-to-t11", "t6-to-t11-but-t9"])
def test_conductor_reports_do_not_depend_on_what_was_read_before(exps):
    # on (2), A*T = 4 and D = 8: neither ring is certified by D, and a
    # level-5 spectrum reads past it, far enough to certify the first ring
    # at stable_from = 6 and the second, past its last gap t1^9, at 10:
    # both start above A*T, so neither certificate is used
    sig = derive((2,))
    gens = [[(0, e, 1)] for e in exps]
    fresh = ba.close(sig, gens)
    expected = (ba.conductor_and_gorenstein(fresh), ba.validate_G_conditions(fresh))
    assert expected[0].conductor == (5,) and not expected[0].conductor_bound_ok
    assert expected[1].notes[0] == "pure power t1^5 missing from the ring"
    read = ba.close(sig, gens)
    inv.weight_spectrum(read, 5)
    assert len(read.graded_basis) > 10
    assert read.stable_from == (6 if 9 in exps else 10)
    assert (ba.conductor_and_gorenstein(read), ba.validate_G_conditions(read)) == expected
    inv.weight_spectrum(fresh, 5)  # the same object, read past D after its reports
    assert (ba.conductor_and_gorenstein(fresh), ba.validate_G_conditions(fresh)) == expected


@pytest.mark.parametrize("family,g", [("D-odd", 80), ("D-even", 60)])
def test_close_stops_within_twice_the_conductor(family, g):
    alg = catalog.family(family, g=g).algebra()
    sig = alg.signature
    conductor = ba.conductor_and_gorenstein(alg).conductor
    top = max(a * c for a, c in zip(sig.weights_a, conductor))
    assert alg.stable_from is not None and alg.stable_from <= top
    assert len(alg.graded_basis) <= 2 * top + max(sig.weights_a)


@pytest.mark.parametrize("entry", [
    *catalog.entries(),
    catalog.family("A", g=3), catalog.family("A-odd", g=3), catalog.family("D-odd", g=3),
    catalog.family("D-even", g=3), catalog.family("elliptic", n=6),
    catalog.family("monomial", H=(3, 5)),
], ids=lambda e: e.id)
def test_graded_bases_hold_only_ints(entry):
    alg = entry.algebra()
    ba.algebra_summary(alg)  # reads past the window extend the closure
    ba.validate_G_conditions(alg, entry.dualizing_units)
    for k, rows in alg.graded_basis.items():
        assert all(type(x) is int for r in rows.values() for x in r), k


# ------------------------------------------------------- the one reader


def assert_pure_powers_agree(alg):
    """has_power, a row lookup, against contains, an elimination, for every
    t_i^e in the window."""
    sig = alg.signature
    for i, a in enumerate(sig.weights_a):
        for e in range(1, ba.window(sig) // a + 1):
            assert alg.has_power(i, e) == alg.contains([(i, e, 1)]), (i, e)


FAMILY_MEMBERS = [
    *(catalog.family(name, g=g) for name in ("A", "A-odd", "D-odd", "D-even")
      for g in range(2, 6)),
    *(catalog.family("elliptic", n=n) for n in (*range(3, 9), 12)),
    *(catalog.family("monomial", H=H) for g in range(2, 7) for H in sg.enumerate_symmetric(g)),
    catalog.with_ordinary_points(catalog.family("elliptic", n=11), 1),
]


def gap_sequence_oracle(alg):
    """alpha_j = n minus the rank R adds at order j, read at every k = j*a_i,
    full piece or not: rank(below + level) - rank(below) over the slots of
    k with exponent k/a_i < j and = j."""
    sig = alg.signature
    a = sig.weights_a
    alphas = []
    for j in range(1, sig.orders[0] + 3):
        rank = 0
        for k in sorted({j * x for x in a}):
            sl = alg.slots(k)
            below = [pos for pos, i in enumerate(sl) if k // a[i] < j]
            level = [pos for pos, i in enumerate(sl) if k // a[i] == j]
            rank += alg.rank(k, below + level) - alg.rank(k, below)
        alphas.append(sig.n - rank)
    return tuple(alphas)


@pytest.mark.parametrize("entry", [*catalog.entries(), *FAMILY_MEMBERS], ids=lambda e: e.id)
def test_gap_sequence_skips_only_full_pieces(entry):
    assert ba._gap_sequence_full(entry.algebra()) == gap_sequence_oracle(entry.algebra())


@settings(max_examples=200, deadline=None)
@given(closures())
def test_gap_sequence_skips_only_full_pieces_on_the_dense_closure(case):
    sig, gens, _, _, _ = case
    ref = dense_close(sig, gens, ba.window(sig))  # no certificate: every piece is read
    assert ba._gap_sequence_full(ba.close(sig, gens)) == gap_sequence_oracle(ref)


def full_scan_report(alg, units):
    """validate_G_conditions with (G4) tested at every pair (i, j), i < j,
    its notes in pair order between the (G3) and (G5) notes."""
    report = ba.validate_G_conditions(alg, units)
    sig = alg.signature
    u = [Fraction(x) for x in units] if units is not None else [1] * sig.n
    pairs = [f"dualizing pair test fails for branches ({i}, {j})"
             for i, j in itertools.combinations(range(sig.n), 2)
             if not alg.contains([(i, sig.orders[i] + 1, u[j]), (j, sig.orders[j] + 1, -u[i])])]
    others = [note for note in report.notes if not note.startswith("dualizing pair")]
    tail = [note for note in others if note.startswith("gap tail")]
    return report._replace(dualizing_pairs=not pairs,
                           notes=tuple(others[:len(others) - len(tail)] + pairs + tail))


@pytest.mark.parametrize("entry", [*catalog.entries(), *FAMILY_MEMBERS], ids=lambda e: e.id)
def test_dualizing_pairs_match_the_full_scan(entry):
    n = len(entry.signature)
    units = tuple(entry.dualizing_units)
    altered = [units, None, (-units[0], *units[1:]), (*units[:-1], 2 * units[-1])]
    if n > 2:
        altered.append((*units[:1], -units[1], *units[2:]))
    for u in altered:
        assert ba.validate_G_conditions(entry.algebra(), u) == full_scan_report(entry.algebra(), u)


def test_a_failing_consecutive_pair_reports_every_failing_pair():
    # negating the first unit fails every pair (0, j), while the pairs
    # among the other branches still hold: the consecutive pair (0, 1)
    # fails, and the full scan names all five
    entry = catalog.family("elliptic", n=6)
    units = tuple(entry.dualizing_units)
    report = ba.validate_G_conditions(entry.algebra(), (-units[0], *units[1:]))
    assert not report.dualizing_pairs
    assert [note for note in report.notes if note.startswith("dualizing pair")] == [
        f"dualizing pair test fails for branches (0, {j})" for j in range(1, 6)]


@pytest.mark.parametrize("entry", [*catalog.entries(), *FAMILY_MEMBERS], ids=lambda e: e.id)
def test_pure_power_lookup_matches_membership(entry):
    assert_pure_powers_agree(entry.algebra())


@settings(max_examples=100, deadline=None)
@given(closures())
def test_pure_power_lookup_on_the_dense_closure(case):
    sig, gens, _, _, _ = case
    ref = dense_close(sig, gens, ba.window(sig))  # no certificate: every row is computed
    assert_pure_powers_agree(ref)
    assert len(ref.graded_basis) == ba.window(sig) + 1


def t345(orders):
    """Two branches, each generated by t^3, t^4, t^5."""
    return ba.close(derive(orders), [[(i, e, 1)] for i in range(2) for e in (3, 4, 5)])


def test_spectrum_reads_only_the_degrees_that_carry_a_slot(monkeypatch):
    alg = t345((1000, 998))  # ell = 999,999
    sig = alg.signature
    reads = []
    dim = ba.BranchAlgebra.dim
    monkeypatch.setattr(ba.BranchAlgebra, "dim", lambda self, k: reads.append(k) or dim(self, k))
    spectrum = inv.weight_spectrum(alg, 1)
    assert 0 < len(reads) <= (2 * sig.genus - 2 + sig.n) + sig.n
    assert spectrum.chi_log == 996005004  # as read on every degree before


@pytest.mark.parametrize("m", [1, 2])
def test_spectrum_matches_the_dense_read(m):
    alg = t345((98, 100))  # ell = 9,999
    top = m * alg.signature.ell
    dense = [(lam, alg.dim(top - lam)) for lam in range(top + 1)]
    assert inv.weight_spectrum(alg, m).entries == tuple((lam, d) for lam, d in dense if d)


# ------------------------------------------- the closure stores only S


@pytest.mark.parametrize("entry", [*catalog.entries(), *FAMILY_MEMBERS], ids=lambda e: e.id)
def test_closure_stores_only_the_degrees_that_carry_a_slot(entry, monkeypatch):
    # with no piece allowed past D: each of these rings is certified by D
    monkeypatch.setattr(ba, "CLOSURE_PIECE_BOUND", 1)
    alg = entry.algebra()
    ba.algebra_summary(alg)
    ba.validate_G_conditions(alg, entry.dualizing_units)
    for m in (1, 2, 3):
        inv.weight_spectrum(alg, m)
    assert all(alg.slots(k) for k in alg.graded_basis)


def test_a_ring_certified_past_its_last_slot_stores_only_its_slots():
    # a = (999, 1001): stable_from = 2003 and the stop at K + M - 1 = 5005,
    # M = 3*1001; the eleven slot-carrying degrees up to it are stored
    alg = t345((1000, 998))
    report = ba.conductor_and_gorenstein(alg)
    assert (report.conductor, report.delta, report.gorenstein) == ((3, 3), 5, False)
    assert alg.stable_from == 2003
    assert len(alg.graded_basis) == 11 and alg.degree_cap == 5005


def test_a_ring_that_is_not_cofinite_stores_only_its_slots_up_to_D():
    # a = (99, 101), A*T = 10302 and D = 20704: 210 multiples of 99 and 205
    # of 101 up to D, three of them (0, 9999, 19998) shared
    alg = ba.close(derive((100, 98)), [[(0, e, 1)] for e in (3, 4, 5)])
    assert not ba.conductor_and_gorenstein(alg).conductor_bound_ok
    assert alg.stable_from is None
    assert len(alg.graded_basis) == 412
    dims = ba.graded_dims(alg, 400)  # zero off the stored degrees
    assert [k for k, d in enumerate(dims) if d] == [0, 297, 396]  # 1, t1^3, t1^4


def test_a_stop_at_a_degree_with_no_slot_still_certifies_by_D():
    # on (6, 4), a = (5, 7): A*T = 56 and D = 118, which carries no slot.  R
    # misses t1^11 at degree 55 and nothing later, so K = 56, and M = 5*12
    # puts the stop at K + M - 1 = 115, before D: the conductor is
    # certified, read first or not
    sig = derive((6, 4))
    gens = [[(0, e, 1)] for e in range(12, 24)] + [[(1, 1, 1)]]
    fresh = ba.close(sig, gens)
    reports = (ba.conductor_and_gorenstein(fresh), ba.validate_G_conditions(fresh))
    assert fresh.stable_from == 56 and not fresh.slots(118)
    assert reports[0].conductor == (12, 1) and not reports[0].conductor_bound_ok
    assert "pure power t1^11 missing from the ring" in reports[1].notes
    read = read_first(ba.close(sig, gens), 400)
    assert (ba.conductor_and_gorenstein(read), ba.validate_G_conditions(read)) == reports


# ------------------------------------------------ the closure walks S, not ell


def test_the_closure_walk_does_not_grow_with_ell(monkeypatch):
    # ell = 9,999 / 999,999 / 99,999,999: the same pieces, slots() calls and
    # cache entries at each; a walk through every degree up to the stop
    # made 524 / 5,024 / 50,024 calls
    calls = []
    slots = ba.BranchAlgebra.slots
    monkeypatch.setattr(ba.BranchAlgebra, "slots",
                        lambda self, k: calls.append(k) or slots(self, k))
    work = set()
    for orders, stable_from, degree_cap in [((100, 98), 203, 505), ((1000, 998), 2003, 5005),
                                            ((10000, 9998), 20003, 50005)]:
        calls.clear()
        alg = t345(orders)
        work.add((len(calls), len(alg._slots)))
        assert (len(alg.graded_basis), alg.stable_from, alg.degree_cap) == (
            11, stable_from, degree_cap)
        assert ba.conductor_and_gorenstein(alg).conductor == (3, 3)
    assert len(work) == 1


def test_a_stop_inside_a_run_of_degrees_with_no_slot_matches_the_dense_closure():
    # a = (99, 101): K = 203 and M = 303 put the stop at 505, a slot degree
    # just before the degrees 506..593 with no slot (the next test stops
    # inside such a run)
    alg = t345((100, 98))
    sig = alg.signature
    ref = dense_close(sig, [[(i, e, 1)] for i in range(2) for e in (3, 4, 5)], ba.window(sig))
    assert all(alg.basis(k) == ref.basis(k) for k in range(alg.degree_cap + 1))
    short = [k for k in range(ba.window(sig) + 1) if ref.dim(k) < len(ref.slots(k))]
    assert alg.stable_from == short[-1] + 1 == 203
    ref.stable_from = alg.stable_from  # the dense closure is full from 203 to W
    assert ba.conductor_and_gorenstein(alg) == ba.conductor_and_gorenstein(ref)


def test_a_short_stop_inside_a_run_of_degrees_with_no_slot_matches_the_dense_closure():
    # a = (99, 101): R misses t1^5 at degree 495, so K = 496; the least
    # degrees touching each branch are 2*99 and 2*101, so M = 202 and the
    # stop K + M - 1 = 697 falls inside the degrees 694..706 with no slot
    sig = derive((100, 98))
    gens = [[(0, e, 1)] for e in (2, *range(6, 12))] + [[(1, 2, 1)], [(1, 3, 1)]]
    alg = ba.close(sig, gens)
    assert alg._span == 202 and not any(alg.slots(k) for k in range(694, 707))
    assert (alg.stable_from, alg.degree_cap) == (496, 693)
    ref = dense_close(sig, gens, ba.window(sig))
    assert all(alg.basis(k) == ref.basis(k) for k in range(ba.window(sig) + 1))
    short = [k for k in range(ba.window(sig) + 1) if ref.dim(k) < len(ref.slots(k))]
    assert alg.stable_from == short[-1] + 1
    ref.stable_from = alg.stable_from  # the dense closure is full from 496 to W
    assert ba.conductor_and_gorenstein(alg) == ba.conductor_and_gorenstein(ref)


def test_the_closure_certifies_after_a_run_as_long_as_its_largest_generator_degree():
    # K = 5 and M = 2: certified at degree 6, inside the window W = 10
    alg = alg31()
    assert (alg._span, alg.stable_from, alg.degree_cap) == (2, 5, 6)
    # the doubling stop 2K + A - 1 stored 145 pieces here
    alg = catalog.family("A", g=36).algebra()
    assert (len(alg.graded_basis), alg.stable_from) == (74, 72)
    # M = 3*101 = 303: the stop K + M - 1 = 505 is the last slot before 2K + A - 1
    alg = t345((100, 98))
    assert alg._span == 303
    assert (len(alg.graded_basis), alg.stable_from, alg.degree_cap) == (11, 203, 505)
    # an untouched branch has no M: never certified, read to D as before
    alg = ba.close(derive((3, 1)), [[(0, 2, 1)], [(0, 3, 1)]])
    assert alg._span is None and alg.stable_from is None


def test_a_ring_certified_past_D_answers_a_read_far_beyond_it():
    # (6, 7, 8, 10, 11) on (2), a = (1,): D = 8, yet the certificate at
    # stable_from = 10 fires at K + M - 1 = 15 and a level-40000 spectrum
    # reads to degree 120,000 on 16 stored pieces.  A piece bound checked
    # before the read, counting the slot-carrying degrees up to it, would
    # refuse this ring, which answers.
    alg = ba.close(derive((2,)), [[(0, e, 1)] for e in (6, 7, 8, 10, 11)])
    assert ba._certificate_bound(alg.signature) == (4, 8)
    spectrum = inv.weight_spectrum(alg, 40000)
    assert spectrum.entries[0] == (0, alg.dim(120000)) == (0, 1)
    assert (alg.stable_from, len(alg.graded_basis), alg.degree_cap) == (10, 16, 15)


def test_a_read_past_D_without_a_certificate_is_refused_at_the_piece_bound(monkeypatch):
    # k[t^2] on (2), a = (1,): no certificate by D = 8, one piece per degree
    monkeypatch.setattr(ba, "CLOSURE_PIECE_BOUND", 40)
    alg = ba.close(derive((2,)), [[(0, 2, 1)]])
    assert not ba.conductor_and_gorenstein(alg).conductor_bound_ok  # it reads up to D only
    assert (alg.dim(38), alg.dim(39)) == (1, 0)  # the 40 pieces at degrees 0..39
    with pytest.raises(ValueError, match=r"^\(2\) has no certificate by degree D = 8; "
                                         r"closing it to degree 40 would store more than "
                                         r"40 pieces$"):
        alg.dim(40)
    assert len(alg.graded_basis) == 40


def test_a_certified_ring_reads_far_past_the_piece_bound():
    alg = catalog.get("E7").algebra()
    assert alg.dim(10**6) == len(alg.slots(10**6))
    assert len(alg.graded_basis) < 100
