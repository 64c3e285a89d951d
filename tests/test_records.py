"""Value records and curve models are named tuples, not dataclasses.

A frozen dataclass compiles its methods at import, which is most of the
start-up cost of a CLI command; a named tuple does not.  These tests pin
what the records keep from their dataclass form (field order, defaults,
repr, no assignment) and guard start-up against a new dataclass.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import gmspectra
from gmspectra import branch_algebra as ba
from gmspectra import catalog, classifier
from gmspectra import curve_models as cm
from gmspectra import invariants as inv
from gmspectra import semigroup as sg

# each record's field order as it was in its dataclass form
FIELDS = {
    ba.ConductorReport: ["conductor", "quotient_length", "gorenstein", "conductor_bound_ok",
                         "delta"],
    ba.SectionSpace: ["dimension", "by_degree"],
    ba.GConditionReport: ["no_bare_parameters", "conductor_bound", "dualizing_pairs",
                          "gap_tail", "notes"],
    catalog.ExpectedInvariants: ["gap_sequence", "delta", "chi1_log", "chi2_log", "alpha",
                                 "slope", "spin", "ambient_weights"],
    catalog.CatalogEntry: ["id", "aliases", "signature", "component", "nonvarying",
                           "generators", "dualizing_units", "expected", "locus_condition"],
    classifier.Candidate: ["signature", "model", "chi1_log", "threshold_rhs", "passed",
                           "item", "component", "dangling"],
    classifier.Tagging: ["weierstrass", "pairs", "free"],
    classifier.SemigroupRecord: ["semigroup", "chi1_log", "element_sum", "hyperelliptic",
                                 "spin", "passed"],
    classifier.RegressionCheck: ["entry_id", "field", "expected", "actual"],
    classifier.RegressionReport: ["checks"],
    inv.WeightSpectrum: ["m", "entries"],
    inv.WeightIdentityReport: ["top_multiplicity_ok", "ladder_differences_ok",
                               "shifted_tail_ok", "chi_formula_ok", "notes"],
    inv.AlphaSlopeRecord: ["chi1_log", "chi2_log", "chi2", "alpha", "slope"],
    inv.ToricIdentityReport: ["p", "q", "branches", "closed_form", "lattice_count",
                              "chi1_log"],
    sg.ElementSumRecord: ["semigroup", "element_sum", "slack"],
    cm.AlgebraModel: ["algebra"],
    cm.UnibranchModel: ["semigroup"],
    cm.HyperellipticModel: ["genus", "tags"],
    cm.CliffordMaxModel: ["genus"],
    cm.OverrideModel: ["base", "table"],
}
DEFAULTS = {
    catalog.CatalogEntry: {"locus_condition": None},
    classifier.Candidate: {"component": None, "dangling": ()},
    classifier.Tagging: {"free": 0},
}


def _classes():
    for info in pkgutil.iter_modules(gmspectra.__path__):
        module = importlib.import_module(f"gmspectra.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def test_only_three_classes_stay_dataclasses():
    # Signature iterates over its orders, NumericalSemigroup keeps caches in
    # slots, BranchAlgebra is mutable; any other dataclass costs start-up
    assert sorted(c.__name__ for c in _classes() if dataclasses.is_dataclass(c)) == [
        "BranchAlgebra", "NumericalSemigroup", "Signature"]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_keep_their_dataclass_order_and_defaults(cls):
    assert list(cls._fields) == FIELDS[cls]
    assert cls._field_defaults == DEFAULTS.get(cls, {})


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_fields_are_read_only(cls):
    record = cls._make(range(len(cls._fields)))
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    assert record == tuple(range(len(cls._fields)))  # equal to the plain tuple
    assert record._replace(**{cls._fields[0]: -1})[0] == -1


@pytest.mark.parametrize("cls", [c for c in FIELDS if c is not cm.AlgebraModel],
                         ids=lambda c: c.__name__)
def test_no_other_attribute_can_be_set(cls):
    # no __dict__: setting any attribute raises, as on a frozen dataclass
    record = cls._make(range(len(cls._fields)))
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


def test_the_algebra_model_keeps_its_genus():
    model = cm.AlgebraModel(catalog.get("E7").algebra())
    assert model.genus == 3
    assert model.__dict__ == {"genus": 3}
    with pytest.raises(AttributeError):
        model.algebra = None


def test_repr_is_the_dataclass_repr():
    candidate = classifier.Candidate((6, 0, 0), "hyperelliptic(w6,o,o)", 16,
                                     Fraction(63, 4), True, "hyperelliptic", "hyp")
    assert repr(candidate) == (
        "Candidate(signature=(6, 0, 0), model='hyperelliptic(w6,o,o)', chi1_log=16, "
        "threshold_rhs=Fraction(63, 4), passed=True, item='hyperelliptic', "
        "component='hyp', dangling=())")
    assert candidate in classifier.alpha_search(4)
    assert repr(classifier.Tagging((4,), (4,), 2)) == (
        "Tagging(weierstrass=(4,), pairs=(4,), free=2)")
    assert repr(cm.CliffordMaxModel(5)) == "CliffordMaxModel(genus=5)"
