"""Value records and curve models are named tuples, and no class is a dataclass.

A frozen dataclass compiles its methods at import, which is most of the
start-up cost of a CLI command; a named tuple does not.  These tests pin
what the records keep from their dataclass form (field order, defaults,
repr, no assignment) and guard start-up against a new dataclass.
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest

import gmspectra
from gmspectra import branch_algebra as ba
from gmspectra import catalog, classifier
from gmspectra import curve_models as cm
from gmspectra import invariants as inv
from gmspectra import semigroup as sg
from gmspectra import signature

# each record's field order as it was in its dataclass form; a semigroup
# also carries the genus and element sum its constructors compute
FIELDS = {
    ba.SectionSpace: ["dimension"],
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
    inv.ToricIdentityReport: ["p", "q", "branches", "closed_form", "lattice_count"],
    sg.ElementSumRecord: ["semigroup", "element_sum", "slack"],
    sg.NumericalSemigroup: ["frobenius", "mask", "genus", "element_sum"],
    signature.Signature: ["orders", "genus", "ell", "weights_a"],
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


def test_no_class_is_a_dataclass():
    assert [c.__name__ for c in _classes() if dataclasses.is_dataclass(c)] == []


def test_the_cli_import_does_not_load_dataclasses():
    # a fresh, isolated interpreter (-I ignores PYTHONPATH, so the package's
    # directory is put on sys.path first): nothing the test run imported leaks in
    src = os.path.dirname(os.path.dirname(gmspectra.__file__))
    probe = (f"import sys; sys.path.insert(0, {src!r}); import gmspectra.cli; "
             "print('dataclasses' in sys.modules)")
    out = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout == "False\n"


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


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_no_other_attribute_can_be_set(cls):
    # no __dict__: setting any attribute raises, as on a frozen dataclass
    record = cls._make(range(len(cls._fields)))
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.extra = 1


def test_the_catalog_ring_keeps_its_genus():
    assert ba.algebra_summary(catalog.get("E7").algebra())["genus"] == 3


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
