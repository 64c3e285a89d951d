"""Command-line front end over the algebra, model, and search layers.

All numeric output is exact: integers stay integers and every other
rational is rendered as ``p/q``.  The ``--decimal`` flags append an
approximation explicitly marked with ``~`` but never replace the exact
value.  Verbosity is controlled by the ``LOG_LEVEL`` environment
variable (default quiet).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import sys
from fractions import Fraction
from math import gcd

import click
from click.core import ParameterSource

from . import branch_algebra as ba
from . import catalog as cat
from . import curve_models as cm
from . import invariants as inv
from . import semigroup as sg
from .classifier import (
    GENUS_BOUND,
    UnresolvedSignatureError,
    alpha_search,
    nonvarying_regression,
    semigroup_search,
    threshold_coefficient,
)
from .signature import Signature, derive

logging.basicConfig(level=os.environ.get("LOG_LEVEL", "WARNING").upper())

# `filtration` prints one number per level and `invariants` one graded
# dimension per degree up to max(m*ell, ba.window); refuse longer sequences
MAX_PRINTED_LEVELS = 10**6


# -------------------------------------------------------------- rendering


def fmt_rational(value, decimal: bool = False) -> str:
    f = Fraction(value)
    text = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if decimal and f.denominator != 1:
        text += f" ~{float(f):.6g}"
    return text


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(f"expected an integer or p/q, got {text!r}") from exc


def parse_threshold(text: str) -> Fraction:
    tau = parse_rational(text)
    try:
        threshold_coefficient(tau)  # validate range before searching
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--threshold") from exc
    return tau


def parse_ints(text: str, param_hint: str) -> list[int]:
    """The comma-separated integers of one option; blames the first bad item."""
    values = []
    for part in text.split(","):
        try:
            values.append(int(part))
        except ValueError:
            raise click.BadParameter(
                f"expected comma-separated integers, got {part!r}", param_hint=param_hint
            ) from None
    return values


def parse_levels(text: str) -> list[int]:
    levels = sorted(set(parse_ints(text, "'--m'")))
    if levels[0] < 1:
        raise click.BadParameter("levels must be positive integers", param_hint="'--m'")
    return levels


def parse_signature(text: str) -> Signature:
    orders = parse_ints(text.replace(" ", ""), "'--signature'")
    try:
        return derive(orders)
    except ValueError as exc:
        raise click.BadParameter(f"{exc}, got {text!r}", param_hint="'--signature'") from exc


def build_model(spec: str, sig):
    """Model from an inline JSON document or a short spec (clifford-max,
    unibranch:3,7, hyperelliptic:w,pair:1,pair:1), which is first rewritten
    to that document with the signature's genus.  Either is built for the
    signature's genus, so a unibranch model of another is refused before
    its semigroup is built."""
    if spec.lstrip().startswith("{"):
        doc = json.loads(spec)
    else:
        kind, _, rest = spec.partition(":")
        doc = {"kind": kind, "genus": sig.genus}
        if kind == "unibranch":
            doc["generators"] = parse_ints(rest, "'--model'") if rest else []
        elif kind == "hyperelliptic":
            doc["tags"] = rest.split(",") if rest else []
    return cm.model_from_spec(doc, sig.genus)


def resolve_model(entry_id, sig_text, model_spec, missing: str):
    """(signature, model) from --catalog alone or from --signature and --model.

    A --catalog given together with --signature or an explicit --model is
    refused, as is a missing source (the ``missing`` message).
    """
    if entry_id is not None:
        source = click.get_current_context().get_parameter_source("model_spec")
        if sig_text is not None or source is not ParameterSource.DEFAULT:
            raise click.UsageError("give --catalog alone, without --signature or --model")
        entry = load_entry(entry_id)
        return derive(entry.signature), cm.AlgebraModel(entry.algebra())
    if sig_text is None or model_spec is None:
        raise click.UsageError(missing)
    sig = parse_signature(sig_text)
    return sig, build_model(model_spec, sig)


def emit_table(rows: list[dict], columns: list[str]) -> None:
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    click.echo("  ".join(c.ljust(widths[c]) for c in columns).rstrip())
    for r in rows:
        click.echo("  ".join(str(r[c]).ljust(widths[c]) for c in columns).rstrip())


def load_entry(entry_id: str, param_hint: str = "'--catalog'") -> cat.CatalogEntry:
    try:
        return cat.get(entry_id)
    except KeyError as exc:
        raise click.BadParameter(
            f"unknown catalog id {entry_id!r}; try `gmspectra catalog list`",
            param_hint=param_hint,
        ) from exc


# ------------------------------------------------------------------ group


class Main(click.Group):
    """Reports bad input as one `Error:` line with exit code 2.

    Covers ValueError (malformed JSON included) and KeyError; the
    RuntimeError and AssertionError of failed cross-checks still raise.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except KeyError as exc:
            raise click.UsageError(f"missing key {exc}") from exc
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc


@click.group(cls=Main)
def main():
    """Exact weight spectra, singularity invariants, and stratum searches."""


# ------------------------------------------------------------- invariants


@main.command()
@click.option("--catalog", "entry_id", help="Catalog entry id, e.g. E7.")
@click.option("--input", "path", type=click.Path(exists=True, dir_okay=False),
              help="JSON file with signature, generators, dualizing_units.")
@click.option("--m", "levels_text", default="1,2", show_default=True,
              help="Comma-separated character levels.")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--decimal", is_flag=True, help="Append ~ float approximations.")
def invariants(entry_id, path, levels_text, fmt, decimal):
    """Recompute every invariant of one singularity algebra."""
    if (entry_id is None) == (path is None):
        raise click.UsageError("give exactly one of --catalog or --input")
    levels = parse_levels(levels_text)
    if entry_id is not None:
        doc = cat.as_dict(load_entry(entry_id))
    else:
        with open(path) as fh:
            doc = json.load(fh)
    sig, gens, _units = ba.generators_from_json(doc)
    top = max(levels[-1] * sig.ell, ba.window(sig))
    if top + 1 > MAX_PRINTED_LEVELS:
        raise click.UsageError(
            f"{sig} has {top + 1} graded dimensions at m = {levels[-1]}; "
            f"this command prints at most {MAX_PRINTED_LEVELS}"
        )
    alg = ba.close(sig, [terms for _, terms in gens])

    report = ba.algebra_summary(alg)
    report["graded_dims"] = list(ba.graded_dims(alg, top))
    report["signature"] = list(sig.orders)
    report["ell"] = sig.ell
    report["weights_a"] = list(sig.weights_a)
    chi = {m: inv.weight_spectrum(alg, m).chi_log for m in levels}
    for m in levels:
        report[f"chi{m}_log"] = chi[m]
    if 1 in chi and 2 in chi and report["gorenstein"]:  # the slope identity needs it
        rec = inv.alpha_slope_record(chi[1], chi[2], sig)
        report["chi2"] = rec.chi2
        if rec.alpha is not None:  # undefined where 13*chi1_log = chi2_log
            report["alpha"] = rec.alpha
        report["slope"] = rec.slope
    spin = ba.spin_parity(alg)
    if spin is not None:
        report["spin"] = spin

    if fmt == "json":
        clean = {k: (fmt_rational(v) if isinstance(v, Fraction) else v)
                 for k, v in report.items()}
        click.echo(json.dumps(clean, indent=2))
    else:
        for key, value in report.items():
            if isinstance(value, Fraction):
                value = fmt_rational(value, decimal)
            elif isinstance(value, list):
                value = " ".join(str(x) for x in value)
            click.echo(f"{key}: {value}")


# ------------------------------------------------------------- filtration


@main.command()
@click.option("--catalog", "entry_id", help="Algebra-backed model from the catalog.")
@click.option("--signature", "sig_text", help="Zero orders, e.g. 6,2.")
@click.option("--model", "model_spec", help="Model spec (see build_model).")
@click.option("--m", "m", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def filtration(entry_id, sig_text, model_spec, m, fmt):
    """Dimension sequence of the weight filtration at level m."""
    sig, model = resolve_model(entry_id, sig_text, model_spec,
                               "give --catalog, or both --signature and --model")
    if m * sig.ell + 1 > MAX_PRINTED_LEVELS:
        raise click.UsageError(
            f"{sig} has {m * sig.ell + 1} filtration levels at m = {m}; "
            f"this command prints at most {MAX_PRINTED_LEVELS}"
        )
    runs = cm.filtration_dims(model, sig, m)
    dims = cm.expand_runs(runs)
    chi = cm.runs_chi_log(runs)
    if fmt == "json":
        click.echo(json.dumps({"signature": list(sig.orders), "m": m,
                               "dims": list(dims), f"chi{m}_log": chi}))
    else:
        click.echo(" ".join(str(d) for d in dims))
        click.echo(f"chi{m}_log: {chi}")


# --------------------------------------------------------------- classify


@main.group()
def classify():
    """Threshold searches over signatures and semigroups."""


ALPHA_COLUMNS = ["signature", "model", "chi1_log", "threshold", "verdict",
                 "item", "component", "dangling"]


def candidate_row(c, decimal=False) -> dict:
    return {
        "signature": ",".join(str(v) for v in c.signature),
        "model": c.model,
        "chi1_log": c.chi1_log,
        "threshold": fmt_rational(c.threshold_rhs, decimal),
        "verdict": c.verdict,
        "item": c.item,
        "component": c.component or "",
        "dangling": ",".join(str(i) for i in c.dangling),
    }


@classify.command("alpha")
@click.option("--genus", "-g", type=int, required=True)
@click.option("--threshold", default="3/8", show_default=True)
@click.option("--dangling", is_flag=True,
              help="Also score every subset of dangling branches.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text")
@click.option("--decimal", is_flag=True)
def classify_alpha(genus, threshold, dangling, fmt, decimal):
    """All models at the genus whose alpha-invariant clears the cutoff."""
    tau = parse_threshold(threshold)
    if genus > GENUS_BOUND:
        raise click.BadParameter(
            f"genus {genus} beyond the search bound {GENUS_BOUND}", param_hint="--genus"
        )
    try:
        cands = alpha_search(genus, threshold=tau, dangling=dangling)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--genus") from exc
    except UnresolvedSignatureError as exc:  # no rule resolves a stratum at this cutoff
        raise click.UsageError(f"threshold {fmt_rational(tau)}: stratum {exc}") from exc
    rows = [candidate_row(c, decimal and fmt == "text") for c in cands]
    if fmt == "json":
        payload = [{**candidate_row(c),
                    "chi1_log": c.chi1_log,
                    "threshold_lhs": fmt_rational(c.threshold_lhs),
                    "threshold_rhs": fmt_rational(c.threshold_rhs),
                    "signature": list(c.signature),
                    "dangling": list(c.dangling)} for c in cands]
        click.echo(json.dumps(payload, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=ALPHA_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        click.echo(buf.getvalue(), nl=False)
    else:
        if not rows:
            click.echo("no passing models")
            return
        emit_table(rows, ALPHA_COLUMNS)


SEMIGROUP_COLUMNS = ["semigroup", "hyperelliptic", "spin", "chi1_log",
                     "element_sum", "verdict"]


@classify.command("semigroups")
@click.option("--genus", "-g", type=int, required=True)
@click.option("--threshold", default="3/8", show_default=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text")
def classify_semigroups(genus, threshold, fmt):
    """Score every symmetric semigroup for the single-zero stratum."""
    tau = parse_threshold(threshold)
    try:
        records = semigroup_search(genus, threshold=tau)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--genus") from exc
    rows = [{
        "semigroup": str(r.semigroup),
        "hyperelliptic": r.hyperelliptic,
        "spin": r.spin or "",
        "chi1_log": r.chi1_log,
        "element_sum": r.element_sum,
        "verdict": "pass" if r.passed else "fail",
    } for r in records]
    if fmt == "json":
        click.echo(json.dumps(rows, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=SEMIGROUP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
        click.echo(buf.getvalue(), nl=False)
    else:
        emit_table(rows, SEMIGROUP_COLUMNS)


# ---------------------------------------------------------------- catalog


@main.group("catalog")
def catalog_group():
    """Shipped singularity models and their expected invariants."""


@catalog_group.command("list")
def catalog_list():
    rows = [{
        "id": e.id,
        "signature": ",".join(str(v) for v in e.signature),
        "component": e.component or "",
        "chi1_log": e.expected.chi1_log,
        "chi2_log": e.expected.chi2_log,
        "alpha": fmt_rational(e.expected.alpha),
        "nonvarying": e.nonvarying,
    } for e in cat.entries()]
    emit_table(rows, ["id", "signature", "component", "chi1_log", "chi2_log",
                      "alpha", "nonvarying"])


@catalog_group.command("show")
@click.argument("entry_id")
@click.option("--json", "as_json", is_flag=True)
def catalog_show(entry_id, as_json):
    e = load_entry(entry_id, param_hint="'ENTRY_ID'")
    doc = cat.as_dict(e)
    if as_json:
        click.echo(json.dumps(doc, indent=2))
        return
    for name, terms in e.generators:
        parts = " + ".join(
            ("" if c == 1 else "-" if c == -1 else fmt_rational(c) + "*")
            + f"t{b + 1}^{k}" for b, k, c in terms)
        click.echo(f"{name} = {parts}")
    for key in ("id", "aliases", "signature", "component", "nonvarying"):
        click.echo(f"{key}: {doc[key]}")
    for key, value in doc["expected"].items():
        click.echo(f"expected.{key}: {value}")
    if "locus_condition" in doc:
        click.echo(f"locus_condition: {doc['locus_condition']}")


# ------------------------------------------------------------------ verify


def _verify_regression() -> list[str]:
    report = nonvarying_regression()
    return [f"{c.entry_id}.{c.field}: expected {c.expected!r}, got {c.actual!r}"
            for c in report.failures()]


def _verify_identities() -> list[str]:
    failures = []
    for e in cat.entries():
        sig, alg = derive(e.signature), e.algebra()
        spectrum_1 = inv.weight_spectrum(alg, 1)
        for m in (2, 3, 4):
            rep = inv.verify_weight_identities(
                inv.weight_spectrum(alg, m), spectrum_1, sig)
            if not rep.all_pass:
                failures.append(f"{e.id} m={m}: {'; '.join(rep.notes)}")
    return failures


SEARCH_SIZES = {1: 4, 2: 6, 3: 16, 4: 17, 5: 14, 6: 16}
HYPERELLIPTIC_ONLY = range(7, 21)  # as far as keeps verify under about 1 s


def _verify_search() -> list[str]:
    failures = []
    for g, expected in SEARCH_SIZES.items():
        cands = alpha_search(g)
        if len(cands) != expected:
            failures.append(f"genus {g}: {len(cands)} candidates, expected {expected}")
        if any(len(c.signature) > 4 for c in cands):
            failures.append(f"genus {g}: a candidate has more than four zeros")
        if any(not c.passed for c in cands):
            failures.append(f"genus {g}: emitted a failing candidate")
    present = {(c.signature, c.component) for c in alpha_search(4)}
    for sig, comp in [((5, 1), None), ((4, 2), "even"),
                      ((3, 3), "nonhyp"), ((2, 2, 2), "even")]:
        if (sig, comp) not in present:
            failures.append(f"genus 4 search lost {sig} {comp}")
    for g in HYPERELLIPTIC_ONLY:
        if any(c.component != "hyp" for c in alpha_search(g, genus_bound=g)):
            failures.append(f"genus {g}: unexpected nonhyperelliptic candidate")
    return failures


def _verify_semigroups() -> list[str]:
    failures = []
    passers = [str(r.semigroup) for r in semigroup_search(6)
               if r.passed and not r.hyperelliptic]
    if passers != ["<3,7>"]:
        failures.append(f"genus-6 nonhyperelliptic passers: {passers}")
    for p in range(2, 13):
        for q in range(p + 1, 14):
            if gcd(p, q) != 1:
                continue
            H = sg.from_generators((p, q))
            if sg.gap_sum(H) != sg.planar_gap_sum_formula(p, q):
                failures.append(f"gap_sum(<{p},{q}>) disagrees with the closed form")
    return failures


VERIFY_SECTIONS = {
    "regression": _verify_regression,
    "identities": _verify_identities,
    "search": _verify_search,
    "semigroups": _verify_semigroups,
}


@main.command()
@click.option("--suite", type=click.Choice(["full"] + sorted(VERIFY_SECTIONS)),
              default="full", show_default=True)
def verify(suite):
    """Recompute the shipped values and identities; nonzero exit on mismatch."""
    names = sorted(VERIFY_SECTIONS) if suite == "full" else [suite]
    bad = 0
    for name in names:
        failures = VERIFY_SECTIONS[name]()
        if failures:
            bad += len(failures)
            click.echo(f"FAIL {name}")
            for line in failures:
                click.echo(f"  {line}")
        else:
            click.echo(f"ok   {name}")
    if bad:
        click.echo(f"{bad} mismatch(es)")
        sys.exit(1)


# ------------------------------------------------------------------- slope


@main.command()
@click.option("--signature", "sig_text", help="Zero orders, e.g. 1,1,1,1,1,1.")
@click.option("--model", "model_spec", default="clifford-max", show_default=True)
@click.option("--catalog", "entry_id", help="Use a catalog algebra instead.")
@click.option("--decimal", is_flag=True)
def slope(sig_text, model_spec, entry_id, decimal):
    """Slope of the one-parameter family attached to a model."""
    sig, model = resolve_model(entry_id, sig_text, model_spec,
                               "give --signature (with --model) or --catalog")
    chi1 = cm.runs_chi_log(cm.filtration_dims(model, sig, 1))
    chi2_log = cm.runs_chi_log(cm.filtration_dims(model, sig, 2))
    click.echo(fmt_rational(inv.slope(chi1, chi2_log, sig), decimal))


if __name__ == "__main__":
    main()
