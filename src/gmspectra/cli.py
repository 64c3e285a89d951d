"""Command-line front end over the algebra, model, and search layers.

All numeric output is exact: integers stay integers and every other
rational is rendered as ``p/q``.  The ``--decimal`` flags append an
approximation explicitly marked with ``~`` but never replace the exact
value.  Verbosity is controlled by the ``LOG_LEVEL`` environment
variable (default quiet).  The command line is read by the small parser
below, on the standard library alone.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd

from . import branch_algebra as ba
from . import catalog as cat
from . import curve_models as cm
from . import invariants as inv
from . import semigroup as sg
from .classifier import (
    DEFAULT_THRESHOLD,
    UnresolvedSignatureError,
    alpha_search,
    nonvarying_regression,
    semigroup_search,
    threshold_coefficient,
)
from .signature import Signature, derive, ladder_sum_identity, parity_count

# `filtration` prints one number per level and `invariants` one graded
# dimension per degree up to max(m*ell, ba.window); refuse longer sequences
MAX_PRINTED_LEVELS = 10**6


# ----------------------------------------------------------------- parser


class UsageError(Exception):
    """Bad input: one `Error:` line and exit code 2, below the usage of the
    command it was given to unless ``usage`` is False."""

    def __init__(self, message: str, usage: bool = True):
        super().__init__(message)
        self.usage = usage


def bad_value(hint: str, message: str) -> UsageError:
    return UsageError(f"Invalid value for {hint}: {message}")


# One option of a command: its names ("--genus -g"), the keyword its value is
# passed as, and its kind: str, int, bool (a flag), FILE (an existing file) or
# the tuple of its choices.
Option = namedtuple("Option", "names dest kind default required help",
                    defaults=(str, None, False, ""))
FILE = "file"
METAVARS = {str: " TEXT", int: " INTEGER", bool: "", FILE: " FILE"}
HELP = Option("--help", "help", bool, help="Show this message and exit.")

COMMANDS = {}  # command words -> (function, options, name of its argument or None)
GROUPS = {
    (): "Exact weight spectra, singularity invariants, and stratum searches.",
    ("classify",): "Threshold searches over signatures and semigroups.",
    ("catalog",): "Shipped singularity models and their expected invariants.",
}


def command(*path, options=(), argument=None):
    """Registers the function as the command at path; its docstring is its help."""
    def register(func):
        COMMANDS[path] = func, options, argument
        return func
    return register


def subcommands(path) -> list[str]:
    return sorted({key[len(path)] for key in (*COMMANDS, *GROUPS)
                   if len(key) > len(path) and key[:len(path)] == path})


def hint(opt: Option) -> str:
    return " / ".join(map(repr, opt.names.split()))


def no_such(kind: str, name: str, known) -> UsageError:
    from difflib import get_close_matches  # only a refused name pays for it

    close = sorted(get_close_matches(name, known))
    message = f"No such {kind} {name!r}."
    if len(close) == 1:
        message += f" Did you mean {close[0]!r}?"
    elif close:
        message += f" (Did you mean one of: {', '.join(map(repr, close))}?)"
    return UsageError(message)


def read_options(args: list[str], options, interspersed: bool = True):
    """({dest: raw value} in the order first given, positional arguments).

    An option that takes a value takes the next argument whatever it looks
    like, so ``--signature -2,4`` reads -2,4; ``--name=value`` and ``-gVALUE``
    attach it.  ``--`` ends the options, and so does the first positional
    argument (a group's command) unless ``interspersed``.
    """
    by_name = {name: opt for opt in (*options, HELP) for name in opt.names.split()}
    given, positional, args = {}, [], list(args)
    while args:
        arg = args.pop(0)
        if arg == "--":
            return given, positional + args
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                return given, [arg, *args]
            positional.append(arg)
            continue
        if arg.startswith("--"):
            name, eq, value = arg.partition("=")
            value = value if eq else None
        else:  # a short option, its value attached or next
            name, value = arg[:2], arg[2:] or None
        opt = by_name.get(name)
        if opt is None:
            raise no_such("option", name, [n for n in by_name if n.startswith("--")]
                          if name.startswith("--") else ())
        if opt.kind is bool:
            if value is not None:
                raise UsageError(f"Option {name!r} does not take a value.", usage=False)
            value = True
        elif value is None:
            if not args:
                raise UsageError(f"Option {name!r} requires an argument.", usage=False)
            value = args.pop(0)
        given[opt.dest] = value
    return given, positional


def convert(opt: Option, value):
    """The value of one given option, or the refusal naming it."""
    if opt.kind is int:
        try:
            return int(value)
        except ValueError:
            raise bad_value(hint(opt), f"{value!r} is not a valid integer.") from None
    if isinstance(opt.kind, tuple) and value not in opt.kind:
        raise bad_value(hint(opt),
                        f"{value!r} is not one of {', '.join(map(repr, opt.kind))}.")
    if opt.kind == FILE:
        fault = ("does not exist" if not os.path.exists(value) else
                 "is a directory" if os.path.isdir(value) else
                 "is not readable" if not os.access(value, os.R_OK) else None)
        if fault:
            raise bad_value(hint(opt), f"File {value!r} {fault}.")
    return value


def command_values(path, args: list[str]) -> dict:
    """The keyword arguments of the command at path; --help prints its page
    and exits.  The given options are read in the order first given, then
    the others, so the first fault on the line is the one named."""
    _, options, argument = COMMANDS[path]
    given, positional = read_options(args, options)
    if given.pop("help", False):
        print(help_page(path))
        sys.exit(0)
    by_dest = {opt.dest: opt for opt in options}
    values = {}
    for opt in [by_dest[dest] for dest in given] + [o for o in options if o.dest not in given]:
        if opt.dest in given:
            values[opt.dest] = convert(opt, given[opt.dest])
        elif opt.required:
            raise UsageError(f"Missing option {hint(opt)}.")
        else:
            values[opt.dest] = False if opt.kind is bool else opt.default
    if argument:
        if not positional:
            raise UsageError(f"Missing argument {argument!r}.")
        values[argument.lower()] = positional.pop(0)
    if positional:
        s = "s" if len(positional) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{s} ({' '.join(positional)})")
    return values


def usage(path) -> str:
    words = " ".join(("gmspectra", *path))
    if path in GROUPS:
        return f"{words} [OPTIONS] COMMAND [ARGS]..."
    argument = COMMANDS[path][2]
    return f"{words} [OPTIONS]" + (f" {argument}" if argument else "")


def help_page(path) -> str:
    """Usage, summary, options and, for a group, its commands."""
    if path in GROUPS:
        doc, options = GROUPS[path], ()
        commands = [(name, GROUPS.get(path + (name,)) or COMMANDS[path + (name,)][0].__doc__)
                    for name in subcommands(path)]
    else:
        doc, options, commands = COMMANDS[path][0].__doc__, COMMANDS[path][1], []
    rows = []
    for opt in (*options, HELP):
        label = ", ".join(sorted(opt.names.split(), key=len))
        label += (f" [{'|'.join(opt.kind)}]" if isinstance(opt.kind, tuple)
                  else METAVARS[opt.kind])
        note = ("[required]" if opt.required else
                "" if opt.default is None else f"[default: {opt.default}]")
        rows.append((label, "  ".join(filter(None, (opt.help, note)))))

    def table(rows):
        width = max(len(left) for left, _ in rows)
        return [f"  {left.ljust(width)}  {right}".rstrip() for left, right in rows]

    lines = [f"Usage: {usage(path)}", "", f"  {doc}", "", "Options:", *table(rows)]
    if commands:
        lines += ["", "Commands:", *table(commands)]
    return "\n".join(lines)


# -------------------------------------------------------------- rendering


def fmt_rational(value, decimal: bool = False) -> str:
    f = Fraction(value)
    text = str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    if decimal and f.denominator != 1:
        text += f" ~{float(f):.6g}"
    return text


def parse_threshold(text: str) -> Fraction:
    try:
        tau = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise bad_value("--threshold", f"expected an integer or p/q, got {text!r}") from exc
    try:
        threshold_coefficient(tau)  # validate range before searching
    except ValueError as exc:
        raise bad_value("--threshold", str(exc)) from exc
    return tau


def parse_ints(text: str, param_hint: str) -> list[int]:
    """The comma-separated integers of one option; blames the first bad item."""
    values = []
    for part in text.split(","):
        try:
            values.append(int(part))
        except ValueError:
            raise bad_value(param_hint,
                            f"expected comma-separated integers, got {part!r}") from None
    return values


def parse_levels(text: str) -> list[int]:
    levels = sorted(set(parse_ints(text, "'--m'")))
    if levels[0] < 1:
        raise bad_value("'--m'", "levels must be positive integers")
    return levels


def parse_signature(text: str) -> Signature:
    orders = parse_ints(text.replace(" ", ""), "'--signature'")
    try:
        return derive(orders)
    except ValueError as exc:
        raise bad_value("'--signature'", f"{exc}, got {text!r}") from exc


def build_model(spec: str, sig):
    """Model from an inline JSON document or a short spec (clifford-max,
    unibranch:3,7, hyperelliptic:w,pair:1,pair:1), which is first rewritten
    to that document with the signature's genus.  Either is built for the
    signature: every fault of the spec against it is refused before any
    frame is built, a unibranch model of another genus before its semigroup."""
    if spec.lstrip().startswith("{"):
        doc = json.loads(spec)
    else:
        kind, _, rest = spec.partition(":")
        doc = {"kind": kind, "genus": sig.genus}
        if kind == "unibranch":
            doc["generators"] = parse_ints(rest, "'--model'") if rest else []
        elif kind == "hyperelliptic":
            doc["tags"] = rest.split(",") if rest else []
    return cm.model_from_spec(doc, sig)


def resolve_model(entry_id, sig_text, model_spec, missing: str, check=lambda sig: None,
                  default=None):
    """(signature, source): the entry's ring from --catalog alone, or the
    model from --signature and --model; inv.weight_spectrum reads either.

    A --catalog given together with --signature or --model is refused, as is
    a missing source (the ``missing`` message); ``default`` is the model
    spec of a --signature given without --model.  ``check`` sees the
    signature before the ring or model is built.
    """
    if entry_id is not None:
        if sig_text is not None or model_spec is not None:
            raise UsageError("give --catalog alone, without --signature or --model")
        entry = load_entry(entry_id)
        check(sig := derive(entry.signature))
        return sig, entry.algebra()
    model_spec = default if model_spec is None else model_spec
    if sig_text is None or model_spec is None:
        raise UsageError(missing)
    check(sig := parse_signature(sig_text))
    return sig, build_model(model_spec, sig)


def check_printed(sig, count: int, what: str, m: int) -> None:
    """Refuse to print more than MAX_PRINTED_LEVELS values, before any work."""
    if count > MAX_PRINTED_LEVELS:
        raise UsageError(f"{sig} has {count} {what} at m = {m}; "
                         f"this command prints at most {MAX_PRINTED_LEVELS}")


def emit_table(rows: list[dict], columns: list[str]) -> None:
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in columns}
    print("  ".join(c.ljust(widths[c]) for c in columns).rstrip())
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in columns).rstrip())


def load_entry(entry_id: str, param_hint: str = "'--catalog'") -> cat.CatalogEntry:
    try:
        return cat.get(entry_id)
    except KeyError as exc:
        raise bad_value(param_hint, f"unknown catalog id {entry_id!r}; "
                                    "try `gmspectra catalog list`") from exc


# ------------------------------------------------------------- invariants


REPORT_FORMAT = Option("--format", "fmt", ("text", "json"), "text")
DECIMAL = Option("--decimal", "decimal", bool, help="Append ~ float approximations.")


@command("invariants", options=(
    Option("--catalog", "entry_id", help="Catalog entry id, e.g. E7."),
    Option("--input", "path", FILE, help="JSON file with signature, generators, dualizing_units."),
    Option("--m", "levels_text", default="1,2", help="Comma-separated character levels."),
    REPORT_FORMAT,
    DECIMAL,
))
def invariants(entry_id, path, levels_text, fmt, decimal):
    """Recompute every invariant of one singularity algebra."""
    if (entry_id is None) == (path is None):
        raise UsageError("give exactly one of --catalog or --input")
    levels = parse_levels(levels_text)
    if entry_id is not None:
        doc = cat.as_dict(load_entry(entry_id))
    else:
        with open(path) as fh:
            doc = json.load(fh)
    sig, gens, _units = ba.generators_from_json(doc)
    top = max(levels[-1] * sig.ell, ba.window(sig))
    check_printed(sig, top + 1, "graded dimensions", levels[-1])
    alg = ba.close(sig, [terms for _, terms in gens])

    report = {}
    for key, value in inv.algebra_report(alg, levels).items():
        report[key] = value
        if key == "gorenstein":  # the presentation keys follow the summary
            report["graded_dims"] = list(ba.graded_dims(alg, top))
            report["signature"] = list(sig.orders)
            report["ell"] = sig.ell
            report["weights_a"] = list(sig.weights_a)

    if fmt == "json":
        clean = {k: (fmt_rational(v) if isinstance(v, Fraction) else v)
                 for k, v in report.items()}
        print(json.dumps(clean, indent=2))
    else:
        for key, value in report.items():
            if isinstance(value, Fraction):
                value = fmt_rational(value, decimal)
            elif isinstance(value, list):
                value = " ".join(str(x) for x in value)
            print(f"{key}: {value}")


# ------------------------------------------------------------- filtration


@command("filtration", options=(
    Option("--catalog", "entry_id", help="Catalog entry whose ring is read, e.g. E7."),
    Option("--signature", "sig_text", help="Zero orders, e.g. 6,2."),
    Option("--model", "model_spec", help="Model spec (see build_model)."),
    Option("--m", "m", int, 1),
    REPORT_FORMAT,
))
def filtration(entry_id, sig_text, model_spec, m, fmt):
    """Dimension sequence of the weight filtration at level m."""
    sig, source = resolve_model(
        entry_id, sig_text, model_spec, "give --catalog, or both --signature and --model",
        lambda sig: check_printed(sig, m * sig.ell + 1, "filtration levels", m))
    spectrum = inv.weight_spectrum(source, m, sig)
    dims, chi = spectrum.levels(m * sig.ell), spectrum.chi_log
    if fmt == "json":
        print(json.dumps({"signature": list(sig.orders), "m": m,
                          "dims": list(dims), f"chi{m}_log": chi}))
    else:
        print(" ".join(str(d) for d in dims))
        print(f"chi{m}_log: {chi}")


# --------------------------------------------------------------- classify


def emit_search(rows: list[dict], columns: list[str], fmt: str, payload: list) -> None:
    """A search's rows as the JSON payload, a csv table or an aligned text
    table; empty text reads "no passing models" (a semigroup search never is)."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    elif rows:
        emit_table(rows, columns)
    else:
        print("no passing models")


ALPHA_COLUMNS = ["signature", "model", "chi1_log", "threshold", "verdict",
                 "item", "component", "dangling"]


def candidate_row(c, decimal=False) -> dict:
    return {
        "signature": ",".join(str(v) for v in c.signature),
        "model": c.model,
        "chi1_log": c.chi1_log,
        "threshold": fmt_rational(c.threshold_rhs, decimal),
        "verdict": "pass" if c.passed else "fail",
        "item": c.item,
        "component": c.component or "",
        "dangling": ",".join(str(i) for i in c.dangling),
    }


GENUS = Option("--genus -g", "genus", int, required=True)
THRESHOLD = Option("--threshold", "threshold", default=str(DEFAULT_THRESHOLD))
TABLE_FORMAT = Option("--format", "fmt", ("text", "json", "csv"), "text")


@command("classify", "alpha", options=(
    GENUS,
    THRESHOLD,
    Option("--dangling", "dangling", bool, help="Also score every subset of dangling branches."),
    TABLE_FORMAT,
    DECIMAL,
))
def classify_alpha(genus, threshold, dangling, fmt, decimal):
    """All models at the genus whose alpha-invariant clears the cutoff."""
    tau = parse_threshold(threshold)
    try:
        cands = alpha_search(genus, threshold=tau, dangling=dangling)
    except ValueError as exc:
        raise bad_value("--genus", str(exc)) from exc
    except UnresolvedSignatureError as exc:  # no rule resolves a stratum at this cutoff
        raise UsageError(f"threshold {fmt_rational(tau)}: stratum {exc}") from exc
    rows = [candidate_row(c, decimal and fmt == "text") for c in cands]
    payload = [{**row,  # json rows carry no decimals
                "threshold_lhs": fmt_rational(c.chi1_log),
                "threshold_rhs": fmt_rational(c.threshold_rhs),
                "signature": list(c.signature),
                "dangling": list(c.dangling)} for row, c in zip(rows, cands)]
    emit_search(rows, ALPHA_COLUMNS, fmt, payload)


SEMIGROUP_COLUMNS = ["semigroup", "hyperelliptic", "spin", "chi1_log",
                     "element_sum", "verdict"]


@command("classify", "semigroups", options=(GENUS, THRESHOLD, TABLE_FORMAT))
def classify_semigroups(genus, threshold, fmt):
    """Score every symmetric semigroup for the single-zero stratum."""
    tau = parse_threshold(threshold)
    try:
        records = semigroup_search(genus, threshold=tau)
    except ValueError as exc:
        raise bad_value("--genus", str(exc)) from exc
    rows = [{
        "semigroup": str(r.semigroup),
        "hyperelliptic": r.hyperelliptic,
        "spin": r.spin or "",
        "chi1_log": r.chi1_log,
        "element_sum": r.element_sum,
        "verdict": "pass" if r.passed else "fail",
    } for r in records]
    emit_search(rows, SEMIGROUP_COLUMNS, fmt, rows)


# ---------------------------------------------------------------- catalog


@command("catalog", "list")
def catalog_list():
    """Every shipped entry with its expected characters and alpha."""
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


@command("catalog", "show", options=(
    Option("--json", "as_json", bool, help="Print the entry as its JSON document."),
), argument="ENTRY_ID")
def catalog_show(entry_id, as_json):
    """The generators and expected invariants of one entry."""
    e = load_entry(entry_id, param_hint="'ENTRY_ID'")
    doc = cat.as_dict(e)
    if as_json:
        print(json.dumps(doc, indent=2))
        return
    for name, terms in e.generators:
        parts = " + ".join(
            ("" if c == 1 else "-" if c == -1 else fmt_rational(c) + "*")
            + f"t{b + 1}^{k}" for b, k, c in terms)
        print(f"{name} = {parts}")
    for key in ("id", "aliases", "signature", "component", "nonvarying"):
        print(f"{key}: {doc[key]}")
    for key, value in doc["expected"].items():
        print(f"expected.{key}: {value}")
    if "locus_condition" in doc:
        print(f"locus_condition: {doc['locus_condition']}")


# ------------------------------------------------------------------ verify


def _verify_regression() -> list[str]:
    return [f"{c.entry_id}.{c.field}: expected {c.expected!r}, got {c.actual!r}"
            for c in nonvarying_regression() if not c.ok]


def _verify_identities() -> list[str]:
    failures = []
    for e in cat.entries():
        sig, alg = derive(e.signature), e.algebra()
        for i, order in enumerate(sig.orders):
            if 2 * ladder_sum_identity(sig, i) != (order + 2) * sig.ell:
                failures.append(f"{e.id} branch {i}: ladder sum is not (m_i+2)*ell/2")
        spectrum_1 = inv.weight_spectrum(alg, 1)
        for m in (2, 3, 4):
            rep = inv.verify_weight_identities(
                inv.weight_spectrum(alg, m), spectrum_1, sig)
            if not rep.all_pass:
                failures.append(f"{e.id} m={m}: {'; '.join(rep.notes)}")
    # coprime k1 > k2: (k1*k2 + 1)/2 when both are odd, k1*k2/2 when one is
    for k1 in range(2, 14):
        for k2 in range(1, k1):
            if gcd(k1, k2) == 1 and parity_count(k1, k2) != (k1 * k2 + 1) // 2:
                failures.append(f"parity_count({k1}, {k2}) is not its closed form")
    return failures


SEARCH_SIZES = {1: 4, 2: 6, 3: 16, 4: 17, 5: 14, 6: 16}
HYPERELLIPTIC_ONLY = range(7, 21)  # as far as keeps verify under about 1 s


def _verify_search() -> list[str]:
    failures = []
    searched = {g: alpha_search(g) for g in SEARCH_SIZES}
    for g, expected in SEARCH_SIZES.items():
        cands = searched[g]
        if len(cands) != expected:
            failures.append(f"genus {g}: {len(cands)} candidates, expected {expected}")
        if any(sum(m > 0 for m in c.signature) > 4 for c in cands):
            failures.append(f"genus {g}: a candidate has more than four zeros")
        if any(c.chi1_log < c.threshold_rhs for c in cands):
            failures.append(f"genus {g}: emitted a failing candidate")
    present = {(c.signature, c.component) for c in searched[4]}
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
            toric = inv.toric_lattice_identity(p, q)
            gaps = sg.gap_sum(sg.from_generators((p, q)))
            if not gaps == toric.closed_form == toric.lattice_count:
                failures.append(f"gap_sum(<{p},{q}>) disagrees with the toric identity")
    return failures


VERIFY_SECTIONS = {
    "regression": _verify_regression,
    "identities": _verify_identities,
    "search": _verify_search,
    "semigroups": _verify_semigroups,
}


@command("verify", options=(
    Option("--suite", "suite", ("full", *sorted(VERIFY_SECTIONS)), "full"),
))
def verify(suite):
    """Recompute the shipped values and identities; nonzero exit on mismatch."""
    names = sorted(VERIFY_SECTIONS) if suite == "full" else [suite]
    bad = 0
    for name in names:
        failures = VERIFY_SECTIONS[name]()
        if failures:
            bad += len(failures)
            print(f"FAIL {name}")
            for line in failures:
                print(f"  {line}")
        else:
            print(f"ok   {name}")
    if bad:
        print(f"{bad} mismatch(es)")
        sys.exit(1)


# ------------------------------------------------------------------- slope


@command("slope", options=(
    Option("--signature", "sig_text", help="Zero orders, e.g. 1,1,1,1,1,1."),
    Option("--model", "model_spec", help="Model spec (see build_model); clifford-max by default."),
    Option("--catalog", "entry_id", help="Use a catalog algebra instead."),
    DECIMAL,
))
def slope(sig_text, model_spec, entry_id, decimal):
    """Slope of the one-parameter family attached to a model."""
    sig, source = resolve_model(entry_id, sig_text, model_spec,
                                "give --signature (with --model) or --catalog",
                                default="clifford-max")
    cm.frame_top(sig, 2)  # the larger frame is refused before the m = 1 one is built
    chi1, chi2_log = (inv.weight_spectrum(source, k, sig).chi_log for k in (1, 2))
    print(fmt_rational(inv.slope(chi1, chi2_log, sig), decimal))


# -------------------------------------------------------------------- main


def main():
    """Run the command line in sys.argv.

    Bad input ends in one `Error:` line with exit code 2: a refused command
    line, option value or LOG_LEVEL, and any ValueError (malformed JSON
    included), KeyError or the RecursionError of a JSON document nested too
    deeply to read.  Every other RuntimeError, and the AssertionError of
    failed cross-checks, still raise.
    """
    args, path = sys.argv[1:], ()
    try:
        level = os.environ.get("LOG_LEVEL") or "WARNING"
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise UsageError(f"unknown LOG_LEVEL {level!r}; use DEBUG, INFO, WARNING, "
                             "ERROR or CRITICAL", usage=False)
        logging.basicConfig(level=level.upper())
        while path in GROUPS:
            if not args:
                print(help_page(path), file=sys.stderr)
                sys.exit(2)
            given, args = read_options(args, (), interspersed=False)
            if given:  # --help, a group's one option
                print(help_page(path))
                sys.exit(0)
            if not args:
                raise UsageError("Missing command.")
            if args[0] not in subcommands(path):
                raise no_such("command", args[0], subcommands(path))
            path, args = path + (args[0],), args[1:]
        values = command_values(path, args)
        try:
            COMMANDS[path][0](**values)
        except KeyError as exc:
            raise UsageError(f"missing key {exc}", usage=False) from exc
        except ValueError as exc:
            raise UsageError(str(exc), usage=False) from exc
        except RecursionError as exc:
            raise UsageError("the document is nested too deeply", usage=False) from exc
        sys.stdout.flush()  # a closed pipe is met here, not at exit
    except UsageError as exc:
        if exc.usage:
            words = " ".join(("gmspectra", *path))
            print(f"Usage: {usage(path)}\nTry '{words} --help' for help.\n", file=sys.stderr)
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:  # the reader stopped early, as `| head` does: end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


if __name__ == "__main__":
    main()
