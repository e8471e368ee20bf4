"""Command-line front end.

Subcommands: ``chartable`` (character table and span summary), ``ksp`` and
``ko`` (K-group structure reports), ``eta`` (a single twisted pairing), and
``verify`` (the full named-check suite).  ``parse_args`` reads each command's
flags from ``FLAGS``.  Each command returns its JSON report and a function that
builds the aligned text report, which ``main`` calls only for ``--format text``;
every rational is an exact "p/q" string, never a float.  Exit codes: 0 success /
all checks pass, 1 verification failure, 2 usage error (one ``error:`` line on
stderr).
"""

from __future__ import annotations

import atexit
import gc
import json
import os
import re
import sys
from collections.abc import Callable
from fractions import Fraction
from types import SimpleNamespace

from .abelian import AbelianGroup
from .checks import Check, _check
from .eta import SpaceForm, eta_pair
from .groups import (
    GroupParams,
    InvalidParamsError,
    Subgroup,
    VirtualCharacter,
    char_dim,
    char_strings,
    conjugacy_classes,
    delta_power,
    element_name,
    fs_indicator,
    irreducible_labels,
    standard_fpf,
    theta,
)
from .ktheory import KGroupReport, ko_group, ko_order_formula, ksp_group, ksp_order_formula
from .verify import run_verification

SCHEMA = "qko/1"

# Exit fast: the teardown collections skip the frozen heap (qko processes only, not the library).
atexit.register(gc.freeze)

# The largest inputs each command accepts; past them it exits 2 before any
# group is built.  Per doubling of ell, ksp / ko / eta cost 2-3x more, the
# character table's own work ((ell/4 + 3)^2 short strings) 2-4x and verify's
# class-value oracles about 4x.  Cold on one CPU of a 2.1 GHz Xeon, each
# command at its limit ends within 2 s and its own peak RSS (VmHWM) stays under
# 30 MB: the largest verify 0.7-0.9 s, 19.1 MB; ksp --ell 4096 --nu 16 0.7-0.9 s,
# 18.4 MB; chartable --ell 512, its JSON streamed, 0.1 s, 15.5 MB.
MAX_ELL = {"chartable": 512, "ksp": 4096, "ko": 4096, "eta": 4096, "verify": 128}
MAX_NU = 16  # nu of ksp / eta and verify's --max-nu; k and --max-k stop at MAX_NU - 1
MAX_DIGITS = 100  # per number in a character expression; eta stays cheap and printable


class UsageError(Exception):
    """Bad arguments or expressions; mapped to exit code 2."""


def _frac_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _group_json(group: AbelianGroup) -> dict:
    return {"invariant_factors": list(group.invariant_factors), "order": str(group.order)}


def _matrix_json(matrix) -> dict:
    return {
        "row_labels": list(matrix.row_labels),
        "col_labels": list(matrix.col_labels),
        "entries": [[_frac_str(e) for e in row] for row in matrix.entries],
    }


def render_json(report: dict) -> None:
    """Write the report to stdout as it is encoded, never as one string."""
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Virtual character expressions
# ---------------------------------------------------------------------------

_TERM = (r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*?\s*)?"
         r"(?P<atom>Theta1|Theta2|Delta(?:\^(?P<power>\d+))?|rho0|kappa[123]|gamma_?\d+)\s*")


def parse_character(params: GroupParams, text: str) -> VirtualCharacter:
    """Parse an integer combination of the twist tokens, e.g. ``2*Theta1 - Delta^3``."""
    if any(len(run) > MAX_DIGITS for run in re.findall(r"\d+", text)):
        raise UsageError(f"a number in the expression has more than {MAX_DIGITS} digits")
    if not text.strip():
        raise UsageError("empty character expression")
    term_re = re.compile(_TERM)  # here, not at import: only qko eta reads it
    result = VirtualCharacter.zero(params)
    pos = 0
    while pos < len(text):
        match = term_re.match(text, pos)
        if not match or (pos > 0 and match.group("sign") is None):
            raise UsageError(f"cannot parse character expression at: {text[pos:]!r}")
        sign = -1 if match.group("sign") == "-" else 1
        coeff = sign * int(match.group("coeff") or 1)
        atom = match.group("atom")
        if atom == "Theta1":
            term = theta(1, params)
        elif atom == "Theta2":
            term = theta(2, params)
        elif atom.startswith("Delta"):
            power = int(match.group("power") or 1)
            _bounded("a Delta power", power, 1, MAX_NU)
            term = delta_power(power, params)
        elif atom.startswith("gamma"):
            u = int(atom.replace("gamma", "").lstrip("_"))
            label = f"gamma{u}"
            if label not in irreducible_labels(params):
                raise UsageError(f"gamma index must be in 1..{params.quarter - 1}, got {u}")
            term = VirtualCharacter.irreducible(params, label)
        else:
            term = VirtualCharacter.irreducible(params, atom)
        result = result + coeff * term
        pos = match.end()
    return result


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _params(ell: int, command: str) -> GroupParams:
    try:
        params = GroupParams(ell)
    except InvalidParamsError as exc:
        raise UsageError(str(exc)) from exc
    if ell > MAX_ELL[command]:
        raise UsageError(f"{command} accepts group orders up to {MAX_ELL[command]}, got {ell}")
    return params


def _bounded(flag: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise UsageError(f"{flag} must be in {low}..{high}, got {value}")


def cmd_chartable(args) -> tuple[dict, Callable[[], str], int]:
    params = _params(args.ell, "chartable")
    classes = conjugacy_classes(params)
    labels = irreducible_labels(params)

    fs = {label: fs_indicator(params, label) for label in labels}
    kind = {1: "real", -1: "quaternion", 0: "complex"}
    ro_span = [label if fs[label] == 1 else f"2*{label}" for label in labels]
    rsp_span = [label if fs[label] == -1 else f"2*{label}" for label in labels]

    rows = []
    for label in labels:
        values = char_strings(params, label)
        rows.append({"label": label, "dim": char_dim(label),
                     "fs": fs[label], "type": kind[fs[label]], "values": values})

    results = {
        "conductor": params.conductor,
        "classes": [{"rep": element_name(params, rep), "size": size} for rep, size in classes],
        "irreducibles": rows,
        "spans": {"RO": ro_span, "RSp": rsp_span},
    }
    report = {"schema": SCHEMA, "command": "chartable",
              "params": {"ell": params.ell}, "results": results, "checks": []}

    def text() -> str:
        names = ["class"] + [c["rep"] for c in results["classes"]]
        widths = [max(10, len(n) + 2) for n in names]
        lines = [f"Character table for the quaternion group of order {params.ell} "
                 f"(values in the cyclotomic field of conductor {params.conductor})"]
        lines.append("".join(n.ljust(w) for n, w in zip(names, widths)))
        lines.append("".join(str(s).ljust(w) for s, w in
                             zip(["size"] + [c["size"] for c in results["classes"]], widths)))
        for row in rows:
            cells = [row["label"]] + row["values"]
            lines.append("".join(str(c).ljust(w) for c, w in zip(cells, widths)))
        lines.append("")
        lines.append("Frobenius-Schur: " + ", ".join(f"{l} {fs[l]:+d} ({kind[fs[l]]})"
                                                     for l in labels))
        lines.append("RO  span: " + ", ".join(ro_span))
        lines.append("RSp span: " + ", ".join(rsp_span))
        return "\n".join(lines) + "\n"

    return report, text, 0


def _kgroup_checks(report: KGroupReport) -> list[Check]:
    order_formula = ksp_order_formula if report.kind == "ksp" else ko_order_formula
    return [
        _check(f"{report.kind}/order-vs-bound", report.ahss_bound, report.order),
        _check(f"{report.kind}/order-formula",
               order_formula(report.index, report.params), report.order),
    ]


def _kgroup_report(report: KGroupReport, command: str,
                   params_json: dict) -> tuple[dict, Callable[[], str], int]:
    """The JSON report of a ksp / ko job, the function that builds its text report,
    and its exit code: 1 when a row fails."""
    block_names = ("C", "B") if report.kind == "ko" else ("A", "B")
    results = {
        "group": _group_json(report.group),
        f"{block_names[0].lower()}_block": _group_json(report.a_block),
        "b_block": _group_json(report.b_block),
        "order": str(report.order),
        "ahss_bound": str(report.ahss_bound),
        f"matrix_{block_names[0].lower()}": _matrix_json(report.a_matrix),
        "matrix_b": _matrix_json(report.b_matrix),
        "matrix_full": _matrix_json(report.matrix),
        "splitting": {name: desc for name, desc in report.splitting},
    }
    checks = _kgroup_checks(report)
    json_report = {"schema": SCHEMA, "command": command, "params": params_json,
                   "results": results, "checks": [c._asdict() for c in checks]}

    def text() -> str:
        title = ("KSp of the quaternion spherical space form of dimension "
                 f"{4 * report.index - 1} (ell={report.params.ell}, nu={report.index})"
                 if report.kind == "ksp" else
                 f"Real connective K-theory of the classifying space in degree "
                 f"{4 * report.index - 1} (ell={report.params.ell}, k={report.index})")
        lines = [title,
                 f"group:      {report.group}   (order {report.order})",
                 f"{block_names[0]} block:    {report.a_block} -- {report.splitting[0][1]}",
                 f"B block:    {report.b_block} -- {report.splitting[1][1]}",
                 f"AHSS bound: {report.ahss_bound}"]
        for key, matrix in ((block_names[0], report.a_matrix), ("B", report.b_matrix)):
            lines.append(f"matrix {key} (entries mod 2Z), twists: {', '.join(matrix.col_labels)}")
            width = max((len(_frac_str(e)) for row in matrix.entries for e in row),
                        default=1) + 2
            label_width = max(len(lbl) for lbl in matrix.row_labels) + 2
            for lbl, row in zip(matrix.row_labels, matrix.entries):
                lines.append("  " + lbl.ljust(label_width)
                             + "".join(_frac_str(e).ljust(width) for e in row))
        lines += [c.line() for c in checks]
        return "\n".join(lines) + "\n"

    return json_report, text, 0 if all(c.passed for c in checks) else 1


def cmd_ksp(args) -> tuple[dict, Callable[[], str], int]:
    params = _params(args.ell, "ksp")
    _bounded("--nu", args.nu, 2, MAX_NU)
    return _kgroup_report(ksp_group(args.nu, params), "ksp", {"ell": params.ell, "nu": args.nu})


def cmd_ko(args) -> tuple[dict, Callable[[], str], int]:
    params = _params(args.ell, "ko")
    _bounded("--k", args.k, 1, MAX_NU - 1)
    return _kgroup_report(ko_group(args.k, params), "ko", {"ell": params.ell, "k": args.k})


def cmd_eta(args) -> tuple[dict, Callable[[], str], int]:
    params = _params(args.ell, "eta")
    _bounded("--nu", args.nu, 1, MAX_NU)
    sigma = parse_character(params, args.sigma)
    if sigma.dimension != 0:
        raise UsageError(f"the twisting character must have dimension 0, "
                         f"got dimension {sigma.dimension}")
    bundle = parse_character(params, args.bundle) if args.bundle is not None else None
    space = SpaceForm(params, Subgroup(args.subgroup), standard_fpf(params, args.nu))
    value = eta_pair(space, sigma, bundle)
    exact, residue = _frac_str(value), _frac_str(value % 2)
    params_json = {"ell": params.ell, "nu": args.nu, "sigma": args.sigma,
                   "bundle": args.bundle, "subgroup": args.subgroup}
    results = {"exact": exact, "mod_2Z": residue}
    report = {"schema": SCHEMA, "command": "eta", "params": params_json,
              "results": results, "checks": []}
    return report, lambda: (
        f"eta invariant over subgroup '{args.subgroup}' with {args.nu} summands\n"
        f"sigma:  {sigma}\n"
        f"bundle: {bundle if bundle is not None else '(untwisted)'}\n"
        f"exact:  {exact}\n"
        f"mod 2Z: {residue}\n"), 0


def cmd_verify(args) -> tuple[dict, Callable[[], str], int]:
    try:
        ells = [int(x) for x in args.ell.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --ell list: {args.ell!r}") from exc
    if not ells:
        raise UsageError("--ell list is empty")
    for ell in ells:
        _params(ell, "verify")
        if ells.count(ell) > 1:
            raise UsageError(f"--ell lists the order {ell} more than once")
    _bounded("--max-nu", args.max_nu, 2, MAX_NU)
    _bounded("--max-k", args.max_k, 1, MAX_NU - 1)
    checks = run_verification(ells, args.max_nu, args.max_k)
    failed = [c for c in checks if not c.passed]
    results = {"summary": {"total": len(checks), "passed": len(checks) - len(failed),
                           "failed": len(failed)}}
    report = {"schema": SCHEMA, "command": "verify",
              "params": {"ell": ells, "max_nu": args.max_nu, "max_k": args.max_k},
              "results": results,
              "checks": [c._asdict() for c in checks]}

    def text() -> str:
        lines = [c.line() for c in checks]
        lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
        return "\n".join(lines) + "\n"

    return report, text, 1 if failed else 0


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

# Each command's one-line help and its flags, as flag: (type, default, choices);
# a default of ... marks a required flag.
_FORMAT = {"--format": (str, "text", ("text", "json"))}
FLAGS = {
    "chartable": ("character table, indicators and span summary",
                  {"--ell": (int, ..., None), **_FORMAT}),
    "ksp": ("KSp of the 4*nu-1 dimensional space form",
            {"--ell": (int, ..., None), "--nu": (int, ..., None), **_FORMAT}),
    "ko": ("real connective K-theory in degree 4k-1",
           {"--ell": (int, ..., None), "--k": (int, ..., None), **_FORMAT}),
    "eta": ("a single (twisted) eta invariant",
            {"--ell": (int, ..., None), "--nu": (int, ..., None), "--sigma": (str, ..., None),
             "--bundle": (str, None, None),
             "--subgroup": (str, "full", tuple(s.value for s in Subgroup)), **_FORMAT}),
    "verify": ("run the full verification suite on comma-separated group orders, e.g. 8,16",
               {"--ell": (str, ..., None), "--max-nu": (int, 4, None),
                "--max-k": (int, 3, None), **_FORMAT}),
}


def _usage(command: str) -> str:
    about, flags = FLAGS[command]
    words = [("{} {}" if default is ... else "[{} {}]").format(
        flag, "{%s}" % ",".join(choices) if choices else flag[2:].upper())
        for flag, (_, default, choices) in flags.items()]
    return f"usage: qko {command} [-h] {' '.join(words)}\n    {about}\n"


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and a field per flag (``--max-nu`` as ``max_nu``), set by ``--flag value``,
    ``--flag=value`` or a unique prefix, the last one winning; for ``-h``, the usage as ``help``."""
    command, flags, values = None, {}, {}
    tokens = iter(argv)
    for token in tokens:
        names = (*flags, "--help")
        name = "--help" if token == "-h" else token.split("=", 1)[0]
        matches = [name] if name in names else [
            n for n in names if name.startswith("--") and len(name) > 2 and n.startswith(name)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {name} could match {', '.join(matches)}")
        if matches == ["--help"] and "=" not in token:
            return SimpleNamespace(command=None, format="text",
                                   help="".join(map(_usage, [command] if command else FLAGS)))
        if matches and matches[0] in flags:  # the next token is the value, even "-..."
            flag = matches[0]
            kind, _, choices = flags[flag]
            text = token.split("=", 1)[1] if "=" in token else next(tokens, None)
            if text is None or choices and text not in choices:
                raise UsageError(f"argument {flag}: expected {' or '.join(choices or ['a value'])}")
            try:
                values[flag] = kind(text)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid int value: {text!r}") from None
        elif command is None and token in FLAGS:
            command, flags = token, FLAGS[token][1]
        else:
            raise UsageError(f"unrecognized argument: {token!r}")
    missing = [f for f, (_, default, _) in flags.items() if default is ... and f not in values]
    if command is None or missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing) or 'command'}")
    return SimpleNamespace(command=command, **{flag[2:].replace("-", "_"): values.get(flag, default)
                                               for flag, (_, default, _) in flags.items()})


_COMMANDS = {"chartable": cmd_chartable, "ksp": cmd_ksp, "ko": cmd_ko,
             "eta": cmd_eta, "verify": cmd_verify}


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        report, text, code = (_COMMANDS[args.command](args) if args.command
                              else (None, lambda: args.help, 0))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            render_json(report)
        else:
            sys.stdout.write(text())
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early; the flush at exit now writes to devnull and cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entrypoint() -> None:
    raise SystemExit(main())
