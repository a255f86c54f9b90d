"""Command-line front end.

Exit codes: 0 success (or boolean true), 1 boolean false, 2 usage
errors, 141 when the reader of stdout has closed it; a ``CausalbnError``
prints ``error: ...`` on stderr and exits with its type's ``exit_code``
(see ``errors``).  All numbers print with 12 significant digits so
identical invocations produce byte-identical output.

``_COMMANDS`` is the one description of the CLI.  ``build_parser`` builds
from it the argparse tree that writes every help text and usage error, and
``_take`` reads it to parse a well-formed request without argparse.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import latent
from .bayesnet import forward_sample, query
from .errors import CausalbnError, SizeCapExceeded, ValidationError
from .fileio import write_file
from .graph import backdoor_admissible, d_separated
from .intervention import (
    _expected,
    _outcome_values,
    ace,
    adjusted_estimate,
    conditioning_bias,
    interventional_distribution,
    select_sufficient_confounders,
)
from .latent import (
    _fmt,
    bias_scan,
    correlation_feasible,
    decompose_common_cause,
    scan_summary,
    scan_to_csv,
    third_correlation_interval,
)
from .modelfile import load_model


def _parse_assignments(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise ValidationError(f"bad assignment {part!r}; expected NAME=state")
        name, state = (x.strip() for x in part.split("=", 1))
        if name in out:
            raise ValidationError(f"repeated assignment to {name!r}")
        out[name] = state
    return out


def _check_out(path: str) -> None:
    """Raise ValidationError (exit 3) before any work if ``path`` is a
    directory or sits in a missing directory; nothing is created."""
    target = Path(path)
    if target.is_dir():
        code = errno.EISDIR
    elif not target.parent.is_dir():
        code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
    else:
        return
    raise ValidationError(f"cannot write {path}: {os.strerror(code)}")


@contextlib.contextmanager
def _writing(path: str):
    """Turn an OSError from writing ``path`` into a ValidationError (exit 3)."""
    try:
        yield
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from None


def _parse_set(text: str | None) -> list[str]:
    if not text:
        return []
    return [s.strip() for s in text.split(",") if s.strip()]


def _print_dist(var: str, factor) -> None:
    for state, p in zip(factor.states[0], factor.values):
        print(f"{var}={state}: {_fmt(float(p))}")


def cmd_query(args) -> int:
    net = load_model(args.model)
    given = _parse_assignments(args.given or "")
    if args.target in given:
        raise ValidationError("target cannot also be evidence")
    dist = query(net, [args.target], given)
    _print_dist(args.target, dist)
    return 0


def cmd_do(args) -> int:
    net = load_model(args.model)
    do = _parse_assignments(args.do)
    if not do:
        raise ValidationError("--do names no variable")
    dist = interventional_distribution(net, args.target, do)
    _print_dist(args.target, dist)
    return 0


def cmd_ace(args) -> int:
    net = load_model(args.model)
    value = ace(net, args.treatment, args.outcome, args.z1, args.z0)
    print(_fmt(value))
    return 0


def cmd_adjust(args) -> int:
    net = load_model(args.model)
    adj = adjusted_estimate(net, args.treatment, args.outcome, _parse_set(args.set))
    for level, est in adj.items():
        truth = interventional_distribution(net, args.outcome, {args.treatment: level})
        print(f"do({args.treatment}={level}):")
        for state, a, t in zip(est.states[0], map(float, est.values), map(float, truth.values)):
            print(
                f"  {args.outcome}={state}: adjusted={_fmt(a)} "
                f"true={_fmt(t)} diff={_fmt(a - t)}"
            )
    return 0


def cmd_dsep(args) -> int:
    net = load_model(args.model)
    a, b = _parse_set(args.a), _parse_set(args.b)
    for flag, names in (("--a", a), ("--b", b)):
        if not names:
            raise ValidationError(f"{flag} names no variable")
    verdict = d_separated(net.dag, a, b, _parse_set(args.given))
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_backdoor(args) -> int:
    net = load_model(args.model)
    verdict = backdoor_admissible(
        net.dag, args.treatment, args.outcome, _parse_set(args.set)
    )
    print("true" if verdict else "false")
    return 0 if verdict else 1


def cmd_select(args) -> int:
    net = load_model(args.model)
    mode = {"graph": "graphical", "dist": "distributional"}[args.mode]
    result = select_sufficient_confounders(net, args.treatment, args.outcome, mode=mode)
    chosen = ",".join(result.chosen) if result.chosen else "(empty)"
    print(f"chosen: {chosen}")
    print(f"pool: {','.join(result.pool) if result.pool else '(empty)'}")
    for rec in result.audit:
        subset = ",".join(rec.subset) if rec.subset else "(empty)"
        print(f"stage {rec.stage}: {{{subset}}} -> {'equal' if rec.verdict else 'unequal'}")
    return 0


def cmd_bias(args) -> int:
    net = load_model(args.model)
    value = conditioning_bias(
        net, args.treatment, args.outcome, args.covariate, args.z1, args.z0
    )
    vals = _outcome_values(net, args.outcome)
    adj = adjusted_estimate(net, args.treatment, args.outcome, [args.covariate])
    for level, est in adj.items():
        truth = interventional_distribution(net, args.outcome, {args.treatment: level})
        error = _expected(vals, est.values) - _expected(vals, truth.values)
        print(f"per-level error at {args.treatment}={level}: {_fmt(error)}")
    print(f"bias: {_fmt(value)}")
    return 0


def _parse_grid_range(text: str) -> tuple[float, float, int]:
    """``(a, step, n)`` of the range ``a:b:step``.

    Its values are ``a + i*step`` for the ``n`` indices ``i`` that pass
    ``a + i*step <= b + 1e-12``; a range whose index would pass
    ``latent.MAX_SCAN_CELLS`` is refused.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"bad grid range {text!r}; expected a:b:step")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(
            f"bad grid range {text!r}; a, b and step must be numbers"
        ) from None
    if not all(map(math.isfinite, (a, b, step))):
        raise ValidationError(f"bad grid range {text!r}; a, b and step must be finite")
    if step <= 0:
        raise ValidationError("grid step must be positive")
    if a > b:
        raise ValidationError(f"empty grid range {text!r}; start exceeds end")

    def member(i: int) -> bool:
        return a + i * step <= b + 1e-12

    # a + i*step never falls as i grows, so the members are a prefix of the
    # indices, and a bisection finds its last one
    last, past = 0, latent.MAX_SCAN_CELLS + 1
    if member(past):
        raise ValidationError(
            f"grid range {text!r} has too many values; its index passes "
            f"{latent.MAX_SCAN_CELLS}"
        )
    while past - last > 1:
        mid = (last + past) // 2
        if member(mid):
            last = mid
        else:
            past = mid
    return a, step, last + 1


def _grid_values(a: float, step: float, n: int) -> list[float]:
    # each value from its integer index, so float steps do not accumulate drift
    return [round(a + i * step, 12) for i in range(n)]


def cmd_scan(args) -> int:
    net = load_model(args.model)
    ranges = {}
    for spec in args.param:
        if "=" not in spec:
            raise ValidationError(f"bad --param {spec!r}; expected NAME=a:b:step")
        # parameter names may themselves contain '=' (e.g. "w|u=1")
        name, rng = spec.rsplit("=", 1)
        if name in ranges:
            raise ValidationError(f"repeated --param {name!r}")
        ranges[name] = _parse_grid_range(rng)
    _check_out(args.out)
    # refuse an oversized grid before any value list is built
    latent._check_grid_cells(n for _, _, n in ranges.values())
    grid = {name: _grid_values(*r) for name, r in ranges.items()}
    results = bias_scan(net, grid, args.treatment, args.outcome, args.covariate)
    with _writing(args.out):
        write_file(args.out, scan_to_csv(results).encode("utf-8"))
    print(scan_summary(results))
    return 0


def cmd_decompose(args) -> int:
    d = decompose_common_cause(args.py, args.pyp, args.lo, args.hi)
    print(f"p(t|y): {_fmt(d.p_t_given_y)}")
    print(f"p(t|y'): {_fmt(d.p_t_given_yprime)}")
    print(f"p(x|t): {_fmt(d.p_x_given_t)}")
    print(f"p(x|t'): {_fmt(d.p_x_given_tprime)}")
    recon_y = (1 - d.p_t_given_y) * d.p_x_given_tprime + d.p_t_given_y * d.p_x_given_t
    recon_yp = (
        1 - d.p_t_given_yprime
    ) * d.p_x_given_tprime + d.p_t_given_yprime * d.p_x_given_t
    print(f"reconstruction p(x|y): {_fmt(recon_y)} (residual {_fmt(recon_y - d.p_x_given_y)})")
    print(
        f"reconstruction p(x|y'): {_fmt(recon_yp)} "
        f"(residual {_fmt(recon_yp - d.p_x_given_yprime)})"
    )
    return 0


def cmd_corr(args) -> int:
    lo, hi = third_correlation_interval(args.r1, args.r2)
    # every domain error is raised before anything is printed
    verdict = None if args.r3 is None else correlation_feasible(args.r3, args.r1, args.r2)
    print(f"feasible interval: [{_fmt(lo)}, {_fmt(hi)}]")
    print("0 excluded" if lo > 0 or hi < 0 else "0 included")
    if verdict is None:
        return 0
    print(f"r3={_fmt(args.r3)}: {'feasible' if verdict else 'infeasible'}")
    return 0 if verdict else 1


def cmd_sample(args) -> int:
    net = load_model(args.model)
    _check_out(args.out)
    try:
        ds = forward_sample(net, args.n, args.seed)
        with _writing(args.out):
            ds.write_csv(args.out)
    except MemoryError:
        raise SizeCapExceeded(f"{args.n} rows do not fit in memory") from None
    print(f"wrote {len(ds)} rows to {args.out}")
    return 0


class _Arg(NamedTuple):
    """One argument of a subcommand: an option string (``--target``,
    ``-n``) taking one value, or a positional's name."""

    name: str
    required: bool = False
    #: a ``str`` default needs the ``str`` type, as argparse converts it unseen
    default: object = None
    type: Callable[[str], object] = str
    choices: tuple[str, ...] | None = None
    #: each use appends its value to a copy of the list so far
    append: bool = False
    metavar: str | None = None


_MODEL = _Arg("model")
_TREATMENT = _Arg("--treatment", required=True)
_OUTCOME = _Arg("--outcome", required=True)

#: each subcommand's help text, handler and arguments, in ``--help`` order;
#: ``build_parser`` and ``_take`` both read it
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int], tuple[_Arg, ...]]] = {
    "query": ("conditional distribution of a variable", cmd_query, (
        _MODEL, _Arg("--target", required=True), _Arg("--given", default=""))),
    "do": ("interventional distribution", cmd_do, (
        _MODEL, _Arg("--target", required=True), _Arg("--do", required=True))),
    "ace": ("average causal effect", cmd_ace, (
        _MODEL, _TREATMENT, _OUTCOME, _Arg("--z1"), _Arg("--z0"))),
    "adjust": ("covariate-adjusted estimate vs truth", cmd_adjust, (
        _MODEL, _TREATMENT, _OUTCOME, _Arg("--set", default=""))),
    "dsep": ("d-separation test (exit 0 true, 1 false)", cmd_dsep, (
        _MODEL, _Arg("--a", required=True), _Arg("--b", required=True),
        _Arg("--given", default=""))),
    "backdoor": ("back-door admissibility (exit 0/1)", cmd_backdoor, (
        _MODEL, _TREATMENT, _OUTCOME, _Arg("--set", default=""))),
    "select": ("minimal sufficient confounder set", cmd_select, (
        _MODEL, _TREATMENT, _OUTCOME, _Arg("--mode", default="graph", choices=("graph", "dist")))),
    "bias": ("bias of conditioning on one covariate", cmd_bias, (
        _MODEL, _TREATMENT, _OUTCOME, _Arg("--covariate", required=True),
        _Arg("--z1"), _Arg("--z0"))),
    "scan": ("exact bias scan over a parameter grid", cmd_scan, (
        _MODEL, _Arg("--param", default=[], append=True, metavar="NAME=a:b:step"),
        _Arg("--treatment", default="Z"), _Arg("--outcome", default="Y"),
        _Arg("--covariate", default="X"), _Arg("--out", required=True))),
    "decompose": ("common-cause dissection weights", cmd_decompose, (
        _Arg("--py", required=True, type=float), _Arg("--pyp", required=True, type=float),
        _Arg("--lo", type=float), _Arg("--hi", type=float))),
    "corr": ("third-correlation feasibility", cmd_corr, (
        _Arg("--r1", required=True, type=float), _Arg("--r2", required=True, type=float),
        _Arg("--r3", type=float))),
    "sample": ("seeded forward sampling to CSV", cmd_sample, (
        _MODEL, _Arg("-n", required=True, type=int), _Arg("--seed", required=True, type=int),
        _Arg("--out", required=True))),
}


def build_parser() -> argparse.ArgumentParser:
    """A new argparse parser for ``_COMMANDS``; it writes every help text
    and usage error."""
    parser = argparse.ArgumentParser(
        prog="causalbn",
        description="Exact interventional inference and confounder-bias analysis "
        "on discrete Bayesian networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for arg in arguments:
            # argparse refuses ``required`` for a positional, which is always required
            options = {"required": arg.required} if arg.name[0] == "-" else {}
            p.add_argument(
                arg.name, action="append" if arg.append else "store", default=arg.default,
                type=arg.type, choices=arg.choices, metavar=arg.metavar, **options,
            )
        p.set_defaults(func=func)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use (parsing leaves it unchanged)."""
    return build_parser()


#: argparse's test for a ``-``-leading argument that is a negative number
#: (and so a value) when no option string looks like one
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _View(NamedTuple):
    """One subcommand of ``_COMMANDS`` as ``_take`` reads it."""

    #: the namespace before any argument is read
    defaults: dict[str, object]
    #: (dest, argument) by exact option string, and of each positional in order
    options: dict[str, tuple[str, _Arg]]
    positionals: tuple[tuple[str, _Arg], ...]
    #: the dests a request must set: required options and every positional
    required: frozenset[str]


@functools.cache
def _views() -> dict[str, _View]:
    views = {}
    for name, (_, func, arguments) in _COMMANDS.items():
        # the dest argparse derives from a single option string or positional
        dests = [(arg.name.lstrip("-").replace("-", "_"), arg) for arg in arguments]
        views[name] = _View(
            defaults={"command": name, "func": func, **{d: a.default for d, a in dests}},
            options={a.name: (d, a) for d, a in dests if a.name[0] == "-"},
            positionals=tuple((d, a) for d, a in dests if a.name[0] != "-"),
            required=frozenset(d for d, a in dests if a.required or a.name[0] != "-"),
        )
    return views


def _take(argv: list[str]) -> argparse.Namespace | None:
    """``_parser().parse_args(argv)`` read from ``_views()`` in one pass, or
    None when the table does not take ``argv``.

    It takes a known command followed by exact option strings, each with
    its value in the next argument, and exactly its positionals; a value or
    positional may start with ``-`` only as a negative number.  Every type
    must convert and every choice must hold.  It never prints or exits.
    """
    view = _views().get(argv[0]) if argv else None
    if view is None:
        return None
    args = argparse.Namespace()
    values = vars(args)
    values.update(view.defaults)
    seen = set()
    positionals = iter(view.positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        target = view.options.get(token)
        if target is not None:
            token = next(tokens, None)
            if token is None:
                return None
        else:
            target = next(positionals, None)
            if target is None:
                return None
        if token[:1] == "-" and not _NEGATIVE.match(token):
            return None
        dest, arg = target
        try:
            value = arg.type(token)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[dest] = [*values[dest], value] if arg.append else value
        seen.add(dest)
    return args if view.required <= seen else None


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, from the table when it takes ``argv``.

    Everything else (help, errors, abbreviations, ``--opt=value``,
    ``-n20``, ``--``) goes to the top-level parser, which answers with the
    same bytes and exit code as always.
    """
    return _take(argv) or _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        code = args.func(args)
        # a reader that has closed stdout is met here, not at exit
        sys.stdout.flush()
        return code
    except CausalbnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # no one reads stdout any more, and with sys.stdout None the
        # interpreter does not flush it at exit, so nothing raises again
        # (fd 1 is not pointed at os.devnull: only fileio.write_file opens a
        # file to write).  141 is 128 + SIGPIPE, the code a shell gives a
        # process that SIGPIPE ends
        sys.stdout = None
        return 141


if __name__ == "__main__":
    sys.exit(main())
