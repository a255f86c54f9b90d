"""Command-line front end.

Exit codes: 0 success (or boolean true), 1 boolean false, 2 usage
errors; a ``CausalbnError`` prints ``error: ...`` on stderr and exits
with its type's ``exit_code`` (see ``errors``).  All numbers
print with 12 significant digits so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import math
import os
import sys
from pathlib import Path

from . import latent
from .bayesnet import forward_sample, query
from .errors import CausalbnError, SizeCapExceeded, ValidationError
from .graph import backdoor_admissible, d_separated
from .intervention import (
    _adjusted_values,
    _do_values,
    ace,
    conditioning_bias,
    effect_report,
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
    s = _parse_set(args.set)
    adj = _adjusted_values(net, args.treatment, args.outcome, s)
    states = net.variables[args.outcome].states
    for level, row in zip(net.variables[args.treatment].states, adj):
        truth = _do_values(net, args.outcome, {args.treatment: level})
        print(f"do({args.treatment}={level}):")
        for state, a, t in zip(states, map(float, row), map(float, truth)):
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
    rep = effect_report(net, args.treatment, args.outcome, [args.covariate])
    for level, adjusted, truth in zip(rep.levels, rep.adjusted, rep.truth):
        print(f"per-level error at {args.treatment}={level}: {_fmt(adjusted - truth)}")
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


def _parse_grid_value(text: str) -> list[float]:
    return _grid_values(*_parse_grid_range(text))


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
        Path(args.out).write_text(scan_to_csv(results), encoding="utf-8", newline="")
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
    print(f"feasible interval: [{_fmt(lo)}, {_fmt(hi)}]")
    print("0 excluded" if lo > 0 or hi < 0 else "0 included")
    if args.r3 is None:
        return 0
    verdict = correlation_feasible(args.r3, args.r1, args.r2)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalbn",
        description="Exact interventional inference and confounder-bias analysis "
        "on discrete Bayesian networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("query", help="conditional distribution of a variable")
    p.add_argument("model")
    p.add_argument("--target", required=True)
    p.add_argument("--given", default="")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("do", help="interventional distribution")
    p.add_argument("model")
    p.add_argument("--target", required=True)
    p.add_argument("--do", required=True)
    p.set_defaults(func=cmd_do)

    p = sub.add_parser("ace", help="average causal effect")
    p.add_argument("model")
    p.add_argument("--treatment", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--z1")
    p.add_argument("--z0")
    p.set_defaults(func=cmd_ace)

    p = sub.add_parser("adjust", help="covariate-adjusted estimate vs truth")
    p.add_argument("model")
    p.add_argument("--treatment", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--set", default="")
    p.set_defaults(func=cmd_adjust)

    p = sub.add_parser("dsep", help="d-separation test (exit 0 true, 1 false)")
    p.add_argument("model")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--given", default="")
    p.set_defaults(func=cmd_dsep)

    p = sub.add_parser("backdoor", help="back-door admissibility (exit 0/1)")
    p.add_argument("model")
    p.add_argument("--treatment", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--set", default="")
    p.set_defaults(func=cmd_backdoor)

    p = sub.add_parser("select", help="minimal sufficient confounder set")
    p.add_argument("model")
    p.add_argument("--treatment", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--mode", choices=["graph", "dist"], default="graph")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("bias", help="bias of conditioning on one covariate")
    p.add_argument("model")
    p.add_argument("--treatment", required=True)
    p.add_argument("--outcome", required=True)
    p.add_argument("--covariate", required=True)
    p.add_argument("--z1")
    p.add_argument("--z0")
    p.set_defaults(func=cmd_bias)

    p = sub.add_parser("scan", help="exact bias scan over a parameter grid")
    p.add_argument("model")
    p.add_argument("--param", action="append", default=[], metavar="NAME=a:b:step")
    p.add_argument("--treatment", default="Z")
    p.add_argument("--outcome", default="Y")
    p.add_argument("--covariate", default="X")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("decompose", help="common-cause dissection weights")
    p.add_argument("--py", type=float, required=True)
    p.add_argument("--pyp", type=float, required=True)
    p.add_argument("--lo", type=float)
    p.add_argument("--hi", type=float)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("corr", help="third-correlation feasibility")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--r3", type=float)
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("sample", help="seeded forward sampling to CSV")
    p.add_argument("model")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use (parsing leaves it unchanged)."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)`` in one pass over the arguments.

    The top-level parser only hands everything after the command to that
    command's parser, so a known command is parsed by its own parser
    alone.  Anything else (no command, an unknown one, top-level options,
    leftover arguments) goes through the top-level parser, which reports
    it with the same bytes and exit code as always.
    """
    parser = _parser()
    if argv:
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                sub = action.choices.get(argv[0])
                if sub is not None:
                    args, extra = sub.parse_known_args(argv[1:])
                    if not extra:
                        return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except CausalbnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
