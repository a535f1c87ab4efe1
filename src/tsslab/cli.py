"""Command-line front end: generate, propagate, solve, reduce, verify.

Exit codes: 0 success, 1 a verification property failed, 2 usage or input
error.  All randomized subcommands are reproducible from --seed.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import replace
from pathlib import Path

from . import verify
from .circuits import parse_circuit
from .instance import (
    _GNP_PAIR_BUDGET,
    THRESHOLD_MODES,
    GeneratorConfig,
    Graph,
    ParseError,
    _strict_int,
    generate_random,
    parse_instance,
    write_instance,
)
from .gadgets import ReducedInstance, reduce_thresholds_to_two
from .propagation import PropagationTrace, activate
from .reductions import (
    BuildSizeError,
    choose_gap_padding,
    clique_to_max_influence,
    is_to_influence_decision,
    is_to_min_closed_influence,
    mcs_to_tss,
    rho_preset,
)
from .solvers import (
    SolveResult,
    greedy_target_set,
    k_influence,
    min_open_influence_unanimity,
    optimal_target_set,
    unanimity_target_set_2approx,
)

# Each problem's solver, and each reduction's builder, input reader and
# padding variant.  A choice reads the flags its function has parameters
# for, and an unset flag takes that function's default (see `_keywords`).
_SOLVERS = {
    "target-set": optimal_target_set,
    "greedy-target-set": greedy_target_set,
    "unanimity-2approx": unanimity_target_set_2approx,
    "k-influence": k_influence,
    "unanimity-min-open": min_open_influence_unanimity,
}
SOLVE_PROBLEMS = tuple(_SOLVERS)


def _parse_graph(text: str) -> Graph:
    return parse_instance(text).graph


_REDUCTIONS = {
    "mcs": (mcs_to_tss, parse_circuit, None),
    "thresholds-to-two": (reduce_thresholds_to_two, parse_instance, None),
    "clique": (clique_to_max_influence, _parse_graph, "clique"),
    "is-decision": (is_to_influence_decision, _parse_graph, None),
    "is-min-closed": (is_to_min_closed_influence, _parse_graph, "min-closed"),
}

# `verify` flags: (flag, suite keyword, least value).  Sizes start at 1,
# counts at 0, and --seed takes any integer.
_VERIFY_FLAGS = (
    ("--trials", "trials", 0),
    ("--graphs", "graphs", 0),
    ("--n", "max_n", 1),
    ("--seed", "seed", None),
    ("--max-inputs", "max_inputs", 1),
    ("--max-gates", "max_gates", 1),
    ("--peels", "peels", 0),
    ("--random-seeds", "random_seeds", 0),
    ("--chains", "max_chain", 1),
    ("--k-max", "k_max", 1),
)


def format_trace(trace: PropagationTrace) -> str:
    lines = ["seed " + " ".join(map(str, sorted(trace.seed)))]
    for i, newly in enumerate(trace.rounds[1:], start=1):
        lines.append(f"round {i} " + " ".join(map(str, sorted(newly))))
    lines.append(f"rounds {trace.round_count}")
    lines.append(f"closed {trace.closed_influence}")
    lines.append(f"open {trace.open_influence}")
    return "\n".join(lines) + "\n"


def format_result(res: SolveResult) -> str:
    lines = [f"problem {res.problem}"]
    if res.k is not None:
        lines.append(f"k {res.k}")
    if res.goal is not None:
        lines.append(f"goal {res.goal}")
    if res.mode is not None:
        lines.append(f"mode {res.mode}")
    if res.seed is None:
        lines.append("seed none")
    else:
        lines.append("seed " + " ".join(map(str, sorted(res.seed))))
    lines.append(f"value {res.value if res.value is not None else 'none'}")
    lines.append(f"optimal {'true' if res.optimal else 'false'}")
    lines.append(f"explored {res.explored}")
    return "\n".join(lines) + "\n"


def format_params(r: ReducedInstance) -> str:
    lines = [f"reduction {r.kind}"]
    if r.k is not None:
        lines.append(f"k {r.k}")
    if r.ell is not None:
        lines.append(f"ell {r.ell}")
    p = r.params
    if p is not None:
        lines.append(f"g {p.g}")
        lines.append(f"h {p.h}")
        if p.x is not None:
            lines.append(f"x {p.x}")
        if p.rho_label is not None:
            lines.append(f"rho {p.rho_label}")
    lines.append(f"vertices {r.instance.n}")
    lines.append(f"edges {r.instance.m}")
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _parse_seeds(raw: str) -> list[int]:
    if not raw.strip():
        return []
    try:
        return [_strict_int(tok.strip()) for tok in raw.split(",")]
    except ValueError:
        raise ParseError(f"bad seed list {raw!r}; expected comma-separated integers")


def _int_flag(token: str) -> int:
    """An integer flag's value under the file formats' rule: ASCII digits
    after an optional '-'.  argparse reports anything else, such as '1_0',
    '+5' or a non-ASCII digit, against the flag and exits 2."""
    try:
        return _strict_int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsslab",
        description="Threshold-activation instances: generate, propagate, solve, "
        "reduce, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("-n", type=_int_flag, required=True, help="vertex count")
    gen.add_argument("-p", type=float, required=True, help="edge probability")
    gen.add_argument(
        "--thresholds",
        default="constant:1",
        help="constant:<c>, majority, unanimity, or uniform",
    )
    gen.add_argument("--seed", type=_int_flag, default=0, help="rng seed")
    gen.add_argument("-o", "--output", default=None)

    prop = sub.add_parser("propagate", help="run the activation process")
    prop.add_argument("-i", "--input", required=True)
    prop.add_argument("-s", "--seeds", default="", help="comma-separated vertex ids")
    prop.add_argument("-o", "--output", default=None)

    solve = sub.add_parser("solve", help="run a solver")
    solve.add_argument("-i", "--input", required=True)
    solve.add_argument("--problem", choices=SOLVE_PROBLEMS, default="target-set")
    solve.add_argument("-k", type=_int_flag, default=None)
    solve.add_argument(
        "-l", "--ell", type=_int_flag, default=None, help="decision bound on the value"
    )
    solve.add_argument(
        "--mode", choices=("open", "closed"), help="k-influence only (default closed)"
    )
    solve.add_argument("--goal", choices=("max", "min"), help="k-influence only (default max)")
    solve.add_argument("--cap", type=_int_flag, default=None, help="target-set size cap")
    solve.add_argument("-o", "--output", default=None)

    red = sub.add_parser("reduce", help="compile an instance transformation")
    red.add_argument("name", choices=_REDUCTIONS)
    red.add_argument("-i", "--input", required=True)
    red.add_argument("-o", "--output", required=True, help="output directory")
    red.add_argument("-k", type=_int_flag, default=None)
    red.add_argument(
        "--h", type=_int_flag, default=None, dest="h", help="gap padding (default 1)"
    )
    red.add_argument("--rho", default=None, help="const:<c>, linear:<c>, poly:<c>,<d>")
    red.add_argument(
        "--mode", choices=("open", "closed"), help="is-decision only (default closed)"
    )

    ver = sub.add_parser("verify", help="run a property suite")
    ver.add_argument("suite", choices=sorted(verify.SUITES))
    for flag, name, _ in _VERIFY_FLAGS:
        ver.add_argument(flag, type=_int_flag, default=None, dest=name)
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    # GeneratorConfig checks these values too, but without naming the flag.
    if args.n < 0:
        raise ParseError(f"-n must be nonnegative, got {args.n}")
    if args.n * (args.n - 1) // 2 > _GNP_PAIR_BUDGET:
        raise ParseError(
            f"-n must give at most {_GNP_PAIR_BUDGET} vertex pairs n(n-1)/2, got {args.n}"
        )
    if not 0 <= args.p <= 1:
        raise ParseError(f"-p must lie in [0, 1], got {args.p}")
    mode, sep, value = args.thresholds.partition(":")
    try:
        constant = _strict_int(value) if sep else 1
    except ValueError:
        constant = 0  # rejected below with the other bad values
    if mode not in THRESHOLD_MODES or (sep and mode != "constant") or constant < 1:
        raise ParseError(
            f"--thresholds {args.thresholds!r}: expected constant, constant:<c> with "
            "c >= 1, majority, unanimity or uniform"
        )
    cfg = GeneratorConfig(
        n=args.n,
        edge_probability=args.p,
        threshold_mode=mode,
        rng_seed=args.seed,
        constant=constant,
    )
    _emit(write_instance(generate_random(cfg)), args.output)
    return 0


def _cmd_propagate(args: argparse.Namespace) -> int:
    inst = parse_instance(_read(args.input))
    trace = activate(inst, _parse_seeds(args.seeds))
    _emit(format_trace(trace), args.output)
    return 0


def _keywords(subject: str, func, flags) -> dict:
    """Check `flags`, (flag, parameter, value) triples in reporting order
    with None for an unset flag, against `func`'s signature.  The first set
    flag whose parameter `func` lacks, else the first unset flag whose
    parameter has no default, is a usage error.  The set flags come back as
    keyword arguments, so an unset one takes `func`'s own default."""
    params = inspect.signature(func).parameters
    for flag, name, value in flags:
        if value is not None and name not in params:
            raise ParseError(f"the {subject} does not take {flag}")
    for flag, name, value in flags:
        if value is None and name in params and params[name].default is inspect.Parameter.empty:
            raise ParseError(f"the {subject} needs {flag}")
    return {name: value for _, name, value in flags if value is not None}


def _cmd_solve(args: argparse.Namespace) -> int:
    solver = _SOLVERS[args.problem]
    kwargs = _keywords(f"{args.problem} problem", solver, (
        ("-k", "k", args.k),
        ("--mode", "mode", args.mode),
        ("--goal", "goal", args.goal),
        ("--cap", "size_cap", args.cap),
    ))
    res = solver(parse_instance(_read(args.input)), **kwargs)
    text = format_result(res)
    if args.ell is not None and res.value is not None:
        goal = res.goal or "min"
        hit = res.value <= args.ell if goal == "min" else res.value >= args.ell
        text += f"decision {'true' if hit else 'false'}\n"
    _emit(text, args.output)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    build, read, variant = _REDUCTIONS[args.name]
    # --rho is read where --h is: it picks the builder's h.
    kwargs = _keywords(f"{args.name} reduction", build, (
        ("-k", "k", args.k),
        ("--h", "h", args.h),
        ("--rho", "h", args.rho),
        ("--mode", "mode", args.mode),
    ))
    source = read(_read(args.input))
    padding = None if args.h is None else f"--h {args.h}"
    if args.rho is not None:
        if args.h is not None:
            raise ParseError(f"--h {args.h} and --rho {args.rho!r} both set the padding; give one")
        padding = f"--rho {args.rho}"
        try:
            p = choose_gap_padding(args.k, rho_preset(args.rho), variant, rho_label=args.rho)
        except ValueError as exc:
            raise ParseError(f"{padding}: {exc}") from None
        kwargs["h"] = p.h
    try:
        r = build(source, **kwargs)
    except BuildSizeError as exc:
        if padding is None:
            raise
        raise ParseError(f"{padding}: {exc}") from None
    if args.rho is not None:
        r = replace(r, params=p)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "instance.tss").write_text(write_instance(r.instance), encoding="utf-8")
    (outdir / "provenance.txt").write_text(r.provenance_text(), encoding="utf-8")
    (outdir / "params.txt").write_text(format_params(r), encoding="utf-8")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    suite = verify.SUITES[args.suite]
    flags = []
    for flag, name, least in _VERIFY_FLAGS:
        value = getattr(args, name)
        if value is not None and least is not None and value < least:
            need = "nonnegative" if least == 0 else f"at least {least}"
            raise ParseError(f"{flag} must be {need}, got {value}")
        flags.append((flag, name, value))
    kwargs = _keywords(f"{args.suite} suite", suite, flags)
    try:
        passed = suite(**kwargs)
    except verify.Counterexample as cx:
        print(f"FAIL {cx.name}")
        for line in cx.detail.splitlines():
            print(f"  {line}")
        return 1
    for line in passed:
        print(f"PASS {line}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "propagate": _cmd_propagate,
        "solve": _cmd_solve,
        "reduce": _cmd_reduce,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
