"""Command-line entry point.

Subcommands: measure, compose, bound, verify, simulate. Every command
prints one JSON document to stdout (also written to --output when
given) and reports problems on stderr.

``bound`` and ``compose`` without ``--channel`` are closed forms and run
on the standard library: a handler imports the numpy-bearing modules
(``core``, ``measures``, ``verify``, ``simulate``) only when it runs.

Every subcommand is described once, in ``_COMMANDS``, with only the
options that it reads; ``_NEEDS`` beside it names the flags each
``measure`` kind and ``bound`` theorem needs, in check order, and
``main`` refuses a missing one before any file is read.
``main`` reads a well-formed argv straight from the command table.
argparse is imported, and its parser built from the same table, only for
``--help`` and for the argv that the direct reader leaves (abbreviations,
``--``, unknown flags, missing or malformed values), so help text,
refusals and their exit codes are argparse's own.

Exit codes (a library error exits with its class's ``exit_code``):
    0  success; for verify/simulate, every check passed
    1  a check failed: the report's top-level "pass" is false (only
       verify and simulate reports carry one)
    2  validation failure (unreadable file, malformed value, mismatch)
    3  infeasible parameter (``errors.Infeasible``: beta out of range,
       empty feasible set, a result too large to represent, ...)
    4  enumeration cap exceeded (``errors.CapExceeded``)
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import sys
import types
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from . import jsonio
from .bounds import (
    P_VALUE_NOTE,
    adaptive_event_bound,
    adjusted_significance,
    compare_sensitivity_bounds,
    dwork_dp_bound,
    fdr_bound,
    gen_error_bound,
    gen_error_bound_sensitivity,
    mi_gen_bound,
    sample_complexity,
)
from .errors import Infeasible, LeakageLabError, _within
from .ledger import LeakageLedger, LedgerEntry

if TYPE_CHECKING:
    import argparse

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = LeakageLabError.exit_code

_NATS_PER_BIT = math.log(2.0)

# the keys of verify.SUITES, named here so that the command table loads no numpy
_SUITE_NAMES = ("soundness", "composition", "maxinfo")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise LeakageLabError(message)


def _needed(args) -> dict:
    """dest -> value of each flag that the kind or theorem in ``args`` needs, in check order."""
    chooser, needs = _NEEDED[args.command]
    return {dest: getattr(args, dest) for dest, _ in needs[getattr(args, chooser)]}


def _cmd_measure(args) -> dict:
    from .core import Alphabet, Channel, JointDistribution, ProductAlphabet
    from .measures import (
        approx_max_information,
        conditional_maximal_leakage,
        empirical_dp,
        max_information,
        maximal_leakage,
        mutual_information,
    )

    kind, inputs = args.kind, _needed(args)
    if kind == "ml":
        if args.support is not None:
            inputs["support"] = args.support.split(",")
        channel = Channel.from_json(jsonio.load_path(args.channel), args.channel)
        value = maximal_leakage(channel, inputs.get("support")).nats
    elif kind == "cml":
        channel = Channel.from_json(jsonio.load_path(args.channel), args.channel)
        pairs = jsonio.read("pairs", jsonio.load_path(args.pairs), args.pairs)
        support = (None if args.support is None
                   else jsonio.read("pairs", jsonio.load_path(args.support), args.support))
        value = conditional_maximal_leakage(channel, pairs, support).nats
        if args.support is not None:
            inputs["support"] = args.support
    elif kind == "dp":
        # read whole first, so the parsed JSON rows are freed before the product is built
        labels, outputs, rows = jsonio.read("channel", jsonio.load_path(args.channel), args.channel)
        product = ProductAlphabet(Alphabet(args.product_base.split(",")), args.copies)
        _require(tuple(labels) == product.labels,  # only the product is indexed
                 "channel input labels do not match the stated product alphabet")
        value = empirical_dp(Channel(product, Alphabet(outputs), rows))
    else:  # a measure of a joint distribution
        joint = JointDistribution.from_json(jsonio.load_path(args.joint), args.joint)
        if kind == "approx-maxinfo":
            value = approx_max_information(joint, args.beta)
        else:
            value = (mutual_information if kind == "mi" else max_information)(joint)

    document = {"measure": kind, "nats": jsonio.encode_extended(value), "inputs": inputs}
    if args.bits:
        document["bits"] = jsonio.encode_extended(value / _NATS_PER_BIT)
    return document


def _parse_dp_flag(text: str) -> tuple[float, int]:
    try:
        epsilon, n = text.split(",")
        return float(epsilon), int(n)
    except ValueError:
        raise LeakageLabError(f"--dp expects 'epsilon,n', got {text!r}") from None


def _cmd_compose(args) -> dict:
    ledger = (LeakageLedger() if args.ledger is None
              else LeakageLedger.from_json(jsonio.load_path(args.ledger), args.ledger))
    # each step adds one entry, so the ledger's length numbers the next label
    for text in args.dp or []:
        ledger = ledger.with_entry(LedgerEntry.from_dp(f"step{len(ledger) + 1}", *_parse_dp_flag(text)))
    for size in args.cardinality or []:
        ledger = ledger.with_entry(LedgerEntry.from_cardinality(f"step{len(ledger) + 1}", size))
    for nats in args.maxinfo or []:
        ledger = ledger.with_entry(LedgerEntry.from_maxinfo(f"step{len(ledger) + 1}", nats))
    for path in args.channel or []:
        from .core import Channel

        channel = Channel.from_json(jsonio.load_path(path), path)
        ledger = ledger.with_entry(LedgerEntry.from_channel(f"step{len(ledger) + 1}", channel))
    for nats in args.declared or []:
        ledger = ledger.with_entry(LedgerEntry.declared(f"step{len(ledger) + 1}", nats))

    document = ledger.to_json()
    document["total_nats"] = ledger.total()
    if args.bits:
        document["total_bits"] = ledger.total() / _NATS_PER_BIT
    return document


def _cmd_bound(args) -> dict:
    theorem, values = args.theorem, _needed(args).values()
    if theorem == "generr-c":
        document = gen_error_bound_sensitivity(*values).to_json()
        document["comparison"] = compare_sensitivity_bounds(*values)
    elif theorem == "hyptest":
        leakage = args.leakage
        _require(
            args.sigma is not None or args.delta is not None,
            "bound --theorem hyptest needs --sigma and/or --delta",
        )
        if args.sigma is not None:
            document = fdr_bound(args.sigma, leakage).to_json()
        else:
            document = {"name": "significance-adjustment", "inputs": {"delta": args.delta, "L_nats": leakage}}
        if args.delta is not None:
            document["adjustedSignificance"] = adjusted_significance(args.delta, leakage)
        document["note"] = P_VALUE_NOTE
    elif theorem == "sample-complexity":
        document = {
            "name": "sample-complexity",
            "value": sample_complexity(*values, args.mode),
            "inputs": {"value_nats": args.value, "eta": args.eta, "delta": args.delta, "mode": args.mode},
            "trivial": False,
        }
    else:
        # looked up at call time, so that a wrapper installed as a module global runs
        bound = {"adapt": adaptive_event_bound, "generr": gen_error_bound,
                 "dwork": dwork_dp_bound, "mi": mi_gen_bound}[theorem]
        document = bound(*values).to_json()
    return document


def _cmd_verify(args) -> dict:
    _require(args.seed is not None, "verify needs an explicit --seed")
    _within(args.instances, "--instances", "[1, inf)")
    from .verify import run_suites

    names = list(_SUITE_NAMES) if args.suite == "all" else [args.suite]
    return run_suites(names, args.instances, args.seed)


def _cmd_simulate(args) -> dict:
    from .simulate import (
        GenErrConfig,
        HypTestConfig,
        run_gen_error_experiment,
        run_hyptest_experiment,
    )

    generr = args.kind == "generr"
    config = (GenErrConfig if generr else HypTestConfig).from_json(
        jsonio.load_path(args.config), args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if generr:
        return run_gen_error_experiment(config, trace_path=args.trace, require_exact=args.exact)
    return run_hyptest_experiment(config, trace_path=args.trace)


class _Option(NamedTuple):
    """A long option ``--name`` of a command, or the command's positional ``name``."""

    name: str
    kind: str = "value"  # "value", "flag" (store_true) or "append"
    type: Callable[[str], Any] | None = None
    choices: tuple | None = None
    default: Any = None
    required: bool = False
    help: str | None = None
    metavar: str | None = None


class _Command(NamedTuple):
    help: str
    handler: Callable
    options: tuple[_Option, ...]
    positional: _Option | None = None


_SEED = _Option("seed", type=int, help="seed for randomized commands")
_BITS = _Option("bits", kind="flag", default=False, help="also display leakage totals in bits")
_OUTPUT = _Option("output", help="also write the JSON report to this path")
_WORKERS = _Option("workers", type=int, default=1,
                   help="accepted for compatibility; has no effect, every run is serial")

# the flags that each measure kind and bound theorem needs, in the order they
# are checked; the kinds and theorems are the keys
_NEEDS = {
    "measure": {
        "ml": ("channel",), "cml": ("channel", "pairs"), "mi": ("joint",), "maxinfo": ("joint",),
        "approx-maxinfo": ("joint", "beta"), "dp": ("channel", "product-base", "copies"),
    },
    "bound": {
        "adapt": ("max-fiber-prob", "leakage"), "generr": ("n", "eta", "leakage"),
        "generr-c": ("n", "eta", "sensitivity", "leakage"), "hyptest": ("leakage",),
        "dwork": ("beta", "epsilon", "n"), "mi": ("mutual-info", "n", "eta"),
        "sample-complexity": ("value", "eta", "delta"),
    },
}

# every subcommand, once: the direct reader and build_parser both read it
_COMMANDS = {
    "measure": _Command(
        "compute one measure from JSON inputs", _cmd_measure,
        positional=_Option("kind", choices=tuple(_NEEDS["measure"])),
        options=(
            _BITS, _OUTPUT,
            _Option("channel", help="channel JSON path (ml, cml, dp)"),
            _Option("joint", help="joint-distribution JSON path (mi, maxinfo, approx-maxinfo)"),
            _Option("support", help="ml: comma-separated input labels; cml: JSON path of [x, z] pairs"),
            _Option("pairs", help="cml: JSON path with one [x, z] pair per channel input"),
            _Option("beta", type=float, help="budget in (0, 1) for approx-maxinfo"),
            _Option("product-base", help="dp: comma-separated base labels of the input product"),
            _Option("copies", type=int, help="dp: number of coordinates in the input product"),
        ),
    ),
    "compose": _Command(
        "extend a leakage ledger and print its total", _cmd_compose,
        options=(
            _BITS, _OUTPUT,
            _Option("ledger", help="existing ledger JSON path; omitted means empty"),
            _Option("dp", kind="append", metavar="EPS,N", help="add an eps-DP step over n records"),
            _Option("cardinality", kind="append", type=int, metavar="K",
                    help="add a log(K) output-size step"),
            _Option("maxinfo", kind="append", type=float, metavar="NATS",
                    help="add a max-information certificate"),
            _Option("channel", kind="append", metavar="PATH",
                    help="add the exact leakage of a channel JSON"),
            _Option("declared", kind="append", type=float, metavar="NATS",
                    help="add an externally justified bound"),
        ),
    ),
    "bound": _Command(
        "evaluate one closed-form bound", _cmd_bound,
        options=(
            _OUTPUT,
            _Option("theorem", required=True, choices=tuple(_NEEDS["bound"])),
            _Option("leakage", type=float, help="leakage budget in nats"),
            _Option("max-fiber-prob", type=float, help="adapt: worst per-output event mass"),
            _Option("n", type=int, help="sample size"),
            _Option("eta", type=float, help="accuracy in (0, 1)"),
            _Option("sensitivity", type=float, help="generr-c: per-coordinate sensitivity"),
            _Option("sigma", type=float, help="hyptest: per-test significance level"),
            _Option("delta", type=float, help="hyptest: target level; sample-complexity: confidence"),
            _Option("beta", type=float, help="dwork: event-probability parameter"),
            _Option("epsilon", type=float, help="dwork: DP parameter"),
            _Option("mutual-info", type=float, help="mi: mutual information in nats"),
            _Option("value", type=float, help="sample-complexity: leakage or MI in nats"),
            _Option("mode", choices=("leakage", "mutual-info"), default="leakage"),
        ),
    ),
    "verify": _Command(
        "run randomized property sweeps", _cmd_verify,
        positional=_Option("suite", choices=(*_SUITE_NAMES, "all")),
        options=(_SEED, _OUTPUT, _Option("instances", type=int, default=1000), _WORKERS),
    ),
    "simulate": _Command(
        "run a Monte Carlo experiment from a config file", _cmd_simulate,
        positional=_Option("kind", choices=("generr", "hyptest")),
        options=(
            _SEED, _OUTPUT,
            _Option("config", required=True, help="experiment config JSON path"),
            _Option("trace", help="write per-trial CSV here"),
            _WORKERS,
            _Option("exact", kind="flag", default=False,
                    help="generr: fail instead of falling back to the ledger bound"),
        ),
    ),
}


def _arguments(command: _Command) -> tuple[_Option, ...]:
    """The command's arguments in argparse's order: positional, then options."""
    return (*filter(None, [command.positional]), *command.options)


# each argument's namespace attribute, as argparse derives it from the name
_DEST = {
    option.name: option.name.replace("-", "_")
    for command in _COMMANDS.values() for option in _arguments(command)
}

# per command: "--name" -> option, argparse's defaults in its namespace order,
# the dests that must be given, and the float-typed options, which must be finite
_FLAGS = {
    name: {f"--{option.name}": option for option in command.options}
    for name, command in _COMMANDS.items()
}
_DEFAULTS = {
    name: {"command": name,
           **{_DEST[option.name]: option.default for option in _arguments(command)},
           "handler": command.handler}
    for name, command in _COMMANDS.items()
}
_REQUIRED = {
    name: tuple(_DEST[option.name] for option in _arguments(command)
                if option.required or option is command.positional)
    for name, command in _COMMANDS.items()
}

_FLOATS = {
    name: tuple(option for option in _arguments(command) if option.type is float)
    for name, command in _COMMANDS.items()
}

# per command of _NEEDS: the dest that picks a choice, and per choice the
# dest and the refusal of each flag it needs, in check order
_NEEDED = {
    name: (chooser, {
        choice: tuple((_DEST[flag], f"{spelled} {choice} needs --{flag}") for flag in flags)
        for choice, flags in _NEEDS[name].items()
    })
    for name, chooser, spelled in (("measure", "kind", "measure"),
                                   ("bound", "theorem", "bound --theorem"))
}

# argparse reads a token that starts with "-" as a value only when it looks
# like a negative number; every supported Python's pattern accepts these
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _read_argv(argv) -> types.SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` gives for a well-formed ``argv``, or None.

    It takes argv only when every token after the command is an exact long
    option of that command (``--name value`` or ``--name=value``) or its one
    positional. A value in the first form must not start with "-" unless it
    is a negative number; every value must convert and lie within its
    choices, and every required argument must be present. None leaves the
    rest to argparse: help, abbreviations, ``--``, unknown flags, missing
    or bad values.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    flags, positional = _FLAGS[command], _COMMANDS[command].positional
    values = dict(_DEFAULTS[command])
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:2] == "--":
            flag, equals, text = token.partition("=")
            option = flags.get(flag)
            if option is None:
                return None
            if option.kind == "flag":
                if equals:
                    return None
                values[_DEST[option.name]] = True
                continue
            if not equals:
                text = next(tokens, None)
                if text is None or text[:1] == "-" and not _NEGATIVE_NUMBER.fullmatch(text):
                    return None
        elif positional is None or values[_DEST[positional.name]] is not None:
            return None
        else:
            # no choice starts with "-", so "-h" or "-1" fails the choices check
            option, text = positional, token
        try:
            value = text if option.type is None else option.type(text)
        except ValueError:
            return None
        if option.choices is not None and value not in option.choices:
            return None
        dest = _DEST[option.name]
        if option.kind == "append":
            value = [*(values[dest] or ()), value]
        values[dest] = value
    if any(values[dest] is None for dest in _REQUIRED[command]):
        return None
    return types.SimpleNamespace(**values)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of ``_COMMANDS``, for --help and the argv ``_read_argv`` leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="leakage-lab",
        description="Information-leakage measures, composition ledgers, and bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for option in _arguments(command):
            if option is command.positional:
                subparser.add_argument(option.name, choices=option.choices)
            elif option.kind == "flag":
                subparser.add_argument(f"--{option.name}", action="store_true",
                                       default=option.default, help=option.help)
            else:
                subparser.add_argument(
                    f"--{option.name}", action="append" if option.kind == "append" else "store",
                    type=option.type, choices=option.choices, default=option.default,
                    required=option.required, help=option.help, metavar=option.metavar,
                )
        subparser.set_defaults(handler=command.handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call in a process.

    ``build_parser`` is looked up as a module global at that call, so a
    wrapper installed there sees the build.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)

    # in namespace order, so the first non-finite value is the one named
    for option in _FLOATS[args.command]:
        value = getattr(args, _DEST[option.name])
        values = value if option.kind == "append" else (value,)
        if value is not None and not all(map(math.isfinite, values)):
            print(f"error: --{option.name} must be finite", file=sys.stderr)
            return EXIT_VALIDATION

    try:
        if args.command in _NEEDED:
            chooser, needs = _NEEDED[args.command]
            for dest, refusal in needs[getattr(args, chooser)]:
                _require(getattr(args, dest) is not None, refusal)
        document = args.handler(args)
        text = jsonio.dumps(document)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    except LeakageLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code
    except ArithmeticError:
        print("error: result too large to represent", file=sys.stderr)
        return Infeasible.exit_code
    except KeyError as err:
        print(f"error: missing key {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, TypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    print(text)
    # only verify and simulate reports carry a verdict
    return EXIT_CHECK_FAILED if document.get("pass") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
