"""Command-line entry point.

Subcommands: measure, compose, bound, verify, simulate. Every command
prints one JSON document to stdout (also written to --output when
given) and reports problems on stderr.

Exit codes:
    0  success; for verify/simulate, every check passed
    1  a verify or simulate check failed
    2  validation failure (unreadable file, malformed value, mismatch)
    3  infeasible parameter (beta out of range, empty feasible set,
       a result too large to represent, ...)
    4  enumeration cap exceeded
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from . import jsonio
from .bounds import (
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
from .core import Alphabet, Channel, JointDistribution, ProductAlphabet
from .errors import (
    BetaOutOfRange,
    CapExceeded,
    DenominatorNonPositive,
    LeakageLabError,
    NegativeEpsilon,
    NoFeasibleSet,
    NonPositiveSensitivity,
)
from .ledger import LeakageLedger, LedgerEntry
from .measures import (
    approx_max_information,
    conditional_maximal_leakage,
    empirical_dp,
    max_information,
    maximal_leakage,
    mutual_information,
)
from .simulate import (
    GenErrConfig,
    HypTestConfig,
    P_VALUE_NOTE,
    run_gen_error_experiment,
    run_hyptest_experiment,
)
from .verify import SUITES, run_suites

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_CAP = 4

_INFEASIBLE = (
    BetaOutOfRange,
    NoFeasibleSet,
    DenominatorNonPositive,
    NegativeEpsilon,
    NonPositiveSensitivity,
)

_NATS_PER_BIT = math.log(2.0)

_WORKERS_HELP = "accepted for compatibility; has no effect, every run is serial"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise LeakageLabError(message)


def _in_bits(nats: float) -> float:
    return nats / _NATS_PER_BIT if math.isfinite(nats) else nats


def _load_pairs(path: str) -> list[tuple]:
    """The [x, z] pairs that the JSON file at ``path`` lists."""
    entries = jsonio.load_path(path)
    pairs = isinstance(entries, list) and all(isinstance(e, list) and len(e) == 2 for e in entries)
    _require(pairs, f"{path} must hold a list of [x, z] pairs")
    return [tuple(pair) for pair in entries]


def _cmd_measure(args) -> tuple[dict, int]:
    kind = args.kind
    inputs: dict = {}
    if kind == "ml":
        _require(args.channel is not None, "measure ml needs --channel")
        channel = Channel.from_json(jsonio.load_path(args.channel))
        support = args.support.split(",") if args.support else None
        value = maximal_leakage(channel, support).nats
        inputs["channel"] = args.channel
        if support:
            inputs["support"] = support
    elif kind == "cml":
        _require(args.channel is not None, "measure cml needs --channel")
        _require(args.pairs is not None, "measure cml needs --pairs")
        channel = Channel.from_json(jsonio.load_path(args.channel))
        pairs = _load_pairs(args.pairs)
        support = set(_load_pairs(args.support)) if args.support else None
        value = conditional_maximal_leakage(channel, pairs, support).nats
        inputs = {"channel": args.channel, "pairs": args.pairs}
        if args.support:
            inputs["support"] = args.support
    elif kind == "mi":
        _require(args.joint is not None, "measure mi needs --joint")
        value = mutual_information(JointDistribution.from_json(jsonio.load_path(args.joint)))
        inputs["joint"] = args.joint
    elif kind == "maxinfo":
        _require(args.joint is not None, "measure maxinfo needs --joint")
        value = max_information(JointDistribution.from_json(jsonio.load_path(args.joint)))
        inputs["joint"] = args.joint
    elif kind == "approx-maxinfo":
        _require(args.joint is not None, "measure approx-maxinfo needs --joint")
        _require(args.beta is not None, "measure approx-maxinfo needs --beta")
        joint = JointDistribution.from_json(jsonio.load_path(args.joint))
        value = approx_max_information(joint, args.beta)
        inputs = {"joint": args.joint, "beta": args.beta}
    else:  # dp
        _require(args.channel is not None, "measure dp needs --channel")
        _require(args.product_base is not None, "measure dp needs --product-base")
        _require(args.copies is not None, "measure dp needs --copies")
        channel = Channel.from_json(jsonio.load_path(args.channel))
        base = Alphabet(args.product_base.split(","))
        product = ProductAlphabet(base, args.copies)
        _require(
            product.labels == channel.input.labels,
            "channel input labels do not match the stated product alphabet",
        )
        value = empirical_dp(Channel(product, channel.output, channel.rows))
        inputs = {"channel": args.channel, "product_base": args.product_base, "copies": args.copies}

    document = {"measure": kind, "nats": jsonio.encode_extended(value), "inputs": inputs}
    if args.bits:
        document["bits"] = jsonio.encode_extended(_in_bits(value))
    return document, EXIT_OK


def _parse_dp_flag(text: str) -> tuple[float, int]:
    parts = text.split(",")
    _require(len(parts) == 2, f"--dp expects 'epsilon,n', got {text!r}")
    return float(parts[0]), int(parts[1])


def _cmd_compose(args) -> tuple[dict, int]:
    ledger = (
        LeakageLedger.from_json(jsonio.load_path(args.ledger))
        if args.ledger
        else LeakageLedger()
    )
    step = len(ledger)

    def next_label() -> str:
        nonlocal step
        step += 1
        return f"step{step}"

    for text in args.dp or []:
        epsilon, n = _parse_dp_flag(text)
        ledger = ledger.with_entry(LedgerEntry.from_dp(next_label(), epsilon, n))
    for size in args.cardinality or []:
        ledger = ledger.with_entry(LedgerEntry.from_cardinality(next_label(), size))
    for nats in args.maxinfo or []:
        ledger = ledger.with_entry(LedgerEntry.from_maxinfo(next_label(), nats))
    for path in args.channel or []:
        channel = Channel.from_json(jsonio.load_path(path))
        ledger = ledger.with_entry(LedgerEntry.from_channel(next_label(), channel))
    for nats in args.declared or []:
        ledger = ledger.with_entry(LedgerEntry.declared(next_label(), nats))

    document = ledger.to_json()
    document["total_nats"] = ledger.total()
    if args.bits:
        document["total_bits"] = _in_bits(ledger.total())
    return document, EXIT_OK


def _cmd_bound(args) -> tuple[dict, int]:
    theorem = args.theorem

    def need(flag: str, name: str):
        value = getattr(args, flag)
        _require(value is not None, f"bound --theorem {theorem} needs --{name}")
        return value

    if theorem == "adapt":
        report = adaptive_event_bound(need("max_fiber_prob", "max-fiber-prob"), need("leakage", "leakage"))
        document = report.to_json()
    elif theorem == "generr":
        report = gen_error_bound(need("n", "n"), need("eta", "eta"), need("leakage", "leakage"))
        document = report.to_json()
    elif theorem == "generr-c":
        n, eta = need("n", "n"), need("eta", "eta")
        c, leakage = need("sensitivity", "sensitivity"), need("leakage", "leakage")
        document = gen_error_bound_sensitivity(n, eta, c, leakage).to_json()
        document["comparison"] = compare_sensitivity_bounds(n, eta, c, leakage)
    elif theorem == "hyptest":
        leakage = need("leakage", "leakage")
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
    elif theorem == "dwork":
        report = dwork_dp_bound(need("beta", "beta"), need("epsilon", "epsilon"), need("n", "n"))
        document = report.to_json()
    elif theorem == "mi":
        report = mi_gen_bound(need("mutual_info", "mutual-info"), need("n", "n"), need("eta", "eta"))
        document = report.to_json()
    else:  # sample-complexity
        value = sample_complexity(
            need("value", "value"), need("eta", "eta"), need("delta", "delta"), args.mode
        )
        document = {
            "name": "sample-complexity",
            "value": value,
            "inputs": {"value_nats": args.value, "eta": args.eta, "delta": args.delta, "mode": args.mode},
            "trivial": False,
        }
    return document, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    _require(args.seed is not None, "verify needs an explicit --seed")
    _require(args.instances >= 1, "--instances must be >= 1")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    document = run_suites(names, args.instances, args.seed)
    return document, EXIT_OK if document["pass"] else EXIT_CHECK_FAILED


def _cmd_simulate(args) -> tuple[dict, int]:
    payload = jsonio.load_path(args.config)
    if args.kind == "generr":
        config = GenErrConfig.from_json(payload)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        report = run_gen_error_experiment(
            config, trace_path=args.trace, require_exact=args.exact
        )
    else:
        config = HypTestConfig.from_json(payload)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        report = run_hyptest_experiment(config, trace_path=args.trace)
    return report.to_json(), EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="seed for randomized commands")
    common.add_argument("--bits", action="store_true", help="also display leakage totals in bits")
    common.add_argument("--output", default=None, help="also write the JSON report to this path")

    parser = argparse.ArgumentParser(
        prog="leakage-lab",
        description="Information-leakage measures, composition ledgers, and bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    measure = sub.add_parser("measure", parents=[common], help="compute one measure from JSON inputs")
    measure.add_argument("kind", choices=["ml", "cml", "mi", "maxinfo", "approx-maxinfo", "dp"])
    measure.add_argument("--channel", help="channel JSON path (ml, cml, dp)")
    measure.add_argument("--joint", help="joint-distribution JSON path (mi, maxinfo, approx-maxinfo)")
    measure.add_argument("--support", help="ml: comma-separated input labels; cml: JSON path of [x, z] pairs")
    measure.add_argument("--pairs", help="cml: JSON path with one [x, z] pair per channel input")
    measure.add_argument("--beta", type=float, help="budget in (0, 1) for approx-maxinfo")
    measure.add_argument("--product-base", help="dp: comma-separated base labels of the input product")
    measure.add_argument("--copies", type=int, help="dp: number of coordinates in the input product")
    measure.set_defaults(handler=_cmd_measure)

    compose = sub.add_parser("compose", parents=[common], help="extend a leakage ledger and print its total")
    compose.add_argument("--ledger", help="existing ledger JSON path; omitted means empty")
    compose.add_argument("--dp", action="append", metavar="EPS,N", help="add an eps-DP step over n records")
    compose.add_argument("--cardinality", action="append", type=int, metavar="K", help="add a log(K) output-size step")
    compose.add_argument("--maxinfo", action="append", type=float, metavar="NATS", help="add a max-information certificate")
    compose.add_argument("--channel", action="append", metavar="PATH", help="add the exact leakage of a channel JSON")
    compose.add_argument("--declared", action="append", type=float, metavar="NATS", help="add an externally justified bound")
    compose.set_defaults(handler=_cmd_compose)

    bound = sub.add_parser("bound", parents=[common], help="evaluate one closed-form bound")
    bound.add_argument(
        "--theorem",
        required=True,
        choices=["adapt", "generr", "generr-c", "hyptest", "dwork", "mi", "sample-complexity"],
    )
    bound.add_argument("--leakage", type=float, help="leakage budget in nats")
    bound.add_argument("--max-fiber-prob", type=float, help="adapt: worst per-output event mass")
    bound.add_argument("--n", type=int, help="sample size")
    bound.add_argument("--eta", type=float, help="accuracy in (0, 1)")
    bound.add_argument("--sensitivity", type=float, help="generr-c: per-coordinate sensitivity")
    bound.add_argument("--sigma", type=float, help="hyptest: per-test significance level")
    bound.add_argument("--delta", type=float, help="hyptest: target level; sample-complexity: confidence")
    bound.add_argument("--beta", type=float, help="dwork: event-probability parameter")
    bound.add_argument("--epsilon", type=float, help="dwork: DP parameter")
    bound.add_argument("--mutual-info", type=float, help="mi: mutual information in nats")
    bound.add_argument("--value", type=float, help="sample-complexity: leakage or MI in nats")
    bound.add_argument("--mode", choices=["leakage", "mutual-info"], default="leakage")
    bound.set_defaults(handler=_cmd_bound)

    verify = sub.add_parser("verify", parents=[common], help="run randomized property sweeps")
    verify.add_argument("suite", choices=[*SUITES, "all"])
    verify.add_argument("--instances", type=int, default=1000)
    verify.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    verify.set_defaults(handler=_cmd_verify)

    simulate = sub.add_parser("simulate", parents=[common], help="run a Monte Carlo experiment from a config file")
    simulate.add_argument("kind", choices=["generr", "hyptest"])
    simulate.add_argument("--config", required=True, help="experiment config JSON path")
    simulate.add_argument("--trace", default=None, help="write per-trial CSV here")
    simulate.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    simulate.add_argument("--exact", action="store_true", help="generr: fail instead of falling back to the ledger bound")
    simulate.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    for name, value in vars(args).items():
        values = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            print(f"error: --{name.replace('_', '-')} must be finite", file=sys.stderr)
            return EXIT_VALIDATION

    try:
        document, code = args.handler(args)
        text = jsonio.dumps(document)
    except CapExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CAP
    except _INFEASIBLE as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OverflowError as err:
        print(f"error: result too large to represent ({err})", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LeakageLabError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except KeyError as err:
        print(f"error: missing key {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except (OSError, TypeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_VALIDATION

    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
