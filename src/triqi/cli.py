"""Command-line surface: state inspection, bound reports, trace audits,
parameter sweeps and built-in reproductions.

Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 regime violation
under --strict.
"""

from __future__ import annotations

import argparse
import errno
import os
import stat
import sys
import warnings
from pathlib import Path

from . import __version__
from .bounds import evaluate_point
from .errors import RegimeWarning, ResourceError, TriqiError
from .overlap_audit import audit_overlap
from .presets import REPRODUCTIONS, golden_sweep_spec
from .states import ProtocolParams, evolve_exact, thermal_tail_mass, triplet_amplitudes
from .sweep import SweepSpec, render, run_sweep
from .textfmt import format_csv, format_record

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_REGIME = 3


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_point_options(p: argparse.ArgumentParser) -> None:
    """Options that fix the signal and background modes."""
    p.add_argument("--theta", type=float, default=0.1, help="interaction strength g*t")
    p.add_argument("--nbar2", type=float, default=3.0, help="background mean photons, signal mode 1")
    p.add_argument("--nbar3", type=float, default=3.0, help="background mean photons, signal mode 2")
    p.add_argument("--cutoff", type=int, default=0,
                   help="signal-mode Fock cutoff (0 = auto-select from the tail bound)")
    p.add_argument("--background", choices=["thermal", "flat"], default="thermal")
    p.add_argument("--tail-bound", type=float, default=None,
                   help="maximum tolerated thermal truncation tail mass")
    p.add_argument("--out", type=str, default=None, help="output file (default: stdout)")


def _add_pair_options(p: argparse.ArgumentParser) -> None:
    """Point options plus those that fix the hypothesis pair and the report."""
    _add_point_options(p)
    p.add_argument("--eta", type=float, default=0.05, help="target reflectivity")
    p.add_argument("--idler", choices=["paper-pure", "traced"], default="paper-pure")
    p.add_argument("--strict", action="store_true",
                   help="treat regime violations as errors (exit code 3)")
    p.add_argument("--format", choices=["csv", "text"], default="text")


def _params_from_args(args, eta: float = 0.0, idler: str = "paper-pure") -> ProtocolParams:
    """The point's parameters; ``state`` reads only the space, which eta and
    the idler leave alone, so it takes the defaults."""
    kwargs = dict(theta=args.theta, eta=eta, nbar2=args.nbar2, nbar3=args.nbar3,
                  background=args.background, idler=idler.replace("-", "_"))
    if args.cutoff:
        kwargs["cutoffs"] = (2, args.cutoff, args.cutoff)
    if args.tail_bound is not None:
        kwargs["tail_bound"] = args.tail_bound
    return ProtocolParams(**kwargs)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit_record(record: dict, args) -> None:
    if args.format == "csv":
        text = format_csv(list(record), [list(record.values())])
    else:
        text = format_record(record)
    _write_output(text, args.out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_state(args) -> int:
    params = _params_from_args(args)
    space = params.space()
    lines = [f"space cutoffs = {space.cutoffs} (dim {space.total_dim})"]
    lines.append("closed-form state amplitudes:")
    for n, amp in enumerate(triplet_amplitudes(params.theta)):
        if amp != 0:
            lines.append(f"  |{n}{n}{n}> : {amp:.12g}")
    ev = evolve_exact(params.theta, args.chain_cutoff)
    lines.append(f"chain evolution (cutoff {args.chain_cutoff}):")
    for n, amp in enumerate(ev.chain_amplitudes):
        if abs(amp) > 1e-14:
            lines.append(f"  |{n}{n}{n}> : {amp:.12g}")
    lines.append(f"chain leakage = {ev.leakage:.6g}")
    lines.append(f"deviation on support = {ev.support_deviation():.6g}")
    lines.append(f"deviation full chain = {ev.full_deviation():.6g}")
    for mode in range(3):
        lines.append(f"mean photons mode {mode} = {ev.mean_photons:.12g}")
    for label, nbar, cutoff in (("mode1", params.nbar2, space.cutoffs[1]),
                                ("mode2", params.nbar3, space.cutoffs[2])):
        if params.background == "thermal":
            lines.append(f"thermal tail {label} (nbar={nbar}, cutoff={cutoff}) = "
                         f"{thermal_tail_mass(nbar, cutoff):.6g}")
    _write_output("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _cmd_chernoff(args) -> int:
    params = _params_from_args(args, args.eta, args.idler)
    report = evaluate_point(params, m_shots=args.M, tol=args.tol)
    _emit_record(report.as_record(), args)
    return EXIT_OK


def _cmd_audit(args) -> int:
    params = _params_from_args(args, args.eta, args.idler)
    audit = audit_overlap(params, fit_gap=args.fit_gap)
    _emit_record(audit.as_record(), args)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = golden_sweep_spec() if args.config == "golden" else SweepSpec.from_file(args.config)
    table = run_sweep(spec)
    _write_output(render(table, args.format or spec.fmt), args.out)
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    table = REPRODUCTIONS[args.preset]()
    _write_output(render(table, args.format), args.out)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="triqi",
                     description="Error-bound analysis for three-photon entangled-state "
                                 "illumination in thermal backgrounds")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_state = sub.add_parser("state",
                             help="build and inspect the signal states")
    _add_point_options(p_state)
    p_state.add_argument("--chain-cutoff", type=int, default=16)
    p_state.set_defaults(func=_cmd_state)

    p_chernoff = sub.add_parser("chernoff",
                                help="full bound report for one parameter point")
    _add_pair_options(p_chernoff)
    p_chernoff.add_argument("--tol", type=float, default=1e-6, help="minimizer tolerance on s")
    p_chernoff.add_argument("--M", type=int, default=1, help="shot count for the M-copy bounds")
    p_chernoff.set_defaults(func=_cmd_chernoff)

    p_audit = sub.add_parser("appendix-audit",
                             help="three-way trace audit at one parameter point")
    _add_pair_options(p_audit)
    p_audit.add_argument("--fit-gap", action="store_true",
                         help="fit the leading eta-order of the principal-vs-signed gap")
    p_audit.set_defaults(func=_cmd_audit)

    p_sweep = sub.add_parser("sweep",
                             help="run a parameter sweep from a config file")
    p_sweep.add_argument("--config", required=True,
                         help="sweep config path, or the built-in name 'golden'")
    p_sweep.add_argument("--out", type=str, default=None)
    p_sweep.add_argument("--format", choices=["csv", "text"], default=None)
    p_sweep.add_argument("--strict", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_rep = sub.add_parser("reproduce",
                           help="run a built-in reproduction preset")
    p_rep.add_argument("preset", choices=sorted(REPRODUCTIONS))
    p_rep.add_argument("--out", type=str, default=None)
    p_rep.add_argument("--format", choices=["csv", "text"], default="csv")
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def _check_out(out: str) -> None:
    """Raise what ``open(out, "w")`` would raise when a directory on the path
    is missing or is a file, or ``out`` is a directory, so that such a write
    fails before anything is evaluated."""
    try:
        parent = os.stat(Path(out).parent).st_mode
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out) from None
    if not stat.S_ISDIR(parent):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), out)
    if Path(out).is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if args.out is not None:
                _check_out(args.out)
            code = args.func(args)
        except (TriqiError, MemoryError) as exc:
            if isinstance(exc, MemoryError):
                exc = ResourceError(f"out of memory: {exc}")
            sys.stderr.write(f"numeric failure: {exc}\n")
            return EXIT_NUMERIC
        except OSError as exc:
            sys.stderr.write(f"i/o failure: {exc}\n")
            return EXIT_NUMERIC
        except ValueError as exc:
            sys.stderr.write(f"invalid arguments: {exc}\n")
            return EXIT_USAGE
    regime = [w for w in caught if issubclass(w.category, RegimeWarning)]
    if regime and getattr(args, "strict", False):
        for w in regime:
            sys.stderr.write(f"regime violation: {w.message}\n")
        return EXIT_REGIME
    for w in regime:
        sys.stderr.write(f"warning: {w.message}\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
