"""Command-line interface: build PDMs, run noise sweeps, find transitions, self-verify.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 invariant violation in the input data.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .causality import classify
from .errors import InvariantViolation, UsageError
from .schedule import build_pdm
from .serialize import load_json, schedule_from_dict, sweep_config_from_dict
from .sweep import emit_svg, find_transition, rows_to_csv, run_sweep
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


def format_matrix_rows(M: np.ndarray) -> list[str]:
    """One ``  [+re+imj  +re+imj ...]`` line per row, six decimals per part.

    Each row is one ``%`` operation on its interleaved real and imaginary
    parts, which is ~3x faster than formatting entry by entry. The parts are
    turned into Python floats one row at a time, so a call holds no more
    memory than the lines it returns.
    """
    M = np.ascontiguousarray(M, dtype=complex)
    row_fmt = "  [" + "  ".join(["%+.6f%+.6fj"] * M.shape[1]) + "]"
    return [row_fmt % tuple(row.tolist()) for row in M.view(float)]


def _build_report(path: str) -> str:
    R = build_pdm(schedule_from_dict(load_json(path)))
    rep = classify(R)
    lines = [f"events: {R.event_count}", "matrix:", *format_matrix_rows(R.matrix)]
    lines.append("eigenvalues: " + ", ".join(repr(float(x)) for x in rep.eigenvalues))
    lines.append(f"f_tr: {repr(float(rep.f_tr))}")
    lines.append(f"classification: {rep.classification}")
    return "\n".join(lines) + "\n"


def cmd_build(args) -> int:
    report = _build_report(args.schedule)
    sys.stdout.write(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = sweep_config_from_dict(load_json(args.config))
    csv_path = args.csv or cfg.csv_path
    if not csv_path:
        raise UsageError("no CSV output path given (use --csv or the config's 'csv' field)")
    rows = run_sweep(cfg)
    with open(csv_path, "w") as fh:
        fh.write(rows_to_csv(rows))
    svg_path = args.svg or cfg.svg_path
    if svg_path:
        with open(svg_path, "w") as fh:
            fh.write(emit_svg(rows))
    sys.stdout.write(f"wrote {len(rows)} rows to {csv_path}\n")
    return EXIT_OK


def cmd_transition(args) -> int:
    cfg = sweep_config_from_dict(load_json(args.config))
    t = find_transition(cfg)
    sys.stdout.write("none\n" if t is None else f"{repr(float(t))}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_all(seed=args.seed, trials=args.trials)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}: max deviation {r.max_deviation:.3e}"
        if not r.passed and r.detail:
            line += f" ({r.detail})"
        sys.stdout.write(line + "\n")
        ok = ok and r.passed
    sys.stdout.write("all suites passed\n" if ok else "verification FAILED\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pdm", description="Pseudo-density matrix builder and causality-monotone tools"
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build the PDM of a schedule file and classify it")
    b.add_argument("schedule")
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("sweep", help="sweep waiting time and emit CSV (and optional SVG)")
    s.add_argument("config")
    s.add_argument("--csv", default=None)
    s.add_argument("--svg", default=None)
    s.set_defaults(func=cmd_sweep)

    t = sub.add_parser("transition", help="find the first causal/spacelike transition time")
    t.add_argument("config")
    t.set_defaults(func=cmd_transition)

    v = sub.add_parser("verify", help="run the randomized self-verification suites")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=200)
    v.set_defaults(func=cmd_verify)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first ``main`` call and reused by later ones."""
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
