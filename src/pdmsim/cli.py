"""Command-line interface: build PDMs, run noise sweeps, find transitions, self-verify.

Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 invariant violation in the input data.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import stat
import sys

import numpy as np

from .causality import classify
from .errors import InvariantViolation, UsageError
from .linalg import chunk_slices
from .schedule import build_pdm
from .serialize import load_json, schedule_from_dict, sweep_config_from_dict
from .sweep import emit_svg, find_transition, rows_to_csv, run_sweep
from .verify import run_all

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3


#: The six decimals of a part as two lookups whose sum is its token's
#: ``d.dddddd`` read as a little-endian integer: _HIGH[k] holds "0." and the
#: three digits of k (adding the integer digit to its "0"), _LOW[k] the three
#: digits of k in the last three bytes. 8,000 bytes each, read-only as views
#: of immutable bytes. They are built from Python bytes, and the formatter
#: uses float arithmetic, because numpy's integer kernels, first run by the
#: process, each added ~64 KB to its resident size.
_HIGH = np.frombuffer(b"".join([b"0.%03d\0\0\0" % k for k in range(1000)]), "<u8")
_LOW = np.frombuffer(b"".join([b"\0\0\0\0\0%03d" % k for k in range(1000)]), "<u8")
#: One part's 9-byte token ``+d.dddddd``: the sign, then ``d.dddddd`` read as a
#: little-endian integer; or all of it as ``text``.
_TOKEN = np.dtype({"names": ["sign", "digits", "text"], "formats": ["u1", "<u8", "S9"], "offsets": [0, 1, 0]})
#: Bytes of report text ``format_matrix_rows`` writes per pass, so that a
#: pass's temporaries stay in cache: one pass over a 512x512 matrix took
#: ~50 ms against ~20 ms in passes of this size (2-vCPU x86-64 host).
_FORMAT_CHUNK_BYTES = 2**18


def format_matrix_rows(M: np.ndarray) -> list[str]:
    """One ``  [+re+imj  +re+imj ...]`` line per row, six decimals per part.

    Each part is written as ``%+.6f`` writes it: rounded half to even from its
    binary value, with the sign of the value (``-0.000000`` for -0.0 and for
    small negatives). Rows are written in passes of ``_FORMAT_CHUNK_BYTES``
    of text. A pass takes q = rint(|x| * 1e6) of every part and lays the sign
    and the digits of q into a copy of the row text as fixed 9-byte tokens.
    The computed |x| * 1e6 is the exact product rounded to the nearest
    double, so q is the rounding ``%`` makes unless the computed product is a
    half, k + 0.5; only such a tie is formatted as a Python float, by
    ``%+.6f`` into its token. A row holding a part of size 9.5 or more, a NaN
    or an inf is written again by one ``%`` operation on its interleaved real
    and imaginary parts.
    """
    M = np.ascontiguousarray(M, dtype=complex)
    template = "  [" + "  ".join(["+0.000000+0.000000j"] * M.shape[1]) + "]"
    width = len(template)
    lines, exact = [], np.empty(len(M), dtype=bool)
    for rows in chunk_slices(len(M), width, _FORMAT_CHUNK_BYTES):
        text, exact[rows] = _token_rows(M[rows], template)
        lines += [text[i : i + width] for i in range(0, len(text), width)]
    if not exact.all():
        row_fmt = "  [" + "  ".join(["%+.6f%+.6fj"] * M.shape[1]) + "]"
        for i in np.flatnonzero(~exact):
            lines[i] = row_fmt % tuple(M[i].view(float).tolist())
    return lines


def _token_rows(M: np.ndarray, template: str) -> tuple[str, np.ndarray]:
    """M's rows written as tokens into copies of ``template``, and which of them are exact.

    Each temporary is dropped once used, which keeps the memory a pass holds
    at a few arrays of the size of its part array.
    """
    rows, cols = M.shape
    parts = M.view(float).reshape(rows, cols, 2)
    raw = bytearray(template, "ascii") * rows
    # Part k of entry j of row i starts at byte 3 + i * width + 21 j + 9 k.
    tokens = np.ndarray((rows, cols, 2), _TOKEN, buffer=raw, offset=3, strides=(len(template), 21, 9))
    # The template's signs are all "+".
    tokens["sign"][np.signbit(parts)] = ord("-")
    scaled = np.abs(parts)
    # Below 9.5 a part rounds to one integer digit; NaN and inf fail here.
    small = scaled < 9.5
    scaled = np.where(small, scaled, 0.0)
    scaled *= 1e6
    millionths = np.rint(scaled)
    # scaled is the exact product |x| * 1e6 rounded to the nearest double, so
    # a half that scaled is not equal to lies on the same side of both: rint
    # rounds as % rounds the product unless scaled is a half itself.
    scaled -= millionths
    tie = np.abs(scaled, out=scaled) == 0.5
    del scaled
    # floor(q / 1000) for an integer q below 2**24 is rint((q - 499.5) * 1e-3):
    # the product lies within 0.4995 + 1e-12 of the quotient's integer part.
    thousands = np.rint((millionths - 499.5) * 1e-3)
    millionths -= 1000 * thousands  # decimals 4-6
    whole = np.rint((thousands - 499.5) * 1e-3)
    thousands -= 1000 * whole  # decimals 1-3
    digits = _HIGH[thousands.astype(np.intp)]
    digits += _LOW[millionths.astype(np.intp)]
    digits += whole.astype(np.intp).view(np.uint64)
    del millionths, thousands, whole
    tokens["digits"] = digits
    # A tie is written by %, which gives it 9 bytes like every small part.
    tokens["text"][tie] = [b"%+.6f" % v for v in parts[tie].tolist()]
    return raw.decode("ascii"), small.reshape(rows, 2 * cols).all(axis=1)


def _build_report(path: str) -> str:
    R = build_pdm(schedule_from_dict(load_json(path)))
    rep = classify(R)
    lines = [f"events: {R.event_count}", "matrix:", *format_matrix_rows(R.matrix)]
    lines.append("eigenvalues: " + ", ".join(repr(float(x)) for x in rep.eigenvalues))
    lines.append(f"f_tr: {repr(float(rep.f_tr))}")
    lines.append(f"classification: {rep.classification}")
    return "\n".join(lines) + "\n"


def _write_texts(texts: list[tuple[str, str]]) -> None:
    """Write each ``(path, text)`` pair's text to its file: all of them, or none that this call made.

    Every file is opened before any is written, for appending, which creates
    a file without emptying one that exists; a file is emptied only when all
    are open, and only when no two paths name the same regular file (one
    text would overwrite the other). When one cannot be opened or written, or
    two name one file, every file is closed and the ones this call created
    are removed. The failure is a ``UsageError``, as a failed read is in
    ``load_json``.
    """
    opened = []
    try:
        for path, _ in texts:
            new = not os.path.lexists(path)
            opened.append((open(path, "a"), path, new))
        seen = {}
        for fh, path, _ in opened:
            st = os.fstat(fh.fileno())
            key = (st.st_dev, st.st_ino)
            if stat.S_ISREG(st.st_mode) and key in seen:
                raise UsageError(f"{seen[key]} and {path} name the same file")
            seen[key] = path
        for (fh, path, _), (_, text) in zip(opened, texts):
            with fh:
                if fh.seekable():
                    fh.truncate(0)
                fh.write(text)
    except (OSError, UsageError) as exc:
        for fh, made, new in opened:
            with contextlib.suppress(OSError):
                fh.close()
            if new:
                with contextlib.suppress(OSError):
                    os.remove(made)
        if isinstance(exc, UsageError):
            raise
        raise UsageError(f"cannot write {path}: {exc}") from None


def cmd_build(args) -> int:
    report = _build_report(args.schedule)
    sys.stdout.write(report)
    if args.out:
        _write_texts([(args.out, report)])
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = sweep_config_from_dict(load_json(args.config))
    csv_path = args.csv or cfg.csv_path
    if not csv_path:
        raise UsageError("no CSV output path given (use --csv or the config's 'csv' field)")
    sweep = run_sweep(cfg)
    texts = [(csv_path, rows_to_csv(sweep))]
    svg_path = args.svg or cfg.svg_path
    if svg_path:
        texts.append((svg_path, emit_svg(sweep)))
    _write_texts(texts)
    sys.stdout.write(f"wrote {len(sweep.t)} rows to {csv_path}\n")
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
