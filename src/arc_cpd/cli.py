"""Command-line front end.

Subcommands: detect (run the detector on a data file), simulate (write a
generated series plus its ground truth), bench (grid experiments and the
phase sweep), tune (tournament level selection only).

Data files are single-column numeric text, one value per line, or
two-column "timestamp,value" CSV whose first column is ignored; blank lines
and lines starting with # are skipped, and the first line that is neither
may be a one-line header. A leading UTF-8 byte-order mark is ignored; a
value that is not finite (nan, inf, or past float max) is an error naming
its line. JSON inputs (a --grid file, a --truth file) may also start with
a byte-order mark, and a malformed one is an error naming the file.
Reports are JSON with a versioned schema; non-finite numbers are serialized
as the strings "inf" / "-inf" / "nan".

Exit codes: 0 success, 2 bad flags or bad input, 3 infeasible window
configuration (the failed feasibility arithmetic is printed).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bench import (
    ExperimentGrid,
    _json_safe,
    preset_table_d1,
    preset_table_sensitivity,
    phase_sweep,
    rows_to_csv,
    rows_to_json,
    run_grid,
)
from .core import (
    ArcCpdError,
    ChangePointSet,
    DetectionConfig,
    InfeasibleWindow,
    TimeSeries,
    _check_int,
    _check_real,
    mad_sigma,
    substream,
)
from .detector import (
    ManualLambda,
    RealDataHeavyTailLambda,
    RealDataLambda,
    SimulationDefaultLambda,
    TheoreticalLambda,
    detect,
    detect_repeated,
)
from .metrics import score
from .rume import auto_delta
from .simgen import PRESET_NAMES, build_preset, generate
from .tune import (
    DEFAULT_GRID_SIZE,
    TournamentConfig,
    TournamentResult,
    default_grid,
    tournament,
)

REPORT_SCHEMA = "arc-cpd/report/v1"
TRUTH_SCHEMA = "arc-cpd/truth/v1"

_POLICIES = {
    "sim": SimulationDefaultLambda,
    "theoretical": TheoreticalLambda,
    "realdata": RealDataLambda,
    "realdata-heavy": RealDataHeavyTailLambda,
}


class _Parser(argparse.ArgumentParser):
    """Single-line diagnostics instead of argparse's usage dump."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def read_series(path: str) -> TimeSeries:
    """Parse a data file; see the module docstring for accepted layouts."""
    values: List[float] = []
    content_lines = 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            content_lines += 1
            fields = line.split(",")
            if len(fields) > 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 1 or 2 columns, "
                    f"got {len(fields)}")
            token = fields[-1].strip()
            try:
                value = float(token)
            except ValueError:
                if content_lines == 1:
                    continue  # the header: first line not blank or comment
                raise ValueError(
                    f"{path}:{lineno}: not a number: {token!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: not finite: {token!r}")
            values.append(value)
    return TimeSeries(np.asarray(values, dtype=np.float64))


def _emit(text: str, out: Optional[str]) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out: Optional[str]) -> None:
    _emit(json.dumps(_json_safe(payload), indent=2, sort_keys=True,
                     allow_nan=False) + "\n", out)


def _parse_range(raw: str) -> Tuple[int, int]:
    try:
        a, b = raw.split(":")
        return int(a), int(b)
    except ValueError:
        raise ValueError(
            f"range must look like A:B with integers, got {raw!r}") from None


def _parse_sigma(raw: str) -> Optional[float]:
    return None if raw == "auto" else _check_real("sigma", float(raw))


def _parse_delta(raw: str):
    return raw if raw == "auto" else float(raw)


def _read_json(path: str):
    """The JSON document in a file, after any byte-order mark; a malformed
    document raises ValueError naming the file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}: {err}") from None


def _load_truth(path: str, n: int) -> ChangePointSet:
    data = _read_json(path)
    if isinstance(data, dict):
        locs = data.get("truth_F", data.get("change_points"))
        if locs is None:
            raise ValueError(f"{path}: no truth_F or change_points field")
    else:
        locs = data
    # JSON integers only, refused with the file name
    if not isinstance(locs, list) or any(type(x) is not int for x in locs):
        raise ValueError(f"{path}: change points must be a list of JSON "
                         f"integers, not {locs!r}")
    return ChangePointSet(tuple(locs), n)


def _sigma(args, series: TimeSeries) -> float:
    """--sigma, or the MAD estimate of series when it is unset or 'auto'."""
    return args.sigma if args.sigma is not None else mad_sigma(series)


def _tune(series: TimeSeries, args, sigma: float,
          grid: Tuple[float, ...]) -> TournamentResult:
    """The tournament over grid on the --train-range slice, drawing from
    stream 0 of --seed. The detection half-width is --h, or half the
    training range (at least 2); delta is --delta, or 1/n when it is unset
    or 'auto'."""
    tc = TournamentConfig(grid=grid,
                          training_range=_parse_range(args.train_range),
                          sigma=sigma)
    a, b = tc.training_range
    h = args.h if args.h is not None else max((b - a) // 2, 2)
    delta = 1.0 / series.n if args.delta in (None, "auto") else args.delta
    return tournament(series, tc, detection_h=h, delta=delta,
                      rng=substream(args.seed, 0))


def cmd_detect(args) -> int:
    _check_int("--runs", args.runs, 1)
    if args.dump_curve and args.runs > 1:
        raise ValueError("--dump-curve needs --runs 1")
    series = read_series(args.input)
    n = series.n
    h = args.h
    radius = (2 * h if args.profile == "realdata"
              and args.maximizer_radius is None else args.maximizer_radius)
    policy_name = ("manual" if args.lambda_value is not None
                   else args.lambda_policy or args.profile or "sim")
    policy = (ManualLambda(args.lambda_value) if policy_name == "manual"
              else _POLICIES[policy_name]())
    # a manual threshold reads no scale: estimate one only for another
    # policy or the tournament
    sigma_value = (_sigma(args, series)
                   if policy_name != "manual" or args.auto_epsilon
                   else args.sigma)

    epsilon = args.epsilon
    seed = args.seed
    tuning = None
    if args.auto_epsilon:
        result = _tune(series, args, sigma_value, default_grid())
        epsilon = result.epsilon_selected
        tuning = {"epsilon_selected": epsilon,
                  "tournament_scores": list(result.scores)}
        seed = substream(seed, 1).child_seed()

    delta = auto_delta(n, h, epsilon) if args.delta == "auto" else args.delta

    config = DetectionConfig(h=h, epsilon=epsilon, lambda_policy=policy,
                             delta=delta, sigma=sigma_value,
                             maximizer_radius=radius, seed=seed)

    if args.runs > 1:
        agg = detect_repeated(series, config, args.runs)
        reports, estimated = agg.per_run, agg.consensus_locations
        result = {"modal_k": agg.modal_k,
                  "khat_histogram": {str(k): v for k, v
                                     in agg.khat_histogram.items()}}
    else:
        reports = (detect(series, config),)
        estimated, result = reports[0].estimated, {}
    result.update(k_hat=estimated.k, change_points=list(estimated.locations))
    report = reports[0]

    if args.dump_curve:
        lines = ["index,value"]
        lines += [f"{j},{format(v, '.17g')}"
                  for j, v in sorted(report.scan_curve.items())]
        _emit("\n".join(lines) + "\n", args.dump_curve)

    payload = {
        "schema": REPORT_SCHEMA,
        "input": args.input,
        "n": n,
        "config": {
            "h": h,
            "epsilon": epsilon,
            "delta": delta if delta is not None else 1.0 / n,
            "lambda": report.lambda_used,
            "sigma": sigma_value,
            "policy": policy_name,
            "maximizer_radius": radius if radius is not None else 4 * h,
            "seed": args.seed,
            "runs": args.runs,
        },
        "result": result,
        "diagnostics": {
            "degenerate_windows": sum(r.degenerate_windows
                                      for r in reports),
            "epsilon_effective": report.epsilon_effective,
        },
    }
    if tuning is not None:
        payload["tuning"] = tuning
    if args.truth:
        truth = _load_truth(args.truth, n)
        m = score(estimated, truth)
        payload["metrics"] = {
            "hausdorff": m.hausdorff,
            "scaled_hausdorff": m.scaled_hausdorff,
            "count_error": m.count_error,
            "covering": m.covering,
        }
    _emit_json(payload, args.out)
    return 0


def cmd_simulate(args) -> int:
    base = None
    if args.input is not None:
        base = read_series(args.input).values
    spec = build_preset(args.preset, n=args.n, epsilon=args.epsilon,
                        delta_blocks=args.delta_blocks, kappa=args.kappa,
                        sigma=args.sigma_value, seed=args.seed, base=base)
    ls = generate(spec)
    values = ls.series.values
    data_path = args.out + ".csv"
    _emit("\n".join(format(v, ".17g") for v in values) + "\n", data_path)
    mask = ls.contaminated_mask
    truth_path = args.out + ".truth.json"
    payload = {
        "schema": TRUTH_SCHEMA,
        "preset": args.preset,
        "n": spec.n,
        "seed": spec.seed,
        "params": {k: v for k, v in spec.variant.__dict__.items()
                   if k != "base"},
        "truth_F": list(ls.truth_f.locations),
        "truth_EY": list(ls.truth_ey.locations),
        "mask": {
            "count": int(mask.sum()),
            "fraction": float(mask.mean()),
        },
    }
    _emit_json(payload, truth_path)
    print(f"wrote {data_path} and {truth_path}")
    return 0


def _tuples(x):
    """x with every JSON list, nested ones too, as a tuple."""
    return tuple(_tuples(v) for v in x) if isinstance(x, list) else x


def _grid_from_json(path: str) -> ExperimentGrid:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: grid description must be a JSON object")
    unknown = set(raw) - {f.name for f in dataclasses.fields(ExperimentGrid)}
    if unknown:
        raise ValueError(f"{path}: unknown grid keys {sorted(unknown)}")
    return ExperimentGrid(**{k: _tuples(v) for k, v in raw.items()})


def cmd_bench(args) -> int:
    if args.grid:
        grids = [_grid_from_json(args.grid)]
    elif args.paper_table == "d1":
        grids = [preset_table_d1(reps=args.reps, master_seed=args.seed)]
    elif args.paper_table == "d2-sens":
        grids = list(preset_table_sensitivity(reps=args.reps,
                                             master_seed=args.seed))
    else:  # phase
        kappas = tuple(0.316 * m for m in
                       (0.2, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0))
        points = phase_sweep(n=5000, L=1250, epsilon=0.1, kappa_grid=kappas,
                             reps=args.reps, master_seed=args.seed,
                             threads=args.threads)
        lines = ["kappa_over_sigma,success_rate"]
        lines += [f"{format(k, '.6g')},{format(r, '.6g')}"
                  for k, r in points]
        _emit("\n".join(lines) + "\n", args.out)
        return 0

    rows = []
    for grid in grids:
        rows.extend(run_grid(grid, threads=args.threads))
    _emit(rows_to_csv(rows), args.out)
    if args.json_out:
        _emit(rows_to_json(rows) + "\n", args.json_out)
    return 0


def cmd_tune(args) -> int:
    series = read_series(args.input)
    sigma = _sigma(args, series)
    result = _tune(series, args, sigma, default_grid(args.grid_size))
    _emit_json({
        "schema": REPORT_SCHEMA,
        "input": args.input,
        "epsilon_selected": result.epsilon_selected,
        "tournament_scores": list(result.scores),
    }, args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="arc-cpd",
                     description="Robust change point detection under "
                                 "adversarial contamination.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run the detector on a data file")
    p.add_argument("--input", required=True)
    p.add_argument("--h", type=int, required=True,
                   help="window half-width; each scan window holds 2h points")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--epsilon", type=float,
                       help="known contamination level")
    group.add_argument("--auto-epsilon", action="store_true",
                       help="select the level by tournament on the "
                            "training range")
    p.add_argument("--train-range", default="0:300",
                   help="half-open 0-based slice A:B used by --auto-epsilon")
    p.add_argument("--delta", type=_parse_delta, default=None,
                   help="failure budget; a float, or 'auto' to inflate it "
                        "just enough for feasibility (default 1/n)")
    p.add_argument("--lambda", dest="lambda_value", type=float, default=None,
                   help="fixed detection threshold")
    p.add_argument("--lambda-policy", choices=sorted(_POLICIES),
                   default=None, help="threshold rule (default sim)")
    p.add_argument("--sigma", type=_parse_sigma, default=None,
                   help="noise scale, or 'auto' for the MAD estimate "
                        "(the default)")
    p.add_argument("--maximizer-radius", type=int, default=None,
                   help="neighborhood radius for local maximizers "
                        "(default 4h)")
    p.add_argument("--profile", choices=("realdata",), default=None,
                   help="realdata: radius 2h and the realdata threshold "
                        "rule unless overridden")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--runs", type=int, default=1,
                   help="repeat detection with fresh streams and report "
                        "the modal outcome")
    p.add_argument("--truth", default=None,
                   help="truth JSON to score against")
    p.add_argument("--dump-curve", default=None,
                   help="write the scan statistic as CSV (runs=1 only)")
    p.add_argument("--out", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="write a generated series + truth")
    p.add_argument("--preset", required=True, choices=PRESET_NAMES)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--delta-blocks", type=int, default=None,
                   help="number of equal spans in the block variants")
    p.add_argument("--kappa", type=float, default=None)
    p.add_argument("--sigma", dest="sigma_value", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", default=None,
                   help="base data file (corrupt-beijing only)")
    p.add_argument("--out", required=True,
                   help="prefix; writes PREFIX.csv and PREFIX.truth.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="grid experiments and sweeps")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--grid", default=None,
                       help="JSON grid description file")
    group.add_argument("--paper-table", choices=("d1", "d2-sens", "phase"),
                       default=None)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="worker process cap (default 1); results do not "
                        "depend on it")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.add_argument("--json-out", default=None,
                   help="also write the full JSON mirror here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("tune", help="tournament level selection only")
    p.add_argument("--input", required=True)
    p.add_argument("--train-range", required=True,
                   help="half-open 0-based slice A:B")
    p.add_argument("--sigma", type=_parse_sigma, default=None,
                   help="noise scale, or 'auto' for the MAD estimate "
                        "(the default)")
    p.add_argument("--grid-size", type=int, default=DEFAULT_GRID_SIZE)
    p.add_argument("--h", type=int, default=None,
                   help="intended detection half-width for the feasibility "
                        "gate (default: training half-width)")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tune)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit:
        raise
    except InfeasibleWindow as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ArcCpdError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
