"""Command-line interface.

Subcommands expose each stage of the pipeline (preprocess, phantom,
cluster, match, froc, kappa, dice, wilcoxon, px2, evaluate, losscheck).
Global flags come before the subcommand:

    lesionkit [--config FILE] [--seed N] [--strict] CMD ...

--config points at a JSON file with optional "phantom" and "evaluation"
sections whose keys override the corresponding config defaults; explicit
command-line flags win over the file.  --seed overrides the phantom and
bootstrap seeds.  --strict escalates degenerate-statistics warnings to
exit code 4.

Exit codes: 0 success; 2 configuration error; 3 data error; 4 degenerate
statistics under --strict.  `main` alone maps failures to codes: a
ConfigError (bad flags, config file or config values, all checked before
any input is read) exits 2, and any OSError or ValueError raised while a
command runs exits 3.  Code 3 thus covers missing, unreadable or malformed
inputs, grid mismatches, empty strata and an unwritable --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from .cluster import cs_lesion_maps, filter_by_volume, gs_lesion_maps
from .evaluation import (
    POINT_COLUMNS,
    EvaluationConfig,
    _cluster_summary,
    _confusion_dict,
    _write_froc_csv,
    cohort_dirs,
    evaluate_points,
    load_cohort,
    read_csv,
    read_detections_csv,
    read_points_csv,
    run_full_evaluation,
)
from .grades import parse_grade
from .matching import match_detections
from .metrics import (
    WILCOXON_EXACT_MAX_N,
    bootstrap_kappa,
    confusion_matrix,
    dice_coefficient,
    froc_from_matches,
    sensitivity_at_fp,
    wilcoxon_one_sided,
)
from .netmath import (
    AttentionMap,
    ClassWeights,
    FeatureStack,
    attention_gate_backward,
    attention_gate_forward,
    branch_loss_gradient,
    weighted_ce_loss,
    weighted_dice_loss,
)
from .phantom import PhantomConfig, PlacementError, write_cohort
from .volume import (
    _check_spacing,
    json_chunks,
    preprocess,
    read_json,
    read_prob_stack,
    read_volume,
    write_csv,
    write_json,
    write_volume,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DEGENERATE = 4


class ConfigError(Exception):
    pass


def _emit(payload) -> None:
    sys.stdout.writelines(json_chunks(payload))
    sys.stdout.write("\n")


def _load_config_file(path):
    if path is None:
        return {}
    try:
        cfg = read_json(path)
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(cfg) - {"phantom", "evaluation"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, section in cfg.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be a JSON object")
    return cfg


def _build_dataclass(cls, section: dict, overrides: dict):
    specs = {f.name: f.metadata["spec"] for f in dataclasses.fields(cls)}
    unknown = set(section) - set(specs)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    try:
        for key, value in section.items():  # a key that a flag replaces is checked too
            specs[key].conform(key, value)
        return cls(**section | overrides)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


# ---------------------------------------------------------------------------
# Subcommands


def cmd_preprocess(args, file_cfg) -> int:
    try:
        spacing = _check_spacing(args.spacing, "--spacing")
    except ValueError as e:
        raise ConfigError(str(e)) from e
    if min(args.crop) < 1:
        raise ConfigError(f"--crop must be two positive integers, got {args.crop}")
    v = read_volume(args.input)
    out = preprocess(
        v,
        target_spacing=spacing,
        crop=tuple(args.crop),
        per_slice_norm=args.per_slice,
    )
    write_volume(out, args.output)
    _emit({"input_dims": list(v.dims), "output_dims": list(out.dims),
           "output": str(args.output)})
    return EXIT_OK


def cmd_phantom(args, file_cfg) -> int:
    section = file_cfg.get("phantom", {})
    overrides = {} if args.seed is None else {"seed": args.seed}
    if args.n_patients is not None:
        overrides["n_patients"] = args.n_patients
        if "n_folds" not in section:  # default folds cannot exceed patients
            overrides["n_folds"] = min(PhantomConfig.n_folds, args.n_patients)
    cfg = _build_dataclass(PhantomConfig, section, overrides)
    try:
        ledger = write_cohort(cfg, args.out)
    except PlacementError as e:
        raise ConfigError(str(e)) from e
    n_lesions = sum(len(p.lesions) for p in ledger.patients)
    n_fps = sum(len(p.fps) for p in ledger.patients)
    _emit({
        "out": str(args.out),
        "n_patients": ledger.n_patients,
        "n_lesions": n_lesions,
        "n_fp_blobs": n_fps,
        "seed": cfg.seed,
    })
    return EXIT_OK


def cmd_cluster(args, file_cfg) -> int:
    cfg = _eval_config(args, file_cfg)
    labels = read_volume(args.labels)
    probs = read_prob_stack(args.probs) if args.probs else None
    build = cs_lesion_maps if args.mode == "cs" else gs_lesion_maps
    m = filter_by_volume(build(labels, probs, cfg.connectivity), cfg.min_volume_mm3)
    payload = {"mode": args.mode, "n_clusters": len(m), "clusters": _cluster_summary(m)}
    if args.out:
        write_json(args.out, payload)
    _emit(payload)
    return EXIT_OK


def cmd_match(args, file_cfg) -> int:
    cfg = _eval_config(args, file_cfg)
    gt_labels = read_volume(args.gt)
    pred_labels = read_volume(args.pred)
    probs = read_prob_stack(args.pred_probs) if args.pred_probs else None
    build = cs_lesion_maps if args.mode == "cs" else gs_lesion_maps
    gt = filter_by_volume(build(gt_labels, None, cfg.connectivity), cfg.min_volume_mm3)
    pred = filter_by_volume(build(pred_labels, probs, cfg.connectivity), cfg.min_volume_mm3)
    result = match_detections(
        pred, gt, overlap_frac=cfg.overlap_frac, denom=cfg.overlap_denom,
        strict_duplicates=cfg.strict_duplicates,
    )
    _emit({
        "mode": args.mode,
        "n_gt": result.n_gt,
        "tp": len(result.tp),
        "fp": len(result.fp),
        "fn": len(result.fn),
        "duplicates": len(result.duplicates),
        "sensitivity": result.sensitivity,
        "matches": [
            {
                "gt_grade": t.gt.grade_name,
                "pred_grade": t.pred.grade_name,
                "score": t.pred.score,
                "dice": t.dice,
                "overlap": t.overlap,
            }
            for t in result.tp
        ],
    })
    return EXIT_OK


def _eval_config(args, file_cfg, **base) -> EvaluationConfig:
    """The file's "evaluation" section, overridden by base, then by each
    flag set on the command line: the field a flag sets is its dest, and
    --seed sets bootstrap_seed."""
    fields = {f.name for f in dataclasses.fields(EvaluationConfig)}
    flags = {k: v for k, v in vars(args).items() if k in fields and v is not None}
    if flags.get("zone") == "none":  # set, so it wins over the file's zone
        flags["zone"] = None
    if args.seed is not None:
        flags["bootstrap_seed"] = args.seed
    return _build_dataclass(EvaluationConfig, file_cfg.get("evaluation", {}), base | flags)


def _cohort_config(args, file_cfg) -> EvaluationConfig:
    """_eval_config of a command that reads a cohort directory layout: the
    directory flags override --cohort's layout, which overrides the file."""
    cfg = _eval_config(args, file_cfg, **(cohort_dirs(args.cohort) if args.cohort else {}))
    if cfg.fold_manifest is None or cfg.gt_dir is None or cfg.pred_dir is None:
        raise ConfigError(f"{args.command} needs --cohort or --gt-dir/--pred-dir/--manifest")
    return cfg


def cmd_froc(args, file_cfg) -> int:
    from .evaluation import stage_cohort

    try:
        grade = None if args.grade is None else parse_grade(args.grade)
    except ValueError as e:
        raise ConfigError(f"--grade: {e}") from e
    cfg = _cohort_config(args, file_cfg)
    stages = stage_cohort(load_cohort(cfg), cfg)
    matches = [s.cs_match if grade is None else s.grade_matches[grade] for s in stages]
    curve = froc_from_matches(matches, len(stages))
    if args.out:
        _write_froc_csv(args.out, curve)
    _emit({
        "stratum": "CS" if grade is None else grade.display,
        "n_patients": curve.n_patients,
        "n_gt_lesions": curve.n_gt_lesions,
        "sensitivity_at_fp": {
            str(t): sensitivity_at_fp(curve, t) for t in cfg.fp_targets
        },
        "out": args.out,
    })
    return EXIT_OK


def cmd_kappa(args, file_cfg) -> int:
    cfg = _eval_config(args, file_cfg)
    records = read_detections_csv(args.detections)
    cm = confusion_matrix(records, include_fn_as_gs6=args.include_fn)
    if cm.total == 0:
        raise ValueError(f"{args.detections}: no gradable records "
                         "(all lesions missed in TP-only mode)")
    both = bootstrap_kappa(
        records, n_iter=cfg.bootstrap_iterations, seed=cfg.bootstrap_seed,
        resample=cfg.bootstrap_resample,
    )
    result = both.with_fn if args.include_fn else both.tp_only
    _emit(_confusion_dict(cm, result))
    if result.degenerate and args.strict:
        print("warning: kappa is degenerate (expected disagreement is zero)",
              file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_dice(args, file_cfg) -> int:
    _emit({"dice": dice_coefficient(read_volume(args.a), read_volume(args.b))})
    return EXIT_OK


def cmd_wilcoxon(args, file_cfg) -> int:
    xs, ys = zip(*read_csv(
        args.csv, (args.x, args.y), lambda row: (float(row[args.x]), float(row[args.y]))
    ))
    p = wilcoxon_one_sided(xs, ys)
    n_nonzero = int(sum(1 for a, b in zip(xs, ys) if a != b))
    _emit({
        "n_pairs": len(xs),
        "n_nonzero_diffs": n_nonzero,
        "alternative": f"{args.x} > {args.y}",
        "p_value": p,
        "mode": "exact" if n_nonzero <= WILCOXON_EXACT_MAX_N else "normal_approx",
    })
    return EXIT_OK


class _StackReader(dict):
    """Patient id -> probability stack, read from disk on each lookup and
    never stored."""

    def __init__(self, pred_dir):
        super().__init__()
        self.pred_dir = Path(pred_dir)

    def __missing__(self, patient_id):
        return read_prob_stack(self.pred_dir / f"{patient_id}_prob")


def cmd_px2(args, file_cfg) -> int:
    cfg = _eval_config(args, file_cfg)
    points = read_points_csv(args.points)
    records, kappa = evaluate_points(points, _StackReader(cfg.pred_dir), cfg)
    payload = {"n_points": len(records), **dataclasses.asdict(kappa)}
    if args.out:
        out = Path(args.out)
        write_json(out / "px2_report.json", payload)
        write_csv(out / "px2_records.csv", POINT_COLUMNS + ("pred_grade",),
                  ((pt.patient_id, pt.x, pt.y, pt.z, pt.zone, pt.gs_label.display,
                    r.pred_grade.display) for pt, r in zip(points, records)))
    _emit(payload)
    if kappa.degenerate and args.strict:
        print("warning: point-protocol kappa is degenerate", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_evaluate(args, file_cfg) -> int:
    cfg = _cohort_config(args, file_cfg)
    report, _ = run_full_evaluation(cfg)
    _emit({
        "out": str(cfg.output_dir),
        "n_patients": report.n_patients,
        "prostate_dice_mean": report.prostate_dice_mean,
        "sensitivity_at_fp": {
            str(t): report.sens_at["CS"][t] for t in cfg.fp_targets
        },
        "kappa_tp_only": report.kappa_tp_only.kappa,
        "kappa_with_fn": report.kappa_with_fn.kappa,
        "degenerate_stats": report.degenerate_stats,
    })
    if report.degenerate_stats and args.strict:
        for msg in report.degenerate_stats:
            print(f"warning: {msg}", file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def _fd_rel_err(fun, x, idx, analytic, step=1e-4) -> float:
    """Relative error of the analytic derivative of fun at x along
    coordinate idx against the central difference with the given step."""
    hi, lo = x.copy(), x.copy()
    hi[idx] += step
    lo[idx] -= step
    fd = (fun(hi) - fun(lo)) / (2 * step)
    return abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-6)


def _fd_loss_err(rng) -> float:
    n = int(rng.integers(8, 40))
    w = ClassWeights.lesion_default()
    p = rng.uniform(0.05, 0.95, size=(n, 6))
    y = np.zeros((n, 6))
    y[np.arange(n), rng.integers(0, 6, size=n)] = 1.0
    grad = branch_loss_gradient(p, y, w)

    def loss(q):
        return weighted_dice_loss(q, y, w) + weighted_ce_loss(q, y, w)

    return max(_fd_rel_err(loss, p, (i, c), grad[i, c]) for i in range(n) for c in range(6))


def _fd_gate_err(rng) -> float:
    C = int(rng.integers(2, 5))
    h, w = int(rng.integers(4, 17)), int(rng.integers(4, 17))
    if rng.random() < 0.5:  # integral ratios exercise the area-pooling path
        ah, aw = h * int(rng.integers(1, 4)), w * int(rng.integers(1, 4))
    else:  # everything else goes through bilinear resampling
        ah, aw = int(rng.integers(h, 2 * h + 1)), int(rng.integers(w, 2 * w + 1))
    f = FeatureStack(rng.normal(size=(C, h, w)))
    a = AttentionMap(rng.uniform(0.05, 0.95, size=(ah, aw)))
    dout = rng.normal(size=(C, h, w))
    df, da = attention_gate_backward(f, a, dout)

    def forward_sum(fp, ap):
        out = attention_gate_forward(FeatureStack(fp), AttentionMap(ap))
        return float((out.planes * dout).sum())

    errs = []
    for _ in range(20):  # spot-check random coordinates of both gradients
        fi = tuple(int(rng.integers(0, s)) for s in (C, h, w))
        ai = (int(rng.integers(0, ah)), int(rng.integers(0, aw)))
        errs.append(_fd_rel_err(lambda fp: forward_sum(fp, a.plane), f.planes, fi, df[fi]))
        errs.append(_fd_rel_err(lambda ap: forward_sum(f.planes, ap), a.plane, ai, da[ai]))
    return max(errs)


def cmd_losscheck(args, file_cfg) -> int:
    if args.instances < 1:
        raise ConfigError("--instances must be positive")
    seed = args.seed if args.seed is not None else 0
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    loss_err = float(max(_fd_loss_err(rng) for _ in range(args.instances)))
    gate_err = float(max(_fd_gate_err(rng) for _ in range(args.instances)))
    tol = 1e-4
    ok = bool(loss_err < tol and gate_err < tol)
    _emit({
        "instances": args.instances,
        "branch_loss_max_rel_err": loss_err,
        "attention_gate_max_rel_err": gate_err,
        "tolerance": tol,
        "pass": ok,
    })
    return EXIT_OK if ok else 1


# ---------------------------------------------------------------------------
# Parser


def _setting_flag(parser, flag: str, dest: str, **kw) -> None:
    """A flag that sets the config field dest, with the argparse type and
    choices of the field's Spec (None, as a choice, is spelled "none")."""
    (spec,) = (f.metadata["spec"] for cls in (EvaluationConfig, PhantomConfig)
               for f in dataclasses.fields(cls) if f.name == dest)
    parser.add_argument(flag, dest=dest, type={"int": int, "real": float}.get(spec.kind),
                        choices=tuple("none" if c is None else c for c in spec.choices) or None,
                        **kw)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main call shares it.  A flag that sets a config
    field has that field as its dest (see _eval_config)."""
    p = argparse.ArgumentParser(
        prog="lesionkit",
        description="Lesion detection and grading evaluation toolkit.",
    )
    p.add_argument("--config", default=None, help="JSON config file")
    _setting_flag(p, "--seed", "seed", help="override phantom/bootstrap seeds")
    p.add_argument("--strict", action="store_true",
                   help="escalate degenerate-statistics warnings to exit code 4")
    sub = p.add_subparsers(dest="command", required=True)
    # shared flags, declared once: grid for cluster, match, evaluate; overlap
    # for match, evaluate; boot for kappa, evaluate; cohort for froc, evaluate
    grid, overlap, boot, cohort = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    _setting_flag(grid, "--connectivity", "connectivity")
    _setting_flag(grid, "--min-volume", "min_volume_mm3", metavar="MIN_VOLUME")
    _setting_flag(overlap, "--overlap", "overlap_frac", metavar="OVERLAP")
    _setting_flag(boot, "--bootstrap", "bootstrap_iterations", metavar="BOOTSTRAP")
    for flag in ("--cohort", "--gt-dir", "--pred-dir", "--zones-dir"):  # paths: no type
        cohort.add_argument(flag)
    cohort.add_argument("--manifest", dest="fold_manifest", metavar="MANIFEST")

    sp = sub.add_parser("preprocess", help="resample, crop, normalize an intensity volume")
    sp.add_argument("--in", dest="input", required=True)
    sp.add_argument("--out", dest="output", required=True)
    sp.add_argument("--spacing", nargs=3, type=float, default=[1.0, 1.0, 3.0])
    sp.add_argument("--crop", nargs=2, type=int, default=[96, 96])
    sp.add_argument("--per-slice", action="store_true")
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("phantom", help="generate a synthetic cohort with ledger")
    sp.add_argument("--out", required=True)
    _setting_flag(sp, "--patients", "n_patients", metavar="PATIENTS")
    sp.set_defaults(func=cmd_phantom)

    sp = sub.add_parser("cluster", parents=[grid], help="connected components of a label volume")
    sp.add_argument("--labels", required=True)
    sp.add_argument("--probs", default=None, help="probability base path (channels _c0.._c5)")
    sp.add_argument("--mode", choices=("gs", "cs"), default="gs")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_cluster)

    sp = sub.add_parser("match", parents=[grid, overlap],
                        help="match predicted clusters to ground truth")
    sp.add_argument("--pred", required=True, help="predicted label volume")
    sp.add_argument("--gt", required=True, help="ground-truth label volume")
    sp.add_argument("--pred-probs", default=None)
    sp.add_argument("--mode", choices=("gs", "cs"), default="cs")
    _setting_flag(sp, "--denom", "overlap_denom")
    sp.add_argument("--strict-duplicates", action="store_true", default=None)
    sp.set_defaults(func=cmd_match)

    sp = sub.add_parser("froc", parents=[cohort], help="FROC curve over a cohort directory")
    sp.add_argument("--grade", default=None,
                    help="per-grade curve (GS6, GS3+4, GS4+3, GS>=8); default CS binary")
    sp.add_argument("--out", default=None, help="CSV output path")
    sp.set_defaults(func=cmd_froc)

    sp = sub.add_parser("kappa", parents=[boot],
                        help="confusion matrix and weighted kappa from detections CSV")
    sp.add_argument("--detections", required=True)
    sp.add_argument("--include-fn", action="store_true",
                    help="book missed lesions as GS6 predictions")
    _setting_flag(sp, "--resample", "bootstrap_resample")
    sp.set_defaults(func=cmd_kappa)

    sp = sub.add_parser("dice", help="Dice coefficient of two binary volumes")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.set_defaults(func=cmd_dice)

    sp = sub.add_parser("wilcoxon", help="one-sided signed-rank test on two CSV columns")
    sp.add_argument("--csv", required=True)
    sp.add_argument("--x", required=True, help="column tested as greater")
    sp.add_argument("--y", required=True)
    sp.set_defaults(func=cmd_wilcoxon)

    sp = sub.add_parser("px2", help="point-annotation grading protocol")
    sp.add_argument("--points", required=True)
    sp.add_argument("--pred-dir", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_px2)

    sp = sub.add_parser("evaluate", parents=[cohort, grid, overlap, boot],
                        help="full evaluation over a cohort directory")
    sp.add_argument("--out", dest="output_dir", metavar="OUT", required=True)
    _setting_flag(sp, "--zone", "zone")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("losscheck", help="finite-difference check of analytic gradients")
    sp.add_argument("--instances", type=int, default=10)
    sp.set_defaults(func=cmd_losscheck)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be nonnegative")
        file_cfg = _load_config_file(args.config)
        return args.func(args, file_cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError) as e:  # ValueError covers VolumeFormatError, bad JSON, bad UTF-8
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
