"""Command-line front end.

Artifacts are JSON envelopes {schema_version, command, config, result}
written atomically, except build-domain's bare domain file and gen-seq's
sequence file (with a <path>.meta.json envelope beside it); the resolved
configuration (seed included) is embedded so runs can be reproduced from
the artifact alone.  Exit codes: 0 success, 2 validation error,
3 numerical refusal.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import secrets
import sys
import tempfile

import numpy as np

from . import __version__
from .barriers import barrier_lower_bound
from .domains import (
    ChampagneDomain,
    build_champagne,
    build_finitely_connected,
    criterion_integral,
    criterion_sum,
    parse_profile,
)
from .errors import ChampagneError, NumericalRefusalError, ValidationError, WalkBudgetError
from .harmonic_density import McParams, ProbeSpec, theorem2_report
from .sequences import (
    PointSequence,
    blaschke_sum,
    covering_radius,
    diagnose,
    generate_ring_lattice,
    load_sequence,
    save_sequence,
    separation,
    uniform_density,
)
from .walker import estimate_measure, layered_crossing, sandwich_bounds

SCHEMA_VERSION = "1"
SEED_DIR_ENV = "CHAMPAGNE_SEED_DIR"


# ---------------------------------------------------------------------------
# small helpers

def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonify(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in dataclasses.fields(obj) if f.repr}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def emit(args, command: str, config: dict, result) -> None:
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "config": _jsonify(config),
        "result": _jsonify(result),
    }
    _write(args, json.dumps(envelope, indent=1, sort_keys=True))


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        _atomic_write(args.out, text)
    else:
        print(text)


def parse_point(text: str) -> complex:
    try:
        re_s, im_s = text.split(",")
        return complex(float(re_s), float(im_s))
    except ValueError as exc:
        raise ValidationError(f"bad point {text!r}: expected 're,im'") from exc


def parse_float_list(text: str):
    try:
        return [float(x) for x in text.split(",") if x]
    except ValueError as exc:
        raise ValidationError(f"bad list {text!r}: expected comma-separated reals") from exc


def parse_ring_spec(text: str) -> dict:
    out = {}
    for part in text.split(","):
        key, _, val = part.partition("=")
        out[key.strip()] = val.strip()
    try:
        return {
            "q": float(out["q"]),
            "points_per_ring_scale": float(out.get("scale", 1.0)),
            "depth": int(out.get("depth", 1)),
        }
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad ring spec {text!r}: expected q=..,scale=..,depth=..") from exc


def resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    seed_dir = os.environ.get(SEED_DIR_ENV)
    if seed_dir:
        path = os.path.join(seed_dir, "default_seed")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                return int(fh.read().strip())
    return secrets.randbits(63)


def load_config_file(path: str) -> dict:
    """key = value lines mirroring the long flag names (dashes or underscores)."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv; a --config file's keys become defaults of the chosen
    subcommand's flags.

    argparse converts string defaults through each flag's type, and flags
    given on the command line still win.  Keys naming a flag of another
    subcommand are ignored, so one file can serve several commands; a key
    naming no flag at all is an error.
    """
    parser, subcommands = build_parser()
    args = parser.parse_args(argv)
    if not args.config:
        return args
    config = load_config_file(args.config)
    flags = {name: {a.dest for a in sp._actions if a.option_strings and a.dest != "help"}
             for name, sp in subcommands.items()}
    unknown = sorted(set(config).difference(*flags.values()))
    if unknown:
        raise ValidationError(f"{args.config}: no flag named {', '.join(unknown)}")
    own = flags[args.command]
    subcommands[args.command].set_defaults(**{k: v for k, v in config.items() if k in own})
    return parser.parse_args(argv)


def _load_seq(args) -> PointSequence:
    if getattr(args, "seq", None):
        return load_sequence(args.seq)
    if getattr(args, "ring", None):
        spec = parse_ring_spec(args.ring)
        return generate_ring_lattice(seed=resolve_seed(args), **spec)
    raise ValidationError("provide a sequence via --seq <path> or --ring q=..,scale=..,depth=..")


def _mc_config(args, seed) -> dict:
    return {
        "walks": args.walks,
        "epsilon": args.epsilon,
        "seed": seed,
        "threads": args.threads,
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_seq(args) -> int:
    seed = resolve_seed(args)
    spec = parse_ring_spec(args.ring)
    seq = generate_ring_lattice(seed=seed, **spec)
    if args.out:
        save_sequence(seq, args.out)
        meta_path = args.out + ".meta.json"
        _atomic_write(meta_path, json.dumps(_jsonify({
            "schema_version": SCHEMA_VERSION, "command": "gen-seq",
            "config": {**spec, "seed": seed},
            "result": {"n_points": len(seq), "label": seq.label},
        }), indent=1, sort_keys=True))
    else:
        print(json.dumps([[z.real, z.imag] for z in seq.points]))
    return 0


def cmd_diag(args) -> int:
    seq = _load_seq(args)
    diag = diagnose(seq)
    result = {
        "n_points": diag.n_points,
        "max_modulus": diag.max_modulus,
        "separation": diag.separation,
        "separation_vacuous": diag.separation_vacuous,
        "blaschke_sum": diag.blaschke.value,
        "blaschke_divergent": diag.blaschke.classified_divergent,
        "blaschke_partial_by_depth": diag.blaschke.partial_by_depth,
    }
    if args.probe_modulus is not None:
        result["covering_radius"] = covering_radius(
            seq, args.probe_modulus, grid_density=args.grid_density)
        result["covering_probe_modulus"] = args.probe_modulus
    emit(args, "diag", {"seq": args.seq or args.ring}, result)
    return 0


def cmd_density(args) -> int:
    seq = _load_seq(args)
    r_values = parse_float_list(args.r_list)
    est = uniform_density(seq, r_values, grid_density=args.grid_density, mode="both")
    result = {
        "r_values": est.r_values,
        "lower_curve": est.lower_curve,
        "upper_curve": est.upper_curve,
        "lower_at_largest_r": est.lower_curve[-1],
        "upper_at_largest_r": est.upper_curve[-1],
        "truncation_dominated": est.truncation_dominated,
        "grid_spec": est.grid_spec,
        "n_probes": est.n_probes,
    }
    emit(args, "density", {"seq": args.seq or args.ring, "r_list": r_values,
                           "grid_density": args.grid_density}, result)
    return 0


def cmd_criterion(args) -> int:
    profile = parse_profile(args.profile)
    rep_i = criterion_integral(profile, tail_tolerance=args.tail_tol)
    rep_s = criterion_sum(profile, K=args.k, J_max=args.jmax, tail_tolerance=args.tail_tol)
    result = {
        "integral_value": rep_i.value,
        "classification": rep_i.classification,
        "integral": {
            "classification": rep_i.classification, "value": rep_i.value,
            "blocks": rep_i.blocks, "flags": rep_i.flags,
        },
        "sum": {
            "classification": rep_s.classification, "value": rep_s.value,
            "K": rep_s.K, "J_max": rep_s.J_max, "blocks": rep_s.blocks,
            "flags": rep_s.flags,
            "partial_sums_head": rep_s.partial_sums[:64],
        },
        "classifications_agree": (
            rep_i.classification == rep_s.classification
            or "inconclusive" in (rep_i.classification, rep_s.classification)
        ),
    }
    emit(args, "criterion", {"profile": args.profile, "k": args.k,
                             "jmax": args.jmax, "tail_tol": args.tail_tol}, result)
    return 0


def cmd_build_domain(args) -> int:
    seq = _load_seq(args)
    profile = parse_profile(args.profile)
    dom = build_champagne(seq, profile, args.truncation)
    _write(args, json.dumps(_jsonify(dom.to_json_dict()), indent=1, sort_keys=True))
    return 0


def cmd_measure(args) -> int:
    dom = ChampagneDomain.load(args.domain)
    seed = resolve_seed(args)
    z0 = parse_point(args.start)
    est = estimate_measure(dom, z0, target=args.target, n_walks=args.walks,
                           epsilon=args.epsilon, seed=seed, threads=args.threads)
    result = est.canonical_dict()
    result["wall_time"] = est.wall_time
    result["steps_per_second"] = est.steps_total / est.wall_time if est.wall_time > 0 else None
    result["tail_sum_points"] = dom.tail_sum_points
    result["truncation_R"] = dom.truncation_R
    config = {"domain": args.domain, "start": [z0.real, z0.imag],
              "target": args.target, **_mc_config(args, seed)}
    emit(args, "measure", config, result)
    return 0


def cmd_sandwich(args) -> int:
    dom = ChampagneDomain.load(args.domain)
    z0 = parse_point(args.start)
    sb = sandwich_bounds(dom, z0)
    emit(args, "sandwich", {"domain": args.domain, "start": [z0.real, z0.imag]}, sb)
    return 0


def cmd_layered(args) -> int:
    dom = ChampagneDomain.load(args.domain)
    seed = resolve_seed(args)
    rep = layered_crossing(dom, K=args.k, j_max=args.jmax, n_walks=args.walks,
                           epsilon=args.epsilon, seed=seed, grid_points=args.grid_points,
                           threads=args.threads)
    config = {"domain": args.domain, "k": args.k, "jmax": args.jmax,
              "grid_points": args.grid_points, **_mc_config(args, seed)}
    emit(args, "layered", config, rep)
    return 0


def cmd_barrier(args) -> int:
    dom = ChampagneDomain.load(args.domain)
    z0 = parse_point(args.start)
    cert = barrier_lower_bound(dom, eta=args.eta, n=args.layers, start=z0,
                               boundary_sample_density=args.samples, b=args.b)
    result = {
        "exterior_lower": cert.exterior_lower,
        "U_at_start": cert.barrier_at_start,
        "per_bubble_min_U": cert.per_bubble_min,
        "rescale_factor": cert.rescale_factor,
        "a": cert.a, "b": cert.b, "n": cert.n, "eta": cert.eta,
        "flags": cert.flags,
    }
    config = {"domain": args.domain, "start": [z0.real, z0.imag], "eta": args.eta,
              "layers": args.layers, "samples": args.samples, "b": args.b}
    emit(args, "barrier", config, result)
    return 0


def cmd_theorem2(args) -> int:
    seq = _load_seq(args)
    seed = resolve_seed(args)
    r_values = parse_float_list(args.r_list)
    mc = McParams(n_walks=args.walks, epsilon=args.epsilon, seed=seed, threads=args.threads)
    probe_spec = ProbeSpec(max_probes=args.max_probes)
    rep = theorem2_report(seq, r_values, probe_spec, mc)
    config = {"seq": args.seq or args.ring, "r_list": r_values,
              "max_probes": args.max_probes, **_mc_config(args, seed)}
    emit(args, "theorem2", config, rep)
    if args.csv:
        rows = ["r,uniform_lower,uniform_upper,harmonic_lower,harmonic_upper"]
        for i, r in enumerate(rep.r_values):
            rows.append(f"{r:.17g},{rep.uniform_lower[i]:.17g},{rep.uniform_upper[i]:.17g},"
                        f"{rep.harmonic_lower[i]:.17g},{rep.harmonic_upper[i]:.17g}")
        _atomic_write(args.csv, "\n".join(rows) + "\n")
    return 0


def cmd_dichotomy_sweep(args) -> int:
    seq = _load_seq(args)
    seed = resolve_seed(args)
    profile = parse_profile(args.profile)
    truncations = parse_float_list(args.truncations)
    z0 = parse_point(args.start)
    rows = []
    prev = None
    for R in truncations:
        dom = build_champagne(seq, profile, R, ensure_interior=(z0,))
        est = estimate_measure(dom, z0, target="exterior", n_walks=args.walks,
                               epsilon=args.epsilon, seed=seed, threads=args.threads)
        sb = sandwich_bounds(dom, z0)
        row = {
            "truncation_R": R,
            "n_bubbles": dom.n_bubbles,
            "estimate": est.estimate,
            "ci_low": est.ci_low, "ci_high": est.ci_high,
            "sigma": est.sigma,
            "lower_union": sb.lower_union,
            "upper_single": sb.upper_single,
            "tail_sum_points": dom.tail_sum_points,
            "circumference_sum": dom.circumference_sum,
            "decrement": None if prev is None else prev - est.estimate,
        }
        prev = est.estimate
        rows.append(row)
    decs = [r["decrement"] for r in rows if r["decrement"] is not None]
    ratios = [b / a if a else None for a, b in zip(decs, decs[1:])]
    result = {"rows": rows, "decrement_ratios": ratios, "profile": profile.describe()}
    config = {"seq": args.seq or args.ring, "profile": args.profile,
              "truncations": truncations, "start": [z0.real, z0.imag],
              **_mc_config(args, seed)}
    emit(args, "dichotomy-sweep", config, result)
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    """The argument parser and its subcommand parsers by name."""
    p = argparse.ArgumentParser(prog="champagne",
                                description="champagne subdomains of the unit disk: "
                                            "construction, harmonic measure, and density diagnostics")
    sub = p.add_subparsers(dest="command", required=True)

    # flags shared by several subcommands, declared once
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None)
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", default=None, help="key = value file mirroring flags")
    io.add_argument("-o", "--out", default=None)
    sequence = argparse.ArgumentParser(add_help=False)
    sequence.add_argument("--seq", default=None, help="sequence file (.csv or .json)")
    sequence.add_argument("--ring", default=None, help="q=..,scale=..,depth=..")

    def common(sp, walks_default):
        sp.add_argument("--walks", type=int, default=walks_default)
        sp.add_argument("--epsilon", type=float, default=None)
        sp.add_argument("--threads", type=int, default=1, help="worker threads; 0 means one per core")

    sp = sub.add_parser("gen-seq", parents=[seeded, io],
                        help="generate a ring lattice sequence (-o takes a .csv or .json path)")
    sp.add_argument("--ring", required=True, help="q=..,scale=..,depth=..")
    sp.set_defaults(func=cmd_gen_seq)

    sp = sub.add_parser("diag", parents=[sequence, seeded, io],
                        help="separation, Blaschke sum, covering radius")
    sp.add_argument("--probe-modulus", dest="probe_modulus", type=float, default=None)
    sp.add_argument("--grid-density", dest="grid_density", type=float, default=4.0)
    sp.set_defaults(func=cmd_diag)

    sp = sub.add_parser("density", parents=[sequence, seeded, io],
                        help="lower/upper uniform density curves")
    sp.add_argument("--r-list", dest="r_list", required=True)
    sp.add_argument("--grid-density", dest="grid_density", type=float, default=4.0)
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("criterion", parents=[io], help="decay criterion, integral and sum form")
    sp.add_argument("--profile", required=True,
                    help="const:c | power:c,gamma | expinv:c,beta | table:<path>")
    sp.add_argument("--k", type=float, default=2.0)
    sp.add_argument("--jmax", type=int, default=10000)
    sp.add_argument("--tail-tol", dest="tail_tol", type=float, default=1e-9)
    sp.set_defaults(func=cmd_criterion)

    sp = sub.add_parser("build-domain", parents=[sequence, seeded, io],
                        help="build a champagne domain JSON")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--truncation", type=float, required=True)
    sp.set_defaults(func=cmd_build_domain)

    sp = sub.add_parser("measure", parents=[seeded, io], help="walk-on-spheres measure estimate")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--start", default="0,0")
    sp.add_argument("--target", default="exterior", help="exterior | bubble:<k> | all")
    common(sp, walks_default=100000)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("sandwich", parents=[io], help="deterministic union/single-hole bounds")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--start", default="0,0")
    sp.set_defaults(func=cmd_sandwich)

    sp = sub.add_parser("layered", parents=[seeded, io],
                        help="layered circle-crossing probabilities")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--k", type=float, default=2.0)
    sp.add_argument("--jmax", type=int, required=True)
    sp.add_argument("--grid-points", dest="grid_points", type=int, default=32)
    common(sp, walks_default=2000)
    sp.set_defaults(func=cmd_layered)

    sp = sub.add_parser("barrier", parents=[io], help="deterministic barrier lower bound")
    sp.add_argument("--domain", required=True)
    sp.add_argument("--start", default="0,0")
    sp.add_argument("--eta", type=float, default=0.5)
    sp.add_argument("--layers", type=int, default=None)
    sp.add_argument("--samples", type=int, default=64)
    sp.add_argument("--b", type=float, default=None)
    sp.set_defaults(func=cmd_barrier)

    sp = sub.add_parser("theorem2", parents=[sequence, seeded, io],
                        help="uniform vs harmonic density curves")
    sp.add_argument("--r-list", dest="r_list", required=True)
    sp.add_argument("--max-probes", dest="max_probes", type=int, default=8)
    sp.add_argument("--csv", default=None, help="optional flattened CSV path")
    common(sp, walks_default=20000)
    sp.set_defaults(func=cmd_theorem2)

    sp = sub.add_parser("dichotomy-sweep", parents=[sequence, seeded, io],
                        help="measure over a truncation ladder")
    sp.add_argument("--profile", required=True)
    sp.add_argument("--truncations", required=True, help="comma-separated R values")
    sp.add_argument("--start", default="0,0")
    common(sp, walks_default=100000)
    sp.set_defaults(func=cmd_dichotomy_sweep)

    return p, sub.choices


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalRefusalError, WalkBudgetError) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ChampagneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
