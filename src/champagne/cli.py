"""Command-line front end.

Artifacts are JSON envelopes {schema_version, package_version, command,
config, result} written atomically, except build-domain's bare domain file
and gen-seq's sequence file (with its envelope beside it, at
<path>.meta.json).  The config is the subcommand's flags as given or
defaulted, seed included and unset ones left out, so written back as a
--config file it re-runs the command; the result is the library's report.
Exit codes: 0 success, 2 validation error, 3 numerical refusal or not
enough memory.
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
    PROFILE_GRAMMAR,
    ChampagneDomain,
    build_champagne,
    criterion_integral,
    criterion_sum,
    parse_profile,
)
from .errors import (
    ChampagneError,
    NumericalRefusalError,
    ValidationError,
    WalkBudgetError,
    read_text,
)
from .harmonic_density import McParams, ProbeSpec, theorem2_report
from .sequences import (
    PointSequence,
    covering_radius,
    diagnose,
    generate_ring_lattice,
    load_sequence,
    save_sequence,
    uniform_density,
)
from .walker import estimate_measure, layered_crossing, sandwich_bounds

SCHEMA_VERSION = "1"
SEED_DIR_ENV = "CHAMPAGNE_SEED_DIR"


# ---------------------------------------------------------------------------
# small helpers

def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-artifact-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:  # name the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


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


def emit(args, result) -> None:
    """Write the envelope of args.command: its config is the flags of args
    other than --config and -o that are set (resolve_seed keeps a drawn
    seed in args.seed)."""
    config = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "config", "out") and v is not None}
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "command": args.command,
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


def _key_values(entries, where: str, name=str.strip) -> dict:
    """key=value texts as a dict of name(key) to the stripped value; a
    repeated key is refused by name."""
    out = {}
    for entry in entries:
        key, _, val = entry.partition("=")
        key = name(key)
        if key in out:
            raise ValidationError(f"{where}: key {key} given twice")
        out[key] = val.strip()
    return out


def parse_ring_spec(text: str) -> dict:
    out = _key_values(filter(str.strip, text.split(",")), f"bad ring spec {text!r}")
    unknown = sorted(set(out) - {"q", "scale", "depth"})
    if unknown:
        raise ValidationError(f"bad ring spec {text!r}: no key named {', '.join(unknown)}")
    try:
        return {
            "q": float(out["q"]),
            "points_per_ring_scale": float(out.get("scale", 1.0)),
            "depth": int(out.get("depth", 1)),
        }
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"bad ring spec {text!r}: expected q=..,scale=..,depth=..") from exc


def resolve_seed(args) -> int:
    """The invocation's seed: --seed, else the default_seed file of
    $CHAMPAGNE_SEED_DIR, else a random draw, kept in args.seed so that the
    sequence and the walks share it and emit records it."""
    if args.seed is None:
        args.seed = _draw_seed()
    return args.seed


def _draw_seed() -> int:
    seed_dir = os.environ.get(SEED_DIR_ENV)
    if seed_dir:
        path = os.path.join(seed_dir, "default_seed")
        if os.path.exists(path):
            text = read_text(path).strip()
            try:
                return int(text)
            except ValueError:
                raise ValidationError(f"{path}: seed {text!r} is not an integer") from None
    return secrets.randbits(63)


def load_config_file(path: str) -> dict:
    """key = value lines mirroring the long flag names (dashes or underscores)."""
    lines = [line.strip() for line in read_text(path).split("\n")]
    return _key_values((line for line in lines if line and not line.startswith("#")), path,
                       lambda key: key.strip().replace("-", "_"))


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
    if args.seq:
        return load_sequence(args.seq)
    if args.ring:
        spec = parse_ring_spec(args.ring)
        return generate_ring_lattice(seed=resolve_seed(args), **spec)
    raise ValidationError("provide a sequence via --seq <path> or --ring q=..,scale=..,depth=..")


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_seq(args) -> int:
    seed = resolve_seed(args)
    spec = parse_ring_spec(args.ring)
    seq = generate_ring_lattice(seed=seed, **spec)
    if args.out:
        save_sequence(seq, args.out)
        emit(argparse.Namespace(**{**vars(args), "out": args.out + ".meta.json"}),
             {"n_points": len(seq), "label": seq.label})
    else:
        print(json.dumps([[z.real, z.imag] for z in seq.points]))
    return 0


def cmd_diag(args) -> int:
    seq = _load_seq(args)
    result = dataclasses.asdict(diagnose(seq))
    if args.probe_modulus is not None:
        result["covering_radius"] = covering_radius(
            seq, args.probe_modulus, grid_density=args.grid_density)
    emit(args, result)
    return 0


def cmd_density(args) -> int:
    seq = _load_seq(args)
    emit(args, uniform_density(seq, parse_float_list(args.r_list),
                               grid_density=args.grid_density, mode="both"))
    return 0


def cmd_criterion(args) -> int:
    profile = parse_profile(args.profile)
    emit(args, {"integral": criterion_integral(profile),
                "sum": criterion_sum(profile, K=args.k, J_max=args.jmax)})
    return 0


def cmd_build_domain(args) -> int:
    seq = _load_seq(args)
    profile = parse_profile(args.profile)
    dom = build_champagne(seq, profile, args.truncation)
    _write(args, dom.to_json())
    return 0


def cmd_measure(args) -> int:
    dom = ChampagneDomain.load(args.domain)
    emit(args, estimate_measure(dom, parse_point(args.start), target=args.target,
                                n_walks=args.walks, epsilon=args.epsilon,
                                seed=resolve_seed(args), threads=args.threads))
    return 0


def cmd_sandwich(args) -> int:
    emit(args, sandwich_bounds(ChampagneDomain.load(args.domain), parse_point(args.start)))
    return 0


def cmd_layered(args) -> int:
    dom = ChampagneDomain.load(args.domain)
    seed = resolve_seed(args)
    rep = layered_crossing(dom, K=args.k, j_max=args.jmax, n_walks=args.walks,
                           epsilon=args.epsilon, seed=seed, grid_points=args.grid_points,
                           threads=args.threads)
    emit(args, rep)
    return 0


def cmd_barrier(args) -> int:
    emit(args, barrier_lower_bound(ChampagneDomain.load(args.domain), eta=args.eta,
                                   start=parse_point(args.start),
                                   boundary_sample_density=args.samples))
    return 0


def cmd_theorem2(args) -> int:
    seed = resolve_seed(args)
    seq = _load_seq(args)
    mc = McParams(n_walks=args.walks, epsilon=args.epsilon, seed=seed, threads=args.threads)
    rep = theorem2_report(seq, parse_float_list(args.r_list),
                          ProbeSpec(max_probes=args.max_probes), mc)
    emit(args, rep)
    if args.csv:
        rows = ["r,uniform_lower,uniform_upper,harmonic_lower,harmonic_upper"]
        for i, r in enumerate(rep.r_values):
            rows.append(f"{r:.17g},{rep.uniform_lower[i]:.17g},{rep.uniform_upper[i]:.17g},"
                        f"{rep.harmonic_lower[i]:.17g},{rep.harmonic_upper[i]:.17g}")
        _atomic_write(args.csv, "\n".join(rows) + "\n")
    return 0


def cmd_dichotomy_sweep(args) -> int:
    """A row per truncation: the rung's record, its estimate and its
    sandwich bounds.  Every rung walks on the default grid of the rung with
    the most bubbles, so that under the one seed the rungs' walks agree
    wherever their domains do."""
    seed = resolve_seed(args)
    seq = _load_seq(args)
    profile = parse_profile(args.profile)
    z0 = parse_point(args.start)
    truncations = parse_float_list(args.truncations)
    if not truncations:
        raise ValidationError(f"bad list {args.truncations!r}: no truncation given")
    doms = [build_champagne(seq, profile, R, ensure_interior=(z0,)) for R in truncations]
    # a rung of the most bubbles builds its default grid, whose size the
    # smaller rungs build; the default grid size depends on the bubble
    # count alone
    n_most = max(dom.n_bubbles for dom in doms)
    n_side = next(dom.index.n_side for dom in doms if dom.n_bubbles == n_most)
    rows = []
    while doms:
        dom = doms.pop(0)  # a rung and its grid go once its row is made
        if dom.n_bubbles < n_most:
            dom.build_index(n_side)
        rows.append({
            "truncation_R": dom.truncation_R,
            "n_bubbles": dom.n_bubbles,
            "tail_sum_points": dom.tail_sum_points,
            "circumference_sum": dom.circumference_sum,
            "measure": estimate_measure(dom, z0, n_walks=args.walks, epsilon=args.epsilon,
                                        seed=seed, threads=args.threads),
            "sandwich": sandwich_bounds(dom, z0),
        })
    emit(args, {"rows": rows, "profile": profile.describe()})
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
    sp.add_argument("--profile", required=True, help=PROFILE_GRAMMAR)
    sp.add_argument("--k", type=float, default=2.0)
    sp.add_argument("--jmax", type=int, default=10000)
    sp.set_defaults(func=cmd_criterion)

    sp = sub.add_parser("build-domain", parents=[sequence, seeded, io],
                        help="build a champagne domain JSON")
    sp.add_argument("--profile", required=True, help=PROFILE_GRAMMAR)
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
    sp.add_argument("--samples", type=int, default=64)
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
    sp.add_argument("--profile", required=True, help=PROFILE_GRAMMAR)
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
    except MemoryError as exc:
        print(f"refused: not enough memory: {exc}", file=sys.stderr)
        return 3
    except ChampagneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
