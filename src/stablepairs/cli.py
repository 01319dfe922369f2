"""Command-line interface: JSON in, JSON out, one operation per invocation.

Exit codes: 0 success, 1 verification failure, 2 schema error,
3 precondition violation, 4 numerical non-convergence.

Every output embeds the run configuration: the --seed and --samples values,
for whichever of the two the subcommand takes ({} for polytope and weight),
so identical configurations and inputs produce byte-identical JSON.
Every result is strict JSON written by ``serialize.dump_json``: one
compact line by default, indented under --pretty.  A NaN or infinity in a
result exits 4 in both forms.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .energy import (
    asymptotic_report,
    aubin_f0_algebraic,
    coercivity_value,
    k_energy_algebraic,
    log_tan_dist_p,
    orbit_distance,
)
from .errors import NonConvergenceError, PreconditionError, SchemaError
from .forms import build_x_pair, chow_form_curve, chow_form_hypersurface, hurwitz_form_curve
from .norms import arestov_check, conformal_theta, fs_pointwise, jensen_check, lp_norm, sup_norm
from .oracle import curve_geometry_oracle
from .pairs import (
    DescentOptions,
    build_stable_test_pair,
    descend,
    kempf_ness_gradient,
    kempf_ness_value,
    polytope_sides,
    randomized_torus_probe,
    stable_probe,
    torus_semistable,
)
from .poly import evaluate
from .serialize import (
    _need,
    _need_int,
    curve_from_json,
    dump_json,
    estimate_to_json,
    hypersurface_from_json,
    pair_from_json,
    poly_from_json,
    poly_to_json,
    polytope_to_json,
    psg_from_json,
    scalar_to_json,
    sigma_from_json,
    vector_from_json,
    xpair_from_json,
    xpair_to_json,
)
from .verify import run_suites
from .weights import psg_weight, support, weight_polytope

# Reachability map: every module operation is owned by exactly one
# subcommand, which calls it; the CLI test runs each subcommand and checks.
OPERATION_COMMANDS = {
    "evaluate": "chow",
    "act": "pair-check",
    "sylvester_resultant": "chow",
    "binary_discriminant": "hurwitz",
    "maximal_minors": "chow-hyp",
    "support": "polytope",
    "weight_polytope": "polytope",
    "psg_weight": "weight",
    "contains": "pair-check",
    "minkowski_sum": "stable-check",
    "scale": "stable-check",
    "rep_degree": "stable-check",
    "torus_semistable": "pair-check",
    "randomized_torus_probe": "pair-check",
    "kempf_ness_value": "distance",
    "kempf_ness_gradient": "distance",
    "descend": "pair-check",
    "build_stable_test_pair": "stable-check",
    "stable_probe": "stable-check",
    "chow_form_curve": "chow",
    "hurwitz_form_curve": "hurwitz",
    "chow_form_hypersurface": "chow-hyp",
    "build_x_pair": "xpair",
    "fs_pointwise": "supnorm",
    "lp_norm": "mahler",
    "sup_norm": "supnorm",
    "arestov_check": "arestov",
    "jensen_check": "arestov",
    "conformal_theta": "mahler",
    "log_tan_dist_p": "distance",
    "orbit_distance": "distance",
    "k_energy_algebraic": "kenergy",
    "aubin_f0_algebraic": "aubin",
    "coercivity_value": "coercivity",
    "curve_geometry_oracle": "oracle",
    "asymptotic_report": "asymptotic",
}


def _load(path: str) -> dict:
    """An input file; a command's own output envelope yields its result."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise SchemaError(f"input file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON in {path}: {exc}")
    envelope = isinstance(obj, dict) and {"schema", "command", "result"} <= obj.keys()
    return obj["result"] if envelope else obj


def _load_one(args, *flags):
    """(flag, loaded input) for the first of the input ``flags`` given."""
    for flag in flags:
        path = getattr(args, flag)
        if path:
            return flag, _load(path)
    raise SchemaError("need one of " + ", ".join(f"--{flag}" for flag in flags))


def _inline_json(text: str):
    """An inline JSON argument: --at, --lambda."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid inline JSON {text!r}: {exc}")


def _sigma_arg(args, size: int):
    """The --sigma group element, or the identity of the given size."""
    if getattr(args, "sigma", None) is None:
        return np.eye(size, dtype=np.complex128)
    return sigma_from_json(_load(args.sigma))


def _xpair_and_sigma(args):
    """(X-pair of --xpair, --sigma or the identity)."""
    xp = xpair_from_json(_load(args.xpair))
    return xp, _sigma_arg(args, xp.N + 1)


def _form_or_value(P, args) -> dict:
    """A form, or its value at the --at matrix."""
    if args.at:
        return {"value": scalar_to_json(evaluate(P, _inline_json(args.at)))}
    return poly_to_json(P)


def _descent_opts(args) -> DescentOptions:
    return DescentOptions(
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
    )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_polytope(args):
    e = vector_from_json(_load_one(args, "poly", "tensor")[1])
    supp = sorted(c.raw for c in support(e))
    return dict(polytope_to_json(weight_polytope(e)), support=[list(s) for s in supp])


def cmd_weight(args):
    e = vector_from_json(_load_one(args, "poly", "tensor")[1])
    lam = psg_from_json(_inline_json(args.lam))
    return {"weight": psg_weight(lam, e), "lambda": list(lam.exponents)}


def cmd_pair_check(args):
    pair = pair_from_json(_load(args.pair))
    if args.sigma is not None:
        pair = pair.conjugated(sigma_from_json(_load(args.sigma)))
    if args.descend:
        return descend(pair.functional(), _descent_opts(args)).to_json()
    if args.trials > 1:
        return randomized_torus_probe(pair, trials=args.trials, seed=args.seed).to_json()
    ok, lam = torus_semistable(pair)
    if ok:
        return {"verdict": "torus-pass", "witness": None}
    return {"verdict": "torus-fail", "witness": {"lambda": list(lam.exponents)}}


def cmd_stable_check(args):
    pair = pair_from_json(_load(args.pair))
    if args.descend or args.trials > 1:
        cert = stable_probe(pair, args.m, trials=max(args.trials, 1), seed=args.seed,
                            opts=_descent_opts(args))
        return cert.to_json()
    tp = build_stable_test_pair(pair, args.m)
    ok, lam = torus_semistable(tp)
    left, right = polytope_sides(tp.parts)
    return {
        "verdict": "torus-pass" if ok else "torus-fail",
        "witness": None if ok else {"lambda": list(lam.exponents)},
        "m": tp.m,
        "q": tp.q,
        "left_polytope": polytope_to_json(left),
        "right_polytope": polytope_to_json(right),
    }


def cmd_mahler(args):
    P = poly_from_json(_load(args.poly))
    if args.theta:
        if args.p != 0:
            raise SchemaError(f"--theta takes no --p (got {args.p})")
        return conformal_theta(P, samples=args.samples, seed=args.seed)
    est = lp_norm(P, args.p, samples=args.samples, seed=args.seed)
    return estimate_to_json(est)


def cmd_supnorm(args):
    P = poly_from_json(_load(args.poly))
    if args.at:
        at = _inline_json(args.at)
        if not (isinstance(at, list) and all(
                isinstance(v, list) and len(v) == 2 and all(type(x) in (int, float) for x in v)
                for v in at)):
            raise SchemaError(f"--at must be a JSON list of [re, im] number pairs, got {args.at}")
        return {"fs_pointwise_sq": fs_pointwise(P, [complex(re, im) for re, im in at])}
    return {"sup_norm": sup_norm(P, samples=args.samples, seed=args.seed)}


def cmd_arestov(args):
    P = poly_from_json(_load(args.poly))
    if args.jensen is not None:
        return jensen_check(P, args.jensen, samples=args.samples, seed=args.seed)
    return arestov_check(P, samples=args.samples, seed=args.seed)


def cmd_chow(args):
    return _form_or_value(chow_form_curve(curve_from_json(_load(args.curve))), args)


def cmd_hurwitz(args):
    return _form_or_value(hurwitz_form_curve(curve_from_json(_load(args.curve))), args)


def cmd_chow_hyp(args):
    return _form_or_value(chow_form_hypersurface(hypersurface_from_json(_load(args.hyp))), args)


def cmd_xpair(args):
    flag, src = _load_one(args, "curve", "hyp")
    obj = curve_from_json(src) if flag == "curve" else hypersurface_from_json(src)
    return xpair_to_json(build_x_pair(obj))


def cmd_distance(args):
    flag, src = _load_one(args, "pair", "xpair")
    if flag == "pair":
        pair = pair_from_json(src)
        sig = _sigma_arg(args, pair.group_size)
        out = {"kempf_ness_value": kempf_ness_value(sig, pair)}
        if args.gradient:
            G = kempf_ness_gradient(sig, pair)
            out["gradient"] = [[[z.real, z.imag] for z in row] for row in G.tolist()]
        return out
    xp = xpair_from_json(src)
    if args.infimum:
        cert = orbit_distance(xp, args.p, opts=_descent_opts(args), samples=args.samples)
        return cert.to_json()
    sig = _sigma_arg(args, xp.N + 1)
    return log_tan_dist_p(sig, xp, args.p, samples=args.samples, seed=args.seed)


def cmd_kenergy(args):
    xp, sig = _xpair_and_sigma(args)
    return k_energy_algebraic(sig, xp, samples=args.samples, seed=args.seed)


def cmd_aubin(args):
    xp, sig = _xpair_and_sigma(args)
    return aubin_f0_algebraic(sig, xp, samples=args.samples, seed=args.seed)


def cmd_coercivity(args):
    xp, sig = _xpair_and_sigma(args)
    return coercivity_value(sig, xp, args.m, args.k, samples=args.samples, seed=args.seed)


def cmd_oracle(args):
    curve = curve_from_json(_load(args.curve))
    sig = _sigma_arg(args, curve.N + 1)
    return curve_geometry_oracle(sig, curve).to_json()


def cmd_asymptotic(args):
    entries = [(_need_int(row, "k"), build_x_pair(curve_from_json(_need(row, "curve"))))
               for row in _need(_load(args.entries), "entries", list)]
    return asymptotic_report(entries, p=args.p, opts=_descent_opts(args), samples=args.samples)


def cmd_verify(args):
    return run_suites(args.suites or None, seed=args.seed)


HANDLERS = {
    "polytope": cmd_polytope,
    "weight": cmd_weight,
    "pair-check": cmd_pair_check,
    "stable-check": cmd_stable_check,
    "mahler": cmd_mahler,
    "supnorm": cmd_supnorm,
    "arestov": cmd_arestov,
    "chow": cmd_chow,
    "hurwitz": cmd_hurwitz,
    "chow-hyp": cmd_chow_hyp,
    "xpair": cmd_xpair,
    "distance": cmd_distance,
    "kenergy": cmd_kenergy,
    "aubin": cmd_aubin,
    "coercivity": cmd_coercivity,
    "oracle": cmd_oracle,
    "asymptotic": cmd_asymptotic,
    "verify": cmd_verify,
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: ``parse_args`` returns a fresh
    namespace each call and leaves the parser as it was."""
    ap = argparse.ArgumentParser(
        prog="stablepairs",
        description="Stability of pairs: forms, norms, weights, descent, energies.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # --seed, --samples and the descent knobs go only on the subcommands
    # whose handler reads them; config echoes exactly the first two
    def seed(p):
        p.add_argument("--seed", type=int, default=0)

    def samples(p):
        p.add_argument("--samples", type=int, default=200_000)

    def descent(p):
        p.add_argument("--restarts", type=int, default=DescentOptions.restarts)
        p.add_argument("--max-iters", type=int, default=DescentOptions.max_iters)

    def command(name, helptext, *flags):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--output", default=None)
        p.add_argument("--pretty", action="store_true")
        for add in flags:
            add(p)
        return p

    p = command("polytope", "support and weight polytope of a vector")
    p.add_argument("--poly")
    p.add_argument("--tensor")

    p = command("weight", "1-PSG weight of a vector")
    p.add_argument("--poly")
    p.add_argument("--tensor")
    p.add_argument("--lambda", dest="lam", required=True, help="integer array, sums to 0")

    p = command("pair-check", "torus (semi)stability tests for a pair", seed, descent)
    p.add_argument("--pair", required=True)
    p.add_argument("--sigma")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--descend", action="store_true")

    p = command("stable-check", "tensored stable-pair tests", seed, descent)
    p.add_argument("--pair", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--descend", action="store_true")

    p = command("mahler", "L^p / Mahler norm estimate; --theta for the conformal factor",
                seed, samples)
    p.add_argument("--poly", required=True)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--theta", action="store_true")

    p = command("supnorm", "sup-norm lower bound; --at for pointwise FS norm", seed, samples)
    p.add_argument("--poly", required=True)
    p.add_argument("--at", help="point as [[re,im],...]")

    p = command("arestov", "Arestov sandwich; --jensen P for the L^P ordering", seed, samples)
    p.add_argument("--poly", required=True)
    p.add_argument("--jensen", type=float, nargs="?", const=2.0, metavar="P",
                   help="compare the L^P and Mahler norms instead (P defaults to 2)")

    # the benchmark passes --seed to chow, hurwitz, chow-hyp, xpair and
    # oracle, and --samples to xpair, which read neither; these declarations
    # go once it stops passing them
    for name, flag, helptext in (
        ("chow", "--curve", "Chow form of a rational curve"),
        ("hurwitz", "--curve", "Hurwitz form of a rational curve"),
        ("chow-hyp", "--hyp", "Chow form of a hypersurface via kernel minors"),
    ):
        p = command(name, helptext, seed)
        p.add_argument(flag, required=True)
        p.add_argument("--at", help="numeric matrix (nested lists) to evaluate at")

    p = command("xpair", "build the normalized variety pair", seed, samples)
    p.add_argument("--curve")
    p.add_argument("--hyp")

    p = command("distance", "log tan^2 distances, KN values, orbit infimum",
                seed, samples, descent)
    p.add_argument("--xpair")
    p.add_argument("--pair")
    p.add_argument("--sigma")
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--infimum", action="store_true")
    p.add_argument("--gradient", action="store_true")

    for name, helptext in (
        ("kenergy", "algebraic K-energy of phi_sigma"),
        ("aubin", "algebraic Aubin F0 of phi_sigma"),
    ):
        p = command(name, helptext, seed, samples)
        p.add_argument("--xpair", required=True)
        p.add_argument("--sigma")

    p = command("coercivity", "coercivity expression for the tensored pair", seed, samples)
    p.add_argument("--xpair", required=True)
    p.add_argument("--sigma")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, default=1)

    p = command("oracle", "differential-geometric quadrature report", seed)
    p.add_argument("--curve", required=True)
    p.add_argument("--sigma")

    p = command("asymptotic", "per-k distance table (observational)", seed, samples, descent)
    p.add_argument("--entries", required=True, help='{"entries": [{"k":..,"curve":..}]}')
    p.add_argument("--p", type=float, default=0.0)

    p = command("verify", "run named verification suites", seed)
    p.add_argument("suites", nargs="*", help="norms weights forms pairs energy")

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = HANDLERS[args.command](args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except NonConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 4
    config = {k: getattr(args, k) for k in ("seed", "samples") if hasattr(args, k)}
    payload = {"schema": "v1", "command": args.command, "config": config, "result": payload}
    try:
        text = dump_json(payload, indent=2 if args.pretty else None)
    except ValueError as exc:
        # strict JSON refuses the NaN or infinity a diverged estimate produced
        print(f"non-convergence: non-finite value in result: {exc}", file=sys.stderr)
        return 4
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.command == "verify" and not payload["result"]["passed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
