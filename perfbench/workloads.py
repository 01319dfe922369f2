"""The three workloads: CLI operations in order, with a check for each.

An operation is one ``stablepairs`` CLI invocation.  ``group`` names the
user-facing figure its time counts toward (``xpair_s``, ``probe_s``, ...).
``save`` writes the operation's ``result`` to a file that a later
operation reads; the CLI wraps every output in an envelope, so an ``xpair``
output cannot be passed to ``kenergy`` or ``distance --xpair`` unchanged.

Every check returns an error string, or None when the output is right.
Sample counts are passed explicitly: ``distance --infimum`` and ``supnorm``
default to the CLI's 200k samples, not the library defaults.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional

from stablepairs.poly import OnePSG
from stablepairs.scalars import QQi, parse_fraction
from stablepairs.serialize import pair_from_json
from stablepairs.weights import psg_weight

# energy-mc: the K-energy check needs ~100k samples at the sigma spread in
# inputs.py.  xpair's time is nearly all its Mahler estimates at any sample
# count, so 20k keeps the pass short.
MC_SAMPLES = 100_000
XPAIR_SAMPLES = 20_000
# descent: reduced MC samples and capped iterations.  The infimum's line
# search does a seed-dependent amount of work per trajectory (IQR 23% of the
# median over ten seeds for one restart of 12 iterations); three restarts of
# 4 iterations average it out (IQR 3%).  The cubic infimum (minutes) is left
# out.
DESCENT_SAMPLES = 5_000
DESCENT_RESTARTS = 3
DESCENT_MAX_ITERS = 4
PAIR_DESCENT_RESTARTS = 2
PAIR_DESCENT_ITERS = 20
SUPNORM_SAMPLES = 5_000
# exact-probe: conjugator trials on the conic X-pair.
PROBE_TRIALS = 10
# Fixed criterion-10 tolerance for |kenergy - oracle|.
KENERGY_REL_TOL = 0.02
KENERGY_ABS_TOL = 1e-2

# Every group is reported on every workload (0 where it does not run).
GROUPS = ("xpair", "kenergy", "oracle", "verify", "infimum", "descend", "supnorm",
          "probe", "forms")

Check = Callable[[dict, dict], Optional[str]]


@dataclass
class Op:
    group: str
    argv: List[str]
    check: Check
    save: Optional[str] = None


def _xpair_degrees(deg_r: int, deg_delta: int) -> Check:
    def check(res, ctx):
        got = (
            res["deg_r"], res["deg_delta"],
            res["resultant"]["degree"], res["hyperdiscriminant"]["degree"],
        )
        if got != (deg_r, deg_delta, deg_r, deg_delta):
            return f"xpair degrees {got}, expected {deg_r}/{deg_delta}"
        return None

    return check


def _kenergy_store(curve: str) -> Check:
    def check(res, ctx):
        if not (math.isfinite(res["k_energy"]) and math.isfinite(res["stderr"])):
            return "non-finite k_energy"
        ctx[f"kenergy_{curve}"] = res["k_energy"]
        ctx.setdefault("kenergy_stderr", []).append(res["stderr"])
        return None

    return check


def _oracle_matches(curve: str) -> Check:
    def check(res, ctx):
        oracle = res["k_energy"]
        alg = ctx.get(f"kenergy_{curve}")
        if alg is None:
            return "no kenergy value to compare"
        tol = max(KENERGY_REL_TOL * abs(oracle), KENERGY_ABS_TOL)
        if not abs(alg - oracle) <= tol:
            return f"{curve}: |kenergy {alg:.5f} - oracle {oracle:.5f}| > {tol:.5f}"
        return None

    return check


def _verify_passed(res, ctx):
    return None if res["passed"] is True else "verify reported passed=false"


def _no_divergence(res, ctx):
    if res["verdict"] != "no-divergence-observed":
        return f"verdict {res['verdict']}"
    inf = res["inf_estimate"]
    if not (isinstance(inf, float) and math.isfinite(inf)):
        return f"inf_estimate {inf!r} is not finite"
    return None


def _supnorm_positive(res, ctx):
    val = res["sup_norm"]
    return None if math.isfinite(val) and val > 0 else f"sup_norm {val!r}"


def _probe_passes(res, ctx):
    if res["verdict"] != "no-divergence-observed" or res["witness"] is not None:
        return f"conic X-pair probe verdict {res['verdict']}"
    return None


def _conjugator(rows) -> List[List[QQi]]:
    """Exact conjugator from its printed form (binary-pair probes use real ones)."""
    return [[QQi(parse_fraction(x)) for x in row] for row in rows]


def _torus_fail_witness(pair_path: str) -> Check:
    """A torus-fail witness must separate the conjugated pair exactly.

    No e = d - 1 binary pair is semistable, but a probe that finds no
    destabilizer within its trials reports "no-divergence-observed", which
    its certificate states is evidence, not proof.  That outcome is counted
    (``cli.binary_destabilized_frac``) and reported, not failed.
    """

    def check(res, ctx):
        found = ctx.setdefault("binary_destabilized", [])
        if res["verdict"] == "no-divergence-observed" and res["witness"] is None:
            found.append(False)
            print(f"note: {os.path.basename(pair_path)} not destabilized within its trials",
                  file=sys.stderr)
            return None
        found.append(True)
        if res["verdict"] != "torus-fail":
            return f"binary pair verdict {res['verdict']}"
        wit = res["witness"]
        with open(pair_path) as fh:
            pair = pair_from_json(json.load(fh))
        if wit["conjugator"] is not None:
            pair = pair.conjugated(_conjugator(wit["conjugator"]))
        lam = OnePSG(wit["lambda"])
        if not psg_weight(lam, pair.w) > psg_weight(lam, pair.v):
            return f"witness {wit['lambda']} does not separate the conjugated pair"
        return None

    return check


def _form_degree(degree: int, rows: int, cols: int) -> Check:
    def check(res, ctx):
        shape = res["shape"]
        if (res["degree"], shape["rows"], shape["cols"]) != (degree, rows, cols) or not res["terms"]:
            return f"form degree/shape {res['degree']} {shape}"
        return None

    return check


def build(workload: str, files: dict, work: str, seed: int) -> List[Op]:
    """The operations of one pass of ``workload``, in order."""
    s = ["--seed", str(seed)]

    def xp(name):
        return os.path.join(work, f"{name}_xpair.json")

    if workload == "energy-mc":
        n = ["--samples", str(MC_SAMPLES)]
        nx = ["--samples", str(XPAIR_SAMPLES)]
        ops = [
            Op("xpair", ["xpair", "--curve", files["conic"], *nx, *s], _xpair_degrees(4, 2),
               xp("conic")),
            Op("xpair", ["xpair", "--curve", files["cubic"], *nx, *s], _xpair_degrees(6, 4),
               xp("cubic")),
        ]
        for curve in ("conic", "cubic"):
            sig = files[f"sigma_{curve}"]
            ops.append(Op("kenergy", ["kenergy", "--xpair", xp(curve), "--sigma", sig, *n, *s],
                          _kenergy_store(curve)))
            ops.append(Op("oracle", ["oracle", "--curve", files[curve], "--sigma", sig, *s],
                          _oracle_matches(curve)))
        # verify's energy and pairs suites fail on a few seeds (NOTES.md, (e), (f))
        ops.append(Op("verify", ["verify", "forms", "weights", *s], _verify_passed))
        return ops
    if workload == "descent":
        return [
            Op("xpair", ["xpair", "--curve", files["conic"], "--samples", "1000", *s],
               _xpair_degrees(4, 2), xp("conic")),
            Op("infimum", ["distance", "--xpair", xp("conic"), "--infimum",
                           "--samples", str(DESCENT_SAMPLES),
                           "--restarts", str(DESCENT_RESTARTS),
                           "--max-iters", str(DESCENT_MAX_ITERS), *s], _no_divergence),
            Op("descend", ["pair-check", "--pair", files["conic_pair"], "--descend",
                           "--restarts", str(PAIR_DESCENT_RESTARTS),
                           "--max-iters", str(PAIR_DESCENT_ITERS), *s],
               _no_divergence),
            Op("supnorm", ["supnorm", "--poly", files["cubic_R"],
                           "--samples", str(SUPNORM_SAMPLES), *s], _supnorm_positive),
        ]
    if workload == "exact-probe":
        ops = [Op("probe", ["pair-check", "--pair", files["conic_pair"],
                            "--trials", str(PROBE_TRIALS), *s], _probe_passes)]
        for key in sorted(k for k in files if k.startswith("binary_")):
            ops.append(Op("probe", ["pair-check", "--pair", files[key], "--trials", "10", *s],
                          _torus_fail_witness(files[key])))
        ops += [
            Op("forms", ["chow", "--curve", files["quartic"], *s], _form_degree(8, 2, 5)),
            Op("forms", ["hurwitz", "--curve", files["quartic"], *s], _form_degree(6, 1, 5)),
            Op("forms", ["chow-hyp", "--hyp", files["surface"], *s], _form_degree(9, 3, 4)),
        ]
        return ops
    raise KeyError(workload)
