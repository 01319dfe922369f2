"""Acceptance checks, and the named suites behind the CLI `verify` subcommand.

Each acceptance criterion is one function here.  It draws its instances from
its seeds, checks them against the criterion's fixed tolerances, and returns
its {"name", "passed", "detail"} records together with the worst-case
figures of the run.  Callers set only sizes and seeds: instance counts,
degree and variable ranges, sample counts, the quadrature grid, probe trials.
The pytest acceptance suite runs them at full size on pinned seeds; the
`verify` suites run the same checks at small sizes, seeded by `--seed`, plus a
few records of their own.  A suite fails when any record does.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .energy import k_energy_algebraic
from .errors import SchemaError
from .forms import HypersurfaceVariety, RationalCurve, build_x_pair, chow_form_hypersurface
from .norms import arestov_check, harmonic, jensen_check, log_ratio_sq, lp_norm, sup_norm
from .oracle import curve_geometry_oracle
from .pairs import (
    DescentOptions,
    Pair,
    PolyL2Functional,
    TensoredPair,
    _expm_hermitian,
    descend,
    psg_slope,
    randomized_torus_probe,
    torus_semistable,
)
from .poly import HomogeneousPolynomial, OnePSG, VariableShape, evaluate
from .scalars import EXACT, FLOAT, QQi
from .weights import (
    TensorVector,
    minkowski_sum,
    psg_weight,
    scale,
    standard_simplex,
    weight_polytope,
)

# A half-open range [lo, hi) of integers, drawn with Generator.integers.
Range = Tuple[int, int]
# The records of one criterion and its worst-case figures.
Checked = Tuple[List[dict], dict]


def _check(name: str, passed: bool, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _exponents(nvars: int, d: int) -> Iterator[Tuple[int, ...]]:
    """Exponents of the degree-d monomials in nvars variables, in a fixed order."""
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        exp = [0] * nvars
        for i in combo:
            exp[i] += 1
        yield tuple(exp)


def binary_form(d: int, coeffs, mode: str = EXACT) -> HomogeneousPolynomial:
    """Binary form from coefficients by descending power of the first variable."""
    shape = VariableShape.vector(2)
    return HomogeneousPolynomial(
        shape, d, {(d - i, i): c for i, c in enumerate(coeffs) if c != 0}, mode
    )


def rational_normal_curve(d: int) -> RationalCurve:
    """gamma = (s^d, s^(d-1) t, ..., t^d) in P^d."""
    comps = []
    for i in range(d + 1):
        coeffs = [0] * (d + 1)
        coeffs[i] = 1
        comps.append(binary_form(d, coeffs))
    return RationalCurve(d, d, comps)


def random_dense_poly(rng, nvars: int, d: int) -> HomogeneousPolynomial:
    shape = VariableShape.vector(nvars)
    terms = {
        exp: complex(rng.standard_normal(), rng.standard_normal())
        for exp in _exponents(nvars, d)
    }
    return HomogeneousPolynomial(shape, d, terms, FLOAT)


def random_linear_factor_form(rng, d: int) -> HomogeneousPolynomial:
    """Product of d random integer linear forms (all roots rational)."""
    form = binary_form(0, [1])
    shape = VariableShape.vector(2)
    for _ in range(d):
        while True:
            a, b = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
            if a or b:
                break
        form = form * HomogeneousPolynomial(shape, 1, {(1, 0): a, (0, 1): b}, EXACT)
    return form


def _traceless_hermitian(rng, n: int, spread: float = 1.0) -> np.ndarray:
    h = spread * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    h = (h + h.conj().T) / 2
    return h - np.trace(h) / n * np.eye(n)


def random_sl(rng, n: int, spread: float = 0.3) -> np.ndarray:
    return _expm_hermitian(_traceless_hermitian(rng, n, spread))


def blowup_pair() -> Pair:
    """v = (e0^e1) (x) (e0^e1), w = (e0 (x) e1 + e1 (x) e0) (x) (e0^e1), in C^3."""
    v = TensorVector([("wedge2", 3), ("wedge2", 3)], {((0, 1), (0, 1)): 1})
    w = TensorVector(
        [("vector", 3), ("vector", 3), ("wedge2", 3)],
        {(0, 1, (0, 1)): 1, (1, 0, (0, 1)): 1},
    )
    return Pair(v, w)


def _random_polys(seed: int, count: int, nvars: Range, degrees: Range):
    rng = np.random.default_rng(seed)
    return [
        random_dense_poly(rng, int(rng.integers(*nvars)), int(rng.integers(*degrees)))
        for _ in range(count)
    ]


def _random_psg(rng, n: int, bound: int) -> Optional[OnePSG]:
    """Traceless 1-PSG with n-1 free weights in [-bound, bound]; None if trivial."""
    raw = [int(x) for x in rng.integers(-bound, bound + 1, size=n - 1)]
    weights = raw + [-sum(raw)]
    return OnePSG(weights) if any(weights) else None


# ---------------------------------------------------------------------------
# the acceptance criteria that `verify` runs (criterion 8 lives in its test)
# ---------------------------------------------------------------------------

# retest seeds: 900 000 + k when the first estimates use seed 1000 + k
_RETEST_OFFSET = 899_000


def monomial_mahler(*, cases: Sequence[Tuple[int, int]], per_case: Optional[int],
                    samples: int, seed: int) -> Checked:
    """Criterion 1: log ||z^a||_0 = -(d/2) H_N for the monomials of each (N, d).

    The first ``per_case`` monomials of each case (all when None), the k-th on
    seed + k.  A case passes within 3 stderr with stderr < 0.02.  Hundreds of
    independent 3-sigma checks fluctuate past the line a few times by chance
    alone, so a case that misses is retested once on fresh samples and must
    then pass (family false-fail < 1% for the 780 monomials of N, d <= 4, 6).
    """
    out = []
    worst = {"monomials": 0, "retests": 0, "dev_se": 0.0, "stderr": 0.0, "case_s": 0.0}
    for N, d in cases:
        shape = VariableShape.vector(N + 1)
        target = -(d / 2.0) * harmonic(N)
        for exp in itertools.islice(_exponents(N + 1, d), per_case):
            mono = HomogeneousPolynomial.monomial(shape, exp, 1, EXACT)
            k = worst["monomials"]
            t0 = time.perf_counter()
            est = lp_norm(mono, 0, samples=samples, seed=seed + k)
            worst["case_s"] = max(worst["case_s"], time.perf_counter() - t0)
            dev = abs(est.log_value - target)
            ok = dev <= 3 * est.stderr and est.stderr < 0.02
            if not ok:
                worst["retests"] += 1
                est = lp_norm(mono, 0, samples=samples, seed=seed + _RETEST_OFFSET + k)
                dev = abs(est.log_value - target)
                ok = dev <= 3 * est.stderr and est.stderr < 0.02
            worst["dev_se"] = max(worst["dev_se"], dev / max(est.stderr, 1e-12))
            worst["stderr"] = max(worst["stderr"], est.stderr)
            worst["monomials"] += 1
            out.append(_check(
                f"mahler-monomial exp={exp}", ok,
                f"{est.log_value:.4f} vs {target:.4f} (se {est.stderr:.4f})",
            ))
    return out, worst


def arestov(*, count: int, nvars: Range, degrees: Range, samples: int, seed: int,
            sample_seed: int, witnesses: Sequence[Tuple[int, int]],
            witness_samples: int) -> Checked:
    """Criterion 2: the Arestov sup/Mahler sandwich within 3 stderr on ``count``
    random polynomials, the i-th on sample_seed + i; z0^d on P^N makes the lower
    bound tight for each (N, d) of ``witnesses`` (on sample_seed + 700 + N)."""
    out = []
    worst = {"lower": math.inf, "upper": math.inf}
    for i, P in enumerate(_random_polys(seed, count, nvars, degrees)):
        rep = arestov_check(P, samples=samples, seed=sample_seed + i)
        worst["lower"] = min(worst["lower"], rep["lower_margin"] + rep["slack"])
        worst["upper"] = min(worst["upper"], rep["upper_margin"] + rep["slack"])
        out.append(_check(
            f"arestov-random-{i}", rep["lower_holds"] and rep["upper_holds"],
            f"margins {rep['lower_margin']:.4f}/{rep['upper_margin']:.4f}",
        ))
    for N, d in witnesses:
        mono = HomogeneousPolynomial.monomial(
            VariableShape.vector(N + 1), (d,) + (0,) * N, 1, EXACT
        )
        rep = arestov_check(mono, samples=witness_samples, seed=sample_seed + 700 + N)
        out.append(_check(
            f"arestov-equality N={N} d={d}",
            abs(rep["lower_margin"]) <= rep["slack"] + 1e-6,
            f"margin {rep['lower_margin']:.4f} (slack {rep['slack']:.4f})",
        ))
    return out, worst


def jensen(*, count: int, nvars: Range, degrees: Range, samples: int, seed: int,
           sample_seed: int) -> Checked:
    """Criterion 3: log ||P||_0 <= log ||P||_2 within 3 combined stderr, on the
    polynomials ``arestov`` draws for the same arguments, the i-th on sample_seed + i."""
    out = []
    worst = {"margin": math.inf}
    for i, P in enumerate(_random_polys(seed, count, nvars, degrees)):
        rep = jensen_check(P, 2.0, samples=samples, seed=sample_seed + i)
        worst["margin"] = min(worst["margin"], rep["margin"] + rep["slack"])
        out.append(_check(f"jensen-random-{i}", rep["holds"], f"margin {rep['margin']:.4f}"))
    return out, worst


def weight_slopes(*, count: int, nvars: Range, degrees: Range, seed: int) -> Checked:
    """Criterion 4: the slope of log ||lam(t) . P||^2 in log t^2 between t = 1e-2
    and 1e-3 is the weight within 0.05, for ``count`` random P and nontrivial
    1-PSGs with weights in [-3, 3]."""
    rng = np.random.default_rng(seed)
    out = []
    worst = {"deviation": 0.0}
    while len(out) < count:
        n = int(rng.integers(*nvars))
        P = random_dense_poly(rng, n, int(rng.integers(*degrees)))
        lam = _random_psg(rng, n, 3)
        if lam is None:
            continue
        slope = psg_slope(PolyL2Functional(P).log_norm2, lam, np.eye(n))
        w = psg_weight(lam, P)
        worst["deviation"] = max(worst["deviation"], abs(slope - w))
        out.append(_check(
            f"slope-vs-weight-{len(out)}", abs(slope - w) <= 0.05, f"{slope:.3f} vs {w}"
        ))
    return out, worst


def forms_and_degrees(*, trials: int, seed: int) -> Checked:
    """Criterion 5: the conic's Hurwitz form, Chow/Hurwitz degrees, and one
    exact ratio between the parametric and the hypersurface Chow forms of the
    conic at ``trials`` random integer points where the latter is nonzero."""
    conic, cubic = (build_x_pair(rational_normal_curve(d)) for d in (2, 3))
    delta = conic.hyperdiscriminant
    ref = {(1, 0, 1): QQi(4), (0, 2, 0): QQi(-1)}
    out = [_check(
        "conic hurwitz = b1^2-4b0b2 up to scalar",
        delta.terms == ref or delta.terms == {k: -v for k, v in ref.items()},
        str(delta.terms),
    )]
    for d, xp in ((2, conic), (3, cubic)):
        out.append(_check(
            f"degrees d={d}",
            xp.resultant.degree == 2 * d and xp.hyperdiscriminant.degree == 2 * d - 2,
        ))
    F = HomogeneousPolynomial(VariableShape.vector(3), 2, {(1, 0, 1): 1, (0, 2, 0): -1}, EXACT)
    Rh = chow_form_hypersurface(HypersurfaceVariety(1, F))
    rng = np.random.default_rng(seed)
    ratios = set()
    checked = 0
    while checked < trials:
        A = [int(x) for x in rng.integers(-6, 7, size=6)]
        vb = evaluate(Rh, A)
        if vb == QQi(0):
            continue
        r = evaluate(conic.resultant, A) / vb
        ratios.add((str(r.re), str(r.im)))
        checked += 1
    out.append(_check("parametric vs hypersurface chow ratio", len(ratios) == 1, str(ratios)))
    return out, {"ratios": ratios}


def binary_destabilisers(*, count: int, degrees: Range, trials: int, seed: int,
                         sample_seed: int) -> Checked:
    """Criterion 6: every pair (f, g) of binary forms of degrees (d - 1, d)
    with rational roots has a verified destabiliser within ``trials`` probe
    trials; the i-th pair is probed on sample_seed + i."""
    rng = np.random.default_rng(seed)
    out = []
    worst = {"trial": 0}
    for i in range(count):
        d = int(rng.integers(*degrees))
        f = random_linear_factor_form(rng, d - 1)
        g = random_linear_factor_form(rng, d)
        cert = randomized_torus_probe(Pair(f, g), trials=trials, seed=sample_seed + i)
        trial = cert.witness["trial"] if cert.verdict == "torus-fail" else None
        worst["trial"] = max(worst["trial"], trial or 0)
        out.append(_check(f"e=d-1 destabilizer {i} d={d}", trial is not None, f"trial {trial}"))
    return out, worst


def blowup_pair_evidence(*, trials: int, seed: int) -> Checked:
    """Criterion 7: the blow-up pair passes a ``trials``-trial torus probe and
    Kempf-Ness descent (5 restarts) observes no divergence (evidence only)."""
    pair = blowup_pair()
    probe = randomized_torus_probe(pair, trials=trials, seed=seed)
    cert = descend(pair.functional(),
                   DescentOptions(max_iters=10_000, restarts=5, seed=seed, grad_tol=1e-12))
    iterations = sum(r["iterations"] for r in cert.diagnostics["restarts"])
    out = [_check(
        "blow-up pair probe and descent",
        probe.verdict == cert.verdict == "no-divergence-observed",
        f"{probe.diagnostics['trials']} trials, descent {cert.verdict}",
    )]
    return out, {"inf_estimate": cert.inf_estimate, "iterations": iterations}


def gradient_check(*, count: int, seed: int) -> Checked:
    """Criterion 9: the Kempf-Ness gradient against fourth-order central
    differences (step 1e-4) on ``count`` random pairs and directions,
    relative error < 1e-5.

    The stencil (-f(2e) + 8 f(e) - 8 f(-e) + f(-2e)) / 12e errs by O(e^4);
    the second-order one errs by O(e^2), which dominates the relative error
    where the directional derivative is near 0."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(count):
        n = int(rng.integers(2, 4))
        pair = Pair(
            random_dense_poly(rng, n, int(rng.integers(1, 4))),
            random_dense_poly(rng, n, int(rng.integers(1, 4))),
        )
        sig = random_sl(rng, n)
        func = pair.functional()
        G = func.gradient(sig)
        H = _traceless_hermitian(rng, n)
        eps = 1e-4
        f = {k: func.value(_expm_hermitian(k * eps * H) @ sig) for k in (-2, -1, 1, 2)}
        fd = (-f[2] + 8 * f[1] - 8 * f[-1] + f[-2]) / (12 * eps)
        an = float(np.vdot(H, G).real)
        worst = max(worst, abs(fd - an) / max(abs(fd), 1e-9))
    out = [_check("gradient vs central differences", worst < 1e-5, f"max rel {worst:.2e}")]
    return out, {"rel_err": worst}


def kenergy_vs_oracle(*, curve_degrees: Sequence[int], count: int, samples: int, grid: int,
                      seed: int, sample_seed: int) -> Checked:
    """Criterion 10: the algebraic K-energy equals the quadrature oracle's
    within max(2%, 1e-2) at ``count`` random sigma per rational normal curve;
    the i-th sigma of each curve is estimated on sample_seed + i."""
    rng = np.random.default_rng(seed)
    out = []
    worst = {"diff_tol": 0.0}
    for d in curve_degrees:
        curve = rational_normal_curve(d)
        xp = build_x_pair(curve)
        for i in range(count):
            sig = random_sl(rng, curve.N + 1, spread=0.3)
            orc = curve_geometry_oracle(sig, curve, grid)
            alg = k_energy_algebraic(sig, xp, samples=samples, seed=sample_seed + i)
            diff = abs(orc.k_energy - alg["k_energy"])
            tol = max(0.02 * abs(orc.k_energy), 1e-2)
            worst["diff_tol"] = max(worst["diff_tol"], diff / tol)
            out.append(_check(
                f"k-energy oracle vs algebraic d={d} sigma {i}", diff <= tol,
                f"oracle {orc.k_energy:.5f} alg {alg['k_energy']:.5f} (tol {tol:.4f})",
            ))
    return out, worst


def phillipon_soule(*, count: int, samples: int, grid: int, seed: int,
                    sample_seed: int) -> Checked:
    """Criterion 11: -deg R F0(oracle) = log ||sigma.R||_0^2 - log ||R||_0^2 on
    the conic at ``count`` random sigma, within 3 (stderr + deg R 1e-3) (the
    oracle's 1e-3 allowance is on F0); the i-th on sample_seed + i."""
    conic = rational_normal_curve(2)
    xp = build_x_pair(conic)
    rng = np.random.default_rng(seed)
    out = []
    worst = {"diff_tol": 0.0}
    for i in range(count):
        sig = random_sl(rng, 3, spread=0.3)
        orc = curve_geometry_oracle(sig, conic, grid)
        dr, err = log_ratio_sq(xp.resultant, sig, 0.0, samples=samples, seed=sample_seed + i)
        lhs = -xp.deg_r * orc.aubin_f0
        tol = 3.0 * (err + xp.deg_r * 1e-3)
        worst["diff_tol"] = max(worst["diff_tol"], abs(lhs - dr) / tol)
        out.append(_check(
            f"phillipon-soule sigma {i}", abs(lhs - dr) <= tol,
            f"oracle {lhs:.5f} alg {dr:.5f} (tol {tol:.5f})",
        ))
    return out, worst


def curve_geometry(*, curve_degrees: Sequence[int], grid: int) -> Checked:
    """Criterion 12: the oracle gives volume d (1e-3) and mu = 2/d (1e-2) for
    the rational normal curve of each degree at the identity."""
    out = []
    reports = {}
    for d in curve_degrees:
        rep = curve_geometry_oracle(np.eye(d + 1), rational_normal_curve(d), grid)
        reports[d] = rep
        out.append(_check(
            f"oracle V=d, mu=2/d d={d}",
            abs(rep.volume - d) <= 1e-3 and abs(rep.mu - 2.0 / d) <= 1e-2,
            f"d={d}: V={rep.volume:.6f} mu={rep.mu:.6f}",
        ))
    return out, {"reports": reports}


def slope_signs(*, curve_degrees: Sequence[int], count: int, seed: int) -> Checked:
    """Criterion 13: deg(Delta) w_lam(R) - deg(R) w_lam(Delta) >= 0 along
    ``count`` nontrivial 1-PSGs (weights in [-5, 5]) per rational normal curve."""
    rng = np.random.default_rng(seed)
    out = []
    negatives = []
    for d in curve_degrees:
        xp = build_x_pair(rational_normal_curve(d))
        bad = 0
        sampled = 0
        while sampled < count:
            lam = _random_psg(rng, xp.N + 1, 5)
            if lam is None:
                continue
            combo = xp.deg_delta * psg_weight(lam, xp.resultant) - xp.deg_r * psg_weight(
                lam, xp.hyperdiscriminant
            )
            if combo < 0:
                negatives.append((xp.d, list(lam.exponents), combo))
                bad += 1
            sampled += 1
        out.append(_check(f"stability slope sign d={d}", bad == 0, f"{bad} negative"))
    return out, {"negatives": negatives}


# ---------------------------------------------------------------------------
# the `verify` suites: the checks above at small sizes, plus their own records
# ---------------------------------------------------------------------------

# Monte-Carlo samples per estimate in the norms and energy suites
SUITE_SAMPLES = 50_000


def suite_norms(seed: int = 0) -> List[dict]:
    out = monomial_mahler(cases=((2, 2), (3, 4)), per_case=1, samples=SUITE_SAMPLES, seed=seed)[0]
    out += arestov(count=6, nvars=(2, 4), degrees=(1, 5), samples=SUITE_SAMPLES, seed=seed,
                   sample_seed=seed + 10, witnesses=(), witness_samples=SUITE_SAMPLES)[0]
    out += jensen(count=6, nvars=(2, 4), degrees=(1, 5), samples=SUITE_SAMPLES, seed=seed,
                  sample_seed=seed + 20)[0]
    shape = VariableShape.vector(3)
    z0d = HomogeneousPolynomial.monomial(shape, (3, 0, 0), 1, EXACT)
    sup = sup_norm(z0d, samples=4000, seed=seed)
    out.append(_check("sup-equality z0^d", abs(sup - 1.0) <= 1e-6, f"sup={sup:.2e}"))
    return out


def suite_weights(seed: int = 0) -> List[dict]:
    out = []
    rng = np.random.default_rng(seed)
    shape = VariableShape.vector(2)
    x2 = HomogeneousPolynomial(shape, 2, {(2, 0): 1}, EXACT)
    out.append(
        _check("weight x^2 along (1,-1)", psg_weight(OnePSG([1, -1]), x2) == 2)
    )
    # weight additivity and Minkowski identity against brute-force expansion
    for i in range(4):
        d1, d2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f = binary_form(d1, [int(rng.integers(1, 5)) for _ in range(d1 + 1)])
        g = binary_form(d2, [int(rng.integers(1, 5)) for _ in range(d2 + 1)])
        lam = OnePSG([1, -1])
        ok = psg_weight(lam, f * g) == psg_weight(lam, f) + psg_weight(lam, g)
        ok = ok and minkowski_sum(weight_polytope(f), weight_polytope(g)) == weight_polytope(f * g)
        out.append(_check(f"additivity-{i}", ok))
    q1 = standard_simplex(2)
    out.append(_check("simplex dilation", minkowski_sum(q1, q1) == scale(q1, 2)))
    out += weight_slopes(count=5, nvars=(3, 4), degrees=(1, 5), seed=seed)[0]
    return out


def suite_forms(seed: int = 0) -> List[dict]:
    return forms_and_degrees(trials=20, seed=seed)[0]


def suite_pairs(seed: int = 0) -> List[dict]:
    x = binary_form(1, [1, 0])
    x2 = binary_form(2, [1, 0, 0])
    ok, lam = torus_semistable(Pair(x, x2))
    out = [_check("(x, x^2) torus-fail witness", (not ok) and list(lam.exponents) == [1, -1])]
    out += blowup_pair_evidence(trials=20, seed=seed)[0]
    out += binary_destabilisers(count=2, degrees=(2, 4), trials=10, seed=seed,
                                sample_seed=seed)[0]
    out += gradient_check(count=10, seed=seed)[0]
    for name, pair in (("(x, x^2) descent", Pair(x, x2)),
                       ("tensored (x, x^2) m=1 descent", TensoredPair(Pair(x, x2), 1))):
        cert = descend(pair.functional(), DescentOptions(max_iters=1500, restarts=1, seed=seed))
        out.append(
            _check(
                f"{name} diverges with verified witness",
                cert.verdict == "divergence-detected" and cert.witness is not None,
            )
        )
    return out


def suite_energy(seed: int = 0) -> List[dict]:
    out, figures = curve_geometry(curve_degrees=(2,), grid=48)
    rep = figures["reports"][2]
    out.append(
        _check(
            "oracle zero potential",
            abs(rep.k_energy) <= 1e-9 and abs(rep.aubin_j) <= 1e-9 and abs(rep.aubin_f0) <= 1e-9,
        )
    )
    out += kenergy_vs_oracle(curve_degrees=(2,), count=1, samples=SUITE_SAMPLES, grid=48,
                             seed=seed, sample_seed=seed + 5)[0]
    out += phillipon_soule(count=1, samples=SUITE_SAMPLES, grid=48, seed=seed,
                           sample_seed=seed + 6)[0]
    out += slope_signs(curve_degrees=(2,), count=10, seed=seed)[0]
    return out


SUITES: Dict[str, Callable[..., List[dict]]] = {
    "norms": suite_norms,
    "weights": suite_weights,
    "forms": suite_forms,
    "pairs": suite_pairs,
    "energy": suite_energy,
}


def run_suites(names=None, seed: int = 0) -> dict:
    names = list(names) if names else list(SUITES)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise SchemaError(f"unknown suite {unknown[0]!r}; choose from {sorted(SUITES)}")
    results = {}
    all_passed = True
    for name in names:
        checks = SUITES[name](seed=seed)
        results[name] = checks
        all_passed = all_passed and all(c["passed"] for c in checks)
    return {"suites": results, "passed": all_passed}
