"""Seeded input files for the benchmark workloads.

Everything the program reads is written here, as the same v1 JSON files a
user would pass to the CLI.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import itertools
import os

import numpy as np

from stablepairs.forms import chow_form_curve, hurwitz_form_curve
from stablepairs.pairs import Pair
from stablepairs.poly import HomogeneousPolynomial, VariableShape
from stablepairs.scalars import EXACT
from stablepairs.serialize import curve_to_json, dump_json, pair_to_json, poly_to_json
from stablepairs.verify import random_linear_factor_form, random_sl, rational_normal_curve

# Spread of the fixed sigmas.  With 100k samples it keeps the K-energy
# stderr below a quarter of the fixed criterion-10 tolerance, so the
# kenergy-vs-oracle check cannot fail by chance; at spread 0.3 that needs
# about 500k samples per estimate.
SIGMA_SPREAD = 0.1
BINARY_PAIRS = 8


def _write(directory: str, name: str, obj) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(dump_json(obj) + "\n")
    return path


def _sigma_json(sig: np.ndarray) -> dict:
    return {
        "schema": "v1",
        "size": int(sig.shape[0]),
        "mode": "float",
        "entries": [[float(z.real), float(z.imag)] for z in sig.ravel()],
    }


def _cubic_surface(rng) -> HomogeneousPolynomial:
    """Dense cubic in four variables, nonzero integer coefficients in [-3, 3]."""
    terms = {}
    for combo in itertools.combinations_with_replacement(range(4), 3):
        exp = [0] * 4
        for i in combo:
            exp[i] += 1
        c = 0
        while c == 0:
            c = int(rng.integers(-3, 4))
        terms[tuple(exp)] = c
    return HomogeneousPolynomial(VariableShape.vector(4), 3, terms, EXACT)


def generate(directory: str, seed: int) -> dict:
    """Write every input file; returns their paths by role."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    conic, cubic, quartic = (rational_normal_curve(d) for d in (2, 3, 4))
    files = {
        "conic": _write(directory, "conic.json", curve_to_json(conic)),
        "cubic": _write(directory, "cubic.json", curve_to_json(cubic)),
        "quartic": _write(directory, "quartic.json", curve_to_json(quartic)),
    }
    # the conic X-pair (R^deg Delta, Delta^deg R) = (R^2, Delta^4), exact
    R, Delta = chow_form_curve(conic), hurwitz_form_curve(conic)
    files["conic_pair"] = _write(directory, "conic_pair.json", pair_to_json(Pair(R**2, Delta**4)))
    files["cubic_R"] = _write(directory, "cubic_R.json", poly_to_json(chow_form_curve(cubic)))
    for name, curve in (("conic", conic), ("cubic", cubic)):
        sig = random_sl(rng, curve.N + 1, spread=SIGMA_SPREAD)
        files[f"sigma_{name}"] = _write(directory, f"sigma_{name}.json", _sigma_json(sig))
    # criterion-6 pairs: e = d - 1 binary forms with rational roots, d <= 4
    for i in range(BINARY_PAIRS):
        d = int(rng.integers(2, 5))
        f = random_linear_factor_form(rng, d - 1)
        g = random_linear_factor_form(rng, d)
        files[f"binary_{i}"] = _write(directory, f"binary_{i}.json", pair_to_json(Pair(f, g)))
    files["surface"] = _write(
        directory, "surface.json",
        {"schema": "v1", "n": 2, "F": poly_to_json(_cubic_surface(rng))},
    )
    return files
