"""Exact CLI outputs pinned by the sha256 of their stdout.

The exact layer (forms, the action, the torus probes) is reworked for speed
and size while its outputs must stay byte-identical.  Each case below builds
its inputs here and runs the CLI in-process; the digests were recorded from
the same cases at commit ca88fbb.

A digest may change only together with a CHANGES.md entry that lists the
changed keys, as every change to reported numbers must.
"""

import contextlib
import hashlib
import io
import itertools
import json

import pytest

from stablepairs.cli import main
from stablepairs.forms import chow_form_curve, hurwitz_form_curve
from stablepairs.pairs import Pair
from stablepairs.poly import HomogeneousPolynomial, VariableShape
from stablepairs.serialize import curve_to_json, pair_to_json, poly_to_json
from stablepairs.verify import rational_normal_curve

V2 = VariableShape.vector(2)


def linear_product(factors) -> HomogeneousPolynomial:
    """The product of the binary linear forms a x + b y, (a, b) in factors."""
    out = HomogeneousPolynomial.constant(V2, 1)
    for a, b in factors:
        out = out * HomogeneousPolynomial(V2, 1, {(1, 0): a, (0, 1): b}, "exact")
    return out


def cubic_surface() -> HomogeneousPolynomial:
    """A dense cubic in four variables with fixed coefficients in [-3, 3]."""
    terms = {}
    for k, combo in enumerate(itertools.combinations_with_replacement(range(4), 3)):
        exp = [0] * 4
        for i in combo:
            exp[i] += 1
        terms[tuple(exp)] = (k * 5 + 2) % 7 - 3 or 1
    return HomogeneousPolynomial(VariableShape.vector(4), 3, terms, "exact")


# e = d - 1 binary pairs (v, w) as linear factors; each probe at seed 7
# passes the identity and ends in a torus-fail witness under its second sigma,
# a different sigma for each pair
BINARY_PAIRS = {
    "binary_2": ([(-1, -1)], [(1, 4), (-1, 5)]),
    "binary_3": ([(2, 4), (-5, -4)], [(-1, -1), (3, 3), (5, -4)]),
    "binary_4": ([(-2, -1), (-5, -3), (4, 5)], [(-1, 5), (2, -2), (-3, 2), (3, 4)]),
}
# an exact sigma of det 1 with Gaussian entries: the action's QQi route
GAUSSIAN_SIGMA = {
    "schema": "v1", "size": 3, "mode": "exact",
    "entries": [["1", "0"], ["0", "1"], ["0", "0"],
                ["0", "0"], ["1", "0"], ["1", "1"],
                ["2", "0"], ["0", "2"], ["1", "0"]],
}


def write_inputs(directory) -> dict:
    payloads = {f"curve_{d}": curve_to_json(rational_normal_curve(d)) for d in (2, 3, 4)}
    conic = rational_normal_curve(2)
    R, D = chow_form_curve(conic), hurwitz_form_curve(conic)
    payloads["conic_pair"] = pair_to_json(Pair(R ** 2, D ** 4))
    for name, (v, w) in BINARY_PAIRS.items():
        payloads[name] = pair_to_json(Pair(linear_product(v), linear_product(w)))
    payloads["surface"] = {"schema": "v1", "n": 2, "F": poly_to_json(cubic_surface())}
    payloads["gaussian_sigma"] = GAUSSIAN_SIGMA
    paths = {}
    for name, payload in payloads.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def cases(f: dict) -> dict:
    """{key: argv} over the input paths ``f``."""
    out = {}
    for d in (2, 3, 4):
        out[f"chow/{d}"] = ["chow", "--curve", f[f"curve_{d}"]]
        out[f"hurwitz/{d}"] = ["hurwitz", "--curve", f[f"curve_{d}"]]
    out["chow-hyp/cubic"] = ["chow-hyp", "--hyp", f["surface"]]
    for name in ("conic_pair", *BINARY_PAIRS):
        out[f"pair-check/{name}"] = ["pair-check", "--pair", f[name], "--trials", "10",
                                     "--seed", "7"]
    out["pair-check/gaussian"] = ["pair-check", "--pair", f["conic_pair"], "--sigma",
                                  f["gaussian_sigma"], "--trials", "5", "--seed", "7"]
    out["stable-check/binary_3"] = ["stable-check", "--pair", f["binary_3"], "--m", "1",
                                    "--trials", "5", "--seed", "7"]
    return out


def run(argv) -> tuple:
    """(exit code, sha256 of stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


# sha256 of stdout, each with exit code 0
DIGESTS = {
    "chow-hyp/cubic": "7196278c8b4fa7a39f9f2e311b925c64e1c22ab6b1915bcc62de7ca386aea649",
    "chow/2": "0ca65ce4e043da640b31ee03e64cd9b96b18457df06cfada8d6809dc43d00595",
    "chow/3": "cbc8ac495b239cf053b268d3015956766114c866612b60e46c118ce3e9ebfa6d",
    "chow/4": "aaf76f5dbd68bbcf34602babbdaad06a36381803af648f5fc87e40c0926b074f",
    "hurwitz/2": "6233beb00ac7a0dbbac298aee8187e48a464ca3fb1c6eb6f4f5ed65e209d7cd6",
    "hurwitz/3": "d0a17be55c8d85cac158a09c2688919df440b32d09f1747cfa66b8f5bb640417",
    "hurwitz/4": "76d89a46bd71ccc91c5a85669700d2388b86564ea851432e30e31bca24b4b085",
    "pair-check/binary_2": "162d05f85ddfc10aaf62535213fb8a7867969f5890cc9fbc977a182892d35c09",
    "pair-check/binary_3": "e246e4d32fee0c80e4322a36af5b6f8cbacd5223ea20d6bb264f58a40d7b97b0",
    "pair-check/binary_4": "f4292422182913761f0d012c1575b9939e6fe9aa338ef23c3109725c92afe15b",
    "pair-check/conic_pair": "2f045fcb8939613001bdf3eee3b10135552a1089f26fcbac87d92941f74bb76a",
    "pair-check/gaussian": "863f1e89b93d9fd3fd8c28f0d7d9c56b7c24bf9333142c35e1f90cc0ef5a289a",
    "stable-check/binary_3": "c67b9e70848feb8a618edcf30958d2953733fca1058b971907eeb959407e7b15",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("pinned"))


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_stdout_matches_pinned_digest(inputs, key):
    assert run(cases(inputs)[key]) == (0, DIGESTS[key])


def test_every_case_is_pinned(inputs):
    assert sorted(cases(inputs)) == sorted(DIGESTS)
