"""CLI: schemas, exit codes, determinism, operation coverage."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from stablepairs import energy, forms, norms, oracle, pairs, poly, weights
from stablepairs.cli import HANDLERS, OPERATION_COMMANDS, build_parser, main
from stablepairs.forms import build_x_pair
from stablepairs.poly import DENSE_ENTRY_CAP
from stablepairs.serialize import curve_from_json, curve_to_json, xpair_to_json
from stablepairs.verify import rational_normal_curve

POLY_V2 = {
    "schema": "v1",
    "shape": {"kind": "vector", "rows": 1, "cols": 2},
    "degree": 1,
    "mode": "exact",
    "terms": [{"exp": [1, 0], "re": "1", "im": "0"}],
}
POLY_X2 = {
    "schema": "v1",
    "shape": {"kind": "vector", "rows": 1, "cols": 2},
    "degree": 2,
    "mode": "exact",
    "terms": [{"exp": [2, 0], "re": "1", "im": "0"}],
}
MONO_Z02 = {
    "schema": "v1",
    "shape": {"kind": "vector", "rows": 1, "cols": 3},
    "degree": 2,
    "mode": "exact",
    "terms": [{"exp": [2, 0, 0], "re": "1", "im": "0"}],
}
CONIC = {
    "schema": "v1",
    "N": 2,
    "d": 2,
    "gamma": [
        {"terms": [{"exp": [2, 0], "re": "1", "im": "0"}]},
        {"terms": [{"exp": [1, 1], "re": "1", "im": "0"}]},
        {"terms": [{"exp": [0, 2], "re": "1", "im": "0"}]},
    ],
}
HYP = {
    "schema": "v1",
    "n": 1,
    "F": {
        "schema": "v1",
        "shape": {"kind": "vector", "rows": 1, "cols": 3},
        "degree": 2,
        "mode": "exact",
        "terms": [
            {"exp": [1, 0, 1], "re": "1", "im": "0"},
            {"exp": [0, 2, 0], "re": "-1", "im": "0"},
        ],
    },
}
PAIR = {"schema": "v1", "v": POLY_V2, "w": POLY_X2}
# v = 5xy + 3y^2, w = 24x^2y + 18xy^2 - 27y^3: e = d - 1, so never semistable,
# but w vanishes at [1:0] and its other roots 3/4, -3/2 are not integers
ROOTS_PAIR = {
    "schema": "v1",
    "v": {
        "schema": "v1",
        "shape": {"kind": "vector", "rows": 1, "cols": 2},
        "degree": 2,
        "mode": "exact",
        "terms": [
            {"exp": [1, 1], "re": "5", "im": "0"},
            {"exp": [0, 2], "re": "3", "im": "0"},
        ],
    },
    "w": {
        "schema": "v1",
        "shape": {"kind": "vector", "rows": 1, "cols": 2},
        "degree": 3,
        "mode": "exact",
        "terms": [
            {"exp": [2, 1], "re": "24", "im": "0"},
            {"exp": [1, 2], "re": "18", "im": "0"},
            {"exp": [0, 3], "re": "-27", "im": "0"},
        ],
    },
}
SIGMA_ID3 = {
    "schema": "v1",
    "size": 3,
    "mode": "float",
    "entries": [
        [1.0, 0.0], [0.0, 0.0], [0.0, 0.0],
        [0.0, 0.0], [1.0, 0.0], [0.0, 0.0],
        [0.0, 0.0], [0.0, 0.0], [1.0, 0.0],
    ],
}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in (
        ("pair", PAIR),
        ("roots_pair", ROOTS_PAIR),
        ("mono", MONO_Z02),
        ("conic", CONIC),
        ("hyp", HYP),
        ("sigma", SIGMA_ID3),
        ("xpair", xpair_to_json(build_x_pair(curve_from_json(CONIC)))),
        ("entries", {"entries": [{"k": 1, "curve": CONIC}]}),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, check=True):
    # the child imports stablepairs from this checkout, installed or not
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "stablepairs.cli", *args], capture_output=True, text=True, env=env
    )
    if check:
        assert out.returncode == 0, out.stderr
    return out


class TestSubcommands:
    def test_pair_check_torus_fail(self, files):
        out = run_cli(["pair-check", "--pair", files["pair"]])
        payload = json.loads(out.stdout)
        assert payload["result"]["verdict"] == "torus-fail"
        assert payload["result"]["witness"]["lambda"] == [1, -1]

    def test_mahler_dirichlet(self, files):
        out = run_cli(
            ["mahler", "--poly", files["mono"], "--p", "0", "--samples", "200000",
             "--seed", "7"]
        )
        res = json.loads(out.stdout)["result"]
        assert abs(res["log_value"] + 1.5) <= 3 * res["stderr"]

    def test_xpair_roundtrip_and_kenergy(self, files, tmp_path):
        xp_path = tmp_path / "xp.json"
        out = run_cli(
            ["xpair", "--curve", files["conic"], "--samples", "20000",
             "--output", str(xp_path)]
        )
        xp_payload = json.loads(xp_path.read_text())["result"]
        (tmp_path / "xp_only.json").write_text(json.dumps(xp_payload))
        out2 = run_cli(
            ["kenergy", "--xpair", str(tmp_path / "xp_only.json"), "--sigma",
             files["sigma"], "--samples", "5000"]
        )
        res = json.loads(out2.stdout)["result"]
        assert res["k_energy"] == pytest.approx(0.0, abs=1e-12)

    def test_pair_check_torus_fail_non_integer_roots(self, files):
        out = run_cli(["pair-check", "--pair", files["roots_pair"], "--trials", "10"])
        assert json.loads(out.stdout)["result"]["verdict"] == "torus-fail"

    def test_verify_suite(self, files):
        out = run_cli(["verify", "forms"])
        payload = json.loads(out.stdout)
        assert payload["result"]["passed"]

    def test_oracle(self, files):
        out = run_cli(["oracle", "--curve", files["conic"]])
        res = json.loads(out.stdout)["result"]
        assert abs(res["volume"] - 2.0) < 1e-3

    def test_weight(self, files, tmp_path):
        p = tmp_path / "x2.json"
        p.write_text(json.dumps(POLY_X2))
        out = run_cli(["weight", "--poly", str(p), "--lambda", "[1,-1]"])
        assert json.loads(out.stdout)["result"]["weight"] == 2

    def test_polytope(self, files, tmp_path):
        p = tmp_path / "x2.json"
        p.write_text(json.dumps(POLY_X2))
        out = run_cli(["polytope", "--poly", str(p)])
        res = json.loads(out.stdout)["result"]
        assert res["support"] == [[2, 0]] and res["projected"] is True

    def test_chow_value(self, files):
        out = run_cli(["chow", "--curve", files["conic"], "--at", "[[1,0,0],[0,0,1]]"])
        assert json.loads(out.stdout)["result"]["value"]["re"] == "1"

    def test_chow_hyp(self, files):
        out = run_cli(["chow-hyp", "--hyp", files["hyp"]])
        assert json.loads(out.stdout)["result"]["degree"] == 4

    def test_stable_check(self, files):
        out = run_cli(["stable-check", "--pair", files["pair"], "--m", "2"])
        assert json.loads(out.stdout)["result"]["verdict"] == "torus-fail"

    def test_pretty_flag(self, files):
        # --pretty indents the same strict JSON document the default prints
        pretty = run_cli(["pair-check", "--pair", files["pair"], "--pretty"]).stdout
        compact = run_cli(["pair-check", "--pair", files["pair"]]).stdout
        assert json.loads(pretty)["result"]["verdict"] == "torus-fail"
        assert json.loads(pretty) == json.loads(compact)
        assert len(pretty.splitlines()) > 1 and len(compact.splitlines()) == 1


class TestExitCodes:
    def test_schema_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"v0\"}")
        out = run_cli(["pair-check", "--pair", str(bad)], check=False)
        assert out.returncode == 2

    def test_missing_file_exit_2(self):
        out = run_cli(["mahler", "--poly", "/nonexistent.json"], check=False)
        assert out.returncode == 2

    def test_precondition_exit_3(self, tmp_path):
        line = {
            "schema": "v1",
            "N": 1,
            "d": 1,
            "gamma": [
                {"terms": [{"exp": [1, 0], "re": "1", "im": "0"}]},
                {"terms": [{"exp": [0, 1], "re": "1", "im": "0"}]},
            ],
        }
        p = tmp_path / "line.json"
        p.write_text(json.dumps(line))
        out = run_cli(["hurwitz", "--curve", str(p)], check=False)
        assert out.returncode == 3

    def test_unknown_verify_suite_exit_2(self):
        out = run_cli(["verify", "bogus"], check=False)
        assert out.returncode == 2
        # one line naming the suite, no traceback
        assert out.stderr.startswith("schema error: unknown suite 'bogus'")
        assert len(out.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["pair-check", "--pair", "{pair}", "--descend", "--restarts", "0"],
        ["distance", "--xpair", "{xpair}", "--infimum", "--restarts", "0", "--samples", "1000"],
    ])
    def test_zero_restarts_exit_3(self, files, capsys, argv):
        argv = [a.format(**files) for a in argv]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition violated: restarts must be >= 1")
        assert len(err.strip().splitlines()) == 1

    def test_dense_size_above_cap_exit_3(self, tmp_path, capsys):
        # row degree 5 on a 4 x 5 matrix: 126^4 = 2.5e8 dense entries per component
        def poly(first):
            exp = ([5, 0, 0, 0, 0] if first else [0, 5, 0, 0, 0]) * 4
            return {"schema": "v1", "shape": {"kind": "matrix", "rows": 4, "cols": 5},
                    "degree": 20, "mode": "exact",
                    "terms": [{"exp": exp, "re": "1", "im": "0"}]}

        assert 126**4 > DENSE_ENTRY_CAP
        path = tmp_path / "big_pair.json"
        path.write_text(json.dumps({"schema": "v1", "v": poly(True), "w": poly(False)}))
        tracemalloc.start()
        try:
            code = main(["pair-check", "--pair", str(path), "--descend", "--restarts", "1",
                         "--max-iters", "5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 1 << 20  # refused before any dense array is allocated
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("precondition violated: dense norm tensor of shape (126, 126, 126, 126)")
        # torus-only commands build no norm functional, so the cap never applies
        for argv in (["pair-check"], ["stable-check", "--m", "1"]):
            assert main([*argv, "--pair", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["result"]["verdict"] == "torus-fail"
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flags", [["--trials", "3"], ["--descend"]])
    def test_tensor_slots_of_different_dims_exit_3(self, tmp_path, capsys, flags):
        # sigma acts on every slot, so a vector-2 slot beside a vector-3 slot
        # has no group; the pair file is refused on reading
        def tensor(*idxs):
            return {"schema": "v1", "mode": "exact",
                    "slots": [{"kind": "vector", "dim": 2}, {"kind": "vector", "dim": 3}],
                    "coords": [{"idx": list(i), "re": "1", "im": "0"} for i in idxs]}

        path = tmp_path / "mixed_pair.json"
        path.write_text(json.dumps({"schema": "v1", "v": tensor((0, 0), (1, 2)),
                                    "w": tensor((0, 1))}))
        assert main(["pair-check", "--pair", str(path), *flags]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("precondition violated: tensor slots of different dims [2, 3]")
        assert len(err.strip().splitlines()) == 1

    def test_removed_mode_flag_exit_2(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["pair-check", "--pair", files["pair"], "--mode", "exact"])
        assert exc.value.code == 2

    def test_descent_flags_only_on_descent_commands(self, files):
        with pytest.raises(SystemExit) as exc:
            main(["chow", "--curve", files["conic"], "--restarts", "7"])
        assert exc.value.code == 2

    def test_non_finite_result_exit_4(self, files, monkeypatch, capsys):
        monkeypatch.setitem(HANDLERS, "polytope", lambda args: {"inf_estimate": float("nan")})
        assert main(["polytope", "--poly", files["mono"]]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("non-convergence:")
        assert len(err.strip().splitlines()) == 1

    def test_non_finite_result_exit_4_pretty(self, files, monkeypatch, capsys):
        # --pretty goes through the same strict writer, so NaN still exits 4
        monkeypatch.setitem(HANDLERS, "polytope", lambda args: {"inf_estimate": float("nan")})
        assert main(["polytope", "--poly", files["mono"], "--pretty"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("non-convergence:")

    @pytest.mark.parametrize("argv", [
        ["mahler", "--poly", "{mono}", "--p", "nan"],
        ["distance", "--xpair", "{xpair}", "--p", "nan", "--samples", "1000"],
        ["distance", "--xpair", "{xpair}", "--sigma", "{sigma}", "--p", "-1",
         "--samples", "1000"],
    ])
    def test_invalid_p_exit_3(self, files, capsys, argv):
        assert main([a.format(**files) for a in argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("precondition violated: p must be a finite number >= 0")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("p", ["-3", "nan"])
    def test_jensen_invalid_p_exit_3(self, files, capsys, p):
        # an invalid P is refused, not replaced by the default 2
        assert main(["arestov", "--poly", files["mono"], "--jensen", p]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("precondition violated: jensen comparison needs a finite p > 0")
        assert len(err.strip().splitlines()) == 1

    def test_supnorm_at_wrong_shape_exit_2(self, files, capsys):
        assert main(["supnorm", "--poly", files["mono"], "--at", "[1, 2]"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("schema error: --at must be a JSON list of [re, im] number pairs")
        assert len(err.strip().splitlines()) == 1

    def test_oracle_overflowing_sigma_exit_4(self, files, tmp_path):
        # exp(2t lam) overflows on the first grid; a child process, so that
        # numpy's RuntimeWarnings would reach its stderr uncaptured
        entries = [[0.0, 0.0]] * 9
        entries[0], entries[4], entries[8] = [1e200, 0.0], [1e-200, 0.0], [1.0, 0.0]
        sigma = tmp_path / "huge_sigma.json"
        sigma.write_text(json.dumps(dict(SIGMA_ID3, entries=entries)))
        out = run_cli(["oracle", "--curve", files["conic"], "--sigma", str(sigma)], check=False)
        assert out.returncode == 4
        assert out.stdout == ""
        assert out.stderr.startswith("non-convergence: non-finite quadrature on the 24x24 grid")
        assert len(out.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["polytope"],
        ["weight", "--lambda", "[1, -1]"],
        ["xpair"],
        ["distance"],
        ["weight", "--poly", "{mono}", "--lambda", "abc"],
        ["weight", "--poly", "{mono}", "--lambda", "[true, 0, -1]"],
        ["supnorm", "--poly", "{mono}", "--at", "[[1"],
        ["chow", "--curve", "{conic}", "--at", "nope"],
    ], ids=["polytope-no-input", "weight-no-input", "xpair-no-input", "distance-no-input",
            "weight-bad-lambda", "weight-bool-lambda", "supnorm-bad-at", "chow-bad-at"])
    def test_malformed_invocation_exit_2(self, files, capsys, argv):
        # a missing input flag or unparsable inline JSON is a schema error
        assert main([a.format(**files) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("schema error:")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("samples", ["10", "0", "-5"])
    @pytest.mark.parametrize("argv", [
        ["mahler", "--poly", "{mono}"],
        ["kenergy", "--xpair", "{xpair}"],
        ["aubin", "--xpair", "{xpair}"],
        ["coercivity", "--xpair", "{xpair}", "--m", "1"],
        ["distance", "--xpair", "{xpair}"],
        ["distance", "--xpair", "{xpair}", "--infimum"],
        ["supnorm", "--poly", "{mono}"],
    ], ids=["mahler", "kenergy", "aubin", "coercivity", "distance", "infimum", "supnorm"])
    def test_bad_samples_exit_3(self, files, capsys, argv, samples):
        argv = [a.format(**files) for a in argv]
        assert main(argv + ["--samples", samples]) == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition violated: need at least 1000 samples")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, payload", [
        ("asymptotic", {"entries": [{"curve": CONIC}]}),
        ("asymptotic", [{"k": 1, "curve": CONIC}]),
        ("asymptotic", {"entries": 5}),
        ("asymptotic", {"entries": [{"k": "x", "curve": CONIC}]}),
        ("chow", dict(CONIC, gamma=[{"terms": [{"exp": [2, 0], "re": "a", "im": "0"}]}]
                      + CONIC["gamma"][1:])),
        ("chow", dict(CONIC, gamma=[{"terms": [{"exp": ["x", 0], "re": "1", "im": "0"}]}]
                      + CONIC["gamma"][1:])),
        ("polytope", dict(POLY_X2, degree="x")),
        ("polytope", 5),
        ("polytope", {"schema": "v1", "mode": "exact", "slots": [{"kind": "vector", "dim": 2}],
                      "coords": [{"idx": [[0, 1]], "re": "1", "im": "0"}]}),
        # each of these read as another form and exited 0 while int() truncated
        # and the terms dict kept the last of a repeated key
        ("polytope", dict(POLY_X2, terms=[{"exp": [1.9, 1.4], "re": "1", "im": "0"}])),
        ("polytope", dict(POLY_X2, terms=[{"exp": [True, True], "re": "1", "im": "0"}])),
        ("mahler", dict(POLY_X2, terms=[{"exp": [2, 0], "re": "1", "im": "0"},
                                        {"exp": [2, 0], "re": "5", "im": "0"},
                                        {"exp": [0, 2], "re": "1", "im": "0"}])),
        ("polytope", {"schema": "v1", "mode": "exact", "slots": [{"kind": "vector", "dim": 2}],
                      "coords": [{"idx": [1], "re": "1", "im": "0"},
                                 {"idx": [1], "re": "2", "im": "0"}]}),
    ], ids=["entry-without-k", "entries-file-is-list", "entries-not-list", "k-not-int",
            "curve-re-not-number", "curve-exp-not-int", "poly-degree-not-int",
            "poly-file-not-object", "tensor-pair-on-vector-slot", "poly-exp-not-integral",
            "poly-exp-bool", "poly-repeated-exponent", "tensor-repeated-index"])
    def test_malformed_value_exit_2(self, tmp_path, capsys, command, payload):
        # a malformed value in an input file is a schema error, not a traceback
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        flag = {"asymptotic": "--entries", "chow": "--curve", "polytope": "--poly",
                "mahler": "--poly"}[command]
        assert main([command, flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("schema error:")
        assert len(err.strip().splitlines()) == 1

    def test_theta_with_p_exit_2(self, files, capsys):
        # the conformal factor has no p; a --p it would ignore is refused
        assert main(["mahler", "--poly", files["mono"], "--theta", "--p", "3",
                     "--samples", "1000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("schema error: --theta takes no --p")
        assert len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("size, entries", [(0, []), (-1, [[1, 0]])], ids=["size0", "size-1"])
    @pytest.mark.parametrize("argv", [
        ["pair-check", "--pair", "{pair}"],
        ["distance", "--pair", "{pair}"],
        ["oracle", "--curve", "{conic}"],
    ], ids=["pair-check", "distance-pair", "oracle"])
    def test_sigma_size_below_one_exit_2(self, files, tmp_path, capsys, argv, size, entries,
                                         mode):
        sigma = tmp_path / "empty_sigma.json"
        sigma.write_text(json.dumps(dict(SIGMA_ID3, size=size, entries=entries, mode=mode)))
        assert main([a.format(**files) for a in argv] + ["--sigma", str(sigma)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"schema error: sigma size must be at least 1, got {size}")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key, value, argv", [
        ("N", 5, ["distance", "--infimum"]),
        ("N", 5, ["kenergy", "--sigma", "{sigma}"]),
        ("deg_r", 7, ["coercivity", "--m", "1"]),
        ("n", 2, ["aubin"]),
        ("d", 3, ["kenergy"]),
        ("deg_delta", 3, ["distance"]),
        ("deg_delta", None, ["kenergy"]),
    ], ids=["N-infimum", "N-kenergy", "deg_r", "n", "d", "deg_delta", "deg_delta-null"])
    def test_xpair_header_disagreeing_with_forms_exit_2(self, files, tmp_path, capsys, key,
                                                        value, argv):
        # n, N, d, deg_r and deg_delta are read off R and Delta; the header
        # only repeats them
        doc = json.loads(open(files["xpair"]).read())
        doc[key] = value
        path = tmp_path / "bad_xpair.json"
        path.write_text(json.dumps(doc))
        argv = [argv[0], "--xpair", str(path)] + [a.format(**files) for a in argv[1:]]
        assert main(argv + ["--samples", "1000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"schema error: header {key} = {value} disagrees with the forms")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["kenergy"], ["distance"], ["aubin"]],
                             ids=["kenergy", "distance", "aubin"])
    def test_xpair_curve_disagreeing_with_forms_exit_2(self, files, tmp_path, capsys, argv):
        # the conic's R and Delta (N = 2, d = 2) carrying the twisted cubic
        doc = json.loads(open(files["xpair"]).read())
        doc["curve"] = curve_to_json(rational_normal_curve(3))
        path = tmp_path / "bad_xpair.json"
        path.write_text(json.dumps(doc))
        assert main(argv + ["--xpair", str(path), "--samples", "1000"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("schema error: curve N = 3 disagrees with the forms (2)")
        assert len(err.strip().splitlines()) == 1

    def test_xpair_resultant_degree_not_multiple_of_rows_exit_2(self, files, tmp_path, capsys):
        doc = json.loads(open(files["xpair"]).read())
        doc["resultant"] = dict(POLY_X2, shape={"kind": "matrix", "rows": 2, "cols": 3},
                                degree=3, terms=[{"exp": [3, 0, 0, 0, 0, 0], "re": "1",
                                                  "im": "0"}])
        path = tmp_path / "bad_xpair.json"
        path.write_text(json.dumps(doc))
        assert main(["kenergy", "--xpair", str(path), "--samples", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: resultant degree 3 is not a multiple of n+1 = 2")

    def test_xpair_forms_on_different_groups_exit_2(self, files, tmp_path, capsys):
        doc = json.loads(open(files["xpair"]).read())
        doc["hyperdiscriminant"] = dict(POLY_X2, shape={"kind": "matrix", "rows": 1, "cols": 2})
        path = tmp_path / "bad_xpair.json"
        path.write_text(json.dumps(doc))
        assert main(["kenergy", "--xpair", str(path), "--samples", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: hyperdiscriminant and resultant act on different")


class TestFlagSurface:
    """Each subcommand takes only the flags its handler reads."""

    # the required flags of each subcommand; argparse refuses an unknown flag
    # before any input file is opened, so the paths need not exist
    REQUIRED = {
        "polytope": [], "weight": ["--lambda", "[1,-1]"], "pair-check": ["--pair", "p"],
        "stable-check": ["--pair", "p", "--m", "1"], "mahler": ["--poly", "p"],
        "supnorm": ["--poly", "p"], "arestov": ["--poly", "p"], "chow": ["--curve", "c"],
        "hurwitz": ["--curve", "c"], "chow-hyp": ["--hyp", "h"], "xpair": [],
        "distance": [], "kenergy": ["--xpair", "x"], "aubin": ["--xpair", "x"],
        "coercivity": ["--xpair", "x", "--m", "1"], "oracle": ["--curve", "c"],
        "asymptotic": ["--entries", "e"], "verify": [],
    }

    def refused(self, capsys, command, *flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.REQUIRED[command], *flag])
        err = capsys.readouterr().err
        return exc.value.code == 2 and f"unrecognized arguments: {flag[0]}" in err

    def test_required_table_covers_every_subcommand(self):
        assert set(self.REQUIRED) == set(HANDLERS)

    @pytest.mark.parametrize("command", sorted(HANDLERS))
    def test_verbose_flag_removed(self, capsys, command):
        assert self.refused(capsys, command, "-v")

    @pytest.mark.parametrize("command", [
        "polytope", "weight", "pair-check", "stable-check", "chow", "hurwitz", "chow-hyp",
        "oracle", "verify",
    ])
    def test_samples_only_where_read(self, capsys, command):
        assert self.refused(capsys, command, "--samples", "1000")

    @pytest.mark.parametrize("command", ["polytope", "weight"])
    def test_seed_only_where_read(self, capsys, command):
        assert self.refused(capsys, command, "--seed", "1")

    def test_arestov_jensen_takes_p(self, files, capsys):
        base = ["arestov", "--poly", files["mono"], "--samples", "1000", "--seed", "3"]
        results = []
        for extra in ([], ["--jensen"], ["--jensen", "2"], ["--jensen", "5"]):
            assert main(base + extra) == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        plain, jensen, jensen_2, jensen_5 = results
        assert jensen == jensen_2 != plain
        assert jensen_5 != jensen
        with pytest.raises(SystemExit) as exc:
            main(base + ["--p", "5"])
        assert exc.value.code == 2


class TestOutputAsInput:
    """A command's --output file (the envelope) reads back as its bare result."""

    @pytest.mark.parametrize("make, use", [
        (["xpair", "--curve", "{conic}"],
         ["kenergy", "--xpair", "{out}", "--sigma", "{sigma}", "--samples", "1000"]),
        (["xpair", "--curve", "{conic}"], ["distance", "--xpair", "{out}", "--samples", "1000"]),
        (["chow", "--curve", "{conic}"], ["mahler", "--poly", "{out}", "--samples", "1000"]),
    ], ids=["xpair-kenergy", "xpair-distance", "chow-mahler"])
    def test_envelope_and_bare_result_agree(self, files, tmp_path, capsys, make, use):
        envelope, bare = tmp_path / "envelope.json", tmp_path / "bare.json"
        assert main([a.format(**files) for a in make] + ["--output", str(envelope)]) == 0
        bare.write_text(json.dumps(json.loads(envelope.read_text())["result"]))
        results = []
        for path in (envelope, bare):
            assert main([a.format(out=path, **files) for a in use]) == 0
            results.append(json.loads(capsys.readouterr().out)["result"])
        assert results[0] == results[1]


class TestDeterminism:
    def test_config_is_seed_and_samples(self, files, capsys):
        # config echoes the --seed and --samples a subcommand takes, and only those
        for argv, config in (
            (["mahler", "--poly", files["mono"], "--seed", "4", "--samples", "1000"],
             {"samples": 1000, "seed": 4}),
            (["pair-check", "--pair", files["pair"], "--seed", "4"], {"seed": 4}),
            (["polytope", "--poly", files["mono"]], {}),
        ):
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["config"] == config

    def test_parser_built_once_per_process(self, files, capsys):
        # in-process calls share one parser, and no call's flags leak into
        # the next one's namespace
        build_parser.cache_clear()
        argv = ["mahler", "--poly", files["mono"], "--samples", "1000"]
        for extra, seed in ((["--seed", "4"], 4), ([], 0)):
            assert main(argv + extra) == 0
            assert json.loads(capsys.readouterr().out)["config"]["seed"] == seed
        assert build_parser.cache_info().misses == 1

    def test_byte_identical_reruns(self, files):
        a = run_cli(["mahler", "--poly", files["mono"], "--samples", "5000", "--seed", "3"])
        b = run_cli(["mahler", "--poly", files["mono"], "--samples", "5000", "--seed", "3"])
        assert a.stdout == b.stdout

    def test_probe_deterministic(self, files):
        a = run_cli(["pair-check", "--pair", files["pair"], "--trials", "5", "--seed", "9"])
        b = run_cli(["pair-check", "--pair", files["pair"], "--trials", "5", "--seed", "9"])
        assert a.stdout == b.stdout


class TestCoverageTable:
    def test_every_operation_has_one_subcommand(self):
        commands = set(HANDLERS)
        spec_ops = {
            "evaluate", "act", "sylvester_resultant", "binary_discriminant",
            "maximal_minors", "support", "weight_polytope", "psg_weight",
            "contains", "minkowski_sum", "scale", "rep_degree",
            "torus_semistable", "randomized_torus_probe", "kempf_ness_value",
            "kempf_ness_gradient", "descend", "build_stable_test_pair",
            "stable_probe", "chow_form_curve", "hurwitz_form_curve",
            "chow_form_hypersurface", "build_x_pair", "fs_pointwise",
            "lp_norm", "sup_norm", "arestov_check", "jensen_check",
            "conformal_theta", "log_tan_dist_p", "orbit_distance",
            "k_energy_algebraic", "aubin_f0_algebraic", "coercivity_value",
            "curve_geometry_oracle", "asymptotic_report",
        }
        assert set(OPERATION_COMMANDS) == spec_ops
        for op, cmd in OPERATION_COMMANDS.items():
            assert cmd in commands, f"{op} maps to unknown subcommand {cmd}"

    def test_every_operation_runs_under_its_subcommand(self, files, capsys):
        # the table's names are not enough: each subcommand, with the flags
        # that reach its operations and small budgets, must call every
        # function the table maps to it
        codes = {}
        for op in OPERATION_COMMANDS:
            for mod in (poly, weights, pairs, forms, norms, energy, oracle):
                fn = vars(mod).get(op)
                if fn is not None and fn.__module__ == mod.__name__:
                    codes[fn.__code__] = op
        assert sorted(codes.values()) == sorted(OPERATION_COMMANDS)
        called = {}

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                called.setdefault(codes[frame.f_code], set()).add(command)

        small = ["--samples", "1000"]
        descent = ["--restarts", "1", "--max-iters", "2"]
        runs = [
            ("chow", ["--curve", files["conic"], "--at", "[[1,0,0],[0,0,1]]"]),
            ("hurwitz", ["--curve", files["conic"]]),
            ("chow-hyp", ["--hyp", files["hyp"]]),
            ("polytope", ["--poly", files["mono"]]),
            ("weight", ["--poly", files["mono"], "--lambda", "[1,0,-1]"]),
            ("pair-check", ["--pair", files["roots_pair"], "--trials", "2"]),
            ("pair-check", ["--pair", files["pair"], "--descend", *descent]),
            ("stable-check", ["--pair", files["pair"], "--m", "1"]),
            ("stable-check", ["--pair", files["pair"], "--m", "1", "--trials", "2"]),
            ("distance", ["--pair", files["pair"], "--gradient"]),
            ("distance", ["--xpair", files["xpair"], *small]),
            ("distance", ["--xpair", files["xpair"], "--infimum", *small, *descent]),
            ("mahler", ["--poly", files["mono"], *small]),
            ("mahler", ["--poly", files["mono"], "--theta", *small]),
            ("supnorm", ["--poly", files["mono"], *small]),
            ("supnorm", ["--poly", files["mono"], "--at", "[[1,0],[0,0],[0,0]]"]),
            ("arestov", ["--poly", files["mono"], *small]),
            ("arestov", ["--poly", files["mono"], "--jensen", *small]),
            ("xpair", ["--curve", files["conic"]]),
            ("kenergy", ["--xpair", files["xpair"], *small]),
            ("aubin", ["--xpair", files["xpair"], *small]),
            ("coercivity", ["--xpair", files["xpair"], "--m", "1", *small]),
            ("oracle", ["--curve", files["conic"]]),
            ("asymptotic", ["--entries", files["entries"], *small, *descent]),
        ]
        assert {cmd for cmd, _ in runs} == set(OPERATION_COMMANDS.values())
        previous = sys.getprofile()
        for command, argv in runs:
            sys.setprofile(profile)
            try:
                code = main([command, *argv])
            finally:
                sys.setprofile(previous)
            capsys.readouterr()
            assert code == 0, command
        unreached = {op: cmd for op, cmd in OPERATION_COMMANDS.items()
                     if cmd not in called.get(op, set())}
        assert unreached == {}

    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        subs = next(
            a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
        )
        expected = {
            "polytope", "weight", "pair-check", "stable-check", "mahler",
            "supnorm", "arestov", "chow", "hurwitz", "chow-hyp", "xpair",
            "distance", "kenergy", "aubin", "coercivity", "oracle",
            "asymptotic", "verify",
        }
        assert expected <= set(HANDLERS)
