"""End-to-end command-line tests: exit codes, report content, determinism."""
import dataclasses
import hashlib
import itertools
import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from liegrpd.cli import build_parser, main
from liegrpd.groupoids import groupoid_to_json, pair_groupoid
from test_cli_contract import (
    BAD_INDEX_GROUPOIDS,
    GRPD_SUBS,
    LIE_SUBS,
    NON_INTEGER_ALGEBRAS,
    REPEATED_POINT_ACTION,
)
from test_minus_one_probe import FALSE_WITNESS

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def run(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def run_json(argv, tmp_path):
    code, text = run(argv, tmp_path)
    return code, json.loads(text) if text else None


class TestLieCommands:
    def test_validate_catalog(self, tmp_path):
        code, doc = run_json(["lie", "validate", "--name", "heisenberg"], tmp_path)
        assert code == 0 and doc["valid"] and doc["dim"] == 3
        assert len(doc["input"]["sha256"]) == 64

    def test_validate_corpus_file(self, tmp_path):
        code, doc = run_json(
            ["lie", "validate", "--in", str(CORPUS / "e2.json")], tmp_path
        )
        assert code == 0 and doc["valid"]

    def test_validate_invalid_algebra(self, tmp_path):
        bad = {
            "dim": 3, "field": "Q", "basis": ["Y1", "Y2", "Y3"],
            "brackets": [
                {"i": 0, "j": 1, "coeffs": {"0": "1", "2": "1"}},
                {"i": 0, "j": 2, "coeffs": {"1": "1"}},
                {"i": 1, "j": 2, "coeffs": {"0": "1"}},
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        code, doc = run_json(["lie", "validate", "--in", str(p)], tmp_path)
        assert code == 1
        assert not doc["valid"] and doc["violation"] == "JacobiError"

    def test_dimension_above_the_limit_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"dim": 129, "brackets": []}))
        for sub in ("validate", "series", "census"):
            assert main(["lie", sub, "--in", str(p)]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: bad algebra document: dimension 129 exceeds the limit 128\n"

    def test_dimension_at_the_limit_validates(self, tmp_path):
        p = tmp_path / "limit.json"
        p.write_text(json.dumps({"dim": 128, "brackets": []}))
        code, doc = run_json(["lie", "validate", "--in", str(p)], tmp_path)
        assert code == 0 and doc["valid"] and doc["dim"] == 128

    def test_malformed_json_is_exit_2(self, tmp_path):
        p = tmp_path / "mangled.json"
        p.write_text("{not json")
        assert main(["lie", "validate", "--in", str(p)]) == 2

    def test_missing_file_is_exit_2(self, tmp_path):
        assert main(["lie", "series", "--in", str(tmp_path / "nope.json")]) == 2

    def test_unknown_name_is_exit_2(self):
        assert main(["lie", "series", "--name", "not_a_thing"]) == 2

    def test_series(self, tmp_path):
        code, doc = run_json(["lie", "series", "--name", "filiform4"], tmp_path)
        assert code == 0
        assert doc["lower_central_dims"] == [4, 2, 1, 0]
        assert doc["nilpotent"] and doc["solvable"]

    def test_roots(self, tmp_path):
        code, doc = run_json(
            ["lie", "roots", "--in", str(CORPUS / "axb.json")], tmp_path
        )
        assert code == 0
        res = {(tuple(r["re"]), tuple(r["im"])) for r in doc["roots"]}
        assert res == {(("0", "0"), ("0", "0")), (("1", "0"), ("0", "0"))}

    def test_exptest_verdicts(self, tmp_path):
        for name, verdict in [("heisenberg", True), ("axb", True),
                              ("e2", False), ("realified_borel", False)]:
            code, doc = run_json(["lie", "exptest", "--name", name], tmp_path)
            assert code == 0
            assert doc["verdict"] is verdict, name

    def test_coadjoint_point(self, tmp_path):
        code, doc = run_json(
            ["lie", "coadjoint", "--name", "axb", "--point", "0,1"], tmp_path
        )
        assert code == 0
        assert doc["orbit_dimension"] == 2 and doc["open_orbit"]
        assert doc["skew_form"] == [["0", "1"], ["-1", "0"]]

    def test_coadjoint_builds_the_skew_form_once(self, tmp_path, monkeypatch):
        from liegrpd import coadjoint

        calls = []
        original = coadjoint.bform

        def counting(L, xi):
            calls.append(xi)
            return original(L, xi)

        monkeypatch.setattr(coadjoint, "bform", counting)
        code, doc = run_json(
            ["lie", "coadjoint", "--name", "filiform4", "--point", "1,2,3,4"], tmp_path
        )
        assert code == 0 and doc["isotropy_dim"] == 2
        assert len(calls) == 1

    def test_coadjoint_bad_point(self, tmp_path):
        assert main(["lie", "coadjoint", "--name", "axb", "--point", "1,2,3"]) == 2
        assert main(["lie", "coadjoint", "--name", "axb", "--point", "x,y"]) == 2

    def test_census(self, tmp_path):
        code, doc = run_json(
            ["lie", "census", "--name", "axb", "--samples", "64"], tmp_path
        )
        assert code == 0
        assert doc["component_count"] == 2 and doc["even"]
        assert doc["evenness_asserted"]
        # the witness is the first representative; none without a component
        assert doc["open_orbit_exists"]
        assert doc["open_orbit_witness"] == doc["representatives"][0]
        code, doc = run_json(["lie", "census", "--name", "heisenberg"], tmp_path)
        assert code == 0 and doc["component_count"] == 0
        assert not doc["open_orbit_exists"] and doc["open_orbit_witness"] is None

    def test_census_complex_field_is_exit_2(self, tmp_path, capsys):
        code, text = run(["lie", "census", "--name", "complex_borel"], tmp_path)
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert "realify first" in err and "Traceback" not in err

    @pytest.mark.parametrize("sub", ["census", "stratify"])
    @pytest.mark.parametrize("samples", ["-5", "0", "two"])
    def test_bad_samples_is_exit_2(self, sub, samples, tmp_path, capsys):
        code, text = run(
            ["lie", sub, "--name", "heisenberg", "--samples", samples], tmp_path
        )
        assert code == 2 and text == ""
        assert "--samples" in capsys.readouterr().err

    def test_stratify(self, tmp_path):
        code, doc = run_json(["lie", "stratify", "--name", "heisenberg"], tmp_path)
        assert code == 0
        assert doc["generic_jump_set"] == [2, 3]
        assert doc["flag_dims"] == [0, 1, 2, 3]

    def test_stratify_gaussian_field(self, tmp_path, monkeypatch, capsys):
        # pinned bytes: a Q(i) algebra stays on the generic elimination
        (tmp_path / "qi.json").write_text(
            '{"dim":3,"field":"Qi","brackets":[{"i":0,"j":1,"coeffs":{"2":"1+1i"}}]}'
        )
        monkeypatch.chdir(tmp_path)
        assert main(["lie", "stratify", "--in", "qi.json"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["generic_jump_set"] == [2, 3] and doc["generic_rank"] == 2
        assert [(s["jump_set"], s["sample_count"]) for s in doc["strata"]] == [
            ([2, 3], 100), ([], 25)
        ]
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ac1a402bb00176bed338a473dca189694a41c1621caa4f38d256a229b2e34f62"
        )

    def test_stratify_non_nilpotent_is_exit_2(self):
        assert main(["lie", "stratify", "--name", "axb"]) == 2

    def test_probe_minus_one(self, tmp_path):
        code, doc = run_json(["lie", "probe-minus-one", "--name", "e2"], tmp_path)
        assert code == 0 and doc["found"]
        assert doc["t"].endswith("pi")
        code, doc = run_json(
            ["lie", "probe-minus-one", "--name", "heisenberg"], tmp_path
        )
        assert code == 0 and not doc["found"]

    def test_probe_minus_one_rejects_an_inaccurate_witness(self, tmp_path):
        # an exponential algebra where exp((21/8)pi ad(-1, 2, 2)) has norm
        # about 4e16: its float eigenvalues include -1+0j, which the
        # unscreened scan reported as a witness at seed 3
        p = tmp_path / "exponential.json"
        p.write_text(json.dumps(FALSE_WITNESS))
        code, doc = run_json(["lie", "exptest", "--in", str(p)], tmp_path)
        assert code == 0 and doc["verdict"] is True
        code, doc = run_json(["lie", "probe-minus-one", "--in", str(p), "--seed", "3"], tmp_path)
        assert code == 0 and not doc["found"]

    def test_roots_with_a_non_real_derived_basis(self, tmp_path):
        # a conjugate of complex_borel: [L, L] is spanned by Y1 - (1+i) Y2
        p = tmp_path / "borel.json"
        p.write_text(json.dumps({"dim": 2, "field": "Qi", "brackets": [
            {"i": 0, "j": 1, "coeffs": {"0": "-2", "1": "2+2i"}}]}))
        code, doc = run_json(["lie", "roots", "--in", str(p)], tmp_path)
        assert code == 0 and all(r["exact"] for r in doc["roots"])
        assert sorted(r["multiplicity"] for r in doc["roots"]) == [1, 1]
        code, doc = run_json(["lie", "exptest", "--in", str(p)], tmp_path)
        assert code == 0 and doc["verdict"] is False
        # the same real group: the verdict used to be True in this basis
        code, doc = run_json(["lie", "exptest", "--name", "complex_borel"], tmp_path)
        assert code == 0 and doc["verdict"] is False


def _write_algebra(tmp_path, dim, brackets, name="alg.json"):
    p = tmp_path / name
    p.write_text(json.dumps({"dim": dim, "field": "Q", "brackets": brackets}))
    return str(p)


class TestMalformedAlgebraDocuments:
    """Documents that describe no algebra exit 2 with one error line."""

    def assert_exit_2(self, subs, path, capsys, message):
        for sub in subs:
            extra = ["--samples", "8"] if sub in ("census", "stratify") else []
            assert main(["lie", sub, "--in", path] + extra) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and message in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("k", ["-1", "2", "5"])
    def test_coefficient_index_out_of_range(self, k, tmp_path, capsys):
        # "-1" used to wrap to the last basis vector and validate as true
        path = _write_algebra(tmp_path, 2, [{"i": 0, "j": 1, "coeffs": {k: "1"}}])
        self.assert_exit_2(["validate", "series", "roots"], path, capsys,
                           f"coefficient index {k} of bracket (0,1) out of range")

    def test_repeated_bracket(self, tmp_path, capsys):
        # the last entry used to win silently
        path = _write_algebra(tmp_path, 2, [{"i": 0, "j": 1, "coeffs": {"1": "1"}},
                                            {"i": 0, "j": 1, "coeffs": {"1": "2"}}])
        self.assert_exit_2(["validate", "series"], path, capsys,
                           "bracket (0,1) listed twice")

    @pytest.mark.parametrize("dim", [0, -3])
    def test_dimension_below_one(self, dim, tmp_path, capsys):
        path = _write_algebra(tmp_path, dim, [])
        self.assert_exit_2(["validate", "series", "roots", "exptest", "census"],
                           path, capsys, f"dimension {dim} is not positive")

    @pytest.mark.parametrize("text", ["1e5", "1E-3", "1/2+3e2i"])
    def test_exponent_notation(self, text, tmp_path, capsys):
        path = _write_algebra(tmp_path, 2, [{"i": 0, "j": 1, "coeffs": {"1": text}}])
        self.assert_exit_2(["validate", "series"], path, capsys, "exponent notation")

    @pytest.mark.parametrize("name, message", [
        ("dim_float", "dim 2.5 is not an integer"),
        ("dim_true", "dim True is not an integer"),
        ("dim_numeric_text", "dim '2' is not an integer"),
        ("index_float", "bracket i 0.0 is not an integer"),
        ("index_false", "bracket i False is not an integer"),
        ("index_text", "bracket i '0' is not an integer"),
    ])
    def test_non_integer_field(self, name, message, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(NON_INTEGER_ALGEBRAS[name]))
        self.assert_exit_2(["validate", "series", "census"], str(path), capsys,
                           f"bad algebra document: {message}")

    def test_non_real_constant_over_q(self, tmp_path, capsys):
        # a Q document with a non-real constant describes no real algebra
        path = _write_algebra(tmp_path, 2, [{"i": 0, "j": 1, "coeffs": {"1": "i"}}])
        code, doc = run_json(["lie", "validate", "--in", path], tmp_path)
        assert code == 1 and not doc["valid"] and doc["violation"] == "FieldError"
        assert doc["detail"] == ["entry c[0][1][1] = 0+1i is not rational over Q"]
        self.assert_exit_2([s for s in LIE_SUBS if s not in ("validate", "coadjoint")],
                           path, capsys, "bad algebra document: entry c[0][1][1]")
        assert main(["lie", "coadjoint", "--in", path, "--point", "1,1"]) == 2
        assert capsys.readouterr() == ("", "error: bad algebra document: entry c[0][1][1]"
                                           " = 0+1i is not rational over Q\n")


class TestNumericBridgeOverflow:
    def test_float_fallback_overflow_is_exit_2(self, tmp_path, capsys):
        # irrational_spectrum_algebra scaled by 10^399: its weights
        # 10^399 (1 +- sqrt 2) send the search to the float fallback, which
        # cannot hold the coefficients
        big, twice = "1" + "0" * 399, "2" + "0" * 399
        path = _write_algebra(tmp_path, 3, [{"i": 0, "j": 1, "coeffs": {"1": big, "2": big}},
                                            {"i": 0, "j": 2, "coeffs": {"1": twice, "2": big}}])
        for sub in ("roots", "exptest", "census"):
            extra = ["--samples", "8"] if sub == "census" else []
            assert main(["lie", sub, "--in", path] + extra) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: matrix entry (1, 1) does not fit a float\n"
        # the probe never leaves the integers; the spectrum is real
        code, doc = run_json(["lie", "probe-minus-one", "--in", path], tmp_path)
        assert code == 0 and doc["found"] is False

    def test_huge_rational_weight_is_exact(self, tmp_path):
        # [Y1, Y2] = 10^399 Y2: the weight 10^399 on Y1 is a degree-1 root,
        # solved in closed form, where the divisor scan once ran out of budget
        big = "1" + "0" * 399
        path = _write_algebra(tmp_path, 2, [{"i": 0, "j": 1, "coeffs": {"1": big}}])
        code, doc = run_json(["lie", "roots", "--in", path], tmp_path)
        assert code == 0
        assert [(r["re"], r["exact"]) for r in doc["roots"]] == [(["0", "0"], True),
                                                                 ([big, "0"], True)]
        code, doc = run_json(["lie", "exptest", "--in", path], tmp_path)
        assert code == 0 and doc["verdict"] and not doc["heuristic"]
        # the probe reads the eigenvalues 0 and 10^399 off integers
        code, doc = run_json(["lie", "probe-minus-one", "--in", path], tmp_path)
        assert code == 0 and doc["found"] is False


class TestCascadeCommand:
    def test_single_system(self, tmp_path):
        code, doc = run_json(["cascade", "--family", "B", "--rank", "3"], tmp_path)
        assert code == 0
        assert doc["system"] == "B3" and doc["cascade_size"] == 3
        assert doc["has_open_orbit"]

    def test_table(self, tmp_path):
        code, doc = run_json(["cascade", "--table", "--max-rank", "4"], tmp_path)
        assert code == 0
        t = doc["open_orbit"]
        assert t["A1"] and not t["A2"] and t["B2"] and t["C3"]
        assert t["D4"] and not t["D3"] and t["F4"] and t["G2"]

    def test_bad_family(self):
        assert main(["cascade", "--family", "Z", "--rank", "3"]) == 2

    def test_missing_args(self):
        assert main(["cascade"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["--family", "A", "--rank", "1000"], "--rank 1000 is above the limit 24"),
        (["--family", "D", "--rank", "25"], "--rank 25 is above the limit 24"),
        (["--table", "--max-rank", "0"], "--max-rank must lie in 1..24, not 0"),
        (["--table", "--max-rank", "-1"], "--max-rank must lie in 1..24, not -1"),
        (["--table", "--max-rank", "25"], "--max-rank must lie in 1..24, not 25"),
        (["--family", "A", "--rank", "0"], "A0 is out of range (rank >= 1)"),
    ])
    def test_rank_out_of_range_is_exit_2(self, argv, message, capsys):
        # --rank 1000 used to run for minutes; --max-rank 0 printed an empty
        # table; --rank 0 was reported as a missing --rank
        assert main(["cascade", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_largest_allowed_rank(self, tmp_path):
        code, doc = run_json(["cascade", "--family", "D", "--rank", "24"], tmp_path)
        assert code == 0 and doc["cascade_size"] == 24 and doc["has_open_orbit"]


class TestGrpdCommands:
    def test_validate_action_file(self, tmp_path):
        code, doc = run_json(
            ["grpd", "validate", "--in", str(CORPUS / "negation_groupoid.json")],
            tmp_path,
        )
        assert code == 0 and doc["valid"]
        assert doc["objects"] == 3 and doc["morphisms"] == 6

    def test_validate_broken_action(self, tmp_path):
        doc = json.loads((CORPUS / "z4_parity.json").read_text())
        doc["table"][1] = [0, 0]
        p = tmp_path / "broken.json"
        p.write_text(json.dumps(doc))
        code, out = run_json(["grpd", "validate", "--in", str(p)], tmp_path)
        assert code == 1 and not out["valid"]
        assert out["violation"] == "AxiomError"
        # the violation report names the bytes it judged, as every report does
        assert out["input"] == {"path": str(p),
                                "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}

    def test_broken_action_elsewhere_is_exit_2(self, tmp_path):
        doc = json.loads((CORPUS / "z4_parity.json").read_text())
        doc["table"][1] = [0, 0]
        p = tmp_path / "broken.json"
        p.write_text(json.dumps(doc))
        assert main(["grpd", "profile", "--in", str(p)]) == 2

    def test_classify(self, tmp_path):
        code, doc = run_json(
            ["grpd", "classify", "--in", str(CORPUS / "s3_natural.json")], tmp_path
        )
        assert code == 0
        assert doc["is_transitive"] and not doc["is_pair"]
        assert doc["isotropy_orders"] == [2]

    def test_pullback_verify(self, tmp_path):
        for name in ("negation_groupoid", "z4_parity", "s3_natural"):
            code, doc = run_json(
                ["grpd", "pullback-verify", "--in", str(CORPUS / f"{name}.json")],
                tmp_path,
            )
            assert code == 0 and doc["ok"], name

    def test_bimodule_verify(self, tmp_path):
        code, doc = run_json(
            ["grpd", "bimodule-verify", "--name", "z4_parity"], tmp_path
        )
        assert code == 0 and doc["ok"]
        assert all(doc["checks"].values())

    def test_decompose(self, tmp_path):
        code, doc = run_json(
            ["grpd", "decompose", "--name", "negation_groupoid"], tmp_path
        )
        assert code == 0
        assert doc["ideal_dims"] == [4, 6]
        assert doc["layer_pullback_ok"] == [True, True]

    def test_profile(self, tmp_path):
        code, doc = run_json(
            ["grpd", "profile", "--in", str(CORPUS / "z4_parity.json")], tmp_path
        )
        assert code == 0
        assert doc["total_dim"] == 8 and doc["matches_morphism_count"]
        assert doc["dual_total"] == 2

    def test_regrep(self, tmp_path):
        code, doc = run_json(
            ["grpd", "regrep", "--name", "negation_groupoid", "--object", "1"],
            tmp_path,
        )
        assert code == 0
        assert not doc["faithful"] and doc["rank"] == 4
        code, doc = run_json(
            ["grpd", "regrep", "--name", "s3_natural", "--object", "0"], tmp_path
        )
        assert code == 0 and doc["faithful"]

    def test_regrep_unknown_object(self):
        assert main(
            ["grpd", "regrep", "--name", "s3_natural", "--object", "9"]
        ) == 2

    def test_validate_action_documents_in_structural_mode(self, tmp_path, monkeypatch, capsys):
        def natural(n):
            perms = sorted(itertools.permutations(range(n)))
            doc = {"kind": "group_action", "group": {"family": "symmetric", "n": n},
                   "points": list(range(n)), "table": [list(p) for p in perms]}
            p = tmp_path / f"s{n}.json"
            p.write_text(json.dumps(doc))
            return str(p)

        def validate(path):
            return subprocess.run(
                [sys.executable, "-m", "liegrpd.cli", "grpd", "validate", "--in", path],
                capture_output=True,
                text=True,
            )

        # an action of the package's own groups is a groupoid by construction:
        # validate checks the identity and inverse laws and counts the row
        # check, 120 elements * 2 generators * 5 points on S5 (Light's test
        # visited 144,000 triples, every triple would be 8.64M)
        proc = validate(natural(5))
        assert proc.returncode == 0 and proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["valid"] is True and report["morphisms"] == 600
        assert report["associativity"] == "structural"
        assert report["triples_visited"] == 1200
        # S6 on 6 points: 720 * 2 * 6, where Light's test would visit
        # 12 * 720 * 720 = 6,220,800 triples, over the cap
        s6 = natural(6)
        proc = validate(s6)
        assert proc.returncode == 0 and proc.stderr == ""
        report = json.loads(proc.stdout)
        assert report["valid"] is True and report["morphisms"] == 4320
        assert report["associativity"] == "structural"
        assert report["triples_visited"] == 8640
        # in process, no verifier builds a pair table, and a group has no
        # Cayley table to build
        from liegrpd import groupoid_ids, groupoids

        def no_table(self):
            raise AssertionError("a pair table was built")

        monkeypatch.setattr(groupoid_ids.GroupoidIds, "pair_products", no_table)
        assert not hasattr(groupoids.FiniteGroup, "table")
        assert main(["grpd", "validate", "--in", s6]) == 0
        assert json.loads(capsys.readouterr().out) == report
        for sub in ("pullback-verify", "bimodule-verify", "decompose"):
            assert main(["grpd", sub, "--in", s6]) == 0
            assert "true" in capsys.readouterr().out
        # the label-built copy runs Light's test and is refused at the cap,
        # before any product
        G = groupoids.transformation_groupoid(groupoids.action_from_json(
            json.loads(Path(s6).read_text())))
        with pytest.raises(ValueError, match="^6220800 composable triples exceed the "
                                             "generator-check cap of 2000000$"):
            groupoids.validate_groupoid(dataclasses.replace(G))

    def test_explicit_document_reports_equal_the_action_reports(self, tmp_path):
        """Natural S4 written with `groupoid_to_json` is validated as it is
        read, by every triple, and the verifiers then run on every morphism
        as a generator: their reports are those of the action document,
        whose verifiers run on the generators (s, x), apart from `input`."""
        from liegrpd import groupoids

        action = {"kind": "group_action", "group": {"family": "symmetric", "n": 4},
                  "points": list(range(4)),
                  "table": [list(p) for p in sorted(itertools.permutations(range(4)))]}
        explicit = groupoid_to_json(groupoids.transformation_groupoid(
            groupoids.action_from_json(action)))
        assert explicit["morphism_count"] == 96 and len(explicit["composition"]) == 2304
        paths = []
        for name, doc in (("action", action), ("explicit", explicit)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(doc))
        for sub in ("pullback-verify", "bimodule-verify", "decompose"):
            reports = []
            for path in paths:
                code, report = run_json(["grpd", sub, "--in", str(path)], tmp_path)
                assert code == 0, sub
                assert report.pop("input")["path"] == str(path)
                reports.append(report)
            assert reports[0] == reports[1], sub
            assert "true" in json.dumps(reports[0]), sub

    def test_explicit_document_over_the_triple_cap_is_exit_2(self, tmp_path):
        # C127 as a one-object groupoid, with no generators: the exhaustive
        # check would visit 127^3 = 2,048,383 triples, over the cap
        n = 127
        doc = {"kind": "groupoid", "objects": [0], "morphism_count": n,
               "source": [0] * n, "target": [0] * n,
               "composition": [[g, h, (g + h) % n] for g in range(n) for h in range(n)],
               "identities": [0], "inverses": [(-g) % n for g in range(n)]}
        p = tmp_path / "c127.json"
        p.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "liegrpd.cli", "grpd", "validate", "--in", str(p)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: bad groupoid document: 2048383 composable triples "
                               "exceed the exhaustive-check cap of 2000000\n")

    def test_validate_an_action_on_no_points(self, tmp_path, capsys):
        doc = {"kind": "group_action", "group": {"family": "cyclic", "n": 1},
               "points": [], "table": [[]]}
        p = tmp_path / "empty.json"
        p.write_text(json.dumps(doc))
        assert main(["grpd", "validate", "--in", str(p)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is True and report["morphisms"] == report["triples_visited"] == 0
        # the structural verifiers compose nothing on no points, so no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for sub in ("pullback-verify", "bimodule-verify", "decompose"):
                assert main(["grpd", sub, "--in", str(p)]) == 0
        assert capsys.readouterr().err == ""


class TestMalformedGroupoidDocuments:
    @pytest.mark.parametrize("edit, message", [
        (lambda comp: comp[:-1], "composable pair missing from table"),
        (lambda comp: comp + [[0, 2, 0]], "composition defined for non-composable pair"),
        (lambda comp: [comp[0][:2] + [4]] + comp[1:],
         "composition table mentions unknown morphism"),
    ])
    def test_table_shape_is_a_violation(self, edit, message, tmp_path):
        # pair groupoid on {0, 1}: morphism 0 starts at 0, morphism 2 ends at 1
        doc = groupoid_to_json(pair_groupoid((0, 1)))
        doc["composition"] = edit(doc["composition"])
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        code, out = run_json(["grpd", "validate", "--in", str(p)], tmp_path)
        assert code == 1 and out["violation"] == "AxiomError"
        assert out["detail"][0] == message

    @pytest.mark.parametrize("name", sorted(BAD_INDEX_GROUPOIDS))
    def test_bad_index_is_exit_2(self, name, tmp_path, capsys):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(BAD_INDEX_GROUPOIDS[name]))
        for sub in GRPD_SUBS:
            extra = ["--object", "0"] if sub == "regrep" else []
            assert main(["grpd", sub, "--in", str(p)] + extra) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: bad groupoid document: ")

    @pytest.mark.parametrize("name, message", [
        ("source_true", "source index True is not an integer"),
        ("composition_float", "composition entry 0.0 is not an integer"),
        ("identity_float", "identity 3.0 is not an integer"),
        ("inverse_true", "inverse True is not an integer"),
        ("count_float", "morphism_count 4.0 is not an integer"),
        ("action_entry_text", "action table index '0' is not an integer"),
        ("group_n_true", "group n True is not an integer"),
        ("generator_bools", "generator entry True is not an integer"),
    ])
    def test_non_integer_field_is_named(self, name, message, tmp_path, capsys):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(BAD_INDEX_GROUPOIDS[name]))
        assert main(["grpd", "validate", "--in", str(p)]) == 2
        assert capsys.readouterr() == ("", f"error: bad groupoid document: {message}\n")

    def test_repeated_point_is_exit_2(self, tmp_path, capsys):
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(REPEATED_POINT_ACTION))
        for sub in GRPD_SUBS:
            extra = ["--object", "0"] if sub == "regrep" else []
            assert main(["grpd", sub, "--in", str(p)] + extra) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err == "error: bad groupoid document: point 0 is listed twice\n"


@pytest.mark.parametrize("argv", [
    ["grpd", "classify", "--name", "s3_natural", "--seed", "1"],
    ["cascade", "--table", "--samples", "4"],
    ["cascade", "--table", "--in", "alg.json"],
    ["lie", "series", "--name", "axb", "--tol", "1e-3"],
])
def test_flags_a_subcommand_does_not_read_are_refused(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: " + " ".join(argv[-2:]) in err


class TestParserBuiltOnce:
    """`main` reuses one parser per process; no call leaks into the next."""

    def test_defaults_return_after_an_override(self, tmp_path):
        assert build_parser() is build_parser()
        code, doc = run_json(["lie", "census", "--name", "axb", "--samples", "4"], tmp_path)
        assert code == 0 and doc["samples_requested"] == 4
        code, doc = run_json(["lie", "census", "--name", "axb"], tmp_path)
        assert code == 0 and doc["samples_requested"] == 512

    def test_a_refused_flag_leaves_no_trace(self, capsys):
        refused = ["lie", "census", "--name", "axb", "--samples", "8", "--tol", "1"]
        assert main(refused) == 2
        capsys.readouterr()
        argv = ["lie", "census", "--name", "axb", "--format", "text"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "liegrpd.cli", *argv], capture_output=True, text=True
        )
        assert fresh.returncode == 0 and out == fresh.stdout and "512" in out


class TestOutputContract:
    def test_census_byte_identical(self, tmp_path):
        argv = ["lie", "census", "--name", "axb", "--samples", "64", "--seed", "3"]
        _, a = run(argv, tmp_path, "a.json")
        _, b = run(argv, tmp_path, "b.json")
        assert a == b and a

    def test_stratify_byte_identical(self, tmp_path):
        argv = ["lie", "stratify", "--name", "filiform4"]
        _, a = run(argv, tmp_path, "a.json")
        _, b = run(argv, tmp_path, "b.json")
        assert a == b

    def test_text_format(self, tmp_path):
        code, text = run(
            ["lie", "series", "--name", "axb", "--format", "text"], tmp_path
        )
        assert code == 0
        assert "solvable: True" in text
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)

    def test_stdout_default(self, capsys):
        code = main(["lie", "validate", "--name", "axb"])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["valid"]

    def test_console_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "liegrpd.cli", "lie", "series", "--name", "e2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["solvable"]
