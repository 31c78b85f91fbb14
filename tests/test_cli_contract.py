"""CLI contract over many inputs: exit 0, 1 or 2, no escaping exception, and
identical bytes on a rerun.

Every subcommand runs in-process on the catalog, the corpus and a set of
malformed documents (out-of-range indices, repeated brackets, nonpositive
dimension, exponent notation, wrong JSON types, broken groupoid tables) and
with no input at all.  A malformed document, and a run with no document,
exits 2 under every subcommand, except the `validate` runs named in
`VERIFIED_VIOLATIONS`, which exit 1.  Every report that exits 0 or 1 names
its command, and exits 1 exactly when its `ok` or `valid` verdict is false.
An unwritable `--out` exits 2.  No `lie` subcommand takes `--tol`, so every
`--tol` exits 2 with argparse's one-line error.
The companion-form algebra of (t - 10^7)(t - 1)(t - 2) and its diagonal twin
get exact weights; a weight search that fails, on the companion form of
(t - 10^7)(t^2 - 2), exits 2 with a one-line reason under `roots`, `exptest`
and `census`; the exact -1 probe exits 0 on the companion form and on
`[Y1, Y2] = 10^399 Y2`.
A coefficient too large for a float is left to
`test_cli.py::TestNumericBridgeOverflow`.
"""
import contextlib
import io
import itertools
import json
from pathlib import Path

from liegrpd import catalog
from liegrpd.cli import main
from liegrpd.groupoids import groupoid_to_json, pair_groupoid

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

LIE_SUBS = ["validate", "series", "roots", "exptest", "coadjoint", "census",
            "stratify", "probe-minus-one"]
GRPD_SUBS = ["validate", "classify", "pullback-verify", "bimodule-verify",
             "decompose", "profile", "regrep"]


def _bracket_doc(dim, coeffs, **extra):
    doc = {"dim": dim, "field": "Q", "brackets": [{"i": 0, "j": 1, "coeffs": coeffs}]}
    doc.update(extra)
    return doc


MALFORMED_ALGEBRAS = {
    "index_minus_one": _bracket_doc(2, {"-1": "1"}),
    "index_past_dim": _bracket_doc(2, {"5": "1"}),
    "repeated_bracket": {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": {"1": "1"}},
                                                {"i": 0, "j": 1, "coeffs": {"1": "2"}}]},
    "repeated_coefficient": _bracket_doc(2, {"1": "1", "01": "2"}),
    "dim_zero": {"dim": 0, "brackets": []},
    "dim_negative": {"dim": -2, "brackets": []},
    "dim_text": {"dim": "two", "brackets": []},
    "exponent": _bracket_doc(2, {"1": "1e1000000"}),
    "number_coefficient": _bracket_doc(2, {"1": 1}),
    "list_coefficients": _bracket_doc(2, ["1"]),
    "zero_denominator": _bracket_doc(2, {"1": "1/0"}),
    "bracket_order": {"dim": 2, "brackets": [{"i": 1, "j": 0, "coeffs": {"1": "1"}}]},
    "jacobi_violation": {"dim": 3, "brackets": [
        {"i": 0, "j": 1, "coeffs": {"0": "1", "2": "1"}},
        {"i": 0, "j": 2, "coeffs": {"1": "1"}},
        {"i": 1, "j": 2, "coeffs": {"0": "1"}}]},
    "unknown_field": _bracket_doc(2, {"1": "1"}, field="R"),
    "non_real_over_q": _bracket_doc(2, {"1": "i"}),
    "not_an_object": [1, 2, 3],
    "missing_dim": {"brackets": []},
    "dim_too_large": {"dim": 129, "brackets": []},
}

# Integer fields holding a JSON float, boolean or string: `dim` 2.5 and
# `true` used to load as axb and as a 1-dimensional algebra.
NON_INTEGER_ALGEBRAS = {
    "dim_float": {"dim": 2.5, "brackets": [{"i": 0.9, "j": 1.2, "coeffs": {"1": "1"}}]},
    "dim_true": {"dim": True, "brackets": []},
    "dim_numeric_text": {"dim": "2", "brackets": []},
    "index_float": {"dim": 2, "brackets": [{"i": 0.0, "j": 1, "coeffs": {"1": "1"}}]},
    "index_false": {"dim": 2, "brackets": [{"i": False, "j": True, "coeffs": {"1": "1"}}]},
    "index_text": {"dim": 2, "brackets": [{"i": "0", "j": "1", "coeffs": {"1": "1"}}]},
}
MALFORMED_ALGEBRAS.update(NON_INTEGER_ALGEBRAS)


def _s3_action(**changes):
    doc = {"kind": "group_action", "group": {"family": "symmetric", "n": 3},
           "points": [0, 1, 2],
           "table": [list(p) for p in sorted(itertools.permutations(range(3)))]}
    doc.update(changes)
    return doc


def _pair_on_two(**changes):
    doc = groupoid_to_json(pair_groupoid((0, 1)))
    doc.update(changes)
    return doc


def _last_as_minus_one(indices, last):
    return [-1 if i == last else i for i in indices]


_PAIR = _pair_on_two()
_S3 = _s3_action()

# Indices a document may not hold.  The -1 entries and the repeated pair
# (wrong composite first, right one last) describe a valid groupoid if -1
# wraps to the last entry or the last pair wins; the past-the-end ones used
# to raise IndexError.  The float, boolean and string entries equal a valid
# index or count; `true` as a source and 0.0 as a composition entry used to
# load as 1 and 0.
BAD_INDEX_GROUPOIDS = {
    "action_entry_minus_one": _s3_action(
        table=[_last_as_minus_one(row, 2) for row in _S3["table"]]),
    "action_entry_past_points": _s3_action(
        table=[[3, 1, 2]] + _S3["table"][1:]),
    "source_minus_one": _pair_on_two(source=_last_as_minus_one(_PAIR["source"], 1)),
    "target_minus_one": _pair_on_two(target=_last_as_minus_one(_PAIR["target"], 1)),
    "source_past_objects": _pair_on_two(source=[2] + _PAIR["source"][1:]),
    "count_above_lists": _pair_on_two(morphism_count=_PAIR["morphism_count"] + 1),
    "repeated_pair": _pair_on_two(composition=[
        _PAIR["composition"][0][:2] + [(_PAIR["composition"][0][2] + 1) % 4],
        *_PAIR["composition"]]),
    "source_true": _pair_on_two(source=[0, True, 0, 1]),
    "composition_float": _pair_on_two(composition=[[0.0, 0, 0], *_PAIR["composition"][1:]]),
    "identity_float": _pair_on_two(identities=[0, 3.0]),
    "inverse_true": _pair_on_two(inverses=[0, 2, True, 3]),
    "count_float": _pair_on_two(morphism_count=4.0),
    "count_text": _pair_on_two(morphism_count="4"),
    "action_entry_float": _s3_action(table=[[0.0, 1, 2]] + _S3["table"][1:]),
    "action_entry_text": _s3_action(table=[["0", 1, 2]] + _S3["table"][1:]),
    "group_n_float": _s3_action(group={"family": "symmetric", "n": 3.0}),
    "group_n_true": {"kind": "group_action", "group": {"family": "cyclic", "n": True},
                     "points": [0], "table": [[0]]},
    "generator_bools": {"kind": "group_action",
                        "group": {"family": "permutations", "n": 2, "generators": [[True, False]]},
                        "points": [0, 1], "table": [[0, 1], [1, 0]]},
    # the empty generator list closed to the one-element group on no points
    "permutations_negative_n": {"kind": "group_action",
                                "group": {"family": "permutations", "n": -1, "generators": []},
                                "points": [0], "table": [[0]]},
    # a degree this large once spent minutes building the one-element table
    "permutations_degree_three_million": {
        "kind": "group_action",
        "group": {"family": "permutations", "n": 3_000_000, "generators": []},
        "points": [0], "table": [[0]]},
}

# groups far larger than their one-row tables, refused before their elements
# are listed: C_(10^12) escaped as MemoryError, and S10 listed 3,628,800
ONE_ROW = {"kind": "group_action", "points": [0], "table": [[0]]}
OVERSIZED_GROUPS = {
    "cyclic_trillion": {**ONE_ROW, "group": {"family": "cyclic", "n": 10 ** 12}},
    "symmetric_ten": {**ONE_ROW, "group": {"family": "symmetric", "n": 10}},
    "permutations_s8": {**ONE_ROW, "group": {"family": "permutations", "n": 8, "generators": [
        [1, 2, 3, 4, 5, 6, 7, 0], [1, 0, 2, 3, 4, 5, 6, 7]]}},
}

# a valid C2 table on the points [0, 0]: one object listed twice
REPEATED_POINT_ACTION = {"kind": "group_action", "group": {"family": "cyclic", "n": 2},
                         "points": [0, 0], "table": [[0, 1], [1, 0]]}

MALFORMED_GROUPOIDS = {
    **BAD_INDEX_GROUPOIDS,
    "unknown_kind": {"kind": "monoid"},
    "not_an_object": "groupoid",
    "action_short_table": {"kind": "group_action", "group": {"family": "symmetric", "n": 3},
                           "points": [0, 1, 2], "table": [[0, 1, 2]]},
    "groupoid_missing_tables": {"kind": "groupoid", "objects": [0]},
    "action_repeated_point": REPEATED_POINT_ACTION,
    **OVERSIZED_GROUPS,
}


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# the malformed documents that `validate` reports as a verified violation
# (exit 1); every other run on a malformed document, or on none, exits 2
VERIFIED_VIOLATIONS = {
    ("lie", "validate", "jacobi_violation"),
    ("lie", "validate", "non_real_over_q"),
    ("lie", "validate", "unknown_field"),
    ("grpd", "validate", "action_short_table"),
    *(("grpd", "validate", name) for name in OVERSIZED_GROUPS),
}


# `--tol` values that the float probe once misread: it reported no witness
# at nan, a "witness" 0.992+0.125i at inf and, at 3, the eigenvalue 1 of the
# nilpotent heisenberg; the flag is gone from every subcommand
NON_FINITE_TOLS = ("nan", "inf", "-inf", "1e400")
TOL_SUBS = ("roots", "exptest", "probe-minus-one")
PROBE_TOLS_AT_LEAST_ONE = ("1", "3", "1e300")

# R x_A Q^3 with A the companion matrix of (t - 10^7)(t - 1)(t - 2): the
# exact weight search finds its weights 0, 1, 2 and 10^7 on Y1 (the old
# divisor scan gave up on the cubic, and the float search found no joint
# eigenvector), and its diagonal twin, ad(Y1) = diag(10^7, 1, 2)
COMPANION_FORM = {"dim": 4, "brackets": [
    {"i": 0, "j": 1, "coeffs": {"2": "1"}},
    {"i": 0, "j": 2, "coeffs": {"3": "1"}},
    {"i": 0, "j": 3, "coeffs": {"1": "20000000", "2": "-30000002", "3": "10000003"}}]}
DIAGONAL_FORM = {"dim": 4, "brackets": [
    {"i": 0, "j": 1, "coeffs": {"1": "10000000"}},
    {"i": 0, "j": 2, "coeffs": {"2": "1"}},
    {"i": 0, "j": 3, "coeffs": {"3": "2"}}]}
# the companion of (t - 10^7)(t^2 - 2): the weights +-sqrt 2 leave Q(i), and
# the float weight search finds no joint eigenvector; its ArithmeticError
# used to escape `main`
IRRATIONAL_COMPANION = {"dim": 4, "brackets": [
    *COMPANION_FORM["brackets"][:2],
    {"i": 0, "j": 3, "coeffs": {"1": "-20000000", "2": "2", "3": "10000000"}}]}
WEIGHT_SUBS = ("roots", "exptest", "census")
# its weight 10^399 does not fit a float
HUGE_WEIGHT = _bracket_doc(2, {"1": "1" + "0" * 399})


def _cases(tmp_path):
    """(argv, expected exit code); the code is None on the catalog, the
    corpus and the cascade, where 0, 1 and 2 are all allowed."""
    lie_inputs = [(["--name", n], None) for n in catalog.LIE_CATALOG]
    lie_inputs += [(["--in", str(CORPUS / f"{n}.json")], None)
                   for n in ("axb", "complex_borel", "e2", "filiform4", "heisenberg")]
    dims = [make().dim for make in catalog.LIE_CATALOG.values()]
    dims += [json.loads(Path(inp[1]).read_text())["dim"] for inp, _ in lie_inputs[len(dims):]]
    grpd_inputs = [(["--name", n], None) for n in catalog.GROUPOID_CATALOG]
    grpd_inputs += [(["--in", str(CORPUS / f"{n}.json")], None)
                    for n in ("negation_groupoid", "s3_natural", "z4_parity")]
    for kind, docs, inputs in (("alg", MALFORMED_ALGEBRAS, lie_inputs),
                               ("grpd", MALFORMED_GROUPOIDS, grpd_inputs)):
        for name, doc in docs.items():
            p = tmp_path / f"{kind}_{name}.json"
            p.write_text(json.dumps(doc))
            inputs.append((["--in", str(p)], name))
        inputs.append(([], ""))

    def expected(argv, doc):
        if doc is None:
            return None
        return 1 if (argv[0], argv[1], doc) in VERIFIED_VIOLATIONS else 2

    for (inp, doc), dim in zip(lie_inputs, dims + [2] * len(lie_inputs)):
        for sub in LIE_SUBS:
            extra = ["--point", ",".join(["1"] * dim)] if sub == "coadjoint" else []
            if sub in ("census", "stratify"):
                extra = ["--samples", "4"]
            yield ["lie", sub] + inp + extra, expected(["lie", sub], doc)
    for inp, doc in grpd_inputs:
        for sub in GRPD_SUBS:
            extra = ["--object", "0"] if sub == "regrep" else []
            yield ["grpd", sub] + inp + extra, expected(["grpd", sub], doc)
    yield ["cascade", "--family", "B", "--rank", "3"], None
    yield ["cascade", "--table", "--max-rank", "3"], None
    yield ["cascade", "--family", "A", "--rank", "1000"], None
    yield ["cascade", "--table", "--max-rank", "0"], None
    yield ["cascade", "--table", "--max-rank", "25"], None
    yield ["cascade"], None
    yield ["lie", "coadjoint", "--name", "axb", "--point", "1e99999999,1"], None
    for sub in TOL_SUBS:
        for tol in NON_FINITE_TOLS:
            yield ["lie", sub, "--name", "e2", f"--tol={tol}"], 2
        yield ["lie", sub, "--name", "e2", "--tol", "0"], 2
    for tol in PROBE_TOLS_AT_LEAST_ONE:
        yield ["lie", "probe-minus-one", "--name", "heisenberg", "--tol", tol], 2
    companion = tmp_path / "alg_companion_form.json"
    companion.write_text(json.dumps(COMPANION_FORM))
    for sub in WEIGHT_SUBS:
        yield ["lie", sub, "--in", str(companion)], 0
    huge = tmp_path / "alg_huge_weight.json"
    huge.write_text(json.dumps(HUGE_WEIGHT))
    for doc in (companion, huge):
        yield ["lie", "probe-minus-one", "--in", str(doc)], 0


def test_every_subcommand_keeps_the_exit_contract(tmp_path):
    codes, violations = set(), set()
    for argv, code in _cases(tmp_path):
        try:
            first = _capture(argv)
            second = _capture(argv)
        except Exception as exc:  # the contract: nothing escapes main
            raise AssertionError(f"{argv} raised {exc!r}") from exc
        assert first[0] in (0, 1, 2), argv
        if code is not None:
            assert first[0] == code, argv
            if code == 1:
                violations.add((argv[0], argv[1], Path(argv[3]).stem.split("_", 1)[1]))
        assert first == second, argv
        assert "Traceback" not in first[2], argv
        if first[0] != 2:  # main names the report and reads its verdict
            report = json.loads(first[1])
            assert report["command"] == " ".join(argv[:1 if argv[0] == "cascade" else 2])
            assert (first[0] == 1) == (False in (report.get("ok"), report.get("valid")))
        codes.add(first[0])
    assert codes == {0, 1, 2}
    assert violations == VERIFIED_VIOLATIONS


def test_a_failed_weight_search_exits_2_with_one_line(tmp_path):
    companion = tmp_path / "irrational_companion.json"
    companion.write_text(json.dumps(IRRATIONAL_COMPANION))
    for sub in WEIGHT_SUBS:
        code, out, err = _capture(["lie", sub, "--in", str(companion)])
        assert (code, out) == (2, ""), sub
        assert err == "error: float weight search failed to find a joint eigenvector\n", sub


def test_the_weights_0_1_2_and_10_7_are_exact(tmp_path):
    for name, doc in (("companion", COMPANION_FORM), ("diagonal", DIAGONAL_FORM)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        code, out, err = _capture(["lie", "roots", "--in", str(path)])
        assert (code, err) == (0, ""), name
        roots = json.loads(out)["roots"]
        assert [(r["re"][0], r["multiplicity"], r["exact"]) for r in roots] == [
            ("0", 1, True), ("1", 1, True), ("2", 1, True), ("10000000", 1, True)], name
        assert all(x == "0" for r in roots for x in r["im"]), name
        code, out, err = _capture(["lie", "exptest", "--in", str(path)])
        report = json.loads(out)
        assert (code, report["verdict"], report["heuristic"]) == (0, True, False), name


def test_an_unwritable_out_exits_2(tmp_path):
    # a missing directory, and a directory in place of the file
    for out in (tmp_path / "missing" / "x.json", tmp_path):
        for argv in (["lie", "series", "--name", "axb"],
                     ["grpd", "classify", "--in", str(CORPUS / "s3_natural.json")],
                     ["cascade", "--family", "B", "--rank", "3"]):
            code, stdout, err = _capture(argv + ["--out", str(out)])
            assert (code, stdout) == (2, ""), (argv, out)
            assert err.startswith(f"error: cannot write {out}: "), (argv, out)
            assert "Traceback" not in err


def test_tol_is_refused_with_one_line():
    for sub in TOL_SUBS:
        for tol in NON_FINITE_TOLS + PROBE_TOLS_AT_LEAST_ONE + ("0",):
            code, out, err = _capture(["lie", sub, "--name", "e2", f"--tol={tol}"])
            assert (code, out) == (2, ""), (sub, tol)
            assert err.endswith(f"error: unrecognized arguments: --tol={tol}\n"), (sub, tol)
            assert "Traceback" not in err
