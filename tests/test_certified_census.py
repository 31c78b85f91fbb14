"""The census on certified Pfaffians against the probe census it replaces.

Where `certify_pfaffian` splits Pf, `open_component_census` classes its
samples by the signs of the linear factors and runs no segment probe.
`ref_probe_census` is the census as it ran before, every input through
probes.  On each certified input the reference's kept samples, grouped by
sign vector in order of first appearance, are the census's classes: the
same samples with the same first one.  Every probe class lies inside one
sign class, and the sign classes never outnumber the probe classes.  Where
Pf vanishes identically no point is drawn; elsewhere, uncertified inputs,
and inputs whose Pf is not expanded (beyond `PF_TERM_BUDGET`), keep the
probe census, and their reports stay byte-identical.
"""
import json
from fractions import Fraction

import pytest

from dense_reference import ref_probe_census, ref_probe_classes
from liegrpd import coadjoint
from liegrpd.catalog import axb_semidirect_plane, realified_borel
from liegrpd.cli import main
from liegrpd.coadjoint import certify_pfaffian, open_component_census, pfaffian_poly
from liegrpd.lie import algebra_to_json, from_brackets
from test_pfaffian import CASES, axb_power, borel_sp4, conjugated, e2_plus_e2

# name -> certified_open_orbits; in axb^4~0 the bracket reaches 6
# coordinates, C(6 + 4, 4) = 210 > PF_TERM_BUDGET, so its Pf is not expanded
CHAMBERS = {"axb": 2, "axb_semidirect_plane": 2, "realified_borel": 1,
            "axb^2": 4, "axb^3": 8, "axb^4": 16}
CERTIFIED = [f"{name}{tag}" for name in CHAMBERS for tag in ("", "~0", "~1")
             if name + tag != "axb^4~0"]


@pytest.mark.parametrize("samples", [32, 128, 512])
@pytest.mark.parametrize("name", CERTIFIED)
def test_sign_classes_keep_the_samples_and_merge_probe_classes(name, samples, monkeypatch):
    L = CASES[name]()
    reference, kept, probe_classes = ref_probe_classes(L, samples=samples, seed=1)
    with monkeypatch.context() as patch:
        def no_probe(*args):
            raise AssertionError("a certified census probed a segment")

        patch.setattr(coadjoint, "_segment_nondegenerate", no_probe)
        census = open_component_census(L, samples=samples, seed=1)
    signs = certify_pfaffian(pfaffian_poly(L), L.dim).signs
    classes = {}  # sign vector -> the reference's kept samples, in order
    for s in kept:
        classes.setdefault(signs(s), []).append(s)
    assert census.nondegenerate_samples == reference.nondegenerate_samples == len(kept)
    assert census.representatives == tuple(tuple(map(Fraction, c[0])) for c in classes.values())
    assert census.component_sizes == tuple(map(len, classes.values()))
    assert census.representatives[0] == reference.representatives[0]
    for cls in probe_classes:  # each probe class lies in one sign class
        assert len({signs(s) for s in cls}) == 1
    assert census.component_count <= reference.component_count
    chambers = CHAMBERS[name.split("~")[0]]
    assert census.certified_open_orbits == chambers
    assert census.component_count <= chambers
    assert census.dense_open_orbit is name.startswith("realified_borel")


def _report(argv, tmp_path, name):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def test_the_report_gains_the_certified_keys(tmp_path):
    for make, count, dense in ((axb_semidirect_plane, 2, False), (realified_borel, 1, True)):
        doc = tmp_path / "alg.json"
        doc.write_text(json.dumps(algebra_to_json(make())))
        argv = ["lie", "census", "--in", str(doc), "--samples", "32"]
        report = json.loads(_report(argv, tmp_path, "out.json"))
        assert (report["certified_open_orbits"], report["dense_open_orbit"]) == (count, dense)
        assert "exactly one component" in report["notes"][0]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name", ["heisenberg", "e2", "filiform4", "e2+e2", "b(sp4)"])
def test_uncertified_reports_are_the_probe_census_bytes(name, fmt, tmp_path, monkeypatch):
    doc = tmp_path / "alg.json"
    doc.write_text(json.dumps(algebra_to_json(CASES[name]())))
    argv = ["lie", "census", "--in", str(doc), "--samples", "64", "--seed", "2",
            "--format", fmt]
    new = _report(argv, tmp_path, "new")
    monkeypatch.setattr(coadjoint, "open_component_census", ref_probe_census)
    assert new == _report(argv, tmp_path, "reference")
    assert b"certified_open_orbits" not in new


def test_b_sp4_keeps_the_probe_census():
    # Pf = -2 x5 (2 x3 x5 - x4^2): the indefinite quadratic cofactor is refused
    for samples in (32, 128):
        census = open_component_census(borel_sp4(), samples=samples, seed=1)
        assert census == ref_probe_census(borel_sp4(), samples=samples, seed=1)
        assert census.certified_open_orbits is None and census.dense_open_orbit is None
        assert census.component_count >= 1


def test_an_identically_zero_pfaffian_draws_nothing(tmp_path, monkeypatch):
    # e2 + e2 has dimension 6 and a trivial center, yet Pf = 0: the census
    # used to draw all 40 * 512 points before it reported no component
    doc = tmp_path / "e2+e2.json"
    doc.write_text(json.dumps(algebra_to_json(e2_plus_e2())))
    argv = ["lie", "census", "--in", str(doc)]
    drawn = []
    monkeypatch.setattr(coadjoint, "_det_at", lambda L, xi: drawn.append(xi) or 0)
    report = json.loads(_report(argv, tmp_path, "report"))
    assert report["component_count"] == 0 and report["nondegenerate_samples"] == 0
    assert not report["open_orbit_exists"] and drawn == []


def test_certified_powers_find_every_chamber_at_512():
    # the (ax+b)^k census at 512 samples meets every sign vector
    for k in (2, 3):
        census = open_component_census(axb_power(k), samples=512, seed=0)
        assert census.component_count == census.certified_open_orbits == 2**k
        assert census.even


def test_beyond_the_term_budget_the_census_is_the_probe_census(monkeypatch):
    # C(v + h, h) > 84 for (ax+b)^5 (C(10, 5) = 252) and for the conjugates
    # of (ax+b)^4 and of the centered algebra, whose brackets reach 6 of 8
    # coordinates (210): nothing is expanded or certified, and the nonzero
    # center still keeps the degenerate input from drawing
    def no_expansion(L):
        raise AssertionError("Pf expanded beyond the budget")

    monkeypatch.setattr(coadjoint, "pfaffian_poly", no_expansion)
    assert coadjoint.PF_TERM_BUDGET == 84
    for L in (axb_power(5), conjugated(axb_power(4), 0)):
        census = open_component_census(L, samples=16, seed=1)
        assert census == ref_probe_census(L, samples=16, seed=1)
        assert census.certified_open_orbits is None and census.component_count >= 1
    centered = conjugated(from_brackets(8, {(0, 1): {2: 1}, (3, 4): {4: 1}, (5, 6): {6: 1}}), 0)
    drawn = []
    monkeypatch.setattr(coadjoint, "_det_at", lambda L, xi: drawn.append(xi) or 0)
    assert open_component_census(centered, samples=16).component_count == 0 and drawn == []


def test_within_the_term_budget_pf_is_expanded(monkeypatch):
    # (ax+b)^4 in its own basis: v = 4 coordinates, C(8, 4) = 70; an odd
    # dimension expands to Pf = 0 at once, whatever its size
    expanded = []
    real = coadjoint.pfaffian_poly
    monkeypatch.setattr(coadjoint, "pfaffian_poly", lambda L: expanded.append(L.dim) or real(L))
    assert open_component_census(axb_power(4), samples=8).certified_open_orbits == 16
    odd = conjugated(from_brackets(9, {(0, 1): {2: 1}, (3, 4): {5: 1}}), 0)
    assert open_component_census(odd, samples=8).component_count == 0
    assert expanded == [8, 9]
