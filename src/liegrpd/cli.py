"""Command-line interface: deterministic JSON/text reports.

Exit codes: 0 = command ran (and any verification passed), 1 = a verification
command found a violation, 2 = bad usage, malformed input or an unwritable
`--out`.  Each `cmd_*` returns its report; `main` is the one place that names
the command in the report, writes it and turns its `ok` or `valid` verdict
into the exit code.  All output is byte-deterministic for fixed inputs and
flags: JSON is emitted with sorted keys, rationals as "p/q" strings, and
every report embeds a sha256 digest of the input it was computed from.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from fractions import Fraction

# the shared kernel; every other module is imported by the command or loader
# that uses it, so a process compiles only its own command's side
from .exact import NumericError, format_scalar, parse_scalar


class InputError(Exception):
    """Malformed or missing input: exit code 2."""


def _jsonable(x):
    if isinstance(x, Fraction) or hasattr(x, "re"):
        return format_scalar(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_json_file(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(raw.decode("utf-8")), _digest(raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _load_algebra(args):
    from .lie import algebra_from_json, algebra_to_json

    if args.name:
        from . import catalog

        if args.name not in catalog.LIE_CATALOG:
            raise InputError(
                f"unknown algebra {args.name!r}; available: "
                + ", ".join(sorted(catalog.LIE_CATALOG))
            )
        L = catalog.LIE_CATALOG[args.name]()
        canonical = json.dumps(algebra_to_json(L), sort_keys=True).encode()
        return L, {"name": args.name, "sha256": _digest(canonical)}
    if args.infile:
        doc, digest = _load_json_file(args.infile)
        try:
            return algebra_from_json(doc), {"path": args.infile, "sha256": digest}
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad algebra document: {exc}") from exc
    raise InputError("provide --name or --in")


def _groupoid_source(args):
    """The catalog constructor or the parsed JSON document the arguments name,
    and the input metadata a report embeds (the name, or the path and sha256)."""
    if args.name:
        from . import catalog

        if args.name not in catalog.GROUPOID_CATALOG:
            raise InputError(
                f"unknown groupoid {args.name!r}; available: "
                + ", ".join(sorted(catalog.GROUPOID_CATALOG))
            )
        return catalog.GROUPOID_CATALOG[args.name], {"name": args.name}
    if args.infile:
        doc, digest = _load_json_file(args.infile)
        return doc, {"path": args.infile, "sha256": digest}
    raise InputError("provide --name or --in")


def _build_groupoid(source, validate: bool = False):
    """Build the groupoid from a catalog constructor or a document (action or
    explicit tables).

    Explicit tables are validated as they are read.  With `validate` every
    other input is validated too, and axiom violations propagate to the
    caller, the validation command, which reports them as findings;
    otherwise they are wrapped into InputError (exit 2).
    """
    from .groupoids import (
        AxiomError, action_from_json, groupoid_from_json, transformation_groupoid,
        validate_groupoid,
    )

    explicit = False
    if callable(source):
        G = source()
    else:
        kind = source.get("kind") if isinstance(source, dict) else None
        try:
            if kind == "group_action":
                G = transformation_groupoid(action_from_json(source))
            elif kind == "groupoid":
                G = groupoid_from_json(source)
                explicit = True
            else:
                raise InputError(f"unknown document kind {kind!r}")
        except AxiomError:
            if not validate:
                raise InputError("groupoid document violates an axiom") from None
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad groupoid document: {exc}") from exc
    if validate and not explicit:
        validate_groupoid(G)
    return G


def _load_groupoid(args):
    source, meta = _groupoid_source(args)
    return _build_groupoid(source), meta


def _parse_point(text: str, dim: int):
    try:
        parts = [parse_scalar(p.strip()) for p in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad point {text!r}: {exc}") from exc
    if len(parts) != dim:
        raise InputError(f"point has {len(parts)} coordinates, need {dim}")
    return tuple(parts)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    else:
        lines = []

        def walk(prefix, val):
            if isinstance(val, dict):
                for k in sorted(val):
                    walk(f"{prefix}{k}." if prefix else f"{k}.", val[k])
            elif isinstance(val, (list, tuple)):
                lines.append(f"{prefix[:-1]}: {json.dumps(_jsonable(val))}")
            else:
                lines.append(f"{prefix[:-1]}: {_jsonable(val)}")

        walk("", report)
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# lie subcommands


def cmd_lie_validate(args) -> dict:
    from .lie import FieldError, JacobiError, algebra_from_json

    if args.name or not args.infile:
        L, meta = _load_algebra(args)
    else:
        doc, digest = _load_json_file(args.infile)
        meta = {"path": args.infile, "sha256": digest}
        try:
            L = algebra_from_json(doc)
        except (JacobiError, FieldError) as exc:
            return {
                "input": meta,
                "valid": False,
                "violation": type(exc).__name__,
                "detail": _jsonable(list(exc.args)),
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad algebra document: {exc}") from exc
    return {"input": meta, "valid": True, "dim": L.dim, "field": L.field}


def cmd_lie_series(args) -> dict:
    from .lie import structure_series

    L, meta = _load_algebra(args)
    s = structure_series(L)
    return {
        "input": meta,
        "dim": L.dim,
        "derived_dims": [sp.dim for sp in s.derived_series],
        "lower_central_dims": [sp.dim for sp in s.lower_central_series],
        "center_dim": s.center.dim,
        "solvable": s.is_solvable,
        "nilpotent": s.is_nilpotent,
    }


def cmd_lie_roots(args) -> dict:
    from .weights import SolvabilityError, algebra_roots

    L, meta = _load_algebra(args)
    try:
        roots = algebra_roots(L)
    except SolvabilityError as exc:
        raise InputError(f"roots need a solvable algebra: {exc}") from exc
    return {
        "input": meta,
        "roots": [
            {"re": r.re, "im": r.im, "multiplicity": r.multiplicity, "exact": r.exact}
            for r in roots
        ],
    }


def cmd_lie_exptest(args) -> dict:
    from .weights import SolvabilityError, algebra_is_exponential

    L, meta = _load_algebra(args)
    try:
        res = algebra_is_exponential(L)
    except SolvabilityError as exc:
        raise InputError(f"the test needs a solvable algebra: {exc}") from exc
    return {
        "input": meta,
        "verdict": res.verdict,
        "heuristic": res.heuristic,
        "certificates": [
            {"weight_re": c.weight.re, "weight_im": c.weight.im, "theta": c.theta,
             "violation": c.violation}
            for c in res.certificates
        ],
    }


def cmd_lie_coadjoint(args) -> dict:
    from .coadjoint import bform, isotropy_algebra

    L, meta = _load_algebra(args)
    xi = _parse_point(args.point, L.dim)
    form = bform(L, xi)
    iso = isotropy_algebra(L, xi)
    # the isotropy algebra is the kernel of the skew form, so rank = dim - dim ker
    orbit_dim = L.dim - iso.dim
    return {
        "input": meta,
        "point": xi,
        "skew_form": form.data,
        "orbit_dimension": orbit_dim,
        "open_orbit": orbit_dim == L.dim,
        "isotropy_dim": iso.dim,
        "isotropy_basis": iso.rows,
    }


def cmd_lie_census(args) -> dict:
    from .coadjoint import open_component_census

    L, meta = _load_algebra(args)
    try:
        census = open_component_census(L, samples=args.samples, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return {
        "input": meta,
        "seed": args.seed,
        "samples_requested": args.samples,
        "nondegenerate_samples": census.nondegenerate_samples,
        "component_count": census.component_count,
        "component_sizes": list(census.component_sizes),
        "representatives": census.representatives,
        "negation_pairing": [list(p) for p in census.negation_pairing],
        "even": census.even,
        "evenness_asserted": census.exponential,
        "heuristic_weights": census.heuristic_weights,
        "open_orbit_exists": census.component_count > 0,
        "open_orbit_witness": census.representatives[0] if census.representatives else None,
        "notes": list(census.notes),
    }


def cmd_lie_stratify(args) -> dict:
    from .strata import coadjoint_stratification

    L, meta = _load_algebra(args)
    try:
        s = coadjoint_stratification(L, samples=args.samples, seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return {
        "input": meta,
        "flag_dims": list(s.flag_dims),
        "generic_jump_set": list(s.generic_jump_set),
        "generic_rank": s.generic_rank,
        "exhaustive_grid": s.exhaustive,
        "strata": [
            {"jump_set": st.jump_set, "rank": st.rank, "sample_count": st.sample_count,
             "representative": st.representative}
            for st in s.strata
        ],
        "notes": list(s.notes),
    }


def cmd_lie_probe_minus_one(args) -> dict:
    from .coadjoint import minus_one_probe

    L, meta = _load_algebra(args)
    probe = minus_one_probe(L, seed=args.seed)
    return {
        "input": meta,
        "found": probe.found,
        "direction": probe.direction,
        "t": probe.t_label,
        "eigenvalue": probe.eigenvalue,
    }


# ---------------------------------------------------------------------------
# cascade subcommand

# `cascade --table --max-rank 24` takes 0.3-0.5 s as a whole process on a
# 2-CPU Xeon VM with Python 3.11.7; time grows faster than rank^3
MAX_RANK = 24


def cmd_cascade(args) -> dict:
    from .rootsystems import build_root_system, cascade_classification, open_orbit_rank_test

    if args.table:
        if not 1 <= args.max_rank <= MAX_RANK:
            raise InputError(f"--max-rank must lie in 1..{MAX_RANK}, not {args.max_rank}")
        return {"max_rank": args.max_rank,
                "open_orbit": cascade_classification(max_rank=args.max_rank)}
    if not args.family or args.rank is None:
        raise InputError("provide --family and --rank, or --table")
    if args.rank > MAX_RANK:
        raise InputError(f"--rank {args.rank} is above the limit {MAX_RANK}")
    try:
        rs = build_root_system(args.family, args.rank)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = open_orbit_rank_test(rs)
    return {
        "system": rep.name,
        "rank": rep.rank,
        "positive_root_count": rep.positive_count,
        "cascade": [[_jsonable(v) for v in root] for root in rep.cascade],
        "cascade_size": rep.cascade_size,
        "has_open_orbit": rep.has_open_orbit,
    }


# ---------------------------------------------------------------------------
# grpd subcommands


def cmd_grpd_validate(args) -> dict:
    from .groupoids import AxiomError, NotInvariant

    source, meta = _groupoid_source(args)
    try:
        G = _build_groupoid(source, validate=True)
    except (AxiomError, NotInvariant) as exc:
        return {
            "input": meta,
            "valid": False,
            "violation": type(exc).__name__,
            "detail": _jsonable([str(a) for a in exc.args]),
        }
    mode, visited = G.ids.associativity
    return {
        "input": meta,
        "valid": True,
        "objects": len(G.objects),
        "morphisms": len(G.morphisms),
        "associativity": mode,
        "triples_visited": visited,
    }


def cmd_grpd_classify(args) -> dict:
    from .groupoids import classify, orbits_isotropy

    G, meta = _load_groupoid(args)
    c = classify(G)
    orbs = orbits_isotropy(G)
    return {
        "input": meta,
        "objects": len(G.objects),
        "morphisms": len(G.morphisms),
        "is_group_bundle": c.is_group_bundle,
        "is_transitive": c.is_transitive,
        "is_pair": c.is_pair,
        "is_principal": c.is_principal,
        "orbit_count": c.orbit_count,
        "orbit_sizes": [len(o) for o in orbs.orbits],
        "isotropy_orders": list(orbs.isotropy_orders),
        "representatives": [_jsonable(r) for r in orbs.representatives],
    }


def cmd_grpd_pullback_verify(args) -> dict:
    from .groupoids import pullback_isomorphism_verify

    G, meta = _load_groupoid(args)
    rep = pullback_isomorphism_verify(G)
    return {
        "input": meta,
        "ok": rep.ok,
        "morphisms": rep.morphism_count,
        "pullback_morphisms": rep.pullback_count,
        "bijective": rep.bijective,
        "functorial": rep.functorial,
        "identities_match": rep.identities_match,
        "inverses_match": rep.inverses_match,
        "round_trip": rep.round_trip,
    }


def cmd_grpd_bimodule_verify(args) -> dict:
    from .groupoids import equivalence_bimodule_verify

    G, meta = _load_groupoid(args)
    rep = equivalence_bimodule_verify(G)
    return {
        "input": meta,
        "ok": rep.ok,
        "checks": dict(rep.checks),
        "linking_elements": rep.element_count,
    }


def cmd_grpd_decompose(args) -> dict:
    from .groupoids import piecewise_decompose

    G, meta = _load_groupoid(args)
    rep = piecewise_decompose(G)
    return {
        "input": meta,
        "representatives": [_jsonable(r) for r in rep.representatives],
        "orbit_sizes": list(rep.orbit_sizes),
        "ideal_dims": list(rep.ideal_dims),
        "layer_pullback_ok": list(rep.layer_pullback_ok),
        "total_morphisms": rep.total_morphisms,
    }


def cmd_grpd_profile(args) -> dict:
    from .groupoids import algebra_profile

    G, meta = _load_groupoid(args)
    p = algebra_profile(G)
    return {
        "input": meta,
        "blocks": [
            {
                "representative": _jsonable(r),
                "orbit_size": n,
                "isotropy_order": iso,
                "block_dim": dim,
                "irreducible_count": irr,
            }
            for (r, n, iso, dim, irr) in p.blocks
        ],
        "total_dim": p.total_dim,
        "matches_morphism_count": p.matches_morphism_count,
        "dual_total": p.dual_total,
    }


def cmd_grpd_regrep(args) -> dict:
    from .groupoids import regular_representation_faithful

    G, meta = _load_groupoid(args)
    base = None
    for x in G.objects:
        if str(x) == args.object:
            base = x
            break
    if base is None:
        try:
            literal = json.loads(args.object)
            if isinstance(literal, list):
                literal = tuple(literal)
            if literal in G.objects:
                base = literal
        except json.JSONDecodeError:
            pass
    if base is None:
        raise InputError(
            f"object {args.object!r} not found; objects: "
            + ", ".join(str(x) for x in G.objects)
        )
    rep = regular_representation_faithful(G, base)
    return {
        "input": meta,
        "object": _jsonable(base),
        "faithful": rep.faithful,
        "rank": rep.rank,
        "morphisms": rep.morphism_count,
        "orbit_covers_objects": rep.orbit_covers_objects,
    }


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    """An argparse type: a positive integer."""
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _add_io_flags(p, source=True):
    if source:
        p.add_argument("--name", help="catalog entry name")
        p.add_argument("--in", dest="infile", help="input JSON file")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.add_argument("--out", help="write the report to this file")


# every other flag, registered only on the subcommands that read it
_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--samples": dict(type=_positive_int, default=512),
    "--point": dict(required=True, help="comma-separated rational coordinates"),
    "--object": dict(required=True, help="base object label"),
}


def _add_subcommands(sub, group, table):
    for name, fn, flags in table:
        p = sub.add_parser(name)
        _add_io_flags(p)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(fn=fn, command_name=f"{group} {name}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="liegrpd",
        description="Exact coadjoint-orbit structure and finite groupoid checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lie = sub.add_parser("lie", help="solvable Lie algebra analysis")
    lie_sub = lie.add_subparsers(dest="subcommand", required=True)
    _add_subcommands(lie_sub, "lie", [
        ("validate", cmd_lie_validate, ()),
        ("series", cmd_lie_series, ()),
        ("roots", cmd_lie_roots, ()),
        ("exptest", cmd_lie_exptest, ()),
        ("coadjoint", cmd_lie_coadjoint, ("--point",)),
        ("census", cmd_lie_census, ("--seed", "--samples")),
        ("stratify", cmd_lie_stratify, ("--seed", "--samples")),
        ("probe-minus-one", cmd_lie_probe_minus_one, ("--seed",)),
    ])

    cas = sub.add_parser("cascade", help="root-system cascade rank test")
    _add_io_flags(cas, source=False)
    cas.add_argument("--family", help="A, B, C, D, E, F, or G")
    cas.add_argument("--rank", type=int)
    cas.add_argument("--table", action="store_true",
                     help="classify every system up to --max-rank")
    cas.add_argument("--max-rank", type=int, default=8)
    cas.set_defaults(fn=cmd_cascade, command_name="cascade")

    grpd = sub.add_parser("grpd", help="finite groupoid checks")
    grpd_sub = grpd.add_subparsers(dest="subcommand", required=True)
    _add_subcommands(grpd_sub, "grpd", [
        ("validate", cmd_grpd_validate, ()),
        ("classify", cmd_grpd_classify, ()),
        ("pullback-verify", cmd_grpd_pullback_verify, ()),
        ("bimodule-verify", cmd_grpd_bimodule_verify, ()),
        ("decompose", cmd_grpd_decompose, ()),
        ("profile", cmd_grpd_profile, ()),
        ("regrep", cmd_grpd_regrep, ("--object",)),
    ])

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = {"command": args.command_name, **args.fn(args)}
        _emit(report, args)
    except (InputError, NumericError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        return 0
    return 0 if report.get("ok", True) and report.get("valid", True) else 1


if __name__ == "__main__":
    sys.exit(main())
