"""Outside-in tracer: wraps the program's layer functions from the benchmark.

The package is not edited.  Each traced function is replaced, in every
`liegrpd` module namespace that holds it, by a wrapper that records a span
(name, start, end, parent span, job) in memory.  A layer's self time is its
span's duration minus the time covered by its child spans.  The three hot
`FiniteGroupoid` methods are only counted, so the overhead stays bounded.
A function that a later change deletes is reported as absent, not an error.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, attribute) of every timed span; the span is named module.attribute
SPANS = [
    ("cli", "main"),
    ("lie", "algebra_from_json"), ("lie", "structure_series"), ("lie", "ad_matrix"),
    ("exact", "det_exact"), ("exact", "lagrange_interpolate"),
    ("exact", "sturm_root_count"), ("exact", "rref"), ("exact", "rank_kernel"),
    ("exact", "charpoly_exact"), ("exact", "gaussian_rational_roots"),
    ("exact", "solve_exact"), ("exact", "numeric_rank"),
    ("exact", "matrix_exp_numeric"),
    ("weights", "module_weights"), ("weights", "algebra_is_exponential"),
    ("coadjoint", "bform"), ("coadjoint", "open_component_census"),
    ("coadjoint", "frobenius_test"), ("coadjoint", "coadjoint_flow"),
    ("coadjoint", "minus_one_probe"),
    ("strata", "jordan_holder_flag"), ("strata", "jump_indices"),
    ("strata", "coadjoint_stratification"),
    ("rootsystems", "build_root_system"), ("rootsystems", "kostant_cascade"),
    ("rootsystems", "cascade_classification"),
    ("groupoids", "FiniteGroupAction.make"),
    ("groupoids", "transformation_groupoid"), ("groupoids", "groupoid_from_json"),
    ("groupoids", "validate_groupoid"), ("groupoids", "canonical_sections"),
    ("groupoids", "build_pullback"), ("groupoids", "pullback_isomorphism_verify"),
    ("groupoids", "equivalence_bimodule_verify"),
    ("groupoids", "piecewise_decompose"), ("groupoids", "algebra_profile"),
    ("groupoids", "regular_representation_faithful"), ("groupoids", "classify"),
]
SEGMENT_PROBE = "coadjoint.segment_probe"  # module-level _segment_nondegenerate
FLOAT_DET = "coadjoint.float_det"  # numpy.linalg.det called under a probe
SPAN_NAMES = [f"{m}.{a}" for m, a in SPANS] + [SEGMENT_PROBE, FLOAT_DET]
COUNTED = ["groupoids.FiniteGroupoid.hom", "groupoids.FiniteGroupoid.compose",
           "groupoids.FiniteGroupoid.can_compose"]
# built groupoids whose composition tables count toward composition_entries
TABLE_BUILDERS = {"groupoids.transformation_groupoid",
                  "groupoids.groupoid_from_json", "groupoids.build_pullback"}
MARK = "__perfbench_traced__"


def per_layer_names():
    """Every per-layer metric name with its unit and better direction."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(f"{name}.calls", "count", "lower") for name in COUNTED]
    out += [
        ("census.samples_drawn", "count", "lower"),
        ("census.sample_yield", "ratio", "higher"),
        ("census.flow_merges", "count", "higher"),
        ("census.probes", "count", "lower"),
        ("census.probe_join_ratio", "ratio", "higher"),
        ("census.prefilter_decided", "count", "higher"),
        ("census.count_ratio", "ratio", "higher"),
        ("groupoids.composition_entries", "count", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return out


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.stack = []  # [name id, span index, child time, before() value]
        self.counts = dict.fromkeys(COUNTED + [
            "probes_joined", "prefilter_decided", "sampler_dets",
            "sampler_kept", "flow_merges", "composition_entries"], 0)
        self.flow_depth = 0
        self.jobs = []  # job names; a span's job is an index into this list
        self.job = -1
        self.absent = []

    def start_job(self, name: str) -> None:
        self.jobs.append(name)
        self.job = len(self.jobs) - 1

    # -- span recording ----------------------------------------------------

    def _wrap(self, name, fn, after=None, before=None):
        nid = self.ids[name]
        stack, calls, self_s = self.stack, self.calls, self.self_s
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][1] if stack else -1)
            jobs.append(tracer.job)
            frame = [nid, idx, 0.0]
            if before is not None:
                frame.append(before())
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(result, frame)
            return result

        setattr(wrapper, MARK, name)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _top(self):
        return self.stack[-1][0] if self.stack else -1

    # -- installation --------------------------------------------------------

    def install(self):
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "liegrpd" or name.startswith("liegrpd.")}
        for mod_name, attr in SPANS:
            name = f"{mod_name}.{attr}"
            mod = pkg.get(f"liegrpd.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                raw = cls.__dict__.get(meth) if cls is not None else None
                if not isinstance(raw, staticmethod):
                    self.absent.append(name)
                    continue
                setattr(cls, meth, staticmethod(self._wrap(name, raw.__func__)))
                continue
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            after = self._count_table if name in TABLE_BUILDERS else None
            self._replace(pkg, fn, self._wrap(name, fn, after))
        self._install_census(pkg)
        self._install_counters(pkg.get("liegrpd.groupoids"))

    @staticmethod
    def _replace(pkg, fn, wrapper):
        """Rebind `fn` in every module namespace that imported it."""
        for mod in pkg.values():
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapper)

    def _count_table(self, result, _frame):
        table = getattr(result, "composition", None)
        if table is not None:
            self.counts["composition_entries"] += len(table)

    def _install_census(self, pkg):
        coadjoint = pkg.get("liegrpd.coadjoint")
        counts, calls = self.counts, self.calls
        probe = getattr(coadjoint, "_segment_nondegenerate", None)
        if probe is None:
            self.absent += [SEGMENT_PROBE, FLOAT_DET, "census.probes",
                            "census.probe_join_ratio", "census.prefilter_decided"]
        else:
            det_id = self.ids["exact.det_exact"]

            def after_probe(result, frame):
                # frame[3] is det_exact's call count when the probe began: a
                # False answer with no det_exact below came from the prefilter
                if result:
                    counts["probes_joined"] += 1
                elif frame[3] == calls[det_id]:
                    counts["prefilter_decided"] += 1

            self._replace(pkg, probe, self._wrap(
                SEGMENT_PROBE, probe, after_probe, lambda: calls[det_id]))
            self._install_float_det()
            if "exact.det_exact" in self.absent:
                self.absent.append("census.prefilter_decided")

        census_id = self.ids["coadjoint.open_component_census"]
        det_at = getattr(coadjoint, "_det_at", None)
        if det_at is None:
            self.absent += ["census.samples_drawn", "census.sample_yield"]
        else:
            def counted_det_at(L, xi):
                d = det_at(L, xi)
                if self.flow_depth == 0 and self._top() == census_id:
                    counts["sampler_dets"] += 1
                    counts["sampler_kept"] += d != 0
                return d

            setattr(counted_det_at, MARK, "coadjoint._det_at")
            self._replace(pkg, det_at, counted_det_at)
        flow_merge = getattr(coadjoint, "_try_flow_merge", None)
        if flow_merge is None:
            self.absent.append("census.flow_merges")
        else:
            def counted_flow_merge(*args, **kwargs):
                self.flow_depth += 1
                try:
                    merged = flow_merge(*args, **kwargs)
                finally:
                    self.flow_depth -= 1
                counts["flow_merges"] += bool(merged)
                return merged

            setattr(counted_flow_merge, MARK, "coadjoint._try_flow_merge")
            self._replace(pkg, flow_merge, counted_flow_merge)

    def _install_float_det(self):
        import numpy.linalg

        det = numpy.linalg.det
        timed = self._wrap(FLOAT_DET, det)
        probe_id = self.ids[SEGMENT_PROBE]

        def float_det(a):
            return timed(a) if self._top() == probe_id else det(a)

        setattr(float_det, MARK, FLOAT_DET)
        numpy.linalg.det = float_det

    def _install_counters(self, groupoids):
        cls = getattr(groupoids, "FiniteGroupoid", None)
        for name in COUNTED:
            meth = name.rsplit(".", 1)[1]
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            setattr(cls, meth, self._counter(name, fn))

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(counted, MARK, name)
        return counted

    # -- results -------------------------------------------------------------

    def metrics(self, passes: int, census_found: int, census_true: int) -> dict:
        """Per-layer metrics per pass; absent layers read 0.  The run adds
        `trace.overhead`, which needs the untraced reference run."""
        c = self.counts
        values = {}
        for name, nid in self.ids.items():
            values[f"{name}.calls"] = self.calls[nid] / passes
            values[f"{name}.self_s"] = self.self_s[nid] / passes
        for name in COUNTED:
            values[f"{name}.calls"] = c[name] / passes
        probes = self.calls[self.ids[SEGMENT_PROBE]]
        values.update({
            "census.samples_drawn": c["sampler_dets"] / passes,
            "census.sample_yield": c["sampler_kept"] / max(c["sampler_dets"], 1),
            "census.flow_merges": c["flow_merges"] / passes,
            "census.probes": probes / passes,
            "census.probe_join_ratio": c["probes_joined"] / max(probes, 1),
            "census.prefilter_decided": c["prefilter_decided"] / passes,
            "census.count_ratio": census_found / max(census_true, 1),
            "groupoids.composition_entries": c["composition_entries"] / passes,
        })
        return values

    def write(self, path: str) -> None:
        """Write every span: a JSON header line, then the raw column arrays."""
        columns = [("name", self.span_name), ("parent", self.span_parent),
                   ("job", self.span_job), ("start", self.span_start),
                   ("end", self.span_end)]
        header = {"names": SPAN_NAMES, "jobs": self.jobs, "count": len(self.span_start),
                  "columns": [[n, a.typecode, a.itemsize] for n, a in columns]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for _, arr in columns:
                fh.write(arr.tobytes())


def installed_wrappers() -> list:
    """Names of tracer wrappers present in the loaded program (for untraced runs)."""
    import numpy.linalg

    found = []
    for name, mod in list(sys.modules.items()):
        if name != "liegrpd" and not name.startswith("liegrpd."):
            continue
        for val in vars(mod).values():
            objs = [val] + (list(vars(val).values()) if isinstance(val, type) else [])
            for obj in objs:
                fn = obj.__func__ if isinstance(obj, staticmethod) else obj
                if hasattr(fn, MARK):
                    found.append(getattr(fn, MARK))
    if hasattr(numpy.linalg.det, MARK):
        found.append(FLOAT_DET)
    return sorted(set(found))
