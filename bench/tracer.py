"""Per-layer tracing by wrapping the program's public functions from outside.

:class:`Tracer` replaces a fixed set of functions and methods of ``cknlab``
with wrappers that record a span (name, start, end, parent) or bump a
counter, and restores the originals on :meth:`Tracer.uninstall`.  A module
function is replaced in every loaded ``cknlab`` module that imported it by
name, so calls through ``from .x import f`` are traced as well.  Nothing is
installed unless a traced run asks for it; spans stay in memory until
:meth:`Tracer.write` puts them out as JSON lines.

Layer names follow the modules: ``corpus``, ``warp``, ``mesh`` and
``patch`` (generators), ``ambient``, ``domain``, ``fields``, ``quadrature``,
``constants``, ``inequalities``, ``search`` and ``cli``.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import math
import sys
import time
import weakref
from collections import Counter, defaultdict

from workloads import SEARCH_KINDS

BANDS = ("band0", "band1", "band2", "band3", "band4plus")

def _band(gamma) -> int:
    """Weight band of an exponent: sites graded for |gamma| up to the band."""
    return max(0, int(math.ceil(abs(float(gamma)))))


class Tracer:
    """Span recorder and the wrappers that feed it."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = Counter()
        self._stack = []
        self._open = Counter()   # span names currently on the stack
        self._nested = set()     # spans inside a span of the same name
        self._restore = []
        self._site_builds = []   # (span index, band, high-order sites)
        self._boundary_builds = []
        self._seen_bands = weakref.WeakKeyDictionary()
        self._bindings = set()   # weakrefs to the BoundFields alive
        self.live_bindings = 0   # most BoundFields alive at once
        self._search_kind = None
        self._search_dofs = set()
        self.repeats = Counter()
        self.search_evals = Counter()
        self.pass_start = 0

    def begin_pass(self) -> None:
        """Count from here on; spans before this belong to set-up."""
        self.pass_start = len(self.spans)
        self.counts.clear()
        self.repeats.clear()
        self.search_evals.clear()
        self.live_bindings = 0

    # -- spans ----------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        if self._open[name]:
            self._nested.add(idx)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._open[self.spans[idx][0]] -= 1

    def _span(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = before(args, kwargs) if before else name
            idx = self._enter(span_name or name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after:
                after(idx, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing -----------------------------------------------------------

    def _patch_function(self, module, attr, wrap):
        """Replace ``module.attr`` wherever a cknlab module holds it."""
        orig = getattr(module, attr)
        wrapped = wrap(orig)
        for mod in [m for n, m in sys.modules.items()
                    if n == "cknlab" or n.startswith("cknlab.")]:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
                    self._restore.append((mod, name, orig))

    def _patch_method(self, cls, attr, wrap):
        orig = cls.__dict__[attr]
        setattr(cls, attr, wrap(orig))
        self._restore.append((cls, attr, orig))

    def install(self) -> None:
        """Wrap the layer boundaries of every cknlab module."""
        import cknlab.cli as cli
        import cknlab.constants as constants
        import cknlab.corpus as corpus
        import cknlab.geometry.domain as domain
        import cknlab.geometry.fields as fields
        import cknlab.geometry.mesh as mesh
        import cknlab.geometry.patch as patch
        import cknlab.inequalities as inequalities
        import cknlab.quadrature as quadrature
        import cknlab.search as search
        import cknlab.warp as warp
        from cknlab.errors import PreconditionViolated
        from cknlab.geometry.ambient import AmbientSpace

        span, fn_patch = self._span, self._patch_function
        fn_patch(corpus, "build_corpus", lambda f: span("corpus.build", f))
        fn_patch(corpus, "run_corpus",
                 lambda f: span("corpus.run", f, before=self._collect))
        fn_patch(warp, "solve_warping", lambda f: span("warp.solve", f))
        for name in ("disk_mesh", "sphere_mesh", "graph_mesh", "read_mesh"):
            fn_patch(mesh, name, lambda f: span("mesh.generate", f))
        self._patch_method(mesh.SimplicialMesh, "vertex_mean_curvature",
                           lambda f: span("mesh.curvature", f))
        self._patch_method(mesh.SimplicialMesh, "reconstruct_gradients",
                           lambda f: span("mesh.gradients", f))
        for name in ("plane_rect", "flat_disk_patch", "sphere_patch",
                     "geodesic_disk", "ball_domain", "poly_graph_patch"):
            fn_patch(patch, name, lambda f: span("patch.generate", f,
                                                 after=self._count_jet))
        self._patch_method(AmbientSpace, "radius",
                           lambda f: self._counted("ambient.radius", f))
        self._patch_method(domain.Domain, "__init__",
                           lambda f: span("domain.construct", f))
        self._patch_method(domain.Domain, "sites",
                           lambda f: span("domain.sites", f,
                                          after=self._after_sites))
        self._patch_method(domain.Domain, "boundary_sites",
                           lambda f: span("domain.boundary_sites", f,
                                          after=self._after_boundary))
        self._patch_method(domain.Domain, "bind",
                           lambda f: self._counted("domain.bind", f))
        fn_patch(domain, "weighted_integral",
                 lambda f: span("domain.weighted_integral", f))
        fn_patch(domain, "boundary_integral",
                 lambda f: span("domain.boundary_integral", f))
        self._patch_method(fields.Field, "bind",
                           lambda f: span("fields.bind", f,
                                          after=self._after_bind))
        self._patch_method(fields.BoundField, "at_sites",
                           lambda f: span("fields.at_sites", f))
        self._patch_method(fields.BoundField, "at_boundary",
                           lambda f: span("fields.at_boundary", f))
        for name in ("simplex_rule", "gauss_rule", "box_rule",
                     "split_simplex_bary"):
            fn_patch(quadrature, name, lambda f: span("quadrature.rule", f))
        for name, obj in list(vars(constants).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == constants.__name__):
                fn_patch(constants, name, lambda f: span("constants", f))
        fn_patch(inequalities, "evaluate",
                 lambda f: self._evaluate(f, PreconditionViolated))
        fn_patch(search, "maximize_ratio",
                 lambda f: span("search.maximize", f,
                                before=self._start_search))
        fn_patch(search, "nelder_mead", lambda f: span("search.nelder_mead", f))
        fn_patch(cli, "main", lambda f: span("cli.main", f,
                                             before=self._collect))
        for name in ("resolve_config_path", "load_config", "expand_sweep",
                     "validate_case"):
            fn_patch(cli, name, lambda f: span("cli.config", f))
        fn_patch(cli, "build_domain", lambda f: span("cli.build_domain", f))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._restore):
            setattr(owner, name, orig)
        self._restore.clear()

    # -- hooks ----------------------------------------------------------------

    def _collect(self, args, kwargs):
        # start each top-level operation without the previous one's cyclic
        # garbage, so live bindings count only what is still reachable; the
        # span keeps the collection out of its parent's self time
        idx = self._enter("trace.collect")
        gc.collect()
        self._exit(idx)
        return None

    def _count_jet(self, idx, args, kwargs, patch):
        jet = patch.jet

        def counted_jet(U):
            self.counts["patch.jet"] += 1
            self.counts["patch.jet_points"] += len(U)
            return jet(U)

        patch.jet = counted_jet

    def _after_sites(self, idx, args, kwargs, result):
        domain = args[0]
        gamma = args[1] if len(args) > 1 else kwargs.get("gamma", 0.0)
        band = _band(gamma)
        seen = self._seen_bands.setdefault(domain, set())
        if band not in seen:
            seen.add(band)
            self._site_builds.append((idx, band, len(result[0].density)))

    def _after_boundary(self, idx, args, kwargs, result):
        seen = self._seen_bands.setdefault(args[0], set())
        if "boundary" not in seen:
            seen.add("boundary")
            self._boundary_builds.append(idx)

    def _after_bind(self, idx, args, kwargs, result):
        self._bindings.add(weakref.ref(result, self._bindings.discard))
        self.live_bindings = max(self.live_bindings, len(self._bindings))

    def _start_search(self, args, kwargs):
        self._collect(args, kwargs)
        family = args[2] if len(args) > 2 else kwargs["family"]
        self._search_kind = family.kind
        self._search_dofs = set()
        return None

    def _evaluate(self, fn, precondition_error):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            searching = self._open["search.nelder_mead"] > 0
            if searching:
                field = args[2] if len(args) > 2 else kwargs["field"]
                kind = self._search_kind
                self.search_evals[kind] += 1
                key = tuple(field.dof)
                if key in self._search_dofs:
                    self.repeats[kind] += 1
                self._search_dofs.add(key)
            idx = self._enter("inequalities.evaluate")
            try:
                report = fn(*args, **kwargs)
            except precondition_error:
                if searching:
                    self.counts["search.zero_scored"] += 1
                raise
            finally:
                self._exit(idx)
            if searching and (report.degenerate
                              or not math.isfinite(report.ratio)):
                self.counts["search.zero_scored"] += 1
            return report
        return wrapper

    # -- results --------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as handle:
            for i, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start - t0,
                    "end": end - t0, "parent": parent}) + "\n")

    def metrics(self) -> dict:
        """Per-layer values of the pass begun by :meth:`begin_pass`.

        ``run.py`` adds the values measured outside the tracer and takes the
        names' units from ``BENCHMARK.json``.
        """
        spans = self.spans
        pass_spans = range(self.pass_start, len(spans))
        inclusive, self_time = defaultdict(float), defaultdict(float)
        calls = Counter()
        child_time = defaultdict(float)      # parent index -> children total
        field_child = defaultdict(float)     # parent index -> fields.* total
        for i in pass_spans:
            name, start, end, parent = spans[i]
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
                if name.startswith("fields."):
                    field_child[parent] += end - start
        for i in pass_spans:
            name, start, end, _ = spans[i]
            if i not in self._nested:
                inclusive[name] += end - start
            self_time[name] += end - start - child_time[i]

        sites_build, sites_hi = defaultdict(float), Counter()
        for idx, band, n_hi in self._site_builds:
            if idx in pass_spans:
                label = BANDS[min(band, len(BANDS) - 1)]
                _, start, end, _ = spans[idx]
                sites_build[label] += end - start - field_child[idx]
                sites_hi[label] += n_hi
        boundary_build = sum((spans[i][2] - spans[i][1] - field_child[i]
                              for i in self._boundary_builds
                              if i in pass_spans), 0.0)

        evals = calls["inequalities.evaluate"]
        search_evals = sum(self.search_evals.values())
        return {
            "corpus.build_s": sum((end - start for name, start, end, _
                                   in spans if name == "corpus.build"), 0.0),
            "warp.solve_s": inclusive["warp.solve"],
            "warp.solve_calls": calls["warp.solve"],
            "mesh.generate_s": inclusive["mesh.generate"],
            "mesh.curvature_s": inclusive["mesh.curvature"],
            "mesh.gradients_s": inclusive["mesh.gradients"],
            "mesh.gradients_calls": calls["mesh.gradients"],
            "patch.generate_s": inclusive["patch.generate"],
            "patch.jet_calls": self.counts["patch.jet"],
            "patch.jet_points": self.counts["patch.jet_points"],
            "ambient.radius_calls": self.counts["ambient.radius"],
            "domain.construct_s": inclusive["domain.construct"],
            **{f"domain.sites_build_s.{b}": sites_build[b] for b in BANDS},
            **{f"domain.sites_hi.{b}": sites_hi[b] for b in BANDS},
            "domain.sites_calls": calls["domain.sites"],
            "domain.boundary_build_s": boundary_build,
            "domain.weighted_integral_s": inclusive["domain.weighted_integral"],
            "domain.weighted_integral_calls":
                calls["domain.weighted_integral"],
            "domain.boundary_integral_s": inclusive["domain.boundary_integral"],
            "domain.boundary_integral_calls":
                calls["domain.boundary_integral"],
            "fields.bind_s": inclusive["fields.bind"],
            "fields.bind_calls": calls["fields.bind"],
            "fields.bind_hit_ratio": (
                1.0 - calls["fields.bind"] / self.counts["domain.bind"]
                if self.counts["domain.bind"] else 0.0),
            "fields.live_bindings": self.live_bindings,
            "fields.at_sites_s": inclusive["fields.at_sites"],
            "fields.at_sites_calls": calls["fields.at_sites"],
            "fields.at_sites_per_eval": (
                calls["fields.at_sites"] / evals if evals else 0.0),
            "fields.at_boundary_s": inclusive["fields.at_boundary"],
            "fields.at_boundary_calls": calls["fields.at_boundary"],
            "quadrature.rule_s": inclusive["quadrature.rule"],
            "quadrature.rule_calls": calls["quadrature.rule"],
            "constants.s": inclusive["constants"],
            "inequalities.evaluate_s": inclusive["inequalities.evaluate"],
            "inequalities.evaluate_calls": evals,
            "inequalities.evaluate_self_s": self_time["inequalities.evaluate"],
            "search.maximize_s": inclusive["search.maximize"],
            "search.evals": search_evals,
            "search.nelder_mead_self_s": self_time["search.nelder_mead"],
            "search.zero_scored_evals": self.counts["search.zero_scored"],
            "search.repeat_share": (sum(self.repeats.values()) / search_evals
                                    if search_evals else 0.0),
            **{f"search.repeat_share.{kind}": (
                self.repeats[kind] / self.search_evals[kind]
                if self.search_evals[kind] else 0.0)
               for kind in SEARCH_KINDS},
            "cli.config_s": inclusive["cli.config"],
            "cli.build_domain_s": inclusive["cli.build_domain"],
            "cli.self_s": self_time["cli.main"],
        }
