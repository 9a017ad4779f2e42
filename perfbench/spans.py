"""Outside-in span recorder for the traced run.

`install` wraps every public function of the traced `cidcurve` modules,
plus the methods `Ideal.gb` and `GroebnerBasis.normal_form`, and rebinds
every module attribute that referred to an original (a `from .x import f`
copies the reference, so each importing module holds its own binding).
`uninstall` restores the originals.  Nothing inside the program changes;
the recorder is only ever installed for traced passes.

`fields`, `polynomials`, `orders` and `rng` are not wrapped: one RNC5 job
makes about a million order-key calls, so wrapping them would distort
the trace.  Their time lands in the self time of the layer that calls
them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "files", "linkage", "discrepancy", "germs", "ideals",
          "hilbert", "groebner")
REJECTION_TESTS = ("complete_intersection", "reduced_along_input",
                   "singular_locus_finite", "chart_misses_intersection",
                   "double_link")
COLON_FAMILY = ("ideals.colon_certified", "ideals.quotient",
                "ideals.colon_principal")


class Recorder:
    """Spans kept in memory: [name, parent index, start, end, job, notes]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = ""

    def wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            notes = before(args, kwargs) if before else None
            span = [name, stack[-1] if stack else -1, clock(), 0.0,
                    self.job, notes]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # MaxAttemptsExceeded and NotGenericallyCI carry the
                # per-test rejection tallies
                failures = getattr(exc, "failures", None)
                if failures is not None:
                    span[5] = {"failures": dict(failures)}
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if after:
                span[5] = after(args, kwargs, result)
            return result

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, parent, start, end, job, notes in self.spans:
                handle.write(json.dumps(
                    {"name": name, "parent": parent, "start": start,
                     "end": end, "job": job, "notes": notes}) + "\n")


# --- counts taken at the layer boundary ---------------------------------


def _groebner_after(args, kwargs, basis):
    bits = 0
    terms = 0
    for f in basis.elements:
        terms += len(f.terms)
        for c in f.terms.values():
            num = getattr(c, "numerator", c)
            den = getattr(c, "denominator", 1)
            bits = max(bits, abs(num).bit_length(), den.bit_length())
    return {"order": type(basis.order).__name__.lower(),
            "elements": len(basis.elements), "terms": terms, "bits": bits}


def _construct_after(args, kwargs, witness):
    return {"attempts": witness.attempts}


def install(recorder: Recorder):
    """Wrap the traced layers; returns the function that undoes it."""
    import cidcurve
    from cidcurve.groebner import GroebnerBasis
    from cidcurve.ideals import Ideal
    from cidcurve.orders import GREVLEX

    def gb_before(args, kwargs):
        order = args[1] if len(args) > 1 else kwargs.get("order", GREVLEX)
        return {"hit": args[0]._gb_cache.get(order) is not None}

    hooks = {
        "groebner.groebner_basis": (None, _groebner_after),
        "ideals.Ideal.gb": (gb_before, None),
        "linkage.construct_ci": (None, _construct_after),
        "linkage.construct_ci_transversal": (None, _construct_after),
    }

    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"cidcurve.{layer}"]
        for attr, obj in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            before, after = hooks.get(name, (None, None))
            wrapped[obj] = recorder.wrap(name, obj, before, after)

    undo = []
    modules = [cidcurve] + [m for key, m in sys.modules.items()
                            if key.startswith("cidcurve.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
                undo.append((module, attr, obj))
    for cls, attr, name in ((Ideal, "gb", "ideals.Ideal.gb"),
                            (GroebnerBasis, "normal_form",
                             "groebner.GroebnerBasis.normal_form")):
        original = cls.__dict__[attr]
        before, after = hooks.get(name, (None, None))
        setattr(cls, attr, recorder.wrap(name, original, before, after))
        undo.append((cls, attr, original))

    def uninstall():
        for owner, attr, original in undo:
            setattr(owner, attr, original)

    return uninstall


# --- per-layer metrics ------------------------------------------------


def layer_metrics(spans, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer counts and times from one traced pass."""
    n = len(spans)
    child_time = [0.0] * n
    outer = [True] * n        # no ancestor carries the same name
    files_outer = [True] * n  # no ancestor is in the files layer
    in_colon = [False] * n    # some ancestor is in the colon family
    for i, (name, parent, start, end, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            p = parent
            while p >= 0:
                ancestor = spans[p][0]
                outer[i] = outer[i] and ancestor != name
                files_outer[i] = (files_outer[i]
                                  and not ancestor.startswith("files."))
                in_colon[i] = in_colon[i] or ancestor in COLON_FAMILY
                p = spans[p][1]

    self_time = defaultdict(float)
    inclusive = defaultdict(float)
    calls = defaultdict(int)
    for i, (name, parent, start, end, _, _) in enumerate(spans):
        self_time[name.split(".")[0]] += (end - start) - child_time[i]
        calls[name] += 1
        if outer[i]:
            inclusive[name] += end - start

    gb_calls = defaultdict(int)
    block_s = 0.0
    out_elements = out_terms = bits_max = 0
    gb_hits = 0
    attempts = accepted = 0
    rejections = {test: 0 for test in REJECTION_TESTS}
    colon_calls, colon_s, fallbacks = 0, 0.0, 0
    for i, (name, parent, start, end, _, notes) in enumerate(spans):
        if name == "groebner.groebner_basis" and notes:
            gb_calls[notes["order"]] += 1
            out_elements += notes["elements"]
            out_terms += notes["terms"]
            bits_max = max(bits_max, notes["bits"])
            if notes["order"] == "block" and outer[i]:
                block_s += end - start
        elif name == "ideals.Ideal.gb":
            gb_hits += notes["hit"]
        elif name.startswith("linkage.construct_ci") and notes:
            if "attempts" in notes:
                attempts += notes["attempts"]
                accepted += 1
            else:
                for test, count in notes["failures"].items():
                    rejections[test] = rejections.get(test, 0) + count
                    attempts += count
        if name in COLON_FAMILY and not in_colon[i]:
            colon_calls += 1
            colon_s += end - start
        if (name == "ideals.quotient" and parent >= 0
                and spans[parent][0] == "ideals.colon_certified"):
            fallbacks += 1

    gb_requests = calls["ideals.Ideal.gb"]
    out = {
        "groebner.calls": (calls["groebner.groebner_basis"], "count"),
        "groebner.calls.grevlex": (gb_calls["grevlex"], "count"),
        "groebner.calls.block": (gb_calls["block"], "count"),
        "groebner.calls.lex": (gb_calls["lex"], "count"),
        "groebner.self_s": (self_time["groebner"], "s"),
        "groebner.block_s": (block_s, "s"),
        "groebner.out_elements": (out_elements, "count"),
        "groebner.out_terms": (out_terms, "count"),
        "groebner.coeff_bits_max": (bits_max, "bits"),
        "groebner.nf_calls": (calls["groebner.GroebnerBasis.normal_form"],
                              "count"),
        "groebner.nf_s": (inclusive["groebner.GroebnerBasis.normal_form"],
                          "s"),
        "ideals.gb_requests": (gb_requests, "count"),
        "ideals.gb_hit_ratio": (gb_hits / gb_requests if gb_requests else 0.0,
                                "ratio"),
        "ideals.intersect_calls": (calls["ideals.intersect"], "count"),
        "ideals.intersect_s": (inclusive["ideals.intersect"], "s"),
        "ideals.colon_calls": (colon_calls, "count"),
        "ideals.colon_s": (colon_s, "s"),
        "ideals.colon_fallbacks": (fallbacks, "count"),
        "ideals.saturate_irrelevant_calls": (
            calls["ideals.saturate_irrelevant"], "count"),
        "ideals.saturate_irrelevant_s": (
            inclusive["ideals.saturate_irrelevant"], "s"),
        "ideals.vdim_calls": (calls["ideals.vdim"], "count"),
        "ideals.vdim_s": (inclusive["ideals.vdim"], "s"),
        "ideals.dimension_at_most_s": (inclusive["ideals.dimension_at_most"],
                                       "s"),
        "ideals.local_vdim_origin_s": (inclusive["ideals.local_vdim_origin"],
                                       "s"),
        "ideals.eliminate_s": (inclusive["ideals.eliminate"], "s"),
        "ideals.self_s": (self_time["ideals"], "s"),
        "hilbert.series_calls": (calls["hilbert.hilbert_series"], "count"),
        "hilbert.series_s": (inclusive["hilbert.hilbert_series"], "s"),
        "linkage.construct_s": (
            inclusive["linkage.construct_ci"]
            + inclusive["linkage.construct_ci_transversal"], "s"),
        "linkage.attempts": (attempts, "count"),
        "linkage.accept_ratio": (accepted / attempts if attempts else 0.0,
                                 "ratio"),
        "linkage.choose_chart_s": (inclusive["linkage.choose_chart"], "s"),
    }
    for test in REJECTION_TESTS:
        out[f"linkage.rejections.{test}"] = (rejections[test], "count")
    out.update({
        "discrepancy.residual_s": (inclusive["discrepancy.residual"], "s"),
        "discrepancy.route.direct_s": (inclusive["discrepancy.cid_direct"],
                                       "s"),
        "discrepancy.route.smooth_jacobian_s": (
            inclusive["discrepancy.cid_smooth_jacobian"], "s"),
        "discrepancy.route.lci_general_s": (
            inclusive["discrepancy.cid_lci_general"], "s"),
        "discrepancy.is_smooth_s": (inclusive["discrepancy.is_smooth_curve"],
                                    "s"),
        "discrepancy.jacobian_ideal_s": (
            inclusive["discrepancy.jacobian_ideal"], "s"),
        "discrepancy.self_s": (self_time["discrepancy"], "s"),
        "germs.delta_s": (inclusive["germs.delta_invariant"], "s"),
        "germs.branch_ideal_s": (inclusive["germs.branch_ideal"], "s"),
        "germs.cid_local_multiplicities_s": (
            inclusive["germs.cid_local_multiplicities"], "s"),
        "germs.cid_local_direct_s": (inclusive["germs.cid_local_direct"],
                                     "s"),
        "germs.self_s": (self_time["germs"], "s"),
        "files.parse_s": (sum(s[3] - s[2] for i, s in enumerate(spans)
                              if s[0].startswith("files.")
                              and files_outer[i]), "s"),
        "cli.self_s": (self_time["cli"], "s"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    })
    return out


def is_deterministic(name: str) -> bool:
    """Counters that must repeat exactly between two traced passes."""
    return (name.startswith(("groebner.calls", "groebner.out_",
                             "linkage.rejections."))
            or name in ("groebner.coeff_bits_max", "groebner.nf_calls",
                        "ideals.colon_fallbacks", "ideals.gb_hit_ratio",
                        "ideals.gb_requests", "hilbert.series_calls",
                        "linkage.attempts", "linkage.accept_ratio")
            or (name.startswith("ideals.") and name.endswith("_calls")))
