"""Span tracing around the public functions of the blhecke package.

The tracer patches functions from the outside (no file under ``src/``
changes): each wrapped call opens a span with a name, start, end, parent span
and job id. Self time is a span's duration minus the time its wrapped child
spans cover. Counters are taken at the same boundaries, so ratios such as
cache hit shares are measured where the work happens.

Spans are kept in memory, up to ``span_cap`` of them, and written out when
the run ends; totals per span name cover every call, kept or not.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, job id)
        self.next_id = 0
        self.stack: list[list] = []  # [span id, child seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.job: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def span(self, name: str, fn, pre=None, post=None, error=None):
        """Wrap fn in a span; pre(*args) runs before the call, post(result,
        *args) after a normal return and error(exc) when the call raises."""
        stack = self.stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(*args)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if error is not None:
                    error(exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if sid < self.span_cap:
                    self.spans.append((sid, name, start, end, parent, self.job))
            if post is not None:
                post(result, *args)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, pre=None, post=None, error=None) -> None:
        """Replace owner.attr by its traced version, and every other binding of
        the same function inside the blhecke modules (``from x import f``)."""
        original = getattr(owner, attr)
        traced = self.span(name, original, pre, post, error)
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("blhecke") and mod is not owner:
                for key, value in vars(mod).items():
                    if value is original:
                        targets.append((mod, key))
        for obj, key in targets:
            self._patches.append((obj, key, getattr(obj, key)))
            setattr(obj, key, traced)

    def unpatch(self) -> None:
        for obj, key, value in reversed(self._patches):
            setattr(obj, key, value)
        self._patches.clear()

    # -- output ----------------------------------------------------------------
    def write(self, path) -> None:
        names = sorted({s[1] for s in self.spans})
        with open(path, "w") as fh:
            header = {"span_cap": self.span_cap, "spans_total": self.next_id, "names": names,
                      "fields": ["id", "name", "start", "end", "parent", "job"]}
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def ratio(hits: int, attempts: int) -> float:
    """Share of attempts that hit; 0.0 when nothing was attempted."""
    return hits / attempts if attempts else 0.0


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the per-layer metrics are taken at."""
    from blhecke import cli, coxeter, hecke, laurent, linalg, principal, rootdata, serial, stabilizer
    from blhecke.errors import PoleAtCharacter

    counts = tracer.counts
    t = tracer

    # rootdata
    t.patch(rootdata.RootGeneratingSystem, "y_to_coroot", "rootdata.y_to_coroot")
    t.patch(rootdata, "coroot_orbit_witness", "rootdata.orbit_witness")
    t.patch(rootdata, "enumerate_coroots", "rootdata.enumerate_coroots")

    # coxeter
    def intern_pre(group, mat, inv):
        counts["coxeter.intern.lookups"] += 1
        if mat in group._elements:
            counts["coxeter.intern.hits"] += 1

    t.patch(coxeter.WeylElement, "__mul__", "coxeter.elem_mul")
    t.patch(coxeter.WeylGroup, "intern", "coxeter.intern", pre=intern_pre)
    t.patch(coxeter, "inversion_coroots", "coxeter.inversion_coroots")
    t.patch(coxeter, "enumerate_ball", "coxeter.enumerate_ball")

    # stabilizer
    t.patch(stabilizer, "kato_check", "stabilizer.kato")
    t.patch(stabilizer, "analyze", "stabilizer.analyze")
    t.patch(stabilizer.TauStabilizer, "tau_reduced_word", "stabilizer.reduced_word")

    # laurent
    def poly_mul_pre(a, b):
        counts["laurent.poly_mul.term_products"] += len(a.terms) * len(b.terms)

    def divide_post(result, poly, factor):
        if result is not None:
            counts["laurent.divide.hits"] += 1

    def rational_eq_pre(a, b):
        if isinstance(b, laurent.RationalElt) and a.den != b.den:
            counts["laurent.rational_eq.cross_calls"] += 1

    t.patch(laurent.LaurentPoly, "__mul__", "laurent.poly_mul", pre=poly_mul_pre)
    t.patch(laurent, "divide_binomial", "laurent.divide", post=divide_post)
    t.patch(laurent.RationalElt, "__eq__", "laurent.rational_eq", pre=rational_eq_pre)
    t.patch(laurent.RationalElt, "__add__", "laurent.rational_add")

    # hecke
    def all_polynomial(h) -> bool:
        return all(not c.den for c in h.coeffs.values())

    def hecke_mul_post(result, a, b):
        if all_polynomial(a) and all_polynomial(b):
            counts["hecke.poly_products"] += 1
            if not all_polynomial(result):
                counts["hecke.poly_products_with_den"] += 1

    def omega_pre(alg, i, theta):
        poly = theta.is_polynomial()
        if poly is not None:
            cache = alg._cache["omega"]
            counts["hecke.omega.lookups"] += len(poly.terms)
            counts["hecke.omega.hits"] += sum((i, exp) in cache for exp in poly.terms)

    t.patch(hecke.HeckeElt, "__mul__", "hecke.mul", post=hecke_mul_post)
    t.patch(hecke.HeckeAlgebra, "omega", "hecke.omega", pre=omega_pre)

    # principal
    def theta_pre(series, exp, dom):
        if (exp, dom) in principal._matrix_cache(series):
            counts["principal.theta_matrix.hits"] += 1

    def ev_error(exc):
        if isinstance(exc, PoleAtCharacter):
            counts["principal.pole_failures"] += 1

    t.patch(principal.PrincipalSeries, "weight_space", "principal.weight_space")
    t.patch(principal.PrincipalSeries, "generalized_weight_space", "principal.gen_weight_space")
    t.patch(principal.PrincipalSeries, "_theta_matrix", "principal.theta_matrix", pre=theta_pre)
    t.patch(principal.PrincipalSeries, "act", "principal.act")
    t.patch(principal.PrincipalSeries, "ev", "principal.ev", error=ev_error)

    # linalg
    def rref_pre(rows):
        if rows:
            counts["linalg.rref.cells"] += len(rows) * len(rows[0])

    t.patch(linalg, "rref", "linalg.rref", pre=rref_pre)

    # cli / serial
    t.patch(cli, "main", "cli.main")
    t.patch(cli, "load_config", "cli.load_config")
    for name in ("analysis_to_obj", "verdict_to_obj", "vector_to_obj", "datum_to_obj",
                 "parameters_to_obj", "character_to_obj"):
        t.patch(serial, name, "serial.encode")


def interned_elements() -> int:
    from blhecke.coxeter import WeylGroup

    return sum(len(g._elements) for g in WeylGroup._instances.values())


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    s, c, n = tracer.self_s, tracer.calls, tracer.counts
    return {
        "rootdata.y_to_coroot.calls": (c["rootdata.y_to_coroot"], "count"),
        "rootdata.y_to_coroot.self_s": (s["rootdata.y_to_coroot"], "s"),
        "rootdata.orbit_witness.calls": (c["rootdata.orbit_witness"], "count"),
        "rootdata.enumerate_coroots.self_s": (s["rootdata.enumerate_coroots"], "s"),
        "coxeter.elem_mul.calls": (c["coxeter.elem_mul"], "count"),
        "coxeter.elem_mul.self_s": (s["coxeter.elem_mul"], "s"),
        "coxeter.intern.hit_ratio": (ratio(n["coxeter.intern.hits"], n["coxeter.intern.lookups"]), "share"),
        "coxeter.interned_elements": (interned_elements(), "count"),
        "coxeter.inversion_coroots.calls": (c["coxeter.inversion_coroots"], "count"),
        "coxeter.inversion_coroots.self_s": (s["coxeter.inversion_coroots"], "s"),
        "coxeter.enumerate_ball.self_s": (s["coxeter.enumerate_ball"], "s"),
        "stabilizer.kato.self_s": (s["stabilizer.kato"], "s"),
        "stabilizer.analyze.self_s": (s["stabilizer.analyze"], "s"),
        "stabilizer.reduced_word.calls": (c["stabilizer.reduced_word"], "count"),
        "laurent.poly_mul.calls": (c["laurent.poly_mul"], "count"),
        "laurent.poly_mul.term_products": (n["laurent.poly_mul.term_products"], "count"),
        "laurent.poly_mul.self_s": (s["laurent.poly_mul"], "s"),
        "laurent.divide.attempts": (c["laurent.divide"], "count"),
        "laurent.divide.hit_ratio": (ratio(n["laurent.divide.hits"], c["laurent.divide"]), "share"),
        "laurent.rational_eq.cross_calls": (n["laurent.rational_eq.cross_calls"], "count"),
        "laurent.rational_add.self_s": (s["laurent.rational_add"], "s"),
        "hecke.mul.calls": (c["hecke.mul"], "count"),
        "hecke.mul.self_s": (s["hecke.mul"], "s"),
        "hecke.omega.hit_ratio": (ratio(n["hecke.omega.hits"], n["hecke.omega.lookups"]), "share"),
        "hecke.poly_den_share": (ratio(n["hecke.poly_products_with_den"], n["hecke.poly_products"]), "share"),
        "principal.weight_space.self_s": (s["principal.weight_space"], "s"),
        "principal.gen_weight_space.self_s": (s["principal.gen_weight_space"], "s"),
        "principal.theta_matrix.calls": (c["principal.theta_matrix"], "count"),
        "principal.theta_matrix.hit_ratio": (
            ratio(n["principal.theta_matrix.hits"], c["principal.theta_matrix"]), "share"),
        "principal.act.calls": (c["principal.act"], "count"),
        "principal.pole_failures": (n["principal.pole_failures"], "count"),
        "linalg.rref.calls": (c["linalg.rref"], "count"),
        "linalg.rref.cells": (n["linalg.rref.cells"], "count"),
        "linalg.rref.self_s": (s["linalg.rref"], "s"),
        "cli.load_config.self_s": (s["cli.load_config"], "s"),
        "serial.encode.self_s": (s["serial.encode"], "s"),
    }
