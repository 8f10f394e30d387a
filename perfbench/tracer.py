"""Per-layer accounting for grsdual, done from outside the package.

The tracer replaces every binding of a fixed list of grsdual functions
with a timing wrapper, in every grsdual module and class that holds
one, and puts the originals back on `uninstall`.  Layers are named
after the modules.  For each wrapped function it keeps

* inclusive time, counted only for the outermost call of that name, so
  recursion through the same function is not counted twice;
* self time (inclusive minus the time of wrapped callees), summed per
  group, so a family of builders can report one self time;
* exact work counts computed from argument shapes, never from clocks.

Time that no wrapped function covers is accumulated in `covered`
(top-level spans only), from which the runner derives the share of
each op that the layers do not explain.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np


# ------------------------------------------------------------ count hooks
# Each hook gets (tracer, args, kwargs, result, exc) after the call.

def _count_elems(name):
    def hook(tr, args, kwargs, result, exc):
        tr.counts[name + ".calls"] += 1
        tr.counts[name + ".elems"] += int(np.broadcast(args[1], args[2]).size)
    return hook


def _count_gram(tr, args, kwargs, result, exc):
    k, n = np.shape(args[1])
    tr.counts["linalg.gram.calls"] += 1
    tr.counts["linalg.gram.mults"] += k * k * n


def _count_rank(tr, args, kwargs, result, exc):
    tr.counts["linalg.rank.calls"] += 1


def _count_pairs(tr, args, kwargs, result, exc):
    n = len(args[1])
    tr.counts["grs.lagrange_products.pairs"] += n * n


def _count_words(tr, args, kwargs, result, exc):
    if exc is None:
        gmat = args[0]
        tr.counts["grs.min_distance.words"] += gmat.field.q ** gmat.data.shape[0]


def _count_checks(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["selftest.checks"] += sum(r.checks for r in result)


def _count_exit(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts[f"cli.exit.{result}"] += 1


def _count_attempt(tr, args, kwargs, result, exc):
    # Only the bindings held by grsdual.search get this hook: every call
    # through them is one catalog family attempt.
    from grsdual.errors import HypothesisViolated
    tr.counts["search.attempts"] += 1
    if exc is None:
        tr.counts["search.hits"] += 1
    elif isinstance(exc, HypothesisViolated):
        tr.counts["search.rejects"] += 1


# ---------------------------------------------------------------- targets
# (home module, attribute, span name, self-time group, hook)

_SUBSPACE_FAMILY = ("th1_code", "th2_code", "th3_code", "th4_code")
_COSET_FAMILY = ("th8_code", "th9_code", "th10_code", "th11_code",
                 "th8_th9_code", "th10_th11_code", "iterated_lift",
                 "th12_code", "th13_code", "coset_lift",
                 "extended_coset_lift")

TARGETS = (
    ("grsdual.field", "make_field", "field.make_field", None, None),
    ("grsdual.linalg", "gram", "linalg.gram", None, _count_gram),
    ("grsdual.linalg", "rank", "linalg.rank", None, _count_rank),
    ("grsdual.grs", "lagrange_products", "grs.lagrange_products", None,
     _count_pairs),
    ("grsdual.grs", "products_at", "grs.products_at", None, None),
    ("grsdual.grs", "solve_multipliers", "grs.solve_multipliers", None, None),
    ("grsdual.grs", "solve_extended_multipliers",
     "grs.solve_extended_multipliers", None, None),
    ("grsdual.grs", "build_verified_code", "grs.build_verified_code", None,
     None),
    ("grsdual.grs", "check_self_dual", "grs.check_self_dual", None, None),
    ("grsdual.grs", "min_distance", "grs.min_distance", None, _count_words),
    ("grsdual.grs", "check_mds", "grs.check_mds", None, None),
    ("grsdual.grs", "code_from_obj", "grs.code_from_obj", None, None),
    ("grsdual.subspace", "subspace_lift", "subspace.lift", None, None),
    *(("grsdual.subspace", f, f"subspace.{f}", "subspace.family", None)
      for f in _SUBSPACE_FAMILY),
    ("grsdual.cosets", "coset_points", "cosets.coset_points", None, None),
    *(("grsdual.cosets", f, f"cosets.{f}", "cosets.family", None)
      for f in _COSET_FAMILY),
    ("grsdual.search", "catalog", "search.catalog", None, None),
    ("grsdual.search", "th_large_q_code", "search.large_q", None, None),
    ("grsdual.selftest", "run_selftest", "selftest.run_selftest", None,
     _count_checks),
    ("grsdual.cli", "main", "cli.main", None, _count_exit),
)

# Methods wrapped on their class: (module, class, method, span name).
METHOD_TARGETS = (
    ("grsdual.field", "Field", "vadd", "field.vadd"),
    ("grsdual.field", "Field", "vmul", "field.vmul"),
)

# Exit codes reported as metrics; the run record lists every code seen.
EXIT_CODES = (0, 1, 4)

# Family builders whose calls, when made through grsdual.search, are
# catalog attempts.
_ATTEMPT_GROUPS = ("subspace.family", "cosets.family", "search.large_q")


def grsdual_modules():
    """Every grsdual module, importing any submodule not yet loaded."""
    import grsdual
    for info in pkgutil.iter_modules(grsdual.__path__):
        if info.name != "__main__":
            importlib.import_module(f"grsdual.{info.name}")
    return {name: mod for name, mod in sys.modules.items()
            if name == "grsdual" or name.startswith("grsdual.")}


class Tracer:
    """Wraps grsdual's layer functions and accumulates their numbers."""

    def __init__(self):
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.covered = 0.0
        self._stack = []
        self._depth = defaultdict(int)
        self._patched = []      # (owner, attribute, original)
        self._originals = set()  # ids of the wrapped functions
        self._build_misses = 0

    # ---------------------------------------------------------- wrapping

    def _wrap(self, fn, name, group, hooks):
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        inclusive = self.inclusive
        self_time = self.self_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            depth[name] += 1
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dt = clock() - t0
                children = stack.pop()
                depth[name] -= 1
                if not depth[name]:
                    inclusive[name] += dt
                self_time[group] += dt - children
                if stack:
                    stack[-1] += dt
                else:
                    self.covered += dt
                for hook in hooks:
                    hook(self, args, kwargs, result, exc)

        return wrapper

    def install(self):
        """Wrap every binding of every target across grsdual."""
        from grsdual import field as field_mod
        modules = grsdual_modules()
        for home, attr, name, group, hook in TARGETS:
            original = getattr(modules.get(home), attr, None)
            if original is None:
                continue  # reported by unwrapped_bindings
            self._originals.add(id(original))
            group = group or name
            for mod_name, mod in modules.items():
                for key, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    hooks = [hook] if hook else []
                    if (mod_name == "grsdual.search"
                            and group in _ATTEMPT_GROUPS):
                        hooks.append(_count_attempt)
                    self._patch(mod, key, self._wrap(original, name, group,
                                                     hooks))
        for home, cls_name, meth, name in METHOD_TARGETS:
            original = vars(getattr(modules.get(home), cls_name, object)).get(meth)
            if original is None:
                continue
            cls = getattr(modules[home], cls_name)
            self._originals.add(id(original))
            self._patch(cls, meth, self._wrap(original, name, name,
                                              [_count_elems(name)]))
        self._build_misses = field_mod._build_field.cache_info().misses

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        from grsdual import field as field_mod
        misses = field_mod._build_field.cache_info().misses
        self.counts["field.table_builds"] += misses - self._build_misses
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def unwrapped_bindings(self):
        """Names still bound to an unwrapped target, and missing targets.

        Scans every grsdual module namespace and every class defined in
        one.  Empty when wrapping is complete.
        """
        if not self._patched:
            return ["tracer is not installed"]
        modules = grsdual_modules()
        found = []
        for home, attr, *_ in TARGETS:
            if not hasattr(modules.get(home), attr):
                found.append(f"target {home}.{attr} no longer exists")
        for home, cls_name, meth, _ in METHOD_TARGETS:
            cls = getattr(modules.get(home), cls_name, None)
            if cls is None or meth not in vars(cls):
                found.append(f"target {home}.{cls_name}.{meth} no longer exists")
        for mod_name, mod in modules.items():
            for key, value in vars(mod).items():
                if id(value) in self._originals:
                    found.append(f"{mod_name}.{key}")
                if isinstance(value, type) and value.__module__ == mod_name:
                    for meth, fn in vars(value).items():
                        if id(fn) in self._originals:
                            found.append(f"{mod_name}.{key}.{meth}")
        return sorted(set(found))

    # ----------------------------------------------------------- metrics

    def metrics(self):
        """The per-layer metric values, by name, with their units.

        Every metric is reported on every workload; a layer a workload
        does not exercise reads 0, the work it measured.
        """
        inc, own, cnt = self.inclusive, self.self_time, self.counts
        values = {
            "field.make_field.s": (inc["field.make_field"], "s"),
            "field.table_builds": (cnt["field.table_builds"], "count"),
            "field.vadd.calls": (cnt["field.vadd.calls"], "count"),
            "field.vadd.elems": (cnt["field.vadd.elems"], "count"),
            "field.vadd.s": (inc["field.vadd"], "s"),
            "field.vmul.elems": (cnt["field.vmul.elems"], "count"),
            "field.vmul.s": (inc["field.vmul"], "s"),
            "linalg.gram.s": (inc["linalg.gram"], "s"),
            "linalg.gram.calls": (cnt["linalg.gram.calls"], "count"),
            "linalg.gram.mults": (cnt["linalg.gram.mults"], "count"),
            "linalg.rank.s": (inc["linalg.rank"], "s"),
            "linalg.rank.calls": (cnt["linalg.rank.calls"], "count"),
            "grs.lagrange_products.s": (inc["grs.lagrange_products"], "s"),
            "grs.lagrange_products.pairs":
                (cnt["grs.lagrange_products.pairs"], "count"),
            "grs.products_at.s": (inc["grs.products_at"], "s"),
            "grs.solve_multipliers.s": (inc["grs.solve_multipliers"], "s"),
            "grs.solve_extended_multipliers.s":
                (inc["grs.solve_extended_multipliers"], "s"),
            "grs.build_verified_code.self_s":
                (own["grs.build_verified_code"], "s"),
            "grs.check_self_dual.self_s": (own["grs.check_self_dual"], "s"),
            "grs.min_distance.s": (inc["grs.min_distance"], "s"),
            "grs.min_distance.words": (cnt["grs.min_distance.words"], "count"),
            "grs.check_mds.s": (inc["grs.check_mds"], "s"),
            "grs.code_from_obj.s": (inc["grs.code_from_obj"], "s"),
            "subspace.lift.s": (inc["subspace.lift"], "s"),
            "subspace.family.self_s": (own["subspace.family"], "s"),
            "cosets.coset_points.s": (inc["cosets.coset_points"], "s"),
            "cosets.family.self_s": (own["cosets.family"], "s"),
            "search.catalog.self_s": (own["search.catalog"], "s"),
            "search.large_q.s": (inc["search.large_q"], "s"),
            "search.attempts": (cnt["search.attempts"], "count"),
            "search.hits": (cnt["search.hits"], "count"),
            "search.rejects": (cnt["search.rejects"], "count"),
            "selftest.run_selftest.s": (inc["selftest.run_selftest"], "s"),
            "selftest.checks": (cnt["selftest.checks"], "count"),
            "cli.main.self_s": (own["cli.main"], "s"),
        }
        for code in EXIT_CODES:
            values[f"cli.exit.{code}"] = (cnt[f"cli.exit.{code}"], "count")
        return values

    def exact_counts(self):
        """Every count, including exit codes not listed as metrics."""
        return dict(sorted(self.counts.items()))

