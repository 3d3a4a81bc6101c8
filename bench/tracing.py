"""Per-layer spans and counters, installed from outside the package.

`install()` replaces the public functions and methods of each layer with
wrappers that time a span around the call and bump the layer's counters.
A layer's self time is the sum of its spans' durations minus the time their
child spans cover.  Names another module imported by name (such as
`is_complete_antichain` in vg, or `compute_nucleus` in cli, vg and
presentation) are replaced wherever they are bound.  Leaf helpers called
up to millions of times per op (`is_prefix`, `is_antichain`,
`GroupDef.act_letter`, `GroupDef.word`, `GenWord` methods, `Nucleus.act`)
stay unwrapped: their time counts toward the layer that called them.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (layer, module, functions, {class: methods}); catalogue's group resolution
# counts as command-line time
LAYERS = [
    ("words", "selfsim.words", ["is_complete_antichain", "common_refinement", "m_invariant"],
     {"Antichain": ["__init__", "complement", "split", "refines", "is_whole"]}),
    ("ssgroup", "selfsim.ssgroup", [],
     {"GroupDef": ["wreath", "is_trivial", "are_equal", "act", "section", "perm_on_level"]}),
    ("machine", "selfsim.ssgroup", [],
     {"Machine": ["intern", "inverse_state", "product_state", "reachable"]}),
    ("nucleus", "selfsim.nucleus", ["compute_nucleus", "section_closure", "is_regular",
                                    "is_self_replicating", "is_level_transitive",
                                    "length3_index_triples", "length3_relations"],
     {"Nucleus": ["__init__", "index_of"]}),
    ("vg", "selfsim.vg", ["thompson_from_antichains", "orbit_witness", "same_orbit_clopen"],
     {"Table": ["__init__", "split_row", "refine_domain", "refine_range", "compose", "inverse",
                "equals", "canonical_form", "apply", "sign", "image_of_clopen"]}),
    ("presentation", "selfsim.presentation",
     ["emit_presentation", "verify_relator", "relators_C", "relators_N", "relators_S",
      "l_embed", "l_of", "choose_ab_tables", "embedded_conjugator",
      "offcylinder_stabilizer_tables", "level2_permutation"], {}),
    ("abelian", "selfsim.abelian", ["smith_normal_form", "cokernel", "vg_abelianization",
                                    "sigma_matrix", "nucleus_relation_rows",
                                    "rational_map_abelianization"], {}),
    ("limitspace", "selfsim.limitspace", ["quotient_graph", "schreier_graph",
                                          "level_identifications", "cylinder_stable_states",
                                          "moore_diagram"], {}),
    ("cli", "selfsim.cli", ["main"], {}),
    ("cli", "selfsim.catalogue", ["resolve_group", "builtin_groups", "kneading_group",
                                  "trivial_group"], {}),
]

# (layer, name) -> counter bumped once per call
CALL_COUNTERS = {
    ("words", "is_complete_antichain"): "words.complete_checks",
    ("vg", "Table.__init__"): "vg.tables_built",
    ("vg", "Table.split_row"): "vg.rows_split",
    ("vg", "Table.compose"): "vg.compose_calls",
    ("ssgroup", "GroupDef.wreath"): "ssgroup.wreath_calls",
    ("ssgroup", "GroupDef.is_trivial"): "ssgroup.trivial_calls",
    ("machine", "Machine.intern"): "machine.intern_calls",
    ("machine", "Machine.product_state"): "machine.product_calls",
    ("nucleus", "compute_nucleus"): "nucleus.compute_calls",
    ("abelian", "smith_normal_form"): "abelian.smith_calls",
    ("limitspace", "quotient_graph"): "limitspace.quotient_calls",
}


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, layer: str, fn, counter: str | None = None, before=None, after=None):
        """`fn` wrapped in a span of `layer`; `before(args)` runs first and
        its value goes to `after(value, args, result)` once `fn` returned."""
        stack, self_s, counts = self.stack, self.self_s, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter:
                counts[counter] += 1
            state = before(args) if before else None
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after:
                after(state, args, result)
            return result

        return wrapper

    def metrics(self) -> dict[str, tuple[float, str]]:
        counts = self.counts
        out: dict[str, tuple[float, str]] = {}
        for name in sorted(set(CALL_COUNTERS.values()) | {
                "ssgroup.wreath_factors", "machine.states_interned", "presentation.relators"}):
            out[name] = (counts[name], "count")
        calls = counts["machine.product_calls"]
        out["machine.product_hit_ratio"] = (
            counts["machine.product_hits"] / calls if calls else 0.0, "ratio")
        for layer in dict.fromkeys(layer for layer, _, _, _ in LAYERS):
            out[f"{layer}.self_s"] = (self.self_s[layer], "s")
        return out


def install() -> Tracer:
    """Wrap every listed function and method; returns the tracer that
    collects the spans and counts."""
    tracer = Tracer()
    counts = tracer.counts

    def wreath_factors(args):  # GroupDef.wreath(self, word)
        counts["ssgroup.wreath_factors"] += len(args[1])

    def interned(before, args, result):  # Machine.intern(self, word)
        counts["machine.states_interned"] += len(args[0]) - before

    def product_hit(before, args, result):  # no intern call underneath
        if counts["machine.intern_calls"] == before:
            counts["machine.product_hits"] += 1

    def relators(before, args, result):  # emit_presentation -> bundle
        counts["presentation.relators"] += sum(len(r) for r in result.relators.values())

    hooks = {
        ("ssgroup", "GroupDef.wreath"): (wreath_factors, None),
        ("machine", "Machine.intern"): (lambda args: len(args[0]), interned),
        ("machine", "Machine.product_state"): (
            lambda args: counts["machine.intern_calls"], product_hit),
        ("presentation", "emit_presentation"): (None, relators),
    }

    def wrap(layer, name, fn):
        before, after = hooks.get((layer, name), (None, None))
        return tracer.span(layer, fn, CALL_COUNTERS.get((layer, name)), before, after)

    wrapped: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
    for layer, modname, functions, classes in LAYERS:
        module = sys.modules[modname]
        for name in functions:
            fn = getattr(module, name)
            wrapped[id(fn)] = (fn, wrap(layer, name, fn))
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for name in methods:
                setattr(cls, name, wrap(layer, f"{cls_name}.{name}", cls.__dict__[name]))
    # rebind every module-level name bound to a wrapped function, including
    # names other modules imported by name
    for modname, module in list(sys.modules.items()):
        if modname == "selfsim" or modname.startswith("selfsim."):
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
    return tracer
