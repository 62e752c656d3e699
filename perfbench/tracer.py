"""Per-module call tracing installed from outside the package.

The tracer replaces public functions of ``schmidtq`` with timing wrappers
in every module namespace that holds them (so ``schmidtq.colored`` and
``schmidtq.identities`` each see the wrapped ``partitions_of``), and
wraps ``Series.__mul__`` on the class.  Nothing under ``src/`` changes;
``uninstall`` puts every original back.

Each wrapped function gets an aggregate of calls, yielded items,
inclusive time and self time.  Self time is inclusive time minus the
time of wrapped calls made underneath it, kept with an explicit stack.
Generator wrappers time each ``next()`` separately, so a generator's
time is charged only while it runs, and its items are counted by the
wrapped function that consumed them.  Spans are kept for ops and for
the side-level functions only.  Everything stays in memory until the
caller writes it out.
"""

from __future__ import annotations

import inspect
from collections import Counter
from time import perf_counter

# (module, attribute, kind).  "span" functions are also recorded as spans;
# "gen" functions are generator functions.
TARGETS = (
    ("series", "geometric_inverse", "call"),
    ("series", "poch_finite", "call"),
    ("series", "poch_infinite", "call"),
    ("series", "poch_infinite_inverse", "call"),
    ("series", "gaussian_binomial_coeffs", "call"),
    ("series", "gaussian_multinomial_coeffs", "call"),
    ("series", "q_binomial", "call"),
    ("series", "q_multinomial", "call"),
    ("identities", "sum_side", "span"),
    ("identities", "product_side", "span"),
    ("identities", "enum_side", "span"),
    ("identities", "verify_identity", "span"),
    ("identities", "verify_counting", "span"),
    ("identities", "witnesses", "span"),
    ("identities", "ln_series", "span"),
    ("identities", "cauchy_check", "span"),
    ("identities", "t1_slice_check", "span"),
    ("partitions", "partitions_of", "gen"),
    ("partitions", "partitions_with_schmidt_weight", "gen"),
    ("partitions", "schmidt_weight", "call"),
    ("partitions", "residue_column_count", "call"),
    ("partitions", "in_class", "call"),
    ("partitions", "repetition_profile", "call"),
    ("colored", "colored_partitions", "gen"),
    ("colored", "overpartitions", "gen"),
    ("colored", "color_counts", "call"),
    ("colored", "over_stats", "call"),
    ("colored", "cs_validate", "call"),
    ("colored", "admissible_colors", "call"),
    ("bijections", "color_conjugate", "call"),
    ("bijections", "color_conjugate_inverse", "call"),
    ("bijections", "mork_forward", "call"),
    ("bijections", "mork_inverse", "call"),
    ("bijections", "glaisher_reduce", "call"),
    ("bijections", "glaisher_expand", "call"),
    ("bijections", "decompose_multiplicity", "call"),
    ("bijections", "merge_partitions", "call"),
    ("cli", "run", "span"),
)

MODULES = ("series", "partitions", "colored", "bijections", "identities", "cli")
MUL = "series.mul"


class Aggregate:
    __slots__ = ("calls", "items", "incl", "self")

    def __init__(self):
        self.calls = 0
        self.items = 0
        self.incl = 0.0
        self.self = 0.0

    def as_dict(self):
        return {"calls": self.calls, "items": self.items, "incl_s": self.incl, "self_s": self.self}


class Tracer:
    """Wrappers, aggregates, counters and spans for one traced pass."""

    def __init__(self, package, count_partitions):
        # count_partitions(n) is p(n); it prices the candidates that a
        # class-filtered partitions_of call generates.
        self._package = package
        self._count_partitions = count_partitions
        self._restore = []
        self._stack = []  # frames: [key, child_s, span_index, start]
        self.funcs = {}
        self.counts = Counter()
        self.spans = []
        self._op = None

    # -- bookkeeping --------------------------------------------------------

    def _agg(self, key):
        agg = self.funcs.get(key)
        if agg is None:
            agg = self.funcs[key] = Aggregate()
        return agg

    def _enter(self, key, span):
        index = None
        if span:
            parent = next((f[2] for f in reversed(self._stack) if f[2] is not None), None)
            index = len(self.spans)
            self.spans.append([index, parent, self._op, key, 0.0, 0.0])
        frame = [key, 0.0, index, 0.0]
        self._stack.append(frame)
        frame[3] = perf_counter()
        if index is not None:
            self.spans[index][4] = frame[3]
        return frame

    def _exit(self, frame):
        end = perf_counter()
        dt = end - frame[3]
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dt
        agg = self._agg(frame[0])
        agg.incl += dt
        agg.self += dt - frame[1]
        if frame[2] is not None:
            self.spans[frame[2]][5] = end

    def begin_op(self, label):
        """Open the op-level span; returns the frame to pass to ``end_op``."""
        self._op = label
        return self._enter("op", True)

    def end_op(self, frame):
        self._exit(frame)
        self._op = None

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, key, fn, span, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._agg(key).calls += 1
            frame = tracer._enter(key, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_gen(self, key, fn, tag=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._agg(key).calls += 1
            consumer = tracer._stack[-1][0] if tracer._stack else None
            label = tag(args, kwargs) if tag is not None else None
            return tracer._drive(key, fn(*args, **kwargs), consumer, label)

        wrapper.__wrapped__ = fn
        return wrapper

    def _drive(self, key, gen, consumer, label):
        agg = self._agg(key)
        while True:
            frame = self._enter(key, False)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(frame)
            agg.items += 1
            self.counts[("consumed_by", consumer)] += 1
            if label is not None:
                self.counts[label] += 1
            yield item

    def _class_tag(self, signature):
        # Tags the items of a class-filtered partitions_of call and adds the
        # p(n) candidates it generates, for partitions.class_keep_ratio.
        def tag(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            if bound.arguments["cls"] == "P":
                return None
            self.counts["partitions.class_generated"] += self._count_partitions(
                bound.arguments["n"]
            )
            return "partitions.class_kept"

        return tag

    def _count_mul(self, args, result):
        a, b = args
        if result is NotImplemented:
            return
        pairs = len(a) * len(b) if isinstance(b, type(a)) else len(a)
        self.counts["series.mul_term_pairs"] += pairs
        self.counts["series.mul_kept_terms"] += len(result)

    def _count_enum_terms(self, args, result):
        self.counts["identities.enum_terms"] += len(result)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        pkg = self._package
        namespaces = [pkg] + [getattr(pkg, name) for name in MODULES]
        for module_name, attr, kind in TARGETS:
            original = getattr(getattr(pkg, module_name), attr)
            key = f"{module_name}.{attr}"
            if kind == "gen":
                tag = None
                if key == "partitions.partitions_of":
                    tag = self._class_tag(inspect.signature(original))
                wrapper = self._wrap_gen(key, original, tag)
            else:
                after = self._count_enum_terms if key == "identities.enum_side" else None
                wrapper = self._wrap_call(key, original, kind == "span", after)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is original:
                        self._restore.append((ns, name, value))
                        setattr(ns, name, wrapper)
        series_cls = pkg.series.Series
        for name in ("__mul__", "__rmul__"):
            original = series_cls.__dict__[name]
            self._restore.append((series_cls, name, original))
            setattr(series_cls, name, self._wrap_call(MUL, original, False, self._count_mul))

    def uninstall(self):
        for ns, name, value in reversed(self._restore):
            setattr(ns, name, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def _sum(self, keys, field):
        return sum(getattr(self.funcs[k], field) for k in keys if k in self.funcs)

    def _layer_keys(self, layer, kinds=None):
        return [
            f"{mod}.{attr}"
            for mod, attr, kind in TARGETS
            if mod == layer and (kinds is None or kind in kinds)
        ]

    def layer_metrics(self):
        """The per-layer metrics of this pass, by name (values only)."""
        c = self.counts
        f = self.funcs
        out = {}

        def get(key, field):
            return getattr(f[key], field) if key in f else 0

        def ratio(a, b):
            return a / b if b else 0.0

        out["series.mul_calls"] = get(MUL, "calls")
        out["series.mul_term_pairs"] = c["series.mul_term_pairs"]
        out["series.mul_kept_ratio"] = ratio(c["series.mul_kept_terms"], c["series.mul_term_pairs"])
        out["series.mul_self_s"] = get(MUL, "self")
        out["series.geometric_inverse_self_s"] = get("series.geometric_inverse", "self")
        out["series.poch_self_s"] = self._sum(
            ["series.poch_finite", "series.poch_infinite", "series.poch_infinite_inverse"], "self"
        )
        out["series.gaussian_self_s"] = self._sum(
            [
                "series.gaussian_binomial_coeffs",
                "series.gaussian_multinomial_coeffs",
                "series.q_binomial",
                "series.q_multinomial",
            ],
            "self",
        )

        out["identities.sum_side_s"] = get("identities.sum_side", "incl")
        out["identities.product_side_s"] = get("identities.product_side", "incl")
        out["identities.enum_side_s"] = get("identities.enum_side", "incl")
        out["identities.compare_s"] = get("identities.verify_identity", "self")
        out["identities.verify_counting_s"] = get("identities.verify_counting", "incl")
        out["identities.witnesses_s"] = get("identities.witnesses", "incl")
        out["identities.enum_objects_per_term"] = ratio(
            c[("consumed_by", "identities.enum_side")], c["identities.enum_terms"]
        )

        for layer in ("partitions", "colored"):
            gens = self._layer_keys(layer, ("gen",))
            stats = self._layer_keys(layer, ("call",))
            objects = self._sum(gens, "items")
            out[f"{layer}.objects"] = objects
            out[f"{layer}.objects_per_s"] = ratio(objects, self._sum(gens, "incl"))
            out[f"{layer}.self_s"] = self._sum(gens + stats, "self")
            out[f"{layer}.stat_self_s"] = self._sum(stats, "self")
            if layer == "partitions":
                out["partitions.class_keep_ratio"] = ratio(
                    c["partitions.class_kept"], c["partitions.class_generated"]
                )

        maps = self._layer_keys("bijections")
        out["bijections.maps"] = self._sum(maps, "calls")
        out["bijections.maps_per_s"] = ratio(out["bijections.maps"], self._sum(maps, "incl"))
        out["bijections.self_s"] = self._sum(maps, "self")
        out["cli.self_s"] = get("cli.run", "self")
        out["cli.lines_out"] = c["cli.lines_out"]
        return out

    def dump(self):
        """Aggregates, counters and spans as plain JSON-ready data."""
        return {
            "functions": {k: v.as_dict() for k, v in sorted(self.funcs.items())},
            "counts": {
                (k if isinstance(k, str) else ":".join(map(str, k))): v
                for k, v in sorted(self.counts.items(), key=lambda kv: str(kv[0]))
            },
            "spans": [
                {"id": s[0], "parent": s[1], "op": s[2], "name": s[3], "start": s[4], "end": s[5]}
                for s in self.spans
            ],
        }
