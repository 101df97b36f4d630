"""Per-layer tracing of diffoplab, done from outside the package.

The tracer wraps public functions and methods of the diffoplab modules and
patches every namespace that holds a reference to them (``from .linalg
import kernel`` binds ``kernel`` in the importing module too).  Each wrapped
callable belongs to one *entry*; an entry accumulates

* ``calls``   -- number of calls,
* ``total_s`` -- inclusive time of the outermost calls of the entry,
* ``self_s``  -- time not covered by other traced calls,

plus entry-specific counts computed by a hook from the arguments and the
result (for example the number of dense multiplications of a matmul).
Hot leaves are aggregated only; the other entries also keep one span
per call in memory, which ``spans()`` returns at the end of the run.

The per-layer metric names reported by the benchmark are listed in
``METRICS``; ``metrics()`` turns the entry statistics into those values.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

PACKAGE = "diffoplab"

# entry -> list of "module:qualname" targets.  A qualname ending in ".*"
# means every public method of that class; a bare "module:*" means every
# public module-level function and every public method of every class
# defined in that module, minus the targets some other entry claims.
ENTRIES = {
    "fields": ["fields:*"],
    "linalg.matmul": ["linalg:Matrix.__matmul__"],
    "linalg.apply": ["linalg:Matrix.apply"],
    "linalg.kron": ["linalg:kron"],
    "linalg.echelon_add": ["linalg:Echelon.add"],
    "linalg.echelon_contains": ["linalg:Echelon.contains"],
    "linalg.basis_rows": ["linalg:Echelon.basis_rows"],
    "linalg.kernel": ["linalg:kernel"],
    "linalg.closure": ["linalg:closure"],
    "linalg.solve_affine": ["linalg:solve_affine", "linalg:solve_unique"],
    "linalg.preimage": ["linalg:preimage"],
    "linalg.subspace": ["linalg:Subspace.*", "linalg:quotient_basis",
                        "linalg:restrict_operator", "linalg:rank", "linalg:rref"],
    "linalg.dense": ["linalg:Matrix.*", "linalg:vstack", "linalg:hstack"],
    "homspace.families": ["homspace:HomSpace.delta_ops",
                          "homspace:HomSpace.bar_delta_ops",
                          "homspace:HomSpace.graded_delta_ops",
                          "homspace:HomSpace.action_ops"],
    "homspace.maps": ["homspace:*"],
    "algebra": ["algebra:*"],
    "bimodule": ["bimodule:*"],
    "derivations.solve": ["derivations:derivations"],
    "derivations.split": ["derivations:first_order_decomposition",
                          "derivations:split_operator"],
    "diffops.grothendieck": ["diffops:grothendieck_diff"],
    "diffops.graded": ["diffops:graded_diff"],
    "diffops.dv": ["diffops:dv_first_order"],
    "diffops.lunts": ["diffops:lunts_filtration"],
    "diffops.lunts_presented": ["diffops:lunts_filtration_presented"],
    "diffops.two_sided": ["diffops:two_sided_filtration"],
    "diffops.compare": ["diffops:compare_definitions"],
    "cecalc.forms": ["cecalc:ce_forms"],
    "cecalc.coboundary": ["cecalc:ce_coboundary_matrix"],
    "cecalc.complex": ["cecalc:CochainComplex.__init__"],
    "cecalc.minimal": ["cecalc:MinimalCalculus.__init__"],
    "cecalc.duality": ["cecalc:ce_duality_check"],
    "cecalc.wedge": ["cecalc:wedge"],
    "gradedce.complex": ["gradedce:GradedCochainComplex.__init__"],
    "gradedce.d_squared": ["gradedce:GradedCochainComplex.d_squared_is_zero"],
    "universal.calculus": ["universal:UniversalCalculus.__init__"],
    "universal.checks": ["universal:UniversalCalculus.omega1_equals_multiplication_kernel",
                         "universal:UniversalCalculus.leibniz_holds",
                         "universal:UniversalCalculus.juxtaposition_rule_holds",
                         "universal:UniversalCalculus.central_commutation_witness"],
    "jets.jet_module": ["jets:jet_module"],
    "jets.jk_is_diffop": ["jets:jk_is_diffop"],
    "jets.two_sided": ["jets:two_sided_jet", "jets:two_sided_representability"],
    "cartan": ["cartan:*"],
    "scenarios": ["scenarios:*"],
    "cli.emit": ["cli:emit"],
    "cli": ["cli:*"],
}

# Entries called often enough that a span per call would cost too much.
HOT = {"fields", "linalg.dense", "linalg.subspace", "linalg.apply",
       "linalg.matmul", "linalg.echelon_add", "linalg.echelon_contains",
       "linalg.basis_rows", "linalg.kron", "homspace.maps", "algebra",
       "bimodule"}

# Dunder methods traced along with the public ones: constructors and the
# arithmetic / comparison protocol.
TRACED_DUNDERS = {"__init__", "__call__", "__eq__", "__add__", "__sub__",
                  "__neg__", "__mul__", "__matmul__"}


def _timed_entries(prefix, names):
    return [f"{prefix}.{n}.{s}" for n in names for s in ("calls", "total_s", "self_s")]


# Reported metric -> unit, in report order.
METRICS = {}
for _name in (
        ["fields.calls", "fields.self_s"]
        + [f"linalg.{k}.{s}" for k in ("matmul", "apply")
           for s in ("calls", "self_s", "mults", "useful_frac")]
        + ["linalg.kron.calls", "linalg.kron.self_s", "linalg.kron.entries",
           "linalg.echelon_add.calls", "linalg.echelon_add.self_s",
           "linalg.echelon_add.grew_frac",
           "linalg.echelon_contains.calls", "linalg.echelon_contains.self_s",
           "linalg.basis_rows.calls", "linalg.basis_rows.self_s",
           "linalg.kernel.calls", "linalg.kernel.self_s", "linalg.kernel.rows",
           "linalg.kernel.useful_frac", "linalg.kernel.max_cols",
           "linalg.closure.calls", "linalg.closure.self_s",
           "linalg.closure.grew_frac"]
        + [f"linalg.{k}.{s}" for k in ("solve_affine", "preimage", "subspace", "dense")
           for s in ("calls", "self_s")]
        + ["homspace.instances",
           "homspace.families.calls", "homspace.families.self_s",
           "homspace.maps.calls", "homspace.maps.self_s",
           "algebra.calls", "algebra.self_s", "bimodule.calls", "bimodule.self_s"]
        + _timed_entries("derivations", ["solve", "split"])
        + _timed_entries("diffops", ["grothendieck", "graded", "dv", "lunts",
                                "lunts_presented", "two_sided"])
        + ["diffops.compare.self_s"]
        + _timed_entries("cecalc", ["forms", "coboundary", "complex", "minimal",
                               "duality", "wedge"])
        + _timed_entries("gradedce", ["complex", "d_squared"])
        + _timed_entries("universal", ["calculus", "checks"])
        + _timed_entries("jets", ["jet_module", "jk_is_diffop", "two_sided"])
        + ["cartan.calls", "cartan.total_s", "cartan.self_s",
           "scenarios.checks", "scenarios.self_s",
           "cli.emit_s", "cli.self_s",
           "trace.overhead_frac"]):
    _stat = _name.rsplit(".", 1)[1]
    METRICS[_name] = ("s" if _stat.endswith("_s")
                      else "ratio" if _stat.endswith("_frac") else "count")

# Metrics that are counts of work done; they must repeat exactly between
# two traced passes over the same inputs.
COUNT_METRICS = [m for m, unit in METRICS.items()
                 if unit != "s" and m != "trace.overhead_frac"]


class EntryStats:
    __slots__ = ("calls", "total_s", "self_s", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0
        self.extra = {}

    def bump(self, key, n=1):
        self.extra[key] = self.extra.get(key, 0) + n


# ---------------------------------------------------------------------------
# Hooks: counts computed from arguments and results
# ---------------------------------------------------------------------------


def _col_nnz(m):
    counts = [0] * m.cols
    for row in m.data:
        for j, x in enumerate(row):
            if x:
                counts[j] += 1
    return counts


class _NnzCache:
    """Column non-zero counts of recently applied matrices, keyed by identity.

    ``closure`` applies the same few operators thousands of times, so the
    counts are kept for the last few matrices.  Each matrix is held with its
    counts so that its id cannot be reused while the entry is cached.
    """

    def __init__(self, size=64):
        self.size = size
        self.items = {}

    def col_nnz(self, m):
        hit = self.items.get(id(m))
        if hit is not None and hit[0] is m:
            return hit[1]
        counts = _col_nnz(m)
        if len(self.items) >= self.size:
            self.items.pop(next(iter(self.items)))
        self.items[id(m)] = (m, counts)
        return counts


class Tracer:
    """Install wrappers, collect entry statistics, restore the originals."""

    def __init__(self):
        self.stats = {name: EntryStats() for name in ENTRIES}
        self.stack = []          # child time accumulated per open frame
        self.span_log = []       # (entry, start, seconds, parent) of non-hot calls
        self.open_spans = []     # indices into span_log of the open non-hot calls
        self.patches = []        # (namespace, key, original, replacement)
        self.originals = {}      # "module:qualname" -> original function
        self._nnz = _NnzCache()
        self._t0 = perf_counter()

    def reset(self):
        """Zero every statistic; the installed wrappers keep working."""
        for st in self.stats.values():
            st.__init__()
        self.span_log.clear()
        self._t0 = perf_counter()

    # -- target discovery -------------------------------------------------------

    @staticmethod
    def _module(short):
        return sys.modules[f"{PACKAGE}.{short}"]

    @staticmethod
    def _public_members(cls):
        out = []
        for key, raw in vars(cls).items():
            if key.startswith("_") and key not in TRACED_DUNDERS:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                raw = raw.__func__
            if inspect.isfunction(raw):
                out.append(key)
        return out

    @classmethod
    def public_targets(cls, short):
        """Every public function and method defined in a diffoplab module."""
        mod = cls._module(short)
        out = []
        for key, obj in vars(mod).items():
            if key.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out.append(f"{short}:{key}")
            elif inspect.isclass(obj):
                out.extend(f"{short}:{key}.{m}" for m in cls._public_members(obj))
        return out

    @classmethod
    def resolve_targets(cls):
        """target -> entry, expanding wildcards; specific entries win."""
        owner = {}
        for entry, specs in ENTRIES.items():
            for spec in specs:
                if "*" in spec:
                    continue
                if spec in owner:
                    raise ValueError(f"{spec} claimed by {owner[spec]} and {entry}")
                owner[spec] = entry
        for entry, specs in ENTRIES.items():
            for spec in specs:
                if "*" not in spec:
                    continue
                short, qual = spec.split(":")
                if qual == "*":
                    candidates = cls.public_targets(short)
                else:
                    klass = getattr(cls._module(short), qual[:-2])
                    candidates = [f"{short}:{qual[:-2]}.{m}"
                                  for m in cls._public_members(klass)]
                for target in candidates:
                    owner.setdefault(target, entry)
        return owner

    # -- installation ------------------------------------------------------------

    def install(self):
        """Wrap every target, then rebind every reference to an original."""
        wrappers = {}
        for target, entry in self.resolve_targets().items():
            short, qual = target.split(":")
            owner = self._module(short)
            if "." in qual:
                cls_name, qual = qual.split(".")
                owner = getattr(owner, cls_name)
            raw = vars(owner)[qual]
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            self.originals[target] = fn
            wrappers[id(fn)] = self._wrap(fn, target, entry)
        for namespace in self._namespaces():
            for key, raw in list(vars(namespace).items()):
                kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
                wrapper = wrappers.get(id(raw.__func__ if kind else raw))
                if wrapper is not None:
                    self._patch(namespace, key, raw, kind(wrapper) if kind else wrapper)
        self.check_patched()

    @staticmethod
    def _namespaces():
        """The diffoplab modules and the classes they define."""
        out = []
        for name, mod in sorted(sys.modules.items()):
            if not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            out.append(mod)
            out.extend(obj for obj in vars(mod).values()
                       if inspect.isclass(obj) and obj.__module__ == name)
        return out

    def _patch(self, namespace, key, original, replacement):
        setattr(namespace, key, replacement)
        self.patches.append((namespace, key, original, replacement))

    def uninstall(self):
        for namespace, key, original, _ in reversed(self.patches):
            setattr(namespace, key, original)
        self.patches = []

    def check_patched(self):
        """Raise if any module or class still holds an unwrapped original."""
        # the originals stay referenced by self.originals, so ids are unique
        originals = {id(fn) for fn in self.originals.values()}
        stale = []
        for namespace in self._namespaces():
            for key, raw in vars(namespace).items():
                fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if id(fn) in originals:
                    stale.append(f"{namespace.__module__}.{getattr(namespace, '__qualname__', '')}.{key}")
        if stale:
            raise RuntimeError("unpatched references: " + ", ".join(sorted(set(stale))))

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, fn, target, entry):
        st = self.stats[entry]
        stack = self.stack
        pre = PRE_HOOKS.get(target)
        post = POST_HOOKS.get(target)
        spans = None if entry in HOT else self.span_log
        open_spans = self.open_spans
        tracer = self

        def traced(*args, **kwargs):
            if pre is not None:
                h0 = perf_counter()
                args, token = pre(tracer, st, args)
                if stack:  # hook time is not charged to the caller's self time
                    stack[-1] += perf_counter() - h0
            if spans is not None:
                span = len(spans)
                spans.append(None)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span)
            stack.append(0.0)
            st.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                st.depth -= 1
                st.calls += 1
                st.self_s += dt - child
                if st.depth == 0:
                    st.total_s += dt
                if stack:
                    stack[-1] += dt
                if spans is not None:
                    spans[span] = (entry, t0 - tracer._t0, dt, parent)
                    open_spans.pop()
            if post is not None:
                h0 = perf_counter()
                post(tracer, st, args, result, None if pre is None else token)
                if stack:
                    stack[-1] += perf_counter() - h0
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", traced.__name__)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------------

    def spans(self):
        """Calls of the non-leaf entries as (entry, start s, seconds, parent index)."""
        return list(self.span_log)

    def metrics(self, overhead_frac):
        s = self.stats

        def frac(num, den):
            return num / den if den else 0.0

        out = {}
        for name in METRICS:
            if name == "trace.overhead_frac":
                out[name] = overhead_frac
                continue
            prefix, stat = name.rsplit(".", 1)
            if name == "homspace.instances":
                out[name] = s["homspace.maps"].extra.get("instances", 0)
            elif name == "scenarios.checks":
                out[name] = s["scenarios"].extra.get("checks", 0)
            elif name == "cli.emit_s":
                out[name] = s["cli.emit"].total_s
            elif name == "cli.self_s":
                out[name] = s["cli"].self_s + s["cli.emit"].self_s
            elif stat == "calls":
                out[name] = s[prefix].calls
            elif stat == "total_s":
                out[name] = s[prefix].total_s
            elif stat == "self_s":
                out[name] = s[prefix].self_s
            elif stat == "useful_frac":
                ex = s[prefix].extra
                den = "rows" if prefix == "linalg.kernel" else "mults"
                out[name] = frac(ex.get("useful", 0), ex.get(den, 0))
            elif stat == "grew_frac":
                ex = s[prefix].extra
                den = "applies" if prefix == "linalg.closure" else None
                out[name] = frac(ex.get("grew", 0),
                                 ex.get(den, 0) if den else s[prefix].calls)
            else:
                out[name] = s[prefix].extra.get(stat, 0)
        return out


# ---------------------------------------------------------------------------
# Hook implementations
# ---------------------------------------------------------------------------


def _post_matmul(tracer, st, args, result, _):
    a, b = args[0], args[1]
    st.bump("mults", a.rows * a.cols * b.cols)
    col_a = _col_nnz(a)
    useful = 0
    for j, row in enumerate(b.data):
        if col_a[j]:
            useful += col_a[j] * sum(1 for x in row if x)
    st.bump("useful", useful)


def _post_apply(tracer, st, args, result, _):
    m, vec = args[0], args[1]
    st.bump("mults", m.rows * m.cols)
    col = tracer._nnz.col_nnz(m)
    st.bump("useful", sum(c for c, x in zip(col, vec) if x))


def _post_kron(tracer, st, args, result, _):
    st.bump("entries", result.rows * result.cols)


def _post_echelon_add(tracer, st, args, result, _):
    if result:
        st.bump("grew")


def _post_kernel(tracer, st, args, result, _):
    m = args[0]
    st.bump("rows", m.rows)
    st.bump("useful", m.cols - result.dim)
    if m.cols > st.extra.get("max_cols", 0):
        st.extra["max_cols"] = m.cols


def _pre_closure(tracer, st, args):
    field, ambient_dim, seeds, operators = args[:4]
    seeds = [list(s) for s in seeds]
    # rank of the seeds, computed with the unwrapped elimination
    ech = sys.modules[f"{PACKAGE}.linalg"].Echelon(field, ambient_dim)
    add = tracer.originals["linalg:Echelon.add"]
    seed_rank = sum(1 for s in seeds if add(ech, s))
    applies_before = tracer.stats["linalg.apply"].calls
    return (field, ambient_dim, seeds, operators) + tuple(args[4:]), (seed_rank, applies_before)


def _post_closure(tracer, st, args, result, token):
    seed_rank, applies_before = token
    st.bump("grew", result.dim - seed_rank)
    st.bump("applies", tracer.stats["linalg.apply"].calls - applies_before)


def _post_homspace_init(tracer, st, args, result, _):
    st.bump("instances")


def _post_run_check(tracer, st, args, result, _):
    st.bump("checks")


PRE_HOOKS = {"linalg:closure": _pre_closure}
POST_HOOKS = {
    "linalg:Matrix.__matmul__": _post_matmul,
    "linalg:Matrix.apply": _post_apply,
    "linalg:kron": _post_kron,
    "linalg:Echelon.add": _post_echelon_add,
    "linalg:kernel": _post_kernel,
    "linalg:closure": _post_closure,
    "homspace:HomSpace.__init__": _post_homspace_init,
    "scenarios:run_check": _post_run_check,
}
