"""In-process tracing of treeseries at the public functions of each module.

`Tracer.install()` replaces each traced function by a wrapper that records a
span (name, start, end, parent span, job id) in memory.  A function is
replaced in every treeseries module that holds it, by global name or as a
value of a module-level dict (the CLI keeps its binary operations in one), so
`decide.CoefficientStream` and `closure.generating_prefix` are traced just like
the definitions.  Methods are replaced on their class.  Two hot paths only
count: `SizeRational.__call__` and `Automaton.__post_init__`.  `uninstall()`
puts every original back; an untraced pass never sees a wrapper.

Per-layer metrics are sums over the spans of one name; a `*_s` metric is self
time, the span minus the time its child spans cover.
"""

from __future__ import annotations

import math
import sys
import time
import weakref
from collections import Counter

# span name -> (module, qualified name) of each function it covers
SPANS = {
    "cli": [("cli", "main")],
    "core.json_load": [("core", "automaton_from_json")],
    "core.json_dump": [("core", "automaton_to_json")],
    "core.witness": [("core", "enumerate_trees"), ("core", "evaluate")],
    "exactmath.normalize": [("exactmath", "normalize_common_denominator")],
    "exactmath.parse": [("exactmath", "parse_size_rational")],
    "series.coeff": [("series", "CoefficientStream.up_to"), ("series", "generating_prefix")],
    "closure.ts_hadamard": [("closure", "ts_hadamard")],
    "closure.ts_add": [("closure", "ts_add")],
    "closure.gf_add": [("closure", "gf_add")],
    "closure.shift": [("closure", "gf_shift_forward"), ("closure", "gf_shift_backward"),
                      ("closure", "gf_mul_shifted")],
    "closure.other": [("closure", name) for name in (
        "ts_scale", "gf_scale", "gf_cauchy", "gf_derive", "gf_integrate", "gf_inverse")],
    "compile.parse": [("compile", "parse_rds"), ("compile", "parse_da"),
                      ("compile", "parse_dfinite")],
    "compile.compile": [("compile", name) for name in (
        "compile_rda", "compile_cda", "compile_dfinite", "da_to_rds")],
    "species.parse": [("species", "parse_species")],
    "species.translate": [("species", "species_to_rds")],
    "decide.scan": [("decide", "check_zero_genfun")],
    "decide.bound": [("decide", "compute_bound")],
    "decide.system": [("decide", "emit_differential_system"),
                      ("decide", "DifferentialSystem.forward_solve")],
}

def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "treeseries" or name.startswith("treeseries."))]


def _cells_and_nnz(a) -> tuple:
    cells = nnz = 0
    for name, matrix in a.weights:
        k = a.alphabet.arity(name)
        for row in matrix:
            cells += len(row)
            nnz += sum(1 for e in row if (e != 0 if k == 0 else not e.is_zero))
    return cells, nnz


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._undo = []
        self._stream_reach = weakref.WeakKeyDictionary()  # stream -> highest n computed

    # -- wrappers --------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        if name == "core.witness" and parent >= 0 and self.spans[parent][0].startswith("closure."):
            name = self.spans[parent][0]  # closure evaluates trees too; that is closure work
        record = [name, time.perf_counter(), None, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record, parent

    def _close(self, record):
        record[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, span, fn, after=None):
        def traced(*args, **kwargs):
            record, parent = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if after is not None:
                after(args, result, parent)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, span):
        if span == "exactmath.normalize":
            return lambda args, result, parent: self.counts.update(["exactmath.normalize_calls"])
        if span.startswith("closure."):
            return self._after_closure
        if span == "series.coeff":
            return self._after_coeff
        return None

    def _after_closure(self, args, result, parent):
        # count the automata closure hands back to other layers, not its intermediates
        if parent >= 0 and self.spans[parent][0].startswith("closure."):
            return
        cells, nnz = _cells_and_nnz(result)
        self.counts["closure.out_cells"] += cells
        self.counts["closure.out_nnz"] += nnz

    def _after_coeff(self, args, result, parent):
        if not args or not hasattr(args[0], "automaton"):
            return  # generating_prefix: its stream's up_to already counted the work
        stream, n_max = args[0], args[1]
        if parent >= 0 and self.spans[parent][0] == "decide.scan":
            self.counts["decide.coeffs_scanned"] += 1
        reach = self._stream_reach.get(stream, -1)
        if n_max <= reach:
            return
        self._stream_reach[stream] = n_max
        arities = [k for _, k in stream.automaton.alphabet.symbols if k >= 1]
        new = range(max(reach + 1, 1), n_max + 1)
        self.counts["series.coefficients"] += n_max - reach
        self.counts["series.compositions"] += sum(
            math.comb(n - 1 + k - 1, k - 1) for n in new for k in arities
        )
        bits = self.counts["series.max_bits"]
        for vector in result[reach + 1:]:
            for v in vector:
                bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        self.counts["series.max_bits"] = bits

    # -- install / uninstall ---------------------------------------------------

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr) if not isinstance(owner, dict)
                           else owner[attr]))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self):
        import treeseries.cli  # noqa: F401  (loads every module the CLI uses)

        modules = _modules()
        package = {m.__name__.rpartition(".")[2]: m for m in modules}
        for span, targets in SPANS.items():
            for module_name, qualname in targets:
                owner = package[module_name]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(owner, cls_name)
                    self._patch(cls, attr, self._wrap(span, getattr(cls, attr), self._after(span)))
                    continue
                original = getattr(owner, qualname)
                wrapper = self._wrap(span, original, self._after(span))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
                        elif isinstance(value, dict):
                            for dkey, dvalue in list(value.items()):
                                if dvalue is original:
                                    self._patch(value, dkey, wrapper)
        self._install_counters(package)

    def _install_counters(self, package):
        counts = self.counts
        size_rational = package["exactmath"].SizeRational
        evaluate = size_rational.__call__

        def counted_call(f, point):
            counts["exactmath.eval_calls"] += 1
            return evaluate(f, point)

        self._patch(size_rational, "__call__", counted_call)

        automaton = package["core"].Automaton
        post_init = automaton.__post_init__

        def counted_post_init(a):
            post_init(a)
            cells, nnz = _cells_and_nnz(a)
            counts["core.weight_cells"] += cells
            counts["core.weight_nnz"] += nnz

        self._patch(automaton, "__post_init__", counted_post_init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name, summed over every span of that name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def metrics(self) -> Counter:
        """Per-layer metrics: self time of each span name as `<span>_s`
        (`cli.self_s` for the CLI), the counts, and core.nnz_ratio.  A count
        that nothing incremented reads 0."""
        times = self.self_times()
        out = Counter(self.counts)
        for span in SPANS:
            out["cli.self_s" if span == "cli" else span + "_s"] = times.get(span, 0.0)
        cells = out["core.weight_cells"]
        out["core.nnz_ratio"] = out["core.weight_nnz"] / cells if cells else 0.0
        return out

    def dump_spans(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j in self.spans]
