"""Layer timing for the traced benchmark child.

Timing happens at the boundaries between chiral's layers, from outside
the package: the tracer rebinds, in the traced process only, the name a
calling layer imported (``chiral.checks._prod_mono``,
``chiral.sl2.kernel_basis``, ...) to a wrapper that times the call.  A
layer's own recursive name is never wrapped, so a layer calling itself
goes through its own unwrapped globals.

Time is charged to one layer at a time: entering a wrapped call charges
the time since the last boundary to the caller's layer, and returning
charges it to the callee's, so each layer's total is its self time (its
calls' duration minus the wrapped calls they made).  A call into the
layer that is already running (geometry's solve recursion calling
geometry's f1, say) passes straight through and stays that layer's time.

Coarse boundaries (per family, per block) become spans kept in memory;
fine ones (millions of mode products) only add to counters, so the
trace stays small.  ``report`` hands everything back at the end.
"""

import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.t0 = _clock()
        self._self_cells = {}
        self._count_cells = {}
        self.counts = defaultdict(int)
        self.spans = []
        # [self-time cell of the running layer, time it was last charged,
        #  id of the innermost open span]; span 0 is the whole workload
        self._cur = [self._self_cells.setdefault("workload_s", [0.0]), self.t0, 0]

    def begin(self, t0):
        """Start the workload's root span at perf_counter time t0."""
        self.t0 = self._cur[1] = t0

    def wrap(self, fn, key, span=None, count=None, on_result=None):
        """A traced stand-in for fn.

        key names the metric the call's self time adds to, span (if
        given) records the call as a named span, count names a counter
        bumped once per call, and on_result(args, result) may add
        further counters.
        """
        cur, spans = self._cur, self.spans
        self_cell = self._self_cells.setdefault(key, [0.0])
        count_cell = self._count_cells.setdefault(count, [0])
        clock = _clock

        def traced(*args, **kwargs):
            count_cell[0] += 1
            caller = cur[0]
            if caller is self_cell:
                result = fn(*args, **kwargs)
            else:
                parent = cur[2]
                start = clock()
                caller[0] += start - cur[1]
                if span is None:
                    span_id = parent
                else:
                    spans.append(None)
                    span_id = len(spans)
                cur[0], cur[1], cur[2] = self_cell, start, span_id
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    self_cell[0] += end - cur[1]
                    cur[0], cur[1], cur[2] = caller, end, parent
                if span is not None:
                    spans[span_id - 1] = {
                        "id": span_id, "parent": parent, "name": span,
                        "start": start - self.t0, "end": end - self.t0}
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    def rebind(self, module, name, key, **kw):
        setattr(module, name, self.wrap(getattr(module, name), key, **kw))

    def report(self):
        """Self time per key, counters and spans."""
        counts = dict(self.counts)
        for name, cell in self._count_cells.items():
            if name is not None:
                counts[name] = counts.get(name, 0) + cell[0]
        return {"self_s": {k: c[0] for k, c in self._self_cells.items()},
                "counts": counts, "spans": self.spans}


def install(tracer):
    """Rebind every layer boundary the three workloads cross."""
    from chiral import basis, checks, geometry, modeops, sl2

    rebind = tracer.rebind
    counts = tracer.counts

    def monomials(args, result):
        counts["basis.monomials"] += len(result)

    def kernel(args, result):
        mat = args[0]
        counts["linalg.matrix_nnz"] += len(mat.entries)
        counts["linalg.matrix_cells"] += mat.rows * mat.cols
        counts["linalg.nullity"] += len(result)

    def chain(args, result):
        counts["geometry.chain_steps"] += len(result) - 1

    # checks: the sweep families, each a span
    for family in ("vacuum", "translation", "commutator"):
        rebind(checks, family + "_failures", "checks.%s_s" % family,
               span="checks." + family)

    # freefield products, called from checks and sl2
    for name in ("_prod_mono", "nth_product", "translate"):
        rebind(checks, name, "freefield.product_s",
               count="freefield.product_calls")
    rebind(sl2, "nth_product", "freefield.product_s",
           count="freefield.product_calls")

    # freefield mode action, called from modeops, geometry and sl2
    rebind(modeops, "apply_word", "freefield.mode_s",
           count="freefield.mode_calls")
    for module in (geometry, sl2):
        rebind(module, "apply_mode", "freefield.mode_s",
               count="freefield.mode_calls")

    # modeops: the operator instances sl2 and geometry hold
    for op in (*sl2._LPLUS_OPS.values(), geometry._N1_RAT,
               geometry._GG_MINUS1):
        op.apply = tracer.wrap(op.apply, "modeops.apply_s",
                               count="modeops.apply_calls")

    # linalg, called from sl2.kernel_states
    rebind(sl2, "Matrix", "linalg.kernel_s")
    rebind(sl2, "kernel_basis", "linalg.kernel_s",
           count="linalg.kernel_calls", on_result=kernel)

    # sl2, called from geometry (child.character_table wraps its own
    # calls into sl2)
    for name in ("kernel_states", "sl2_Lplus"):
        rebind(geometry, name, "sl2.self_s")

    # geometry entry points used by checks.geometry_failures; calls
    # between them inside geometry pass through
    for name in ("f1", "f2", "dbar_prime", "dbar_total", "curvature_op",
                 "seed_section", "chain_residuals"):
        rebind(geometry, name, "geometry.self_s")
    rebind(geometry, "solve_recursion", "geometry.self_s",
           span="geometry.solve_recursion", count="geometry.chains",
           on_result=chain)
    rebind(geometry, "case3_kernel", "geometry.self_s",
           span="geometry.case3_kernel")

    # basis enumeration, wherever another layer asks for it;
    # geometry_failures imports basis_block from chiral.basis at call time
    for module, names in ((checks, ("enumerate_basis", "enumerate_full")),
                          (sl2, ("enumerate_basis", "enumerate_full")),
                          (geometry, ("basis_block",)),
                          (basis, ("basis_block",))):
        for name in names:
            rebind(module, name, "basis.enumerate_s", on_result=monomials)
    rebind(checks, "split_by_s", "basis.enumerate_s")
