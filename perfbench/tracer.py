"""Layer tracer that wraps poleswap's public functions from outside the package.

Each traced function is replaced by a wrapper in every ``poleswap`` module
that binds it: ``from .x import y`` gives one function several bindings
(``rqz.move_type2`` and ``moves.move_type2``, ``pencil.apply_core`` and
``moves.apply_core``, ``experiments.swap2x2`` and ``moves.swap2x2``), and a
binding left unwrapped would silently drop its calls.  Callers look the
names up at call time, so rebinding the module attributes is enough; no
file of the package changes.

Spans are aggregated in memory per layer name as they close (calls,
inclusive time, self time) instead of being stored one by one: a traced
n=100 solve opens about 150k spans.  Self time is a span's duration minus
the durations of its child spans.  The wrapper's own bookkeeping (the
counter hooks and the clock reads around them) is charged to ``overhead``,
not to any layer, so layer self times plus overhead add up to the traced
wall time of the outermost spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "pencil.reduce",
    "pencil.set_poles",
    "pencil.deflation_scan",
    "rqz.solve",
    "rqz.shift",
    "rqz.sweep",
    "rqz.residual",
    "moves.type2",
    "moves.type1",
    "swapkernel.swap2x2",
    "numerics.apply_core",
    "oracle.eig_2x2",
    "oracle.eig_3x3",
    "experiments.bin",
    "experiments.study",
)

COMPLEX_BYTES = 16


class LayerStat:
    __slots__ = ("calls", "incl_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Context manager that installs the layer wrappers and removes them on exit.

    ``stats`` maps layer name to :class:`LayerStat`; ``counts`` holds the
    counters read by the hooks (sweeps, no-op sweeps, identity moves, Case 2
    swaps, apply_core elements, ...).
    """

    def __init__(self):
        from poleswap import experiments, moves, numerics, oracle, pencil, rqz, swapkernel

        self.stats = {name: LayerStat() for name in LAYERS}
        self.counts = defaultdict(int)
        self.overhead_s = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._targets = [
            ("pencil.reduce", pencil.reduce_to_hessenberg_triangular, None, None),
            ("pencil.set_poles", pencil.set_poles, None, None),
            ("pencil.deflation_scan", pencil.detect_deflations, None, None),
            ("rqz.solve", rqz.solve, None, self._after_solve),
            ("rqz.shift", rqz.choose_shift, None, None),
            ("rqz.sweep", rqz.basic_sweep, None, self._after_sweep),
            ("rqz.residual", rqz.schur_residuals, None, None),
            ("moves.type2", moves.move_type2, None, self._after_type2),
            ("moves.type1", moves.move_type1_top, None, None),
            ("moves.type1", moves.move_type1_bottom, None, None),
            ("swapkernel.swap2x2", swapkernel.swap2x2, self._before_swap, self._after_swap),
            ("numerics.apply_core", numerics.apply_core, self._before_apply_core, None),
            ("oracle.eig_2x2", oracle.eig_2x2, None, None),
            ("oracle.eig_3x3", oracle.eig_3x3_extended, None, None),
            ("experiments.study", experiments.run_swap_benchmark, None, None),
            ("experiments.study", experiments.run_accuracy_experiment, None, None),
        ]
        self._method_targets = [
            ("experiments.bin", experiments.ResidualHistogram, "add"),
        ]

    # -- counter hooks -------------------------------------------------

    def _after_solve(self, result):
        self.counts["eigenvalues"] += len(result.eigenvalues)

    def _after_sweep(self, rec):
        self.counts["sweeps"] += 1
        for m in rec.moves:
            if (m.q is not None and not m.q.is_identity) or (
                m.z is not None and not m.z.is_identity
            ):
                return
        self.counts["noop_sweeps"] += 1

    def _after_type2(self, rec):
        if rec.q is None:
            self.counts["type2_identity"] += 1

    def _before_swap(self, args, kwargs):
        p = args[0]
        if abs(p.alpha1) * abs(p.beta2) < abs(p.alpha2) * abs(p.beta1):
            self.counts["swap_case2"] += 1

    def _after_swap(self, rep):
        if rep.skipped:
            self.counts["swap_skipped"] += 1

    def _before_apply_core(self, args, kwargs):
        m = args[0]
        side = kwargs["side"] if "side" in kwargs else args[2]
        self.counts["apply_core_elems"] += 2 * (m.shape[1] if side == "left" else m.shape[0])

    # -- wrapping ------------------------------------------------------

    def _wrap(self, name, fn, before, after):
        stat = self.stats[name]
        stack = self._stack
        clock = perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            t1 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t2 = clock()
                child = stack.pop()
            if after is not None:
                after(out)
            t3 = clock()
            dt = t2 - t1
            stat.calls += 1
            stat.incl_s += dt
            stat.self_s += dt - child
            self.overhead_s += (t1 - t0) + (t3 - t2)
            if stack:
                stack[-1] += t3 - t0
            return out

        return traced

    def __enter__(self):
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "poleswap" or name.startswith("poleswap."))
        ]
        for name, fn, before, after in self._targets:
            wrapper = self._wrap(name, fn, before, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for name, cls, attr in self._method_targets:
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, None, None))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def layer_metrics(self) -> dict:
        """Per-layer figures, keyed by the metric names of the benchmark."""
        s, c = self.stats, self.counts

        def per(num, den):
            return num / den if den else 0.0

        sweeps = c["sweeps"]
        out = {}
        for name in ("pencil.reduce", "pencil.set_poles", "pencil.deflation_scan",
                     "moves.type2", "moves.type1", "swapkernel.swap2x2",
                     "numerics.apply_core", "oracle.eig_2x2", "oracle.eig_3x3",
                     "experiments.bin"):
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.self_s"] = s[name].self_s
        out["rqz.solve.self_s"] = s["rqz.solve"].self_s
        out["rqz.sweeps"] = sweeps
        out["rqz.sweeps_per_eig"] = per(sweeps, c["eigenvalues"])
        out["rqz.noop_sweep_frac"] = per(c["noop_sweeps"], sweeps)
        out["rqz.exceptional_shifts"] = sweeps - s["rqz.shift"].calls
        out["rqz.shift.self_s"] = s["rqz.shift"].self_s
        out["rqz.sweep.self_s"] = s["rqz.sweep"].self_s
        out["rqz.residual.self_s"] = s["rqz.residual"].self_s
        t2 = s["moves.type2"]
        out["moves.type2.us_per_call"] = 1e6 * per(t2.incl_s, t2.calls)
        out["moves.type2.identity_frac"] = per(c["type2_identity"], t2.calls)
        sw = s["swapkernel.swap2x2"]
        out["swapkernel.swap2x2.us_per_call"] = 1e6 * per(sw.incl_s, sw.calls)
        out["swapkernel.swap2x2.skipped_frac"] = per(c["swap_skipped"], sw.calls)
        out["swapkernel.swap2x2.case2_frac"] = per(c["swap_case2"], sw.calls)
        out["numerics.apply_core.elems"] = c["apply_core_elems"]
        # computed from array shapes: each element is read and written once
        out["numerics.apply_core.bytes_computed"] = 2 * COMPLEX_BYTES * c["apply_core_elems"]
        out["experiments.study.self_s"] = s["experiments.study"].self_s
        return out

    def self_sum(self) -> float:
        return sum(st.self_s for st in self.stats.values())
