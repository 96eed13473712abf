"""Per-layer tracing by wrapping public names from outside the package.

Each layer is a module of ``fdsw``.  A call into a layer is seen by
replacing, for the duration of one traced pass, the public name through
which the *calling* module reaches it: ``fdsw.analysis.index``,
``fdsw.factors.eval_dispersion``, ``np.linalg.eigvals`` as ``fdsw.hill``
sees it, and so on.  No private name is touched, so the package can change
its internals without breaking the trace.

Every wrapped call updates an aggregate (calls, inclusive and self time);
calls outside the hot leaf layers also keep a span (id, parent, case, name,
start, end) in memory, written out when the benchmark ends.  Self time is a
call's duration minus the time of the wrapped calls it made.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter

import fdsw
import fdsw.analysis
import fdsw.bloch
import fdsw.cli
import fdsw.factors
import fdsw.hill
import fdsw.stokes

# Leaf layers called hundreds of thousands of times per diagram: aggregated
# only, because one span per call would dominate memory and overhead.
HOT_PREFIXES = ("dispersion.", "factors.")

# Root scans: every factor evaluation made inside one counts toward
# analysis.evals_per_root.
SCAN_NAMES = ("analysis.find_factor_roots", "analysis.critical_wavenumber")

def _module_copy(module, **replaced):
    """A stand-in for ``module`` with some names replaced; the rest forward."""
    copy = types.ModuleType(module.__name__)
    copy.__dict__.update(module.__dict__)
    copy.__dict__.update(replaced)
    copy.__getattr__ = lambda name: getattr(module, name)
    return copy


class Tracer:
    """Installs wrappers on enter, restores the original names on exit."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.pairs: dict[tuple[str, str], float] = {}  # (parent, child) -> inclusive_s
        self.counters = {
            "roots_found": 0,
            "scan_evals": 0,
            "bisect_iterations": 0,
            "matrix_bytes": 0,
            "bytes_written": 0,
        }
        self.spans: list[tuple] = []
        self.case_id = -1
        # Frames are [child_time, name, span_id]; the sentinel collects top-level time.
        self._stack: list[list] = [[0.0, None, None]]
        self._scan_depth = 0
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # names a module no longer has

    # ----------------------------------------------------------------- wrapping
    def wrap(self, name: str, fn, on_result=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        keep_span = not name.startswith(HOT_PREFIXES)
        is_scan = name in SCAN_NAMES
        is_factor = name.startswith("factors.factor_")
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_factor and self._scan_depth:
                counters["scan_evals"] += 1
            if is_scan:
                self._scan_depth += 1
            parent = stack[-1]
            span_id = None
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, name, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                stack.pop()
                parent[0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if is_scan:
                    self._scan_depth -= 1
                if keep_span:
                    key = (parent[1], name)
                    self.pairs[key] = self.pairs.get(key, 0.0) + dur
                    self.spans.append((span_id, parent[2], self.case_id, name, t0, t1))
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, name: str, on_result=None):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    # ------------------------------------------------------------ result hooks
    def _roots(self, args, roots):
        self.counters["roots_found"] += len(roots)

    def _critical(self, args, res):
        self.counters["roots_found"] += res.kappa_c is not None
        self.counters["bisect_iterations"] += res.iterations

    def _eig(self, args, _):
        dim = args[0].shape[0]
        self.counters["matrix_bytes"] += 16 * dim * dim  # complex128, computed

    # ---------------------------------------------------------- installation
    def __enter__(self):
        an, fa, st, bl, hi, cli = (
            fdsw.analysis,
            fdsw.factors,
            fdsw.stokes,
            fdsw.bloch,
            fdsw.hill,
            fdsw.cli,
        )
        # dispersion, as each caller sees it
        self._patch(fa, "eval_dispersion", "dispersion.eval_dispersion")
        self._patch(st, "eval_dispersion", "dispersion.eval_dispersion")
        self._patch(st, "eval_dispersion_squared", "dispersion.eval_dispersion_squared")
        self._patch(bl, "eval_dispersion", "dispersion.eval_dispersion")
        self._patch(hi, "eval_dispersion_squared", "dispersion.eval_dispersion_squared")
        # factors, as analysis sees them
        for which in ("factor_i1", "factor_i2", "factor_i3", "factor_i4"):
            self._patch(an, which, f"factors.{which}")
        self._patch(an, "index", "factors.index")
        # analysis, as analysis itself and cli see it
        self._patch(an, "find_factor_roots", "analysis.find_factor_roots", self._roots)
        self._patch(cli, "stability_diagram", "analysis.stability_diagram")
        # stokes, bloch and hill, as hill and bloch see them; eigvals through hill's numpy
        self._patch(hi, "wave_train", "stokes.wave_train")
        self._patch(bl, "build_matrices", "bloch.build_matrices")
        self._patch(hi, "assemble", "hill.assemble")
        self._patch(hi, "growth_rate", "hill.growth_rate")
        np = hi.np
        eigvals = self.wrap("hill.eigvals", np.linalg.eigvals, self._eig)
        self._patches.append((hi, "np", np))
        hi.np = _module_copy(np, linalg=_module_copy(np.linalg, eigvals=eigvals))
        return self

    def entry_points(self) -> dict:
        """The public functions the benchmark itself calls, wrapped.

        Taken from the package namespace, which no patch above touches, so
        no call is counted twice.
        """
        return {
            "cli_main": self.wrap("cli.main", fdsw.cli.main),
            "critical_wavenumber": self.wrap(
                "analysis.critical_wavenumber", fdsw.critical_wavenumber, self._critical
            ),
            "classify_intervals": self.wrap("analysis.classify_intervals", fdsw.classify_intervals),
            "index": self.wrap("factors.index", fdsw.index),
            "classify_band": self.wrap("bloch.classify_band", fdsw.classify_band),
            "growth_rate_band": self.wrap("hill.growth_rate_band", fdsw.growth_rate_band),
        }

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    # ------------------------------------------------------------- reporting
    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def inclusive(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_time(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as (value, unit)."""
        factor_names = [f"factors.factor_i{i}" for i in range(1, 5)]
        dispersion = ("dispersion.eval_dispersion", "dispersion.eval_dispersion_squared")
        curves_s = self.pairs.get(("analysis.stability_diagram", "analysis.find_factor_roots"), 0.0)
        roots = self.counters["roots_found"]
        return {
            "dispersion.calls": (self.calls(*dispersion), "count"),
            "dispersion.self_s": (self.self_time(*dispersion), "s"),
            "factors.index_calls": (self.calls("factors.index"), "count"),
            "factors.index_self_s": (self.self_time("factors.index"), "s"),
            "factors.factor_calls": (self.calls(*factor_names), "count"),
            "factors.factor_self_s": (self.self_time(*factor_names), "s"),
            "analysis.grid_s": (self.inclusive("analysis.stability_diagram") - curves_s, "s"),
            "analysis.curves_s": (curves_s, "s"),
            "analysis.root_scans": (self.calls(*SCAN_NAMES), "count"),
            "analysis.roots_found": (roots, "count"),
            "analysis.evals_per_root": (
                self.counters["scan_evals"] / roots if roots else 0.0,
                "evals/root",
            ),
            "analysis.bisect_iterations": (self.counters["bisect_iterations"], "count"),
            "stokes.wave_train_calls": (self.calls("stokes.wave_train"), "count"),
            "hill.assemble_calls": (self.calls("hill.assemble"), "count"),
            "hill.assemble_s": (self.inclusive("hill.assemble"), "s"),
            "hill.eig_calls": (self.calls("hill.eigvals"), "count"),
            "hill.eig_s": (self.inclusive("hill.eigvals"), "s"),
            "hill.matrix_bytes": (self.counters["matrix_bytes"], "B-computed"),
            "hill.growth_self_s": (
                self.self_time("hill.growth_rate", "hill.growth_rate_band"),
                "s",
            ),
            "bloch.build_calls": (self.calls("bloch.build_matrices"), "count"),
            "bloch.build_s": (self.inclusive("bloch.build_matrices"), "s"),
            "bloch.classify_s": (self.inclusive("bloch.classify_band"), "s"),
            "cli.self_s": (self.self_time("cli.main"), "s"),
            "cli.bytes_written": (self.counters["bytes_written"], "B"),
        }

    def dump(self) -> dict:
        return {
            "aggregates": {
                name: {"calls": c, "inclusive_s": inc, "self_s": slf}
                for name, (c, inc, slf) in sorted(self.stats.items())
            },
            "counters": dict(self.counters),
            "span_fields": ["id", "parent", "case", "name", "start_s", "end_s"],
            "spans": self.spans,
            "missing_names": self.missing,
        }
