"""Spans around the calls into czeta's layers, recorded from outside the package.

Each public function listed in LAYERS is replaced by a wrapper wherever a czeta
module holds a reference to it, so calls czeta makes internally (for example
``hankel`` calling ``det_exact``) are spanned too; ``src/`` is not edited.
A span is ``[layer, start, end, parent index or -1, case index]``; spans stay
in memory and the caller writes them out when the run ends.  A layer's self
time is its spans' durations minus the time their child spans cover.

Run as a script, this file is the traced stand-in for ``python -m czeta.cli``:

    python3 perfbench/tracing.py SPANS_FILE --format json verify-all
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

MODULES = ("czeta", "czeta.exact", "czeta.zeta", "czeta.hankel", "czeta.classify",
           "czeta.numeric", "czeta.verify", "czeta.cli")

# (module, public function) -> layer
LAYERS = {
    ("exact", "det_exact"): "exact.det_exact",
    ("zeta", "zeta_table"): "zeta.zeta_table",
    ("zeta", "ZetaTable.extend_to"): "zeta.zeta_table",  # lazy growth via .value()
    ("hankel", "build_coulomb_hankel"): "hankel.build",
    ("hankel", "build_rayleigh_hankel"): "hankel.build",
    ("hankel", "det_coulomb_closed"): "hankel.routes",
    ("hankel", "det_coulomb_via_moments"): "hankel.routes",
    ("hankel", "recurrence_coeffs"): "hankel.routes",
    ("hankel", "det_rayleigh_closed"): "hankel.routes",
    ("hankel", "det_rayleigh_ell2"): "hankel.routes",
    ("hankel", "det_rayleigh_ell3"): "hankel.routes",
    ("hankel", "det_rayleigh_dj"): "hankel.routes",
    ("hankel", "bernoulli_hankel_det"): "hankel.factorial_det",
    ("hankel", "genocchi_hankel_det"): "hankel.factorial_det",
    ("classify", "classify"): "classify.classify",
    ("classify", "dd_product_closed"): "classify.dd_product_closed",
    ("numeric", "find_complex_zeros"): "numeric.find_complex_zeros",
    ("numeric", "count_zeros_region"): "numeric.count_zeros_region",
    ("numeric", "phi"): "numeric.phi",
    ("numeric", "phi_derivative"): "numeric.phi",
    ("verify", "run_verification"): "verify.run_verification",
    ("cli", "main"): "cli.main",
}


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _count_det(counts, args, kwargs, result):
    counts["exact.det_exact.n3_sum"] += args[0].dim ** 3


def _count_zeta(counts, args, kwargs, result):
    counts["zeta.zeta_table.values"] += _arg(args, kwargs, 1, "kmax")


def _count_signs(counts, args, kwargs, result):
    if result is not None:
        counts["classify.sign_terms"] += len(result.sign_sequence)


def _count_pairs(counts, args, kwargs, result):
    # on the default region the finder should confirm every pair classify predicts
    if _arg(args, kwargs, 2, "search") is None:
        counts["numeric.pairs_expected"] += max(0, math.floor(-float(args[0]) - 0.5))
        if result is not None:
            counts["numeric.pairs_found"] += result.counts["complex_pairs"]


HOOKS = {
    ("exact", "det_exact"): _count_det,
    ("zeta", "zeta_table"): _count_zeta,
    ("classify", "classify"): _count_signs,
    ("numeric", "find_complex_zeros"): _count_pairs,
}


class Tracer:
    def __init__(self, child_spans: Path | None = None):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.case = -1
        self.child_spans = child_spans  # where a traced child process leaves its spans
        self._stack: list[int] = []

    def install(self) -> "Tracer":
        mods = [importlib.import_module(m) for m in MODULES]
        for (mod, qualname), layer in LAYERS.items():
            owner = importlib.import_module(f"czeta.{mod}")
            *cls, name = qualname.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = getattr(owner, name)
            wrapper = self._wrap(layer, orig, HOOKS.get((mod, qualname)))
            setattr(owner, name, wrapper)
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
        return self

    def _wrap(self, layer, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, perf(), 0.0, stack[-1] if stack else -1, self.case]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                counts[layer + ".raised"] += 1
                raise
            finally:
                span[2] = perf()
                stack.pop()
                counts[layer + ".calls"] += 1
                if hook is not None:
                    hook(counts, args, kwargs, result)

        return wrapper

    def collect_child(self) -> None:
        """Adopt the spans and counts a traced child process left behind, if any."""
        if self.child_spans is None or not self.child_spans.exists():
            return
        data = json.loads(self.child_spans.read_text())
        self.child_spans.unlink()
        base = len(self.spans)
        for layer, start, end, parent, _ in data["spans"]:
            self.spans.append([layer, start, end, parent + base if parent >= 0 else -1, self.case])
        self.counts.update(data["counts"])


def layer_times(spans: list[list]) -> tuple[Counter, float]:
    """Self seconds per layer, and the seconds covered by top-level spans."""
    child = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: Counter = Counter()
    covered = 0.0
    for i, (layer, start, end, parent, _) in enumerate(spans):
        self_s[layer] += end - start - child[i]
        if parent < 0:
            covered += end - start
    return self_s, covered


def layer_metrics(spans: list[list], counts: Counter, case_walls: list[float]) -> dict:
    """The per-layer metrics: self times, counts, and the case time no span covers."""
    self_s, covered = layer_times(spans)
    out = {f"{layer}.self_s": self_s[layer] for layer in dict.fromkeys(LAYERS.values())}
    for name in ("exact.det_exact.calls", "exact.det_exact.n3_sum", "zeta.zeta_table.values",
                 "classify.sign_terms", "numeric.find_complex_zeros.calls",
                 "numeric.find_complex_zeros.raised"):
        out[name] = counts[name]
    phi_calls = counts["numeric.phi.calls"]
    out["numeric.phi.s_per_call"] = self_s["numeric.phi"] / phi_calls if phi_calls else 0.0
    expected = counts["numeric.pairs_expected"]
    out["numeric.pairs_found_ratio"] = counts["numeric.pairs_found"] / expected if expected else 0.0
    out["trace.case_wall_s"] = sum(case_walls)
    out["trace.uncovered_s"] = sum(case_walls) - covered
    out["trace.cases"] = len(case_walls)
    return out


def _child_main(argv: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import czeta.cli

    tracer = Tracer().install()
    try:
        return czeta.cli.main(argv[1:])
    finally:
        Path(argv[0]).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1:]))
