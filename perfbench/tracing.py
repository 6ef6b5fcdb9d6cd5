"""Spans around the calls into znrank's layers, installed from outside the
package for the traced run.

znrank modules import these names directly (`from znrank.linalg import
solve_exact`), so a wrapper is installed in every znrank module that holds
the original object under some name, which is where each caller looks it
up. A class is traced by wrapping its __init__ (construction and
validation). Wrappers nest: a span's self time is its duration minus the
durations of the spans it contains, so the self times of all spans plus the
job time no span covers add up to the job time.
"""

import math
import sys
from time import perf_counter

# (metric prefix, module, attribute, reported fields)
LAYERS = [
    ("linalg.solve_exact", "znrank.linalg", "solve_exact", ("ms", "calls", "n3", "max_bits")),
    ("linalg.solve_float", "znrank.linalg", "solve_float", ("ms", "calls", "n3")),
    ("linalg.det_exact", "znrank.linalg", "det_exact", ("ms", "calls")),
    ("arborescence.root_weight_minor", "znrank.arborescence", "root_weight_minor", ("ms", "calls")),
    ("stationary.stationary_direct", "znrank.stationary", "stationary_direct", ("ms", "calls")),
    ("stationary.class_stationary", "znrank.stationary", "class_stationary", ("ms",)),
    ("stationary.absorption_probabilities", "znrank.stationary", "absorption_probabilities", ("ms",)),
    ("graph.RowStochasticMatrix", "znrank.graph", "RowStochasticMatrix", ("ms", "calls")),
    ("graph.to_stochastic", "znrank.graph", "to_stochastic", ("ms",)),
    ("graph.parse_edge_list", "znrank.graph", "parse_edge_list", ("ms",)),
    ("cli.load_q", "znrank.cli", "load_q", ("ms",)),
    ("graph.classify_states", "znrank.graph", "classify_states", ("ms", "calls")),
    ("sweep.perturbed_matrix", "znrank.sweep", "perturbed_matrix", ("ms", "calls")),
    ("zero_noise.build_gamma", "znrank.zero_noise", "build_gamma", ("ms",)),
    ("zero_noise.extended_gamma", "znrank.zero_noise", "extended_gamma", ("ms",)),
    ("zero_noise.personalization_gamma", "znrank.zero_noise", "personalization_gamma", ("ms",)),
    ("zero_noise.report_to_json", "znrank.zero_noise", "report_to_json", ("ms",)),
    ("arborescence.perturbed_root_polynomial", "znrank.arborescence", "perturbed_root_polynomial",
     ("ms", "calls")),
    ("arborescence.exact_limit_from_polynomials", "znrank.arborescence", "exact_limit_from_polynomials",
     ("ms",)),
    ("kernels.sum_tree_products", "znrank.kernels", "sum_tree_products", ("ms", "calls", "assignments")),
    ("cli.canonical_dumps", "znrank.cli", "canonical_dumps", ("ms",)),
]

UNITS = {"ms": "ms", "calls": "count", "n3": "count", "max_bits": "bits", "assignments": "count"}


def _max_bits(result):
    rows = result if result and isinstance(result[0], list) else [result]
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for r in rows for x in r),
               default=0)


def _assignments(args):
    n, root, cands = args[:3]
    return math.prod(len(cands[u]) for u in range(n) if u != root)


class Tracer:
    """Per-layer self time, call counts and work counts over many jobs."""

    def __init__(self):
        self.stats = {name: dict.fromkeys(fields, 0) for name, _, _, fields in LAYERS}
        self.stack = []  # time covered by child spans, one entry per open span
        self.covered = 0.0  # time covered by top-level spans in this job
        self.job_max_bits = 0
        self.jobs = 0
        self.job_s = 0.0
        self.other_s = 0.0
        self.max_bits_sum = 0
        self.patches = []

    def _wrap(self, name, fn):
        rec = self.stats[name]
        stack = self.stack

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if "n3" in rec:
                    rec["n3"] += len(args[0]) ** 3
                if "max_bits" in rec:
                    self.job_max_bits = max(self.job_max_bits, _max_bits(result))
                if "assignments" in rec:
                    rec["assignments"] += _assignments(args)
                return result
            finally:
                dur = perf_counter() - t0
                rec["ms"] += (dur - stack.pop()) * 1000.0
                if "calls" in rec:
                    rec["calls"] += 1
                if stack:
                    stack[-1] += dur
                else:
                    self.covered += dur

        return span

    def install(self):
        mods = [m for k, m in list(sys.modules.items()) if k == "znrank" or k.startswith("znrank.")]
        for name, modname, attr, _ in LAYERS:
            orig = getattr(sys.modules[modname], attr)
            if isinstance(orig, type):
                init = orig.__init__
                self.patches.append((orig, "__init__", init))
                orig.__init__ = self._wrap(name, init)
                continue
            wrapper = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self.patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for obj, key, orig in reversed(self.patches):
            setattr(obj, key, orig)
        self.patches = []

    def end_job(self, job_s):
        self.jobs += 1
        self.job_s += job_s
        self.other_s += job_s - self.covered
        self.max_bits_sum += self.job_max_bits
        self.covered = 0.0
        self.job_max_bits = 0

    def metrics(self):
        """Means per job; times in ms."""
        jobs = self.jobs
        out = {}
        for name, _, _, fields in LAYERS:
            rec = self.stats[name]
            for f in fields:
                total = self.max_bits_sum if f == "max_bits" else rec[f]
                out[f"{name}.{f}"] = {"value": total / jobs, "unit": UNITS[f]}
        out["job.other.ms"] = {"value": self.other_s * 1000.0 / jobs, "unit": "ms"}
        out["job.ms"] = {"value": self.job_s * 1000.0 / jobs, "unit": "ms"}
        return out
