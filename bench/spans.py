"""In-memory spans and counters around steppoly's layers, installed from outside.

The tracer rebinds functions in the already imported steppoly modules; the
source under src/ is not edited.  A span wrapper records (name, tag, start,
end, parent span, op) for each call, a count wrapper only counts.  Modules
`stepline` and `rational` stay unwrapped: their functions sit in the inner
loops, so wrappers there would distort every span around them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Functions wrapped with a span, as (module, attribute).  This covers every
# public function steppoly.cli imports, apart from stepline and rational.
SPANNED = [
    ("cli", "main"), ("cli", "load_config"), ("cli", "write_exports"),
    ("moments", "assemble_moments"), ("moments", "hankel_mismatches"),
    ("gaussborel", "factorize"), ("gaussborel", "invert_unitriangular"),
    ("families", "extract_families"), ("families", "validate_degree_structure"),
    ("families", "check_orthogonality"), ("families", "check_biorthogonality"),
    ("recurrence", "required_depth"), ("recurrence", "build_recurrence"),
    ("recurrence", "check_dual_form"), ("recurrence", "validate_band"),
    ("recurrence", "check_recurrences"), ("recurrence", "check_recurrence_matrix"),
    ("cdkernel", "kernel_eval"), ("cdkernel", "cd_blocks"), ("cdkernel", "check_cd_formula"),
    ("cdkernel", "check_abc"), ("cdkernel", "check_reproduction"),
    ("cdkernel", "check_projection"), ("cdkernel", "check_projection_dual"),
    ("linalg", "gauss_jordan_inverse"),
]
# Methods wrapped with a span, as (module, class, method); named module.method.
SPANNED_METHODS = [("measures", "MeasureMatrix", "moment_block")]
# Counted only, in the one module namespace named: families and cdkernel share
# integrate_pair, and each binding is counted under its own name.
COUNTED = [("families", "integrate_pair"), ("cdkernel", "integrate_pair")]
COUNTED_METHODS = [("bipoly", "BiPoly", "eval")]

CHECKED = {
    "families.validate_degree_structure": "families.checked",
    "families.check_orthogonality": "families.checked",
    "families.check_biorthogonality": "families.checked",
    "recurrence.validate_band": "recurrence.checked",
    "recurrence.check_recurrences": "recurrence.checked",
    "recurrence.check_recurrence_matrix": "recurrence.checked",
}


def _bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length())
                for v in values), default=0)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, tag, start, end, parent index, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.stats: Counter = Counter()
        self.op = -1

    # ---- hooks on returned values ------------------------------------------

    def _after(self, name: str, result) -> None:
        if name == "gaussborel.factorize":
            stats = self.stats
            stats["gaussborel.depth_max"] = max(stats["gaussborel.depth_max"], result.depth)
            stats["gaussborel.H_bits_max"] = max(stats["gaussborel.H_bits_max"], _bits(result.H))
            stats["gaussborel.S_bits_max"] = max(
                stats["gaussborel.S_bits_max"], _bits(v for row in result.S for v in row))
        elif name in CHECKED:
            self.stats[CHECKED[name]] += result.checked

    @staticmethod
    def _tag(name: str, args: tuple, kwargs: dict) -> str:
        if name == "recurrence.build_recurrence":
            return f"T{kwargs['k'] if 'k' in kwargs else args[3]}"
        return ""

    # ---- wrappers -----------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = self._after if name == "gaussborel.factorize" or name in CHECKED else None
        tag = self._tag

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, tag(name, args, kwargs), 0.0, 0.0,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][2:4] = start, end
            if after is not None:
                after(name, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind the wrapped functions in every loaded steppoly module."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "steppoly" or name.startswith("steppoly.")}
        for mod_name, attr in SPANNED:
            orig = getattr(modules.get(f"steppoly.{mod_name}"), attr, None)
            if orig is None:
                continue
            wrapped = self._span(f"{mod_name}.{attr}", orig)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for mod_name, attr in COUNTED:
            mod = modules.get(f"steppoly.{mod_name}")
            if hasattr(mod, attr):
                setattr(mod, attr, self._count(f"{mod_name}.{attr}", getattr(mod, attr)))
        for methods, make in ((SPANNED_METHODS, self._span), (COUNTED_METHODS, self._count)):
            for mod_name, cls_name, attr in methods:
                cls = getattr(modules.get(f"steppoly.{mod_name}"), cls_name, None)
                if hasattr(cls, attr):
                    setattr(cls, attr, make(f"{mod_name}.{attr}", getattr(cls, attr)))

    def dump(self, path) -> None:
        """Write every span, count and statistic once, at the end of the run."""
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "stats": dict(self.stats)}, fh, separators=(",", ":"))
