"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of every loaded
`koblitz.*` module by a timing wrapper, in every `koblitz.*` module that
binds it (`from .primes import factorize` makes a binding of its own, so each
one is replaced). Calls are aggregated per function rather than kept as one
span each, because `factorize`, `is_prime` and `singular_series` run about
10^6 times in one CLI call.

Per function the tracer keeps the call count and the inclusive time of its
outermost calls; per module it keeps the self time: the time inside the
module's wrapped calls minus the time of wrapped calls they make in turn.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time


def _first_arg(args: tuple, kwargs: dict, name: str) -> int:
    return int(args[0] if args else kwargs[name])


def _sieve_hook(extras: dict, args: tuple, kwargs: dict) -> None:
    limit = _first_arg(args, kwargs, "limit")
    extras["max_limit"] = max(extras.get("max_limit", 0), limit)


def _trace_matrix_hook(extras: dict, args: tuple, kwargs: dict) -> None:
    # Computed from p, not measured: the p x p float32 matmul N @ K costs
    # 2p^3 flops and touches its two operands and its result, 12p^2 bytes.
    p = _first_arg(args, kwargs, "p")
    extras["flops"] = extras.get("flops", 0) + 2 * p**3
    extras["bytes"] = extras.get("bytes", 0) + 12 * p * p


def _census_hook(extras: dict, args: tuple, kwargs: dict) -> None:
    # census is memoized for the process, so each distinct p is one census
    # of the p^2 - p nonsingular curves.
    p = _first_arg(args, kwargs, "p")
    seen = extras.setdefault("_primes", set())
    if p not in seen:
        seen.add(p)
        extras["curves"] = extras.get("curves", 0) + p * p - p


# Counters computed from arguments, keyed by `<module>.<function>`.
HOOKS = {
    "primes.sieve": _sieve_hook,
    "curves.trace_matrix": _trace_matrix_hook,
    "curves.census": _census_hook,
}


def _is_traceable(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


PACKAGE = "koblitz"


class Tracer:
    """Timing wrappers around the public functions of the koblitz package."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.extras: dict[str, dict] = {}
        self._originals: dict[str, object] = {}
        self._stack: list[float] = []  # wrapped-child time under each open call

    def install(self) -> None:
        prefix = PACKAGE + "."
        modules = {
            name: mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and name.startswith(prefix)
        }
        wrappers = {}
        for mod_name, mod in modules.items():
            short = mod_name[len(prefix):]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and _is_traceable(obj, mod_name):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", short, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap(self, key: str, module: str, fn):
        self.calls[key] = 0
        self.inclusive[key] = 0.0
        self.self_s.setdefault(module, 0.0)
        self._originals[key] = fn
        hook = HOOKS.get(key)
        extras = self.extras.setdefault(key, {})
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        stack = self._stack
        clock = time.perf_counter
        depth = 0

        def wrapper(*args, **kwargs):
            nonlocal depth
            calls[key] += 1
            depth += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth -= 1
                self_s[module] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                if depth == 0:
                    inclusive[key] += elapsed
            if hook is not None:
                hook(extras, args, kwargs)
            return result

        functools.update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def report(self) -> dict:
        """{"functions": {key: {"calls", "s", ...}}, "self_s": {module: s}}."""
        functions = {}
        for key, fn in self._originals.items():
            row = {"calls": self.calls[key], "s": self.inclusive[key]}
            row.update(
                (name, value)
                for name, value in self.extras[key].items()
                if not name.startswith("_")
            )
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                lookups = info.hits + info.misses
                row["hit_ratio"] = info.hits / lookups if lookups else 0.0
            functions[key] = row
        return {"functions": functions, "self_s": dict(self.self_s)}
