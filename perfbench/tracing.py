"""Spans around calls into supconc's layers, recorded from outside the package.

``Tracer.installed()`` rebinds, in every layer module and in the package
namespace, each public function name that refers to a supconc function,
so every call that goes through a module-level name (``ensembles`` calling
its imported ``evaluate``, ``bounds`` calling its own ``classify_pair``,
the benchmark calling ``supconc.i_concurrence``) passes through a
wrapper. Constructors are traced by wrapping the ``__post_init__`` of the
package's validated dataclasses. Leaving the context restores every
original binding, so untraced passes run the unmodified package.

Spans are aggregated as they close, keyed by ``(layer, name, dim,
parent)``: call count, total time and self time (total minus the time of
child spans). ``dim`` is the local dimension ``dim_a`` of the call's
first argument when it has one.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types
from collections import defaultdict

LAYERS = ("cli", "ensembles", "bounds", "measures", "states")
STATE_CLASSES = ("PureState", "RawVector", "SuperpositionSpec",
                 "DensityMatrix", "OperatorAB")
CONCURRENCE_FNS = ("i_concurrence", "concurrence_qubit")
DRAW_FNS = ("orthogonal_pair", "biorthogonal_pair", "haar_state")


def _dim(args) -> int | None:
    if not args:
        return None
    first = args[0]
    if isinstance(first, int):   # haar_state(dim_a, dim_b, rng) and the pair draws
        return first
    for attr in ("dim_a", "dim"):
        value = getattr(first, attr, None)
        if isinstance(value, int):
            return value
    phi = getattr(first, "phi", None)
    return getattr(phi, "dim_a", None)


class Tracer:
    """Span aggregates for one benchmark run."""

    def __init__(self):
        # (layer, name, dim, parent name) -> [calls, total seconds, self seconds]
        self.stats: dict[tuple, list] = defaultdict(lambda: [0, 0.0, 0.0])
        # calls made while an ``evaluate`` span is open, by function name
        self.inside_eval: dict[str, int] = defaultdict(int)
        self.requested_regime: str | None = None
        self.regime_matches = 0
        self.regime_classified = 0
        self._stack: list[list] = []   # open spans: [name, child seconds]
        self._open_evals = 0

    def _close(self, layer, name, dim, parent, frame, elapsed):
        st = self.stats[(layer, name, dim, parent)]
        st[0] += 1
        st[1] += elapsed
        st[2] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span; the benchmark's root spans use this."""
        return self._wrap(fn, layer, name)(*args, **kwargs)

    def _wrap(self, fn, layer: str, name: str):
        stack = self._stack
        perf = time.perf_counter
        is_eval = name == "evaluate"
        is_classify = name == "classify_pair"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dim = _dim(args)
            parent = stack[-1][0] if stack else None
            if is_eval:
                self._open_evals += 1
            elif self._open_evals:
                self.inside_eval[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                stack.pop()
                if is_eval:
                    self._open_evals -= 1
                self._close(layer, name, dim, parent, frame, elapsed)
            if is_classify and self.requested_regime is not None:
                self.regime_classified += 1
                self.regime_matches += result.value == self.requested_regime
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, package, modules):
        """Trace every public supconc function and validated constructor."""
        patches = []
        for mod in (package, *modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rpartition(".")
                if owner[0] != package.__name__ or owner[2] not in LAYERS:
                    continue
                patches.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(obj, owner[2], obj.__name__))
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for obj in list(vars(mod).values()):
                if (isinstance(obj, type) and obj.__module__ == mod.__name__
                        and "__post_init__" in vars(obj)):
                    original = vars(obj)["__post_init__"]
                    patches.append((obj, "__post_init__", original))
                    obj.__post_init__ = self._wrap(original, layer, obj.__name__)
        try:
            yield self
        finally:
            for target, attr, original in reversed(patches):
                setattr(target, attr, original)

    # --- derived per-layer numbers -------------------------------------

    def _sum(self, pick, field: int) -> float:
        return sum(st[field] for key, st in self.stats.items() if pick(*key))

    def calls(self, pick) -> int:
        return int(self._sum(pick, 0))

    def total(self, pick) -> float:
        return self._sum(pick, 1)

    def self_time(self, pick) -> float:
        return self._sum(pick, 2)


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tr: Tracer, dims: dict[str, tuple[int, ...]]) -> dict[str, float]:
    """Per-layer numbers from one run's spans.

    ``dims`` gives, per dimension-split family, the dimensions reported.
    A time per call with no calls, a share of no time, and a ratio with a
    zero base are reported as 0.
    """
    root_time = tr.total(lambda layer, name, dim, parent: parent is None)
    evals = tr.calls(lambda layer, name, dim, parent: name == "evaluate")
    trials = tr.calls(lambda layer, name, dim, parent:
                      name == "evaluate" and parent == "verify_ensemble")
    m: dict[str, float] = {}

    def named(*names):
        return lambda layer, name, dim, parent: name in names

    def at(d, *names):
        return lambda layer, name, dim, parent: name in names and dim == d

    def us_per_call(pick, scale=1e6):
        return _per(tr.total(pick), tr.calls(pick), scale)

    for layer in LAYERS:
        m[f"{layer}.self_share"] = _per(
            tr.self_time(lambda lay, name, dim, parent, want=layer: lay == want),
            root_time)
    cli_roots = lambda layer, name, dim, parent: layer == "cli" and parent is None
    m["cli.self_ms_per_call"] = _per(
        tr.self_time(lambda layer, name, dim, parent: layer == "cli"),
        tr.calls(cli_roots), 1e3)

    m["ensembles.self_us_per_trial"] = _per(
        tr.self_time(named("verify_ensemble")), trials, 1e6)
    for d in dims["campaign"]:
        draws = lambda layer, name, dim, parent, d=d: (
            name in DRAW_FNS and dim == d and parent == "verify_ensemble")
        pairs = tr.calls(lambda layer, name, dim, parent, d=d: (
            name == "evaluate" and dim == d and parent == "verify_ensemble"))
        m[f"ensembles.draw_us.d{d}"] = _per(tr.total(draws), pairs, 1e6)
    m["ensembles.haar_draws_per_pair"] = _per(tr.calls(named("haar_state")), trials)

    for d in dims["campaign"]:
        m[f"bounds.evaluate_us.d{d}"] = us_per_call(at(d, "evaluate"))
        m[f"bounds.classify_us.d{d}"] = us_per_call(at(d, "classify_pair"))
        m[f"measures.concurrence_us.d{d}"] = us_per_call(at(d, *CONCURRENCE_FNS))
        m[f"states.schmidt_us.d{d}"] = us_per_call(at(d, "schmidt_coefficients"))
    m["bounds.evaluate_self_us"] = _per(tr.self_time(named("evaluate")), evals, 1e6)
    m["bounds.regime_match_ratio"] = _per(tr.regime_matches, tr.regime_classified)
    m["bounds.regime_match_base"] = float(tr.regime_classified)

    m["measures.concurrence_calls_per_eval"] = _per(
        sum(tr.inside_eval[n] for n in CONCURRENCE_FNS), evals)
    for d in dims["inverter"]:
        m[f"measures.lambda_sandwich_us.d{d}"] = us_per_call(at(d, "lambda_sandwich"))
    m["measures.expansion_ms.d10"] = us_per_call(
        at(10, "superposition_csq_expansion"), 1e3)

    constructions = named(*STATE_CLASSES)
    m["states.objects_per_eval"] = _per(tr.calls(constructions), evals)
    m["states.validate_us_per_trial"] = _per(tr.total(constructions), evals, 1e6)
    m["states.svd_calls_per_eval"] = _per(tr.inside_eval["schmidt_coefficients"], evals)
    m["states.load_state_us"] = us_per_call(named("load_state"))
    return m
