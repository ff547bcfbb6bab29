"""Layer tracing by wrapping the public functions of paradoxlab's modules.

Nothing under ``src/`` is edited: ``LayerTracer.install`` replaces each public
function, each public method and each ``__init__`` of a layer module with a
wrapper, and rebinds the names other modules imported (``run_chunks`` in the
sampling kernels, ``write_json``/``write_csv`` in ``cli``, ...).  A call that
crosses from one layer into another opens a span; a call inside the same
layer does not.  Spans are aggregated where they close: per layer the self
time (span duration minus the time its child spans cover), the number of
calls and the time inside its outermost spans (children included); per name
the count and the summed duration.  Counters record the work done at the
same boundaries.  Tracing assumes one thread.  Every span adds the cost of
its wrapper, which ``trace.overhead_ratio`` reports.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli",
    "rng",
    "montecarlo",
    "zeno",
    "bell",
    "catlab",
    "qcore",
    "twoslit",
    "lightcone",
    "bounds",
    "serialize",
)

# Helpers called per cell or per point, and only from inside their own layer;
# wrapping them would only add overhead.
_INNER = {"serialize": {"format_float", "format_value"}, "lightcone": {"in_past_cone"}}


def _uniform_block(tracer, stream, n_streams, draws, first=0):
    tracer.counts["rng.draws"] += n_streams * draws
    tracer.counts["rng.block_bytes_max"] = max(
        tracer.counts["rng.block_bytes_max"], n_streams * draws * 8
    )


def _cfg_trials(layer):
    def hook(tracer, cfg, *args, **kwargs):
        tracer.counts[f"{layer}.trials"] += cfg.trials

    return hook


def _chsh_trials(tracer, state, settings, trials, *args, **kwargs):
    tracer.counts["bell.trials"] += max(trials // 4, 1) * 4


# Work counters, keyed by (layer, qualified name).  A hook runs on every call,
# including calls from inside the same layer.
_HOOKS = {
    ("rng", "SeededStream.uniform_block"): _uniform_block,
    ("rng", "SeededStream.uniforms"): lambda t, s, n: t.counts.update({"rng.draws": int(n)}),
    ("rng", "SeededStream.uniform"): lambda t, s: t.counts.update({"rng.draws": 1}),
    ("zeno", "run_zeno"): _cfg_trials("zeno"),
    ("zeno", "run_dual_zeno"): _cfg_trials("zeno"),
    ("catlab", "born_statistics"): _cfg_trials("catlab"),
    ("bell", "chsh"): _chsh_trials,
    ("twoslit", "pattern"): lambda t, g, s, grid=2048, span=None: t.counts.update(
        {"twoslit.points": grid}
    ),
}


class LayerTracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.by_name: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: Counter = Counter()
        self.root_s = 0.0
        self.root_layers: set[str] = set()
        self._stack: list[list] = []  # [layer, time covered by child spans]
        self._open: Counter = Counter()  # open spans per layer
        self._undo: list[tuple[object, str, object]] = []

    def current_layer(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def wrap(self, layer: str, name: str, fn, hook=None):
        stack, open_spans = self._stack, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if hook is not None:
                try:
                    hook(self, *args, **kwargs)
                except TypeError:  # the signature changed: skip the count, not the call
                    self.counts["trace.hook_errors"] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            open_spans[layer] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                open_spans[layer] -= 1
                if not open_spans[layer]:  # outermost span of this layer
                    self.inclusive_s[layer] += elapsed
                self.self_s[layer] += elapsed - frame[1]
                self.calls[layer] += 1
                entry = self.by_name[f"{layer}:{name}"]
                entry[0] += 1
                entry[1] += elapsed
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.root_s += elapsed
                    self.root_layers.add(layer)

        traced.__wrapped__ = fn
        return traced

    def _wrap_run_chunks(self, fn):
        """run_chunks is a montecarlo span; each worker runs in its caller's layer."""
        span = self.wrap("montecarlo", "run_chunks", fn)

        def run_chunks(n_trials, worker, threads=1):
            caller = self.current_layer() or "montecarlo"

            def count_chunk(tracer, lo, hi):
                tracer.counts["montecarlo.chunks"] += 1

            return span(n_trials, self.wrap(caller, "worker", worker, count_chunk), threads)

        run_chunks.__wrapped__ = fn
        return run_chunks

    def _set(self, owner, name: str, value):
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self):
        """Wrap every layer module; returns self so it can be used with ``with``."""
        modules = {layer: importlib.import_module(f"paradoxlab.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or name in _INNER.get(layer, ()):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if layer == "montecarlo" and name == "run_chunks":
                        wrapped = self._wrap_run_chunks(obj)
                    else:
                        wrapped = self.wrap(layer, name, obj, _HOOKS.get((layer, name)))
                    replaced[id(obj)] = (obj, wrapped)
                    self._set(module, name, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        # rebind names imported with `from .x import f`
        package = importlib.import_module("paradoxlab")
        for module in [package, *modules.values()]:
            for name, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, name, hit[1])
        return self

    def _wrap_class(self, layer: str, cls):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            qualified = f"{cls.__name__}.{name}"
            hook = _HOOKS.get((layer, qualified))
            if inspect.isfunction(attr):
                self._set(cls, name, self.wrap(layer, qualified, attr, hook))
            elif isinstance(attr, (classmethod, staticmethod)):
                wrapped = self.wrap(layer, qualified, attr.__func__, hook)
                self._set(cls, name, type(attr)(wrapped))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False
