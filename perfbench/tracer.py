"""In-memory tracing of idemod's public functions, for the traced run only.

``Tracer.install()`` replaces each traced function at its binding in every
loaded ``idemod.*`` module namespace, and in module-level dicts that hold it
(``cli._COMMANDS``), because the modules import by name.  No source file
changes.  Every wrapped call pushes a frame; when it returns, its duration
minus the time of the wrapped calls it made is its self time.

Layers with at most a few hundred thousand calls per run (operators,
``jsonio``, ``cli``, ``render``) also record a span (name, start, end,
parent span, request id); the harness adds one span per request.  The
``semiring`` and ``freemod`` layers run millions of calls per run, so they
only keep counts and self time: ``semiring`` self time is split by the kind
of the outermost scalar call (a ``fin`` inside a ``mat`` product counts as
``mat`` time), and calls by the kind of their own operands.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

SEMIRING_OPS = ("add", "meet", "mul", "lres", "rres", "leq")
SEMIRING_KINDS = ("rmax", "nmax", "bool", "mat")
FREEMOD_FNS = ("vec_lres", "act", "vjoin", "vmeet", "vec_rres", "mat_vec", "mat_lres", "covec_mat")
OPERATOR_FNS = {
    "project": ("project", "is_member", "project_dual", "inf_dominating"),
    "separate": ("separate_from_convex", "halfspace", "halfspace_contains",
                 "separate_from_module", "separate_dual"),
    "metric": ("hilbert_distance", "projection_maximizes_distance"),
    "dual": ("conj_left", "conj_right", "rowcol_report"),
    "fenchel": ("slope_bracket", "lsc_convex_hull", "fenchel_transform"),
}
JSONIO_FNS = ("problem_from_json", "canonical_dumps")
RENDER_FNS = ("render_scene", "scene_from_json")
CLI_KINDS = ("project", "member", "separate", "dual", "hilbert", "hull", "rowcol")
ERROR_MODULES = ("semiring", "freemod", "project", "separate", "metric", "dual",
                 "fenchel", "laws", "render", "jsonio", "cli")


def traced_names() -> dict[tuple[str, str], bool]:
    """(module, function) -> whether the calls record spans."""
    out = {("semiring", op): False for op in SEMIRING_OPS + ("fin",)}
    out.update({("freemod", fn): False for fn in FREEMOD_FNS})
    for mod, fns in OPERATOR_FNS.items():
        out.update({(mod, fn): True for fn in fns})
    out.update({("jsonio", fn): True for fn in JSONIO_FNS})
    out.update({("render", fn): True for fn in RENDER_FNS})
    out.update({("cli", f"cmd_{k}"): True for k in CLI_KINDS})
    return out


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.kind_calls: dict[str, int] = defaultdict(int)
        self.kind_self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.spans: list[list] = []  # [name, start, end, parent, request]
        self.request = -1
        # frame: [start, child time, semiring kind or None, span index or -1]
        self._stack: list[list] = []
        self._span_stack: list[int] = []
        self._last_error: dict[str, int] = {}

    # -- spans opened by the harness around each request ---------------------

    def open_span(self, name: str) -> None:
        self._push(name, None, True)

    def close_span(self, name: str) -> None:
        self._pop(name, True)

    # -- frames ----------------------------------------------------------------

    def _push(self, name: str, kind, spanned: bool) -> None:
        frame = [time.perf_counter(), 0.0, kind, -1]
        if spanned:
            parent = self._span_stack[-1] if self._span_stack else -1
            frame[3] = len(self.spans)
            self._span_stack.append(frame[3])
            self.spans.append([name, frame[0], 0.0, parent, self.request])
        self._stack.append(frame)

    def _pop(self, name: str, spanned: bool) -> None:
        end = time.perf_counter()
        frame = self._stack.pop()
        dur = end - frame[0]
        self.calls[name] += 1
        own = dur - frame[1]
        self.self_s[name] += own
        if frame[2] is not None:
            self.kind_self_s[frame[2]] += own
        if self._stack:
            self._stack[-1][1] += dur
        if spanned:
            self._span_stack.pop()
            self.spans[frame[3]][2] = end

    def _error(self, module: str, exc: BaseException) -> None:
        # one count per layer an exception leaves, however many of the
        # layer's frames it crosses
        if self._last_error.get(module) != id(exc):
            self._last_error[module] = id(exc)
            self.errors[module] += 1

    def wrap(self, module: str, fn_name: str, fn, spanned: bool):
        name = f"{module}.{fn_name}"
        tracer = self
        if module == "semiring":
            kind_of = (lambda a: a[0].name) if fn_name == "fin" else (lambda a: a[0].semiring.name)

            def wrapper(*args, **kwargs):
                kind = kind_of(args)
                if fn_name != "fin":
                    tracer.kind_calls[kind] += 1
                stack = tracer._stack
                outer = stack[-1][2] if stack and stack[-1][2] is not None else kind
                tracer._push(name, outer, False)
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    tracer._error(module, exc)
                    raise
                finally:
                    tracer._pop(name, False)
        else:

            def wrapper(*args, **kwargs):
                tracer._push(name, None, spanned)
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    tracer._error(module, exc)
                    raise
                finally:
                    tracer._pop(name, spanned)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn_name
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever an idemod module binds it."""
        wrappers = {}
        for (module, fn_name), spanned in traced_names().items():
            fn = getattr(sys.modules[f"idemod.{module}"], fn_name)
            wrappers[id(fn)] = self.wrap(module, fn_name, fn, spanned)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "idemod" or mod_name.startswith("idemod.")):
                continue
            ns = vars(mod)
            for key, value in list(ns.items()):
                if id(value) in wrappers:
                    ns[key] = wrappers[id(value)]
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            value[k] = wrappers[id(v)]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "request"]}\n')
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
