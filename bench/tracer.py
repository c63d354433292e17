"""Spans around the calls into qrenyi's public functions.

``Tracer.install`` replaces each traced function, wherever a ``qrenyi``
module binds it by name, with a wrapper that records a span (id, parent id,
name, start, end).  Spans stay in memory until ``write``.  Per function the
tracer keeps the call count, the self time (span minus its child spans) and
the number of ``linalg.hermitian_eig`` spans at or below its spans.
"""

import json
import sys
import time

EIG = "linalg.hermitian_eig"

TRACED = (
    EIG,
    "linalg.support_of",
    "linalg.partial_trace",
    "states.substream",
    "states.random_density",
    "channels.apply",
    "channels.apply_adjoint",
    "divergences.srd",
    "divergences.classify_supports",
    "divergences.h_hat",
    "divergences.conditional_renyi",
    "divergences.renyi_entropy",
    "dpi.dpi_check",
    "dpi.equality_residual",
    "dpi.sufficiency_test",
    "dpi.dpi_violation_search",
    "entanglement.reof_minimize",
)

#: Modules whose ``minimize`` binding is wrapped to sum ``nfev``.
NFEV = ("divergences", "entanglement")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stats = {name: [0, 0.0, 0] for name in TRACED}
        self.nfev = {mod: 0 for mod in NFEV}
        self._stack = []
        self._next_id = 0
        self._undo = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        own_eig = 1 if name == EIG else 0
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0, own_eig]  # id, child time, eig count
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                stats[0] += 1
                stats[1] += dur - frame[1]
                stats[2] += frame[2]
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += frame[2]
                self.spans.append((span_id, parent, name, start, end))

        return traced

    def _wrap_minimize(self, mod, fn):
        def counted(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.nfev[mod] += int(res.nfev)
            return res

        return counted

    def install(self):
        """Wrap every traced function in every loaded qrenyi module."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "qrenyi"]
        for name in TRACED:
            mod, attr = name.split(".")
            original = getattr(sys.modules["qrenyi." + mod], attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))
        for mod in NFEV:
            m = sys.modules["qrenyi." + mod]
            self._undo.append((m, "minimize", m.minimize))
            m.minimize = self._wrap_minimize(mod, m.minimize)

    def uninstall(self):
        for m, key, original in reversed(self._undo):
            setattr(m, key, original)
        self._undo.clear()

    def metrics(self):
        out = {}
        for name, (calls, self_s, eig) in self.stats.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.eig_per_call"] = (eig / calls if calls else 0.0, "eig/call")
        for mod, n in self.nfev.items():
            out[f"{mod}.minimize.nfev"] = (n, "count")
        return out

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start_s": start - t0, "end_s": end - t0}
                    )
                    + "\n"
                )
