"""Spans and work counters at the public boundaries of each dqkit module.

Nothing under src/ is edited: ``Tracer.install`` replaces the listed public
functions, methods and constructors with timing wrappers, in every loaded
module namespace that holds a reference to them (``from .diffop import
compose_into_slot`` binds a copy in ``dqkit.starprod``, ``dqkit.cli`` and the
package namespace), and ``uninstall`` puts the originals back.

Self time is computed while the spans run: each open span accumulates the
duration of its direct children, and on exit its self time is its duration
minus that sum.  Spans nest strictly in one thread, so this equals the span
time minus the part of it covered by child spans.

Every span above the kernel is also kept in memory as (name, start, end,
parent, job) and written out by ``write_spans``.  Kernel-level spans (``Poly``
arithmetic and the operator constructor) run millions of times per pass; they
are aggregated but not stored one by one, to keep memory bounded.

Counters are derived only from arguments and return values:

- ``diffop.compose.term_pairs``: |outer terms| x |inner terms| per call
- ``diffop.compose.out_terms``: terms in the composed operator
- ``starprod.assoc_defect.cancel_ratio``: terms left in the defects over the
  terms returned by the compose calls made directly inside ``assoc_defect``
- ``starprod.specialize.unknowns``: size of the solve's unknown basis: the
  ``hochschild_delta`` calls made directly by ``specialize`` that return a
  nonzero operator (each is one candidate column), without the last call of
  a failed solve, which computes the residual
- ``starprod.specialize.solved_ratio``: calls that returned over calls
- ``parser.parse.bytes`` / ``parser.serialize.bytes``: characters read by
  ``parse_document`` and written by the outermost serializer call (without
  the digits of a report's ``timing_ms``, so that counts repeat exactly)
"""

from __future__ import annotations

import json
import sys
import time

# (span name, module, attribute path, stored one by one)
TARGETS = (
    ("kernel.poly_init", "dqkit.kernel", "Poly.__init__", False),
    ("kernel.poly_add", "dqkit.kernel", "Poly.__add__", False),
    ("kernel.poly_mul", "dqkit.kernel", "Poly.__mul__", False),
    ("kernel.partial_multi", "dqkit.kernel", "Poly.partial_multi", False),
    ("kernel.tpoly_mul", "dqkit.kernel", "TPoly.__mul__", False),
    ("diffop.op_init", "dqkit.diffop", "PolyDiffOp.__init__", False),
    ("diffop.compose", "dqkit.diffop", "compose_into_slot", True),
    ("diffop.apply", "dqkit.diffop", "apply_op", True),
    ("diffop.delta", "dqkit.diffop", "hochschild_delta", True),
    ("starprod.assoc_defect", "dqkit.starprod", "assoc_defect", True),
    ("starprod.gauge_transform", "dqkit.starprod", "gauge_transform", True),
    ("starprod.invert_gauge", "dqkit.starprod", "invert_gauge", True),
    ("starprod.specialize", "dqkit.starprod", "specialize", True),
    ("parser.parse", "dqkit.parser", "parse_document", True),
    ("parser.serialize", "dqkit.parser", "serialize_document", True),
    ("parser.serialize", "dqkit.parser", "document_to_obj", True),
    ("parser.serialize", "dqkit.parser", "canonical_json", True),
    ("parser.serialize", "dqkit.parser", "star_to_payload", True),
    ("parser.serialize", "dqkit.parser", "gauge_to_payload", True),
    ("parser.serialize", "dqkit.parser", "diffop_to_payload", True),
    ("parser.serialize", "dqkit.parser", "tensor_to_payload", True),
    ("parser.serialize", "dqkit.parser", "algebroid_to_payload", True),
    ("parser.serialize", "dqkit.parser", "poly_to_text", True),
    ("cli.dispatch", "dqkit.cli", "dispatch", True),
    ("poisson.is_poisson", "dqkit.poisson", "is_poisson", True),
    ("poisson.lichnerowicz_d", "dqkit.poisson", "lichnerowicz_d", True),
    ("calculus.schouten", "dqkit.calculus", "schouten", True),
    ("liealgebroid.check_algebroid", "dqkit.liealgebroid", "check_algebroid", True),
    ("qclimit.mc_defect", "dqkit.qclimit", "mc_defect", True),
)

# Names whose nested entries (a span inside a span of the same name) are
# part of one call: the serializers call each other.
MERGE_NESTED = {"parser.serialize"}

JOB = "job"

COUNTERS = (
    "diffop.compose.term_pairs",
    "diffop.compose.out_terms",
    "starprod.assoc_defect.surviving_terms",
    "starprod.assoc_defect.compose_terms",
    "starprod.specialize.unknowns",
    "starprod.specialize.solved",
    "parser.parse.bytes",
    "parser.serialize.bytes",
)


class Tracer:
    def __init__(self):
        self.names = []
        self.ids = {}
        self.calls = []
        self.self_s = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.stack = []          # open frames: [child seconds, name id, stored span index]
        self.spans = []          # stored spans: (name id, start, end, parent index, job)
        self.job = None
        self._spec_columns = []  # per delta call inside the open specialize: nonzero?
        self._patched = []       # (owner, attribute, original)
        self._merge_ids = {self._id(n) for n in MERGE_NESTED}

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self.ids[name]

    # ------------------------------------------------------------------
    # spans

    def _enter(self, sid, store):
        stack = self.stack
        parent = stack[-1][2] if stack else -1
        if store:
            idx = len(self.spans)
            self.spans.append(None)
        else:
            idx = parent
        frame = [0.0, sid, idx, parent]
        stack.append(frame)
        return frame

    def _exit(self, frame, t0, t1, store):
        stack = self.stack
        stack.pop()
        dur = t1 - t0
        sid = frame[1]
        self.self_s[sid] += dur - frame[0]
        if stack:
            stack[-1][0] += dur
        if not (sid in self._merge_ids and stack and stack[-1][1] == sid):
            self.calls[sid] += 1
        if store:
            self.spans[frame[2]] = (sid, t0, t1, frame[3], self.job)

    def job_span(self, job_id, fn):
        """Run fn() as the root span of one job."""
        self.job = job_id
        sid = self._id(JOB)
        frame = self._enter(sid, True)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self._exit(frame, t0, time.perf_counter(), True)
            self.job = None

    def _wrapper(self, name, fn, store):
        sid = self._id(name)
        enter, exit_, pc = self._enter, self._exit, time.perf_counter
        post = self._post_hooks.get(name)

        if post is None and not store:
            stack = self.stack
            calls, self_s = self.calls, self.self_s

            def fast(*args, **kwargs):
                frame = [0.0, sid, stack[-1][2] if stack else -1, None]
                stack.append(frame)
                t0 = pc()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dur = pc() - t0
                    stack.pop()
                    calls[sid] += 1
                    self_s[sid] += dur - frame[0]
                    if stack:
                        stack[-1][0] += dur

            return fast

        def traced(*args, **kwargs):
            frame = enter(sid, store)
            result = exc = None
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = pc()
                parent_sid = self.stack[-2][1] if len(self.stack) > 1 else None
                exit_(frame, t0, t1, store)
                if post is not None:
                    post(args, result, exc, parent_sid, sid)

        return traced

    # ------------------------------------------------------------------
    # counters

    def _post_compose(self, args, result, exc, parent_sid, sid):
        if exc is not None:
            return
        outer, _, inner = args[:3]
        self.counts["diffop.compose.term_pairs"] += len(outer.terms) * len(inner.terms)
        self.counts["diffop.compose.out_terms"] += len(result.terms)
        if parent_sid == self.ids.get("starprod.assoc_defect"):
            self.counts["starprod.assoc_defect.compose_terms"] += len(result.terms)

    def _post_assoc(self, args, result, exc, parent_sid, sid):
        if exc is None:
            self.counts["starprod.assoc_defect.surviving_terms"] += sum(len(D.terms) for D in result)

    def _post_delta(self, args, result, exc, parent_sid, sid):
        if exc is None and parent_sid == self.ids.get("starprod.specialize"):
            self._spec_columns.append(any(c.terms for c in result.terms.values()))

    def _post_specialize(self, args, result, exc, parent_sid, sid):
        columns, self._spec_columns = self._spec_columns, []
        if exc is None:
            self.counts["starprod.specialize.solved"] += 1
        elif type(exc).__name__ == "SolveError":
            columns = columns[:-1]  # the residual of the failed solve
        else:
            return
        self.counts["starprod.specialize.unknowns"] += sum(columns)

    def _post_parse(self, args, result, exc, parent_sid, sid):
        self.counts["parser.parse.bytes"] += len(args[0])

    def _post_serialize(self, args, result, exc, parent_sid, sid):
        if isinstance(result, str) and parent_sid != sid:
            size = len(result)
            obj = args[0] if args else None
            if isinstance(obj, dict) and "timing_ms" in obj:
                size -= len(json.dumps(obj["timing_ms"]))  # the one value that varies
            self.counts["parser.serialize.bytes"] += size

    @property
    def _post_hooks(self):
        return {
            "diffop.compose": self._post_compose,
            "diffop.delta": self._post_delta,
            "starprod.assoc_defect": self._post_assoc,
            "starprod.specialize": self._post_specialize,
            "parser.parse": self._post_parse,
            "parser.serialize": self._post_serialize,
        }

    # ------------------------------------------------------------------
    # patching

    def install(self):
        for name, modname, path, store in TARGETS:
            module = sys.modules[modname]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                original = cls.__dict__[attr]
                wrapped = self._wrapper(name, original, store)
                # aliases such as __radd__ = __add__ share the wrapper
                for key, value in list(cls.__dict__.items()):
                    if value is original:
                        self._patched.append((cls, key, original))
                        setattr(cls, key, wrapped)
            else:
                original = getattr(module, attr)
                wrapped = self._wrapper(name, original, store)
                for mod in list(sys.modules.values()):
                    space = getattr(mod, "__dict__", None)
                    if not space:
                        continue
                    for key, value in list(space.items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    # ------------------------------------------------------------------
    # results

    def totals(self):
        """{name: (calls, self seconds)} over every span recorded so far."""
        return {n: (self.calls[i], self.self_s[i]) for i, n in enumerate(self.names)}

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"name": self.names[sid], "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
