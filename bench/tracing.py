"""
Spans around the calls into each layer of the program, recorded from the
benchmark's side: the public functions are replaced, in every loaded module
that holds them (``from ... import`` copies included), by wrappers that time
the call; methods are wrapped on their class.

A span has a name, start, end, the span that caused it and the verdict it
belongs to.  Spans of the coarse layers are kept in memory as records and
written out when the run ends.  The series ring and the parser are called
millions of times per pass, so their spans are folded into per-name totals
as they close instead of being stored one by one; they still count towards
their parent's child time.  Self time is a span's duration minus the time
its child spans cover.
"""

import sys
import time
from collections import defaultdict

# (module, attribute path, span name).  Coarse layers: stored spans.
STORED = [
    ("multivector", "wedge", "multivector.wedge"),
    ("multivector", "interior", "multivector.interior"),
    ("multivector", "schouten", "multivector.schouten"),
    ("multivector", "jacobiator", "multivector.jacobiator"),
    ("multivector", "lie_derivative", "multivector.lie_derivative"),
    ("connection", "Connection.cov_ext_deriv", "connection.cov_ext_deriv"),
    ("connection", "Connection.curvature", "connection.curvature"),
    ("coupling", "assemble", "coupling.assemble"),
    ("coupling", "decompose", "coupling.decompose"),
    ("coupling", "v_sharp", "coupling.v_sharp"),
    ("coupling", "verify_coupling_conditions", "coupling.verify_coupling_conditions"),
    ("algebroid", "check_admissible", "algebroid.check_admissible"),
    ("algebroid", "build_geometric_data", "algebroid.build_geometric_data"),
    ("algebroid", "build_coupling", "algebroid.build_coupling"),
    ("algebroid", "coisotropy_check", "algebroid.coisotropy_check"),
    ("algebroid", "change_connection", "algebroid.change_connection"),
    ("algebroid", "verify_connection_equivalence", "algebroid.verify_connection_equivalence"),
    ("algebroid", "relative_cocycle", "algebroid.relative_cocycle"),
    ("algebroid", "cocycle_hform", "algebroid.cocycle_hform"),
    ("moser", "build_family", "moser.build_family"),
    ("moser", "phi_bracket", "moser.phi_bracket"),
    ("moser", "solve_homological", "moser.solve_homological"),
    ("moser", "horizontal_field", "moser.horizontal_field"),
    ("moser", "verify_deformation_equation", "moser.verify_deformation_equation"),
    ("moser", "numeric_pullback_check", "moser.numeric_pullback_check"),
    ("linearize", "linearize_data", "linearize.linearize_data"),
    ("linearize", "extract_algebroid", "linearize.extract_algebroid"),
    ("holonomy", "parallel_transport", "holonomy.parallel_transport"),
    ("holonomy", "holonomy_compare", "holonomy.holonomy_compare"),
    ("series", "matrix_invert", "series.matrix_invert"),
    ("report", "CheckReport.render", "report.render"),
    ("report", "CheckReport.to_dict", "report.to_dict"),
    ("cli", "main", "cli.main"),
]

# Hot layers: folded into totals.
FOLDED = [
    ("series", "FiberSeries.__init__", "series.init"),
    ("series", "FiberSeries.__mul__", "series.mul"),
    ("series", "FiberSeries.__add__", "series.add"),
    ("series", "FiberSeries.diff", "series.diff"),
    ("series", "FiberSeries.evaluate_float", "series.evaluate_float"),
    ("series", "mat_mul", "series.mat_mul"),
    ("parse", "parse_series", "parse.parse_series"),
]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.verdict = None
        self.stack = []          # open spans: [child_time, stored_id or None]
        self.spans = []          # (name, start, end, parent_id, verdict)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])   # name -> calls, s, self s
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)

    def _parent_id(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def wrap(self, name, fn, stored, after=None):
        tracer = self
        clock = self.clock

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer.stack
            sid = None
            if stored:
                sid = len(tracer.spans)
                parent = tracer._parent_id()
                tracer.spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                rec = tracer.totals[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if stored:
                    tracer.spans[sid] = (name, t0, t1, parent, tracer.verdict)
            if after is not None:
                after(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def take(self):
        """Totals and counters since the last call, then reset them."""
        totals, counters, maxima = self.totals, self.counters, self.maxima
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        return totals, counters, maxima


def _after_mul(tracer, args, out):
    a, b = args
    if hasattr(b, "terms"):
        tracer.counters["series.mul.term_pairs"] += len(a.terms) * len(b.terms)
    n = len(out.terms)
    tracer.counters["series.mul.terms_out"] += n
    if n > tracer.maxima["series.mul.max_terms"]:
        tracer.maxima["series.mul.max_terms"] = n


def _after_parse(tracer, args, out):
    tracer.counters["parse.chars"] += len(args[0])


AFTER = {"series.mul": _after_mul, "parse.parse_series": _after_parse}


def install(clock=time.perf_counter):
    """Wrap every listed layer; returns the tracer, whose spans are timed
    with ``clock``."""
    tracer = Tracer(clock)
    for table, stored in ((STORED, True), (FOLDED, False)):
        for module, attr, name in table:
            mod = sys.modules["fiberpoisson." + module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                wrapped = tracer.wrap(name, fn, stored, AFTER.get(name))
                # aliases such as __radd__ = __add__ share the function
                for key, value in list(cls.__dict__.items()):
                    if value is fn:
                        setattr(cls, key, wrapped)
            else:
                fn = getattr(mod, attr)
                wrapped = tracer.wrap(name, fn, stored, AFTER.get(name))
                for other in list(sys.modules.values()):
                    if getattr(other, "__dict__", None) is None:
                        continue
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapped)
    return tracer
