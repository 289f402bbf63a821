"""Structured pass/fail records for verified identities."""


class InternalInvariantError(RuntimeError):
    """A derived object violated an invariant the construction guarantees."""


def summarize_residual(obj):
    """Short text for a residual series / multivector / form (None: zero), cut at 100 chars."""
    text = "0" if obj is None else obj.render()
    return text if len(text) <= 100 else text[:100] + " ..."


class CheckEntry:
    """
    One verified identity: name, stable tag, the fiber order at which the
    residual is certified, pass/fail, and a residual summary.

    ``required=False`` marks informational entries that do not affect the
    overall verdict.
    """

    def __init__(self, name, tag, certified_order, passed, residual="0",
                 required=True, detail=None):
        self.name = name
        self.tag = tag
        self.certified_order = certified_order
        self.passed = bool(passed)
        self.residual = residual
        self.required = required
        self.detail = detail

    def to_dict(self):
        d = {
            "name": self.name,
            "tag": self.tag,
            "certified_order": self.certified_order,
            "passed": self.passed,
            "residual": self.residual,
            "required": self.required,
        }
        if self.detail is not None:
            d["detail"] = self.detail
        return d

    def render(self):
        mark = "PASS" if self.passed else "FAIL"
        if not self.required:
            mark = "info"
        line = "  [%s] %-34s tag=%s order=%s" % (mark, self.name, self.tag,
                                                 self.certified_order)
        if not self.passed or self.residual != "0":
            line += "  residual: %s" % self.residual
        return line


class CheckReport:
    def __init__(self, title, entries=None):
        self.title = title
        self.entries = list(entries) if entries else []

    def add(self, *args, **kwargs):
        self.entries.append(CheckEntry(*args, **kwargs))
        return self.entries[-1]

    def add_residuals(self, name, tag, residuals, empty_order, required=True):
        """
        Add one entry for an identity checked as an iterable of residual
        series or tensors: it passes when every residual is zero, certifies
        the least of their orders (``empty_order`` when there are none) and
        shows the first nonzero residual.
        """
        order, worst = None, None
        for res in residuals:
            order = res.valid_order if order is None else min(order, res.valid_order)
            if worst is None and not res.is_zero():
                worst = res
        return self.add(name, tag, empty_order if order is None else order,
                        worst is None, summarize_residual(worst), required=required)

    def extend(self, other):
        self.entries.extend(other.entries)

    @property
    def passed(self):
        return all(e.passed for e in self.entries if e.required)

    def require(self, error, message):
        r"""Raise error(message + ":\n" + rendering) when a required entry failed."""
        if not self.passed:
            raise error(message + ":\n" + self.render())

    def to_dict(self):
        return {
            "title": self.title,
            "passed": self.passed,
            "entries": [e.to_dict() for e in self.entries],
        }

    def render(self):
        lines = ["%s: %s" % (self.title, "PASS" if self.passed else "FAIL")]
        lines.extend(e.render() for e in self.entries)
        return "\n".join(lines)

    def __repr__(self):
        return "<CheckReport %s %s>" % (self.title, "PASS" if self.passed else "FAIL")
