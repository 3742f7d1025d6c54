"""The scenario-matrix cfg grammar.

A spec is a line-oriented text file (stdlib parser, no YAML dependency)
with four kinds of content::

    # comment                         blank lines and #-comments ignored
    name = detection-recall           top-level defaults: key = value
    seed = 42

    [axis workload]                   an axis and its values
    quiet                             a value with no overrides
    steady: churn_operations = 6      a value overriding parameters
    bursty: churn_operations = 24, rebalance_moves = 2

    only steady..settled, quiet       tp-libvirt style variant filters
    no bursty..cold                   ("," = or, ".." = and)

    [override bursty..probe=deep]     per-variant overrides for every
    wait_seconds = 20.0               variant matching the filter

The cartesian product of all axes defines the matrix; ``only`` keeps
matching variants, ``no`` drops them, and ``[override ...]`` sections
patch parameters of whatever survives.  Filter terms are either a bare
value label (matches that label on any axis) or ``axis=label``.

Parameters are validated against the fleet harness's real knob set
(:data:`~repro.cloud.fleet.WARM_KEYS` feed the shared warm-up prefix,
:data:`~repro.cloud.fleet.BRANCH_KEYS` the divergent branch phase); an
unknown key is a parse error, not a
silently ignored typo.  Values coerce to int/float/bool/None with
``on/off``, ``true/false``, ``yes/no`` and ``none`` spellings; the
``faults`` value uses the compact ``mix[#stream]:count@horizon`` form
(for example ``mixed:5@240`` or ``infra#2:3@180``) and
``migration_capabilities`` is a ``+``-separated capability list
(``dedup``).
"""

import re

from repro.cloud.fleet import BRANCH_KEYS, WARM_KEYS
from repro.errors import ReproError


class MatrixSpecError(ReproError):
    """A malformed matrix spec (parse or validation failure)."""


_ALL_KEYS = frozenset(WARM_KEYS) | frozenset(BRANCH_KEYS)

#: Value labels and axis names: word characters plus the separators
#: that never collide with the grammar (no ``=``, ``,``, ``:`` or
#: whitespace — those delimit assignments and filters).
_LABEL_RE = re.compile(r"^[A-Za-z0-9_.#+-]+$")

_KNOWN_CAPABILITIES = ("dedup", "xbzrle", "auto-converge", "postcopy-ram")

_FAULTS_RE = re.compile(
    r"^(?P<mix>[a-z_]+)(?:#(?P<branch>[A-Za-z0-9_]+))?"
    r":(?P<count>\d+)@(?P<horizon>\d+(?:\.\d+)?)$"
)


def coerce_value(text):
    """One cfg scalar: int, float, bool, None, or a bare string."""
    lowered = text.lower()
    if lowered in ("on", "true", "yes"):
        return True
    if lowered in ("off", "false", "no"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_fault_spec(text):
    """``mix[#stream]:count@horizon`` → ``(mix, stream, count, horizon)``.

    ``None``/``"none"`` means fault-free and returns None.  The mix
    name is validated against the chaos catalog so a typo fails at
    parse time, not three warm-ups into a run.
    """
    if text is None or text == "none":
        return None
    from repro.faults.chaos import STANDARD_MIXES

    match = _FAULTS_RE.match(str(text))
    if not match:
        raise MatrixSpecError(
            f"bad faults spec {text!r} (expected mix[#stream]:count@horizon,"
            " e.g. mixed:5@240)"
        )
    mix = match.group("mix")
    if mix not in STANDARD_MIXES:
        raise MatrixSpecError(
            f"unknown fault mix {mix!r} in faults spec {text!r} "
            f"(choose from {sorted(STANDARD_MIXES)})"
        )
    return (
        mix,
        match.group("branch"),
        int(match.group("count")),
        float(match.group("horizon")),
    )


def _validate_param(key, value, where):
    if key not in _ALL_KEYS:
        raise MatrixSpecError(
            f"{where}: unknown parameter {key!r} "
            f"(warm keys: {', '.join(WARM_KEYS)}; "
            f"branch keys: {', '.join(BRANCH_KEYS)})"
        )
    if key == "faults":
        parse_fault_spec(value)
    if key == "migration_capabilities" and value is not None:
        names = tuple(str(value).split("+"))
        for name in names:
            if name not in _KNOWN_CAPABILITIES:
                raise MatrixSpecError(
                    f"{where}: unknown migration capability {name!r} "
                    f"(choose from {_KNOWN_CAPABILITIES})"
                )
        return names
    if key == "probes" and value is not None:
        # Same ``+``-joined shape as migration_capabilities, validated
        # against the probe catalog (imported lazily: the registry
        # pulls in the detection stack, which spec parsing shouldn't).
        from repro.probes.base import registered_probes

        names = tuple(str(value).split("+"))
        known = registered_probes()
        for name in names:
            if name not in known:
                raise MatrixSpecError(
                    f"{where}: unknown probe {name!r} "
                    f"(choose from {', '.join(known)})"
                )
        if len(set(names)) != len(names):
            raise MatrixSpecError(f"{where}: probe listed twice in {value!r}")
        return names
    return value


def _parse_assignments(text, where):
    """``k = v, k2 = v2`` → dict (validated, coerced)."""
    params = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise MatrixSpecError(f"{where}: expected key = value, got {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        value = coerce_value(raw.strip())
        if key in params:
            raise MatrixSpecError(f"{where}: duplicate key {key!r}")
        params[key] = _validate_param(key, value, where)
    return params


def parse_filter(expr, where="filter"):
    """A tp-libvirt style filter expression, parsed.

    ``a..b, c`` means (a AND b) OR c.  Terms are bare labels or
    ``axis=label`` pairs.  Returns a tuple of alternatives, each a
    tuple of ``(axis_or_None, label)`` terms.
    """
    alternatives = []
    for alt in expr.split(","):
        alt = alt.strip()
        if not alt:
            raise MatrixSpecError(f"{where}: empty alternative in {expr!r}")
        terms = []
        for term in alt.split(".."):
            term = term.strip()
            if not term:
                raise MatrixSpecError(f"{where}: empty term in {expr!r}")
            if "=" in term:
                axis, _, label = term.partition("=")
                axis, label = axis.strip(), label.strip()
            else:
                axis, label = None, term
            if not _LABEL_RE.match(label) or (axis and not _LABEL_RE.match(axis)):
                raise MatrixSpecError(f"{where}: bad filter term {term!r}")
            terms.append((axis, label))
        alternatives.append(tuple(terms))
    return tuple(alternatives)


class Axis:
    """One axis: a name and its ordered ``(label, overrides)`` values."""

    def __init__(self, name):
        self.name = name
        self.values = []  # [(label, params dict), ...]

    @property
    def labels(self):
        return [label for label, _params in self.values]

    def __repr__(self):
        return f"<Axis {self.name} x{len(self.values)}>"


class MatrixSpec:
    """A parsed matrix spec: defaults, axes, filters, overrides."""

    def __init__(self, name="matrix"):
        self.name = name
        self.defaults = {}
        self.axes = []
        #: ``("only"|"no", parsed_filter, raw_text)`` in file order.
        self.filters = []
        #: ``(parsed_filter, raw_text, params)`` in file order.
        self.overrides = []

    # -- parsing -------------------------------------------------------

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read(), source=str(path))

    @classmethod
    def loads(cls, text, source="<matrix>"):
        spec = cls()
        section = None  # None | ("axis", Axis) | ("override", params)
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            where = f"{source}:{lineno}"
            stripped = line.strip()
            if stripped.startswith("["):
                section = spec._parse_section_header(stripped, where)
                continue
            if stripped.startswith(("only ", "no ")):
                # Filters are global wherever they appear, and close
                # the section they interrupt.
                section = None
                spec._parse_top_level(stripped, where)
                continue
            if section is None:
                spec._parse_top_level(stripped, where)
            elif section[0] == "axis":
                spec._parse_axis_value(section[1], stripped, where)
            else:
                spec._parse_override_line(section[1], stripped, where)
        spec._validate()
        return spec

    def _parse_section_header(self, line, where):
        if not line.endswith("]"):
            raise MatrixSpecError(f"{where}: unterminated section header {line!r}")
        header = line[1:-1].strip()
        kind, _, rest = header.partition(" ")
        rest = rest.strip()
        if kind == "axis":
            if not _LABEL_RE.match(rest or ""):
                raise MatrixSpecError(f"{where}: bad axis name {rest!r}")
            if any(axis.name == rest for axis in self.axes):
                raise MatrixSpecError(f"{where}: duplicate axis {rest!r}")
            axis = Axis(rest)
            self.axes.append(axis)
            return ("axis", axis)
        if kind == "override":
            if not rest:
                raise MatrixSpecError(f"{where}: [override] needs a filter")
            params = {}
            self.overrides.append(
                (parse_filter(rest, where), rest, params)
            )
            return ("override", params)
        raise MatrixSpecError(
            f"{where}: unknown section {kind!r} (expected [axis NAME] "
            "or [override FILTER])"
        )

    def _parse_top_level(self, line, where):
        for keyword in ("only", "no"):
            prefix = keyword + " "
            if line.startswith(prefix):
                expr = line[len(prefix):].strip()
                self.filters.append((keyword, parse_filter(expr, where), expr))
                return
        if "=" not in line:
            raise MatrixSpecError(
                f"{where}: expected key = value, only/no filter, or a "
                f"section header; got {line!r}"
            )
        key, _, raw = line.partition("=")
        key, value = key.strip(), coerce_value(raw.strip())
        if key == "name":
            if not _LABEL_RE.match(str(value)):
                raise MatrixSpecError(f"{where}: bad matrix name {value!r}")
            self.name = str(value)
            return
        if key in self.defaults:
            raise MatrixSpecError(f"{where}: duplicate default {key!r}")
        self.defaults[key] = _validate_param(key, value, where)

    def _parse_axis_value(self, axis, line, where):
        label, sep, rest = line.partition(":")
        label = label.strip()
        if not _LABEL_RE.match(label):
            raise MatrixSpecError(f"{where}: bad value label {label!r}")
        if label in axis.labels:
            raise MatrixSpecError(
                f"{where}: duplicate label {label!r} on axis {axis.name!r}"
            )
        params = _parse_assignments(rest, where) if sep else {}
        axis.values.append((label, params))

    def _parse_override_line(self, params, line, where):
        params.update(_parse_assignments(line, where))

    # -- validation ----------------------------------------------------

    def _validate(self):
        if not self.axes:
            raise MatrixSpecError(f"matrix {self.name!r} declares no axes")
        for axis in self.axes:
            if not axis.values:
                raise MatrixSpecError(
                    f"axis {axis.name!r} declares no values"
                )
        known = {
            (axis.name, label) for axis in self.axes for label in axis.labels
        }
        known_labels = {label for _axis, label in known}
        axis_names = {axis.name for axis in self.axes}
        for parsed, raw in [
            (parsed, raw) for _kind, parsed, raw in self.filters
        ] + [(parsed, raw) for parsed, raw, _params in self.overrides]:
            for alternative in parsed:
                for axis, label in alternative:
                    if axis is not None:
                        if axis not in axis_names:
                            raise MatrixSpecError(
                                f"filter {raw!r} names unknown axis {axis!r}"
                            )
                        if (axis, label) not in known:
                            raise MatrixSpecError(
                                f"filter {raw!r} names unknown value "
                                f"{axis}={label}"
                            )
                    elif label not in known_labels:
                        raise MatrixSpecError(
                            f"filter {raw!r} names unknown label {label!r}"
                        )

    # -- introspection -------------------------------------------------

    @property
    def cartesian_count(self):
        """Variant count before filters (the raw cartesian product)."""
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count

    def describe_lines(self):
        """Deterministic axis/filter summary for ``repro matrix list``."""
        lines = [
            f"matrix {self.name}: {len(self.axes)} axes, "
            f"{self.cartesian_count} cartesian variants"
        ]
        for key in sorted(self.defaults):
            lines.append(f"  default  {key} = {self.defaults[key]}")
        for axis in self.axes:
            lines.append(
                f"  axis     {axis.name:<12} {', '.join(axis.labels)}"
            )
        for kind, _parsed, raw in self.filters:
            lines.append(f"  filter   {kind} {raw}")
        for _parsed, raw, params in self.overrides:
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            lines.append(f"  override {raw}: {rendered}")
        return lines

    def __repr__(self):
        return (
            f"<MatrixSpec {self.name} axes={len(self.axes)} "
            f"cartesian={self.cartesian_count}>"
        )
