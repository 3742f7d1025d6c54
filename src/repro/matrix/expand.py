"""Deterministic expansion of a :class:`MatrixSpec` into variants.

Expansion is the cartesian product of the axes in declaration order,
filtered by the spec's ``only``/``no`` expressions (plus any extra
filters the caller passes — the CLI's ``--only``/``--no``), with
override sections patched onto every surviving variant in file order.

Variant IDs are derived from axis *values*, never from enumeration
order: ``axis=label`` pairs sorted by axis name and joined with
commas, e.g. ``ksm=settled,probe=p12,seed=s0,workload=steady``.
Reordering axes in the spec, adding a filter, or inserting a new axis
value therefore never renames the variants that survive — which is
what makes expected-result pinning stable across spec edits.
"""

import itertools

from repro.cloud.fleet import group_by_warm, split_params
from repro.matrix.spec import MatrixSpecError, parse_filter


class Variant:
    """One expanded cell of the matrix.

    ``labels`` maps axis name → value label (axis declaration order);
    ``params`` is the fully resolved parameter dict (defaults, then
    axis overrides, then matching ``[override]`` sections).
    """

    def __init__(self, labels, params):
        self.labels = dict(labels)
        self.params = dict(params)

    @property
    def variant_id(self):
        return ",".join(
            f"{axis}={label}" for axis, label in sorted(self.labels.items())
        )

    def warm_key(self):
        """Hashable identity of the warm-up prefix this variant needs.

        Variants with equal warm keys replay byte-identical warm-ups,
        so the runner groups them onto one snapshot and forks each.
        """
        return tuple(sorted(split_params(self.params)[0].items()))

    def matches(self, parsed_filter):
        """True when any alternative of ``parsed_filter`` matches."""
        for alternative in parsed_filter:
            for axis, label in alternative:
                if axis is not None:
                    if self.labels.get(axis) != label:
                        break
                elif label not in self.labels.values():
                    break
            else:
                return True
        return False

    def __repr__(self):
        return f"<Variant {self.variant_id}>"


def _as_parsed(expr, where):
    if expr is None:
        return None
    if isinstance(expr, str):
        return parse_filter(expr, where)
    return expr


def expand(spec, only=None, no=None):
    """Expand ``spec`` into its :class:`Variant` list.

    ``only``/``no`` are extra filter expressions (strings or
    pre-parsed) applied after the spec's own filters — the CLI's
    sub-selection hook.  Raises :class:`MatrixSpecError` when the
    result is empty, which is always a spec (or filter) bug.
    """
    only = _as_parsed(only, "--only")
    no = _as_parsed(no, "--no")
    variants = []
    axis_names = [axis.name for axis in spec.axes]
    for combo in itertools.product(*(axis.values for axis in spec.axes)):
        labels = dict(zip(axis_names, (label for label, _params in combo)))
        params = dict(spec.defaults)
        for _label, value_params in combo:
            params.update(value_params)
        variant = Variant(labels, params)
        keep = True
        for kind, parsed, _raw in spec.filters:
            if kind == "only" and not variant.matches(parsed):
                keep = False
                break
            if kind == "no" and variant.matches(parsed):
                keep = False
                break
        if keep and only is not None and not variant.matches(only):
            keep = False
        if keep and no is not None and variant.matches(no):
            keep = False
        if not keep:
            continue
        for parsed, _raw, override_params in spec.overrides:
            if variant.matches(parsed):
                variant.params.update(override_params)
        variants.append(variant)
    if not variants:
        raise MatrixSpecError(
            f"matrix {spec.name!r} expands to zero variants "
            "(filters eliminated everything)"
        )
    seen = {}
    for variant in variants:
        if variant.variant_id in seen:
            raise MatrixSpecError(
                f"duplicate variant id {variant.variant_id!r}"
            )
        seen[variant.variant_id] = variant
    return variants


def group_by_warm_key(variants):
    """Warm-fork grouping: ``[(warm_key, [variants...]), ...]``.

    The same grouping the runner's executor applies
    (:func:`~repro.cloud.fleet.group_by_warm`): groups in order of
    first appearance, variants in expansion order within their group.
    """
    return [
        (tuple(sorted(warm.items())), [variant for variant, _b in members])
        for warm, members in group_by_warm((v, v.params) for v in variants)
    ]
