"""Turning (t0, t1, t2) into a verdict.

The decision logic follows §VI-B directly:

* **no L1** — t1 is significantly larger than t2 (step-1 pages merged
  with the guest's copy; step-2 pages found no partner);
* **L1 present** — t1 and t2 are both merged-class (the impersonating
  L1 still holds the original file after L2 changed its copy);
* **inconclusive** — t1 never showed merging (KSM off, file not
  resident in the VM, or the wait was too short).

"Significantly larger" is a median ratio against the t0 baseline, plus
a Mann-Whitney U test between t1 and t2 for the significance annotation
— medians are robust to the occasional page that failed to merge.
"""

import math
import statistics

from repro.errors import DetectionError

#: A sample class is "merged" when its median exceeds this multiple of
#: the t0 baseline median (CoW faults are ~3 orders of magnitude above
#: plain writes, so the threshold is insensitive across a wide band).
MERGED_RATIO_THRESHOLD = 8.0


class DetectionVerdict:
    """The classifier's output."""

    def __init__(self, verdict, medians, merged_flags, p_value):
        self.verdict = verdict  # "nested" | "clean" | "inconclusive"
        self.median_t0, self.median_t1, self.median_t2 = medians
        self.t1_merged, self.t2_merged = merged_flags
        self.t1_vs_t2_p_value = p_value

    @property
    def nested_vm_detected(self):
        return self.verdict == "nested"

    def explanation(self):
        if self.verdict == "inconclusive":
            return (
                "t1 shows no deduplication against the baseline — KSM may "
                "be off, or File-A never resided in the VM; no conclusion."
            )
        if self.verdict == "clean":
            return (
                f"t1 (median {self.median_t1:.1f}us) is merged-class but t2 "
                f"(median {self.median_t2:.1f}us) dropped to baseline after "
                "the guest changed its copy: the partner page tracks the "
                "guest directly — no hidden hypervisor."
            )
        return (
            f"t1 (median {self.median_t1:.1f}us) and t2 (median "
            f"{self.median_t2:.1f}us) are BOTH merged-class even though the "
            "guest changed its copy: something else still holds the "
            "original file — a hidden L1 hypervisor (CloudSkulk)."
        )

    def __repr__(self):
        return f"<DetectionVerdict {self.verdict}>"


def _average_ranks(values):
    """1-based ranks with ties averaged, plus the size of every tie group."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    tie_sizes = []
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and values[order[end]] == values[order[start]]:
            end += 1
        for index in order[start:end]:
            ranks[index] = (start + end + 1) / 2
        if end - start > 1:
            tie_sizes.append(end - start)
        start = end
    return ranks, tie_sizes


def _u_counts(n1, n2):
    """How many of the C(n1+n2, n1) orderings give each U statistic.

    These are the coefficients of the Gaussian binomial coefficient
    ``[n1+n2 choose k]_q`` with ``k = min(n1, n2)``, built as
    ``prod_{i=1..k} (1 - q^(n-k+i)) / (1 - q^i)`` in exact integers.
    Both steps only read lower coefficients, so truncating at degree
    ``n1*n2`` (the polynomial's degree) loses nothing.
    """
    k, n = min(n1, n2), n1 + n2
    counts = [1] + [0] * (n1 * n2)
    for i in range(1, k + 1):
        shift = n - k + i
        for degree in range(len(counts) - 1, shift - 1, -1):
            counts[degree] -= counts[degree - shift]
        for degree in range(i, len(counts)):
            counts[degree] += counts[degree - i]
    return counts


def mann_whitney_p(x, y):
    """Two-sided Mann-Whitney U p-value for samples ``x`` and ``y``.

    Computes what ``scipy.stats.mannwhitneyu(x, y, alternative=
    "two-sided")`` does with its default ``method="auto"``: the exact
    null distribution when either sample has at most 8 values and no
    value is tied, otherwise the normal approximation with tie and
    continuity correction.  The normal tail uses ``math.erfc``, which
    keeps full relative precision for the tiny p-values of well
    separated samples.
    """
    n1, n2 = len(x), len(y)
    ranks, tie_sizes = _average_ranks(list(x) + list(y))
    u1 = sum(ranks[:n1]) - n1 * (n1 + 1) / 2
    u = max(u1, n1 * n2 - u1)
    if min(n1, n2) <= 8 and not tie_sizes:
        counts = _u_counts(n1, n2)
        # P(U >= u) by symmetry: the mass at or below n1*n2 - u.
        p_value = 2 * sum(counts[: n1 * n2 - int(u) + 1]) / math.comb(n1 + n2, n1)
    else:
        n = n1 + n2
        tie_term = sum(t**3 - t for t in tie_sizes)
        sigma = math.sqrt(n1 * n2 / 12 * ((n + 1) - tie_term / (n * (n - 1))))
        if sigma == 0.0:
            # Every value tied: no evidence either way.
            return 1.0
        z = (u - n1 * n2 / 2 - 0.5) / sigma
        # Two standard-normal tails beyond z: 2 * P(N(0, 1) >= z).
        p_value = math.erfc(z / math.sqrt(2.0))
    # Both branches double a one-sided mass that reaches past 1/2 when u
    # sits at the centre of the distribution.
    return min(p_value, 1.0)


def classify(t0_us, t1_us, t2_us, ratio_threshold=MERGED_RATIO_THRESHOLD):
    """Classify one detection run's three measurement series."""
    for name, series in (("t0", t0_us), ("t1", t1_us), ("t2", t2_us)):
        if not series:
            raise DetectionError(f"empty measurement series {name}")
    median_t0 = statistics.median(t0_us)
    median_t1 = statistics.median(t1_us)
    median_t2 = statistics.median(t2_us)
    if median_t0 <= 0:
        raise DetectionError("degenerate t0 baseline")
    t1_merged = median_t1 > ratio_threshold * median_t0
    t2_merged = median_t2 > ratio_threshold * median_t0

    if len(t1_us) > 1 and len(t2_us) > 1:
        p_value = mann_whitney_p(t1_us, t2_us)
    else:
        p_value = float("nan")

    if not t1_merged:
        verdict = "inconclusive"
    elif t2_merged:
        verdict = "nested"
    else:
        verdict = "clean"
    return DetectionVerdict(
        verdict,
        (median_t0, median_t1, median_t2),
        (t1_merged, t2_merged),
        p_value,
    )
