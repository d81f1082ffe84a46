"""Output checks: every row the program returns is compared with an
answer the benchmark computed for itself.

Each check returns the number of rows it rejects; a rejected row counts
as a failed operation and fails the run.
"""

from __future__ import annotations

import numpy as np

#: float parity tolerance, relative to the reference output's scale
TOL = 1e-6


def close(out, ref, tol=TOL) -> bool:
    """True when *out* matches *ref* within ``tol * max(1, |ref|max)``."""
    out = np.asarray(out)
    ref = np.asarray(ref)
    if out.shape != ref.shape:
        return False
    scale = max(1.0, float(np.max(np.abs(ref))))
    return bool(np.max(np.abs(out - ref)) <= tol * scale)


def bad_rows(phase, candidates) -> int:
    """Completed rows of *phase* matching none of *candidates*.

    ``candidates`` has shape ``(n_candidates, n_samples, n_out)``: the
    outputs each acceptable path (the primary or a ladder tier) gives
    for every input sample.
    """
    bad = 0
    for i in phase.completed_index():
        row = phase.rows[i]
        if not any(close(row, c[phase.sample[i]]) for c in candidates):
            bad += 1
    return bad


def generation_rows(phase, by_generation, windows):
    """Check *phase*'s rows against the weight generations in force.

    ``by_generation[g]`` holds every sample's output under generation
    ``g`` (0 is the initial weights); ``windows[k - 1]`` is the
    ``(start, end)`` of the publish call that installed generation
    ``k``.  A row must match a generation installed no earlier than the
    last publish finished before it was sent and no later than the last
    publish started before it completed.

    Returns ``(bad, torn)``.  A row matching no such generation is
    *torn* when its request overlapped a publish call: the shared weight
    store documents that a batch running during a swap may mix two
    adjacent generations.  Any other mismatch is *bad*.
    """
    starts = np.asarray([w[0] for w in windows], dtype=float)
    ends = np.asarray([w[1] for w in windows], dtype=float)
    bad = torn = 0
    for i in phase.completed_index():
        t_sent, t_done = phase.t_sent[i], phase.t_done[i]
        lo = int(np.sum(ends <= t_sent))
        hi = int(np.sum(starts <= t_done))
        row = phase.rows[i]
        sample = phase.sample[i]
        if any(close(row, by_generation[g][sample]) for g in range(lo, hi + 1)):
            continue
        if np.any((starts <= t_done) & (ends >= t_sent)):
            torn += 1
        else:
            bad += 1
    return bad, torn


def monotone(versions) -> bool:
    """True when *versions* never decreases."""
    return all(b >= a for a, b in zip(versions, versions[1:]))
