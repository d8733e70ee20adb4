"""Per-op correctness checks.

Each check returns the list of reasons the op failed; an empty list
means it passed.  Every reason names one condition, so a tampered
report shows which condition caught it.
"""

from __future__ import annotations

import json
import math

from moduncert.frames import Frame
from moduncert.module_space import from_json as vector_from_json
from moduncert.verify_search import recompute_gap

BOUND_TOL = 1e-12       # report bound vs closed form from an independent coherence
REPLAY_TOL = 1e-9       # best_gap vs its replay through recompute_gap
SEARCH_GAP_FLOOR = -1e-6
KNOWN_GAP_TOL = 1e-3    # |best_gap| on a pair whose bound is attained (gap 0)


def _parse(rc: int, report_text: str | None) -> tuple[dict | None, list[str]]:
    if rc != 0:
        return None, [f"exit code {rc}"]
    try:
        report = json.loads(report_text)
    except (TypeError, json.JSONDecodeError) as e:
        return None, [f"report does not parse: {e}"]
    if not isinstance(report, dict):
        return None, ["report is not a JSON object"]
    return report, []


def _frames_and_bound(report: dict, digest: str, bound_value: float) -> list[str]:
    errors = []
    if report.get("frames_digest") != digest:
        errors.append("frames_digest differs from the generated frames")
    got = report.get("bound_value")
    if not isinstance(got, (int, float)) or not abs(got - bound_value) <= BOUND_TOL:
        errors.append(f"bound_value {got!r} differs from closed form {bound_value!r}")
    return errors


def check_verify(rc: int, report_text: str | None, csv_text: str | None, *,
                 trials: int, digest: str, bound_value: float) -> list[str]:
    """A verify op passes when it exits 0, reports the requested trials on
    the generated frames, states the closed-form bound, finds no
    violation, and writes one CSV row per trial plus a header."""
    report, errors = _parse(rc, report_text)
    if report is None:
        return errors
    if report.get("trials") != trials:
        errors.append(f"trials {report.get('trials')!r} != {trials}")
    errors += _frames_and_bound(report, digest, bound_value)
    if report.get("violations") != []:
        errors.append("report lists violations")
    rows = None if csv_text is None else len(csv_text.splitlines())
    if rows != trials + 1:
        errors.append(f"CSV has {rows} rows, expected {trials + 1}")
    return errors


def check_search(rc: int, report_text: str | None, *, frame_a: Frame, frame_b: Frame,
                 digest: str, bound_value: float, known_gap_zero: bool) -> list[str]:
    """A search op passes when it exits 0 on the generated frames, states
    the closed-form bound, reports no gap below -1e-6, and its best_x
    replays to the reported gap; where the bound is attained, the gap
    must also be within 1e-3 of zero."""
    report, errors = _parse(rc, report_text)
    if report is None:
        return errors
    errors += _frames_and_bound(report, digest, bound_value)
    gap = report.get("best_gap")
    if not isinstance(gap, (int, float)) or not math.isfinite(gap):
        return errors + [f"best_gap {gap!r} is not a number"]
    if gap < SEARCH_GAP_FLOOR:
        errors.append(f"best_gap {gap!r} below {SEARCH_GAP_FLOOR}")
    if known_gap_zero and abs(gap) > KNOWN_GAP_TOL:
        errors.append(f"|best_gap| {abs(gap)!r} above {KNOWN_GAP_TOL} where the bound is attained")
    try:
        x = vector_from_json(report.get("best_x"), what="best_x")
        replay, _ = recompute_gap(frame_a, frame_b, x, "maassen_uffink")
    except Exception as e:  # any failure to replay fails the op, whatever raised
        return errors + [f"best_x does not replay: {type(e).__name__}: {e}"]
    if not abs(replay - gap) <= REPLAY_TOL:
        errors.append(f"best_x replays to {replay!r}, report says {gap!r}")
    return errors
