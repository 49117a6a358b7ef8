"""Correctness gate for one benchmark pass.

A pass is correct when the CLI exited 0, ``passed == 1`` holds in its
``summary.json`` and, for a sweep, in every ``case_NNN/summary.json`` (the
sweep's own summary only counts cases), and the named summary values agree
with the values the seed commit computed, within the tolerances below.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

#: c_star_min / c_star_max of the ``wave`` experiment, by kernel sigma
WAVE = {
    0.75: {"c_star_min": 0.08422314068207415,
           "c_star_max": 0.11764169700563333},
    1.0: {"c_star_min": 0.11229598783944876,
          "c_star_max": 0.15685301855070366},
    1.5: {"c_star_min": 0.16840819708966945,
          "c_star_max": 0.23527415545730818},
    2.0: {"c_star_min": 0.22428536244912844,
          "c_star_max": 0.31365203329334695},
}
#: the ``front`` experiment at the default config
FRONT = {"y_s": -3.985130363232024, "speed_min": 0.13473480930242676,
         "speed_max": 0.14116634514868906, "width_max": 13.823064017949815}
#: the ``tails`` experiment at the default config
TAILS = {"right_rate": 0.2228645152551267, "left_rate": 0.8209287033348323}

#: absolute tolerances.  The wave speeds come from a Newton solve to a
#: residual of 1e-8; y_s is bisected to |u(0,0) - theta| <= 2.5e-7, which
#: moves it by about 1e-5 at the front's slope; the speeds, width and tail
#: rates follow from y_s and the discrete trajectory.
TOLERANCE = {"c_star_min": 1e-6, "c_star_max": 1e-6, "y_s": 1e-4,
             "speed_min": 1e-4, "speed_max": 1e-4, "width_max": 1e-3,
             "right_rate": 1e-3, "left_rate": 1e-3}

#: the comparison principle's own gate in ``frontlab comparison``
MARGIN_FLOOR = -1e-8


def _load(path: Path, problems: list[str]) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as err:
        problems.append(f"{path}: {err}")
        return None


def check_pass(out_dir: Path, exit_code: int, cases: list[dict] | None = None,
               pairs: int | None = None) -> list[str]:
    """Every way the pass in ``out_dir`` differs from a correct one.

    ``cases`` lists, for a sweep, the expected values of each case in order;
    ``pairs`` is the pair count of a comparison run.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    summary = _load(out_dir / "summary.json", problems)
    if summary is not None and summary.get("passed") != 1:
        problems.append(f"{out_dir}: passed != 1")
    for i, expected in enumerate(cases or []):
        case_dir = out_dir / f"case_{i:03d}"
        case = _load(case_dir / "summary.json", problems)
        if case is None:
            continue
        if case.get("passed") != 1:
            problems.append(f"{case_dir}: passed != 1")
        for key, ref in expected.items():
            value = case.get(key)
            if (not isinstance(value, (int, float))
                    or not abs(value - ref) <= TOLERANCE[key]):
                problems.append(f"{case_dir}: {key} = {value}, expected "
                                f"{ref} +- {TOLERANCE[key]}")
    if pairs is not None and summary is not None:
        if summary.get("pairs") != pairs:
            problems.append(f"pairs = {summary.get('pairs')}, expected "
                            f"{pairs}")
        margin = summary.get("min_margin")
        if (not isinstance(margin, (int, float)) or math.isnan(margin)
                or margin < MARGIN_FLOOR):
            problems.append(f"min_margin = {margin} < {MARGIN_FLOOR}")
    return problems
