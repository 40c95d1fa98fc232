"""The mutation gate: one-line edits of ``src/`` that named tests must catch.

Each entry of ``MUTATIONS`` breaks one exact shortcut (the ``stop`` cut,
the ``keepable_rows`` bound, the resumed FIFO walk, the trial bounds, copy
emission, the lead memo, the merge filters) or boundary convention:
``(file, exact old text, new text, why, catcher test ids)``. For each entry
the script copies the whole checkout to a temporary directory
(``pyproject.toml`` puts the checkout's own ``src/`` first on pytest's
path, so a copy of ``src/`` alone would test the unmutated code), replaces
the old text, which must occur exactly once in its file, and runs only the
catchers in the copy. It fails unless every catcher fails under every
entry. A mutation that no test catches is a test to write, not an entry to
drop::

    PYTHONPATH=src python tests/mutations.py          # the gate
    PYTHONPATH=src python tests/mutations.py --all    # the catch matrix

``--all`` runs the whole Tier-1 suite under each entry instead and prints
one JSON line per entry with every test that fails (``null`` if the suite
ran past 5 minutes). Read it before deleting a test: a test may go when
every entry it catches keeps another catcher.

Two shortcuts are deliberately not entries: ``engine.roster_tables``
skipping the rest and move walk for a one-hub working shift, and
``WorkforcePool.simulate_hires`` returning at once when no worker is
pooled. Removing either changes no output and no count, only the time.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS, ENGINE, SHIFTS = "src/hubroster/_kernels.py", "src/hubroster/engine.py", "src/hubroster/shifts.py"
POOL, LEDGER = "src/hubroster/pool.py", "src/hubroster/ledger.py"

SMALL_DAYS = "tests/test_reference_engine.py::test_the_engine_equals_the_reference_engine_on_small_days"
ONE_HIRE = "tests/test_reference_engine.py::test_a_one_hire_budget_merges_a_pair"
SEARCH_PIN = "tests/test_golden.py::test_replan15_scenario_1_searches_once_per_row_the_bound_keeps"
GOLDEN = "tests/test_golden.py::test_run_writes_the_golden_outputs[paper52]"
FIX_CUT = "tests/test_engine.py::test_fix_reach_cut_leaves_every_output_unchanged[defaults]"
FIFO = "tests/test_demand.py::test_fifo_match_units_capacity_free_tail_matches_the_reference"
KEEPABLE = "tests/test_demand.py::test_keepable_rows_rules_out_only_rows_that_keep_no_run"
WITHIN = "tests/test_shift_builder.py::test_within_hub_runs_matches_full_scan"
MERGE = "tests/test_shift_builder.py::test_merge_runs_matches_all_pairs_scan"
UNTOUCHED = "tests/test_engine.py::test_merge_returns_untouched_shifts_by_identity_in_order"
POOL_SCAN = "tests/test_pool.py::test_bucketed_pool_matches_linear_scan"
REST = "tests/test_engine.py::test_merged_shift_rests_end_to_end"
REWALK = "tests/test_acceptance.py::test_series_and_flows_match_roster_rewalk"
WRITERS = "tests/test_engine.py::test_writers_render_the_rows_csv_writer_would"

MUTATIONS = [
    # the FIFO residual walk
    (KERNELS, "np.maximum(prev, lapsed, out=row)", "row[...] = prev",
     "the walk drops the expiry term: capacity serves units past their dwell window",
     (FIFO, "tests/test_demand.py::test_deduct_serves_oldest_origin_within_dwell")),
    (ENGINE, "dwell, self.settled_at, self.cleared)", "dwell, first_slot, self.cleared)",
     "the plan's walk resumes at first_slot, past the slots the last step fixed runs in", (SMALL_DAYS, FIX_CUT)),
    (KERNELS, "tail = n - staffed[::-1].index(True) if", "tail = n - 1 - staffed[::-1].index(True) if",
     "the walk stops one slot early: the last staffed slot's capacity serves nobody",
     (FIFO, "tests/test_demand.py::test_deduct_basic")),
    # the keepable_rows bound
    (KERNELS, "if end <= n:", "if end < n:", "the bound leaves out spans that end at the horizon", (KEEPABLE, FIX_CUT)),
    (KERNELS, "end = t0 + max(1, need[t0])", "end = t0 + need[t0]",
     "a forced start's empty span keeps every row: only the search counts see it",
     (SEARCH_PIN, KEEPABLE, "tests/test_engine.py::test_rolling_steps_skip_the_hubs_and_runs_they_cannot_fix")),
    # the plan
    (ENGINE, "first_slot, stop)[0]:", "first_slot, stop - 1)[0]:",
     "the search stops one slot short of the fix-length table's end", (SMALL_DAYS, FIX_CUT)),
    (ENGINE, "math.floor(edge) + 1)", "math.floor(edge))", "the forced prefix of the fix-length table is one slot short",
     (SMALL_DAYS, "tests/test_engine.py::test_fix_lengths_keep_exactly_the_runs_whose_value_reaches_the_threshold")),
    (ENGINE, "        kept.sort()\n        return kept", "        return kept",
     "_select returns its runs hub by hub, not in (start, hub, end) order", (SMALL_DAYS, FIX_CUT)),
    (ENGINE, "length = memo.get(lead)", "length = None", "the lead memo is never read",
     ("tests/test_engine.py::test_fix_lengths_read_back_from_the_lead_memo_equal_a_fresh_plans[15]",)),
    (ENGINE, "if run != last:", "if True:", "every copy of a run is booked as a Shift of its own",
     ("tests/test_engine.py::test_engines_on_one_plan_book_its_shifts",)),
    (ENGINE, "if start < stop and end - start", "if start <= stop and end - start",
     "the selection reads the fix length of a start past the table", (SMALL_DAYS, GOLDEN)),
    (ENGINE, "self._column = {h: i for i, h in enumerate(self.hub_ids)}", "self._column = dict.fromkeys(self.hub_ids, 0)",
     "the plan books every kept run's capacity at the first hub",
     (SMALL_DAYS, "tests/test_engine.py::test_perfect_prediction_zero_lateness_and_conservation")),
    (ENGINE, "rng = np.random.default_rng(self.cfg.params.seed)", "rng = np.random.default_rng()",
     "the forecast noise is drawn afresh on every run, whatever the seed",
     ("tests/test_acceptance.py::test_criterion_10_determinism", "tests/test_cli.py::test_run_outputs_are_reproducible")),
    (ENGINE, "rng = np.random.default_rng(self.cfg.params.seed)", "rng = np.random.default_rng(0)",
     "every seed draws the same forecast noise", (GOLDEN, SEARCH_PIN)),
    (ENGINE, "if self.number == 3:", "if self.number == 4:", "scenario 3 replans like scenario 1",
     ("tests/test_engine.py::test_scenario3_fixes_everything_at_day_start", "tests/test_engine.py::test_a_scenario_is_its_number[3]")),
    # the merge and its hire budget
    (SHIFTS, "if shift.working_h < max_work_h:", "if shift.working_h < max_work_h - 1:",
     "the short-run filter leaves out runs one hour short of the cap", (SMALL_DAYS, UNTOUCHED)),
    (ENGINE, "if not budget:", "if budget <= 1:", "a one-hire budget skips the merge", (ONE_HIRE,)),
    (ENGINE, "[x.working_h for x in kept]", "[x.working_h + 1 for x in kept]",
     "the hire budget counts every shift an hour longer", (SMALL_DAYS,)),
    (KERNELS, "lo = bisect_left(starts_2, e1 + lead)", "lo = bisect_right(starts_2, e1 + lead)",
     "the merge misses partners that start exactly one travel lead after the first run", (MERGE, UNTOUCHED)),
    (KERNELS, "if room < 1:", "if room < 2:", "a run one hour short of the cap takes no partner", (MERGE, UNTOUCHED)),
    (SHIFTS, "(shifts[ka], shifts[kb]) if a_first else (shifts[kb], shifts[ka])", "(shifts[ka], shifts[kb])",
     "a merged pair is always worked in pair order", (UNTOUCHED, "tests/test_engine.py::test_engine_rosters_pass_validate_shift")),
    (SHIFTS, "Segment(h2, cursor, s2, RESTING)", "Segment(first.segments[-1].hub_id, cursor, s2, RESTING)",
     "a merged shift rests at the hub it left", (REST, UNTOUCHED)),
    # the within-hub search
    (KERNELS, "runs.extend([run] * more)", "runs.extend([run] * (more + 1))",
     "a repeated run is emitted once too often", (WITHIN, SMALL_DAYS)),
    (KERNELS, "more = min(map(avail.__getitem__, best))", "more = 0",
     "copy emission off: each copy of a run costs a search of its own", (SEARCH_PIN, WITHIN)),
    (KERNELS, "        if oldest < t - dwell:\n            oldest = t - dwell\n", "",
     "a trial never moves its oldest origin up to the dwell window",
     (WITHIN, "tests/test_shift_builder.py::test_trial_run_matches_earliest_deadline_scan")),
    (KERNELS, "if bound[t0] <= longest:", "if bound[t0] < longest:",
     "the trial bound tries starts that can only tie the best run", (SEARCH_PIN,)),
    (KERNELS, "if bound[t0] <= longest:", "if bound[t0] <= longest + (longest > 0):",
     "the trial bound skips starts one longer than the best run", (WITHIN, SMALL_DAYS)),
    (KERNELS, "if pick >= clamped:", "if pick >= clamped - 1:", "a trial breaks deadline ties one origin early",
     ("tests/test_shift_builder.py::test_trial_run_matches_earliest_deadline_scan", WITHIN)),
    (KERNELS, "for s in range(start_min, n - max_run + 1):", "for s in range(start_min, n - max_run):",
     "a full-length run that ends at the horizon is not extracted first", (WITHIN, FIX_CUT)),
    (KERNELS, "end = n if stop is None or stop > n else stop", "end = n", "the search ignores its stop",
     (WITHIN, "tests/test_shift_builder.py::test_combine_leaves_its_row_unchanged")),
    (KERNELS, "return runs, avail, dropped", "return runs, [0] * n, dropped",
     "the search reports no unserved units", (WITHIN, "tests/test_shift_builder.py::test_combine_leaves_its_row_unchanged")),
    # the pool
    (POOL, "if q and (oldest is None or q[0] < oldest[0]):", "if q and oldest is None:",
     "the pool takes the first fitting bucket's head, not the longest-idle worker",
     (POOL_SCAN, "tests/test_pool.py::test_release_finished_and_states")),
    (POOL, "    for q in buckets[need:]:", "    for q in buckets[need + 1 :]:",
     "a worker whose budget fits the shift exactly is passed over", (POOL_SCAN, SMALL_DAYS)),
    (POOL, "        ids.sort()\n", "", "released workers are pooled in heap order, not id order", (POOL_SCAN, SMALL_DAYS)),
    # the ledger's tiers
    (LEDGER, "if lead_time_h < bound:", "if lead_time_h <= bound:",
     "a lead exactly at an emergency tier boundary pays the dearer tier",
     ("tests/test_ledger.py::test_emergency_tiers[2-10]", "tests/test_engine.py::test_forced_fix_books_emergency_tier")),
    (LEDGER, "distance_m <= MOVING_TIER_M", "distance_m < MOVING_TIER_M",
     "a move of exactly the tier distance pays the far price",
     ("tests/test_ledger.py::test_moving_tiers[3000-10]", "tests/test_acceptance.py::test_criterion_01_price_table")),
    # the outputs
    (ENGINE, "key = (src, dst, (seg.start_h // 6) * 6)", "key = (src, dst, seg.start_h)",
     "flows are keyed by the raw travel start, not its six-hour window",
     ("tests/test_engine.py::test_flow_windows_aggregate_by_six_hours", REWALK)),
    (ENGINE, "            if seg.kind == RESTING:\n", "            if False:\n", "the resting rows leave out every rest",
     (REST, REWALK)),
    (SHIFTS, "yield src, dst, seg", "yield dst, src, seg", "a move is reported from its destination", (REWALK, SMALL_DAYS)),
    (SHIFTS, "cursor = e1 + math.ceil(pair.travel_time_h)", "cursor = e1 + round(pair.travel_time_h)",
     "travel is rounded to the nearest slot, not up to whole slots",
     ("tests/test_shift_builder.py::test_merge_leaves_rest_for_long_gap", REST)),
    (ENGINE, '"%s,%s,%s,%s,%s,%s,%s,%g"', '"%s,%s,%s,%s,%s,%s,%s,%s"', "the roster writes a fix time as str",
     (WRITERS, GOLDEN)),
    ("src/hubroster/demand.py", '"%s,%s,%s,%.3f"', '"%s,%s,%s,%.2f"', "the forecast dump rounds to 2 decimals",
     (WRITERS, GOLDEN)),
    (LEDGER, '"%s,%s,%.2f"', '"%s,%s,%.1f"', "the ledger CSV rounds to one decimal",
     (WRITERS, "tests/test_ledger.py::test_csv_report_layout")),
    # the replay
    (KERNELS, "if t > head[0] + dwell:", "if t >= head[0] + dwell:", "a parcel served at its deadline counts late",
     ("tests/test_engine.py::test_replay_dwell_window_service_is_on_time", "tests/test_acceptance.py::test_criterion_04_dwell_lateness")),
    (KERNELS, "if origin + dwell < n:", "if origin + dwell <= n:", "an unserved parcel due on the next day counts late",
     ("tests/test_engine.py::test_replay_unserved_with_deadline_beyond_horizon_rolls_over", SMALL_DAYS)),
    # the fix rule and the input checks
    ("src/hubroster/valuation.py", "return value >= threshold", "return value > threshold",
     "a run whose value equals the threshold is not fixed",
     ("tests/test_valuation.py::test_should_fix_examples", "tests/test_acceptance.py::test_criterion_07_value_regression")),
    ("src/hubroster/_inputs.py", "if isinstance(value, bool) or not isinstance(", "if not isinstance(",
     "a JSON bool passes as a number",
     ("tests/test_engine.py::test_scenario_params_reject_out_of_range[max-work-bool]",
      "tests/test_cli.py::test_run_rejects_a_value_of_the_wrong_type")),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work", ".benchmarks")
# pytest, with hypothesis reporting a failing example as drawn: shrinking it
# would only slow the gate
NO_SHRINK = """import sys, hypothesis, pytest
hypothesis.settings.register_profile("gate", phases=[p for p in hypothesis.Phase if p.name != "shrink"])
hypothesis.settings.load_profile("gate")
sys.exit(pytest.main(sys.argv[1:]))"""
PYTEST = [sys.executable, "-c", NO_SHRINK, "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE"]


def _failing(entry, tests: list[str]) -> set[str]:
    """The ids of the tests that fail or error when pytest runs ``tests``
    (every test if none is named) on a copy of the checkout mutated by
    ``entry``; ``ValueError`` unless the old text occurs exactly once."""
    file, old, new, _why, _catchers = entry
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp, "checkout")
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        path = copy / file
        text = path.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{file}: the old text occurs {text.count(old)} times, not once: {old!r}")
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        run = subprocess.run(PYTEST + tests, cwd=copy, env=env, capture_output=True, text=True, timeout=300)
    return {m.group(1) for m in re.finditer(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)}


def check(entry) -> str | None:
    """What is wrong with one entry under the gate, or None."""
    catchers = entry[4]
    if not catchers:
        return "it names no catcher"
    try:
        missed = sorted(set(catchers) - _failing(entry, list(catchers)))
    except (ValueError, subprocess.TimeoutExpired) as exc:
        return str(exc)
    return f"it survives {missed}" if missed else None


def matrix(entry) -> dict:
    """Every Tier-1 test that fails under one entry."""
    try:
        caught = sorted(_failing(entry, ["--continue-on-collection-errors"]))
    except subprocess.TimeoutExpired:
        caught = None
    return {"why": entry[3], "caught_by": caught}


def main(argv: list[str]) -> int:
    with ThreadPoolExecutor(min(2, os.cpu_count() or 1)) as pool:
        if argv == ["--all"]:
            for row in pool.map(matrix, MUTATIONS):
                print(json.dumps(row), flush=True)
            return 0
        problems = list(pool.map(check, MUTATIONS))
    for (file, _old, _new, why, _catchers), problem in zip(MUTATIONS, problems):
        print(f"{'FAIL' if problem else 'ok  '} {file}: {why}" + (f": {problem}" if problem else ""))
    caught = problems.count(None)
    print(f"{caught} of {len(MUTATIONS)} mutations fail every test they name")
    return 0 if caught == len(MUTATIONS) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
