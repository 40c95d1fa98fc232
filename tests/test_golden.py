"""Golden outputs: `hubroster run --scenario all` on three committed instances
writes files whose SHA-256 digests are recorded in ``golden/digests.json``.

The instances are what `hubroster generate` wrote for them, so no numpy
draw of the generator is in the chain:

- ``paper52``: the paper's day (52 hubs, 1,173,253 parcels) at seed 42;
- ``replan15``: the same network and arrivals, replanned every 15 minutes
  with a 3 h dwell (only its ``config.json`` is stored);
- ``dense6``: 3M parcels over 6 hubs at seed 2, where scenario 3 has 17,497
  late parcels in paper noise, so the lateness path is pinned too.

Each instance runs in both noise modes; the paper-noise run also writes the
forecast dumps (``--debug-forecasts``). A change that means to move an
output re-records the digests with
``PYTHONPATH=src python tests/test_golden.py`` and says so.
"""

import contextlib
import hashlib
import io
import json
import shutil
import sys
from pathlib import Path

import pytest

from hubroster import engine as engine_module
from hubroster.cli import main
from hubroster.config import load_config, params_from_config
from hubroster.demand import read_arrivals_csv
from hubroster.network import load_network

GOLDEN = Path(__file__).resolve().parent / "golden"
DIGESTS = GOLDEN / "digests.json"
INSTANCES = ("paper52", "replan15", "dense6")
MODES = {"paper": ["--noise", "paper", "--debug-forecasts"], "perfect": ["--noise", "perfect"]}


def _run(instance: str, flags: list[str], out: Path) -> dict[str, str]:
    """Run every scenario with ``flags`` on a copy of ``instance`` in
    ``out``; return the digest of every file the run wrote."""
    out.mkdir(parents=True)
    for name in ("network.json", "arrivals.csv"):
        src = GOLDEN / instance / name
        shutil.copy(src if src.exists() else GOLDEN / "paper52" / name, out / name)
    shutil.copy(GOLDEN / instance / "config.json", out / "config.json")
    inputs = {p.name for p in out.iterdir()}
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["run", "--out", str(out), "--scenario", "all", *flags])
    assert code == 0, f"{instance} {flags}: hubroster run exited {code}"
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name not in inputs
    }


@pytest.mark.parametrize("instance", INSTANCES)
def test_run_writes_the_golden_outputs(instance, tmp_path):
    recorded = json.loads(DIGESTS.read_text())[instance]
    for noise, flags in MODES.items():
        got = _run(instance, flags, tmp_path / noise)
        want = recorded[noise]
        differ = sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))
        assert not differ, f"{instance} --noise {noise}: these outputs differ from the golden digests: {differ}"


def _counting_searches(monkeypatch) -> list[int]:
    """Count the plan's candidate searches (one per call of the engine's
    ``combine_within_hub_detail``) in the one-element list returned."""
    combine = engine_module.combine_within_hub_detail
    count = [0]

    def counting(*args):
        count[0] += 1
        return combine(*args)

    monkeypatch.setattr(engine_module, "combine_within_hub_detail", counting)
    return count


def test_a_second_run_in_one_process_searches_as_much_as_the_first(monkeypatch, tmp_path):
    # a run keeps nothing for the next run in the process: both write the
    # same files with as many searches
    count = _counting_searches(monkeypatch)
    runs = []
    for i in range(2):
        count[0] = 0
        runs.append((_run("replan15", ["--noise", "paper"], tmp_path / str(i)), count[0]))
    assert runs[0] == runs[1]


def test_replan15_scenario_1_searches_once_per_row_the_bound_keeps(monkeypatch):
    # on replan15 at seed 42, 1,844 of scenario 1's residual rows hold a
    # unit before the stop; the bound leaves out 1,425 that can give no kept
    # run, and each of the other 419 is searched once
    count = _counting_searches(monkeypatch)
    cfg = load_config(GOLDEN / "replan15" / "config.json")
    sc = engine_module.ScenarioConfig(
        1,
        load_network(GOLDEN / "paper52" / "network.json"),
        read_arrivals_csv(GOLDEN / "paper52" / "arrivals.csv"),
        params_from_config(cfg),
    )
    plan = engine_module.RollingPlan(sc)
    select, fix_lengths = plan._select, plan._fix_lengths
    keepable = engine_module.kernels.keepable_rows
    rows = held = stop = 0

    def counting_rows(residual, *args):
        nonlocal rows
        rows += len(residual)
        return select(residual, *args)

    def recording_stop(*args):
        nonlocal stop
        need = fix_lengths(*args)
        stop = len(need)
        return need

    def counting_held(rem, first_slot, need, dwell):
        nonlocal held
        held += int(rem[:stop].any(axis=0).sum())
        return keepable(rem, first_slot, need, dwell)

    monkeypatch.setattr(plan, "_select", counting_rows)
    monkeypatch.setattr(plan, "_fix_lengths", recording_stop)
    monkeypatch.setattr(engine_module.kernels, "keepable_rows", counting_held)
    engine_module.run_scenario(sc, plan)
    assert (count[0], rows, held) == (419, 419, 1844)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        doc = {i: {n: _run(i, flags, Path(tmp, i, n)) for n, flags in MODES.items()} for i in INSTANCES}
    DIGESTS.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"recorded {sum(len(m) for d in doc.values() for m in d.values())} digests -> {DIGESTS}", file=sys.stderr)
